"""The verification model against the algorithms it replaced.

collapse_fibers maps only the top simplices of the staircase product and
closes their images once, the size cap is predicted from face counts,
and sparse_rank_and_factors sweeps the rows once for unit pivots;
tests/oracles.py keeps the close-then-map collapse, the full product
closure and the Markowitz-heap elimination.  Every test runs both on the
same inputs and requires equal answers.
"""

import random

import pytest

from oracles import close_then_map_collapse, heap_rank_and_factors, staircase_closure
from tquot import gallery, simplicial
from tquot.classify import ProductPolytopeSurface, StratificationOnly, classify
from tquot.exactq import sparse_rank_and_factors
from tquot.simplicial import (
    SizeCapExceeded,
    barycentric_pair,
    boundary_subcomplex_of_polytope,
    collapse_fibers,
    is_full_subcomplex,
    product_size,
    surface_complex,
    verify_report,
)


def verifiable_reports():
    reports = {}
    for name in gallery.names():
        report = classify(gallery.build(name))
        if not isinstance(report.verdict, StratificationOnly):
            reports[name] = report
    return reports


def model_pair(report):
    """The (base, sub, fiber) that verify_report collapses."""
    sp = report.stratification
    full, sub = boundary_subcomplex_of_polytope(sp, sp.short_faces)
    verdict = report.verdict
    genus = verdict.genus if isinstance(verdict, ProductPolytopeSurface) else 0
    return full, sub, surface_complex(genus)


def collapsed_base(base, sub):
    """The base the product is taken over: base itself when sub is full."""
    if sub.simplices and not is_full_subcomplex(base, sub):
        return barycentric_pair(base, sub)[0]
    return base


REPORTS = verifiable_reports()


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_collapse_matches_close_then_map(name):
    base, sub, fiber = model_pair(REPORTS[name])
    model = collapse_fibers(base, sub, fiber)
    reference = close_then_map_collapse(base, sub, fiber)
    assert model.simplices == reference.simplices
    assert model.labels == reference.labels


def test_collapse_covers_both_branches():
    full = {is_full_subcomplex(base, sub) for base, sub, _ in map(model_pair, REPORTS.values())}
    assert full == {True, False}


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_product_size_is_the_closure_size(name):
    base, sub, _ = model_pair(REPORTS[name])
    for b in (base, collapsed_base(base, sub)):
        for genus in range(3):
            fiber = surface_complex(genus)
            assert product_size(b, fiber) == len(staircase_closure(b, fiber)[0])


@pytest.mark.parametrize("name", ["gr2c4", "s2cubed", "sigma-g-x-s2"])
def test_cap_at_the_product_size(name):
    report = REPORTS[name]
    base, sub, fiber = model_pair(report)
    size = product_size(collapsed_base(base, sub), fiber)
    assert verify_report(report, max_simplices=size).passed
    with pytest.raises(SizeCapExceeded) as exc:
        verify_report(report, max_simplices=size - 1)
    assert exc.value.estimate == size
    assert exc.value.cap == size - 1


def test_boundary_matrices_match_heap_elimination(monkeypatch):
    seen = []

    def both(entries, nrows, ncols):
        result = sparse_rank_and_factors(entries, nrows, ncols)
        assert result == heap_rank_and_factors(entries, nrows, ncols)
        seen.append(len(entries))
        return result

    monkeypatch.setattr(simplicial, "sparse_rank_and_factors", both)
    for name, report in REPORTS.items():
        assert verify_report(report).passed, name
    # gr2c4's collapsed model alone has boundary matrices with thousands of entries
    assert len(seen) > 30 and max(seen) > 10000


def test_random_matrices_match_heap_elimination():
    rng = random.Random(5)
    for _ in range(600):
        nr, nc = rng.randint(1, 8), rng.randint(1, 8)
        entries = {}
        for i in range(nr):
            for j in range(nc):
                if rng.random() < 0.4:
                    entries[(i, j)] = rng.choice((-3, -2, -1, -1, 1, 1, 2, 3))
        assert sparse_rank_and_factors(entries, nr, nc) == heap_rank_and_factors(entries, nr, nc)
