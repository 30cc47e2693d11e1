"""The verification model against the algorithms it replaced.

collapse_fibers maps only the top simplices of the staircase product and
closes their images once, the size cap is predicted from face counts,
sparse_rank_and_factors sweeps the rows once for unit pivots, and
homology coreduces the model before anything reaches that sweep;
tests/oracles.py keeps the close-then-map collapse, the full product
closure, the Markowitz-heap elimination and the homology that eliminates
every boundary matrix in full.  Every test runs both on the same inputs
and requires equal answers.
"""

import random

import pytest

import oracles
from conftest import RP2
from oracles import (
    close_then_map_collapse,
    full_elimination_homology,
    heap_rank_and_factors,
    staircase_closure,
)
from tquot import gallery, simplicial
from tquot.classify import ProductPolytopeSurface, StratificationOnly, classify
from tquot.exactq import sparse_rank_and_factors
from tquot.simplicial import (
    OrderedComplex,
    SizeCapExceeded,
    barycentric_pair,
    boundary_subcomplex_of_polytope,
    collapse_fibers,
    homology,
    is_full_subcomplex,
    join,
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

    # coreduction leaves almost nothing for the sweep, so the comparison
    # runs on the full boundary matrices the oracle homology assembles
    monkeypatch.setattr(oracles, "sparse_rank_and_factors", both)
    monkeypatch.setattr(simplicial, "homology", full_elimination_homology)
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


E1, E2, E3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)

# the models verify_report reduces: every gallery spec, CP^4 under a
# rank-3 torus, and the genus-g product families
MODEL_REPORTS = dict(REPORTS)
MODEL_REPORTS["cp4-t3"] = classify(
    gallery.projective_space([(0, 0, 0), E1, E2, E3, (1, 1, 1)], name="cp4-t3")
)
for _family in ("sigma-g-x-s2", "blowup-g"):
    for _genus in range(4):
        MODEL_REPORTS[f"{_family}-{_genus}"] = classify(gallery.build(_family, genus=_genus))


def reduced_by_sweep(monkeypatch, k):
    """Homology of k, with the cells and boundary entries that reach the
    sweep: survivors of coreduction, counted from the matrix shapes."""
    sizes = []

    def counted(entries, nrows, ncols):
        sizes.append((nrows, ncols, len(entries)))
        return sparse_rank_and_factors(entries, nrows, ncols)

    monkeypatch.setattr(simplicial, "sparse_rank_and_factors", counted)
    profile = homology(k)
    cells = sizes[0][0] + sum(ncols for _, ncols, _ in sizes) if sizes else len(k.simplices)
    return profile, cells, sum(nnz for _, _, nnz in sizes)


@pytest.mark.parametrize("name", sorted(MODEL_REPORTS))
def test_homology_matches_full_elimination(name, monkeypatch):
    base, sub, fiber = model_pair(MODEL_REPORTS[name])
    for k in (collapse_fibers(base, sub, fiber), join(sub, fiber), sub):
        assert reduced_by_sweep(monkeypatch, k)[0] == full_elimination_homology(k)


@pytest.mark.parametrize("name", ["gr2c4", "cp4-t3"])
def test_coreduction_leaves_one_cell(name, monkeypatch):
    model = collapse_fibers(*model_pair(MODEL_REPORTS[name]))
    _, cells, nnz = reduced_by_sweep(monkeypatch, model)
    assert model.simplex_count > 7000
    assert (cells, nnz) == (1, 0)


def test_genus_models_keep_work_for_the_sweep(monkeypatch):
    for genus in range(1, 4):
        model = collapse_fibers(*model_pair(MODEL_REPORTS[f"sigma-g-x-s2-{genus}"]))
        profile, cells, nnz = reduced_by_sweep(monkeypatch, model)
        assert profile.betti == (1, 2 * genus, 1, 0)
        assert 100 < cells < model.simplex_count and nnz > 0


def random_complex(rng):
    """A seeded random complex on up to 9 vertices, often disconnected:
    the closure of a few random simplices of dimension 0 to 3."""
    n = rng.randint(1, 9)
    tops = [
        sorted(rng.sample(range(n), rng.randint(1, min(n, 4))))
        for _ in range(rng.randint(1, 8))
    ]
    return OrderedComplex.from_simplices(tops)


def test_special_complexes_match_full_elimination(monkeypatch):
    special = [
        OrderedComplex(frozenset()),
        OrderedComplex.from_simplices([(0,)]),
        OrderedComplex.from_simplices([(0,), (1,), (2,)]),
        RP2,
        join(RP2, OrderedComplex.from_simplices([(0,), (1,)])),
    ]
    for k in special:
        assert reduced_by_sweep(monkeypatch, k)[0] == full_elimination_homology(k)
    assert homology(RP2).torsion == ((), (2,), ())
    assert homology(OrderedComplex.from_simplices([(0,), (1,), (2,)])).betti == (3,)


def test_random_complexes_match_full_elimination(monkeypatch):
    rng = random.Random(11)
    components = set()
    for _ in range(300):
        k = random_complex(rng)
        profile = reduced_by_sweep(monkeypatch, k)[0]
        assert profile == full_elimination_homology(k)
        components.add(profile.betti[0])
    assert {1, 2, 3} <= components
