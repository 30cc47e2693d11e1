"""The verification model against the algorithms it replaced.

collapse_fibers builds the model from the staircase paths over the
vertices outside the crushed part without building the product, and
counts the product from face numbers only for the size cap;
sparse_rank_and_factors sweeps the rows once for unit pivots, and
homology reduces the model by coreductions and free faces before
anything reaches that sweep; the polytope is triangulated by coning so
that the short locus is full in it; tests/oracles.py keeps the
close-then-map collapse, the full product closure, the pulling
triangulation on polytope vertices alone (whose short locus takes the
barycentric branch of the collapse), the Markowitz-heap elimination,
the homology that eliminates every boundary matrix in full and the
homology that coreduces from the seed vertex alone.  Every test runs
both on the same inputs and requires equal answers; the collapse is
also compared on seeded random bases with the subcomplexes they induce
on random vertex subsets.
"""

import random

import pytest

import oracles
from conftest import RP2, moore_space
from oracles import (
    close_then_map_collapse,
    coreduced_homology,
    euler_characteristic,
    full_elimination_homology,
    heap_rank_and_factors,
    pulled_boundary_subcomplex,
    staircase_closure,
)
from tquot import exactq, gallery, simplicial
from tquot.classify import classify
from tquot.exactq import sparse_rank_and_factors
from tquot.simplicial import (
    HomologyProfile,
    OrderedComplex,
    SizeCapExceeded,
    barycentric_pair,
    boundary_subcomplex_of_polytope,
    collapse_fibers,
    expected_homology,
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
        if report.verdict.type != "stratification-only":
            reports[name] = report
    return reports


def genus_of(report):
    verdict = report.verdict
    return verdict.genus if verdict.type == "product-polytope-surface" else 0


def model_pair(report, triangulate=boundary_subcomplex_of_polytope):
    """The (base, sub, fiber) that verify_report collapses."""
    sp = report.stratification
    full, sub = triangulate(sp, sp.short_faces)
    return full, sub, surface_complex(genus_of(report))


def oracle_pair(report):
    """The same on the pulled triangulation, where the short locus is
    seldom full, so the collapse subdivides it barycentrically."""
    return model_pair(report, pulled_boundary_subcomplex)


def collapsed_base(base, sub):
    """The base the product is taken over: base itself when sub is full."""
    if sub.simplices and not is_full_subcomplex(base, sub):
        return barycentric_pair(base, sub)[0]
    return base


REPORTS = verifiable_reports()


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_collapse_matches_close_then_map(name):
    for base, sub, fiber in (model_pair(REPORTS[name]), oracle_pair(REPORTS[name])):
        model = collapse_fibers(base, sub, fiber)
        reference = close_then_map_collapse(base, sub, fiber)
        assert model.simplices == reference.simplices


def test_collapse_covers_both_branches():
    # the program's own pairs are always full; the oracle pairs are not
    pairs = [pair(r) for pair in (model_pair, oracle_pair) for r in REPORTS.values()]
    full = {is_full_subcomplex(base, sub) for base, sub, _ in pairs}
    assert full == {True, False}


def induced_pair(rng):
    """A seeded random base on up to 7 scattered vertex labels and the
    subcomplex it induces on a random vertex subset, which is full."""
    labels = sorted(rng.sample(range(30), rng.randint(1, 7)))
    tops = [
        sorted(rng.sample(labels, rng.randint(1, min(len(labels), 4))))
        for _ in range(rng.randint(1, 5))
    ]
    base = OrderedComplex.from_simplices(tops)
    crushed = set(rng.sample(base.vertices, rng.randint(0, len(base.vertices))))
    sub = OrderedComplex(frozenset(s for s in base.simplices if set(s) <= crushed))
    return base, sub


def test_collapse_of_induced_pairs_matches_close_then_map():
    rng = random.Random(23)
    fibers = [surface_complex(g) for g in range(3)]
    seen = {"uncrushed first": 0, "interleaved": 0, "top in sub": 0, "top off sub": 0}
    for _ in range(150):
        base, sub = induced_pair(rng)
        assert is_full_subcomplex(base, sub)
        fiber = fibers[rng.randrange(3)]
        model = collapse_fibers(base, sub, fiber)
        assert model.simplices == close_then_map_collapse(base, sub, fiber).simplices
        subv = set(sub.vertices)
        for top in base.maximal_simplices():
            kinds = "".join("c" if v in subv else "p" for v in top)
            switches = sum(a != b for a, b in zip(kinds, kinds[1:]))
            seen["uncrushed first"] += "pc" in kinds
            seen["interleaved"] += switches >= 2
            seen["top in sub"] += "p" not in kinds
            seen["top off sub"] += "c" not in kinds
    assert min(seen.values()) >= 10, seen


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_product_size_is_the_closure_size(name):
    for base, sub, _ in (model_pair(REPORTS[name]), oracle_pair(REPORTS[name])):
        for b in (base, collapsed_base(base, sub)):
            for genus in range(3):
                fiber = surface_complex(genus)
                assert product_size(b.face_numbers, fiber.face_numbers) == len(staircase_closure(b, fiber)[0])


@pytest.mark.parametrize("name", ["gr2c4", "s2cubed", "sigma-g-x-s2"])
def test_cap_at_the_product_size(name):
    report = REPORTS[name]
    base, sub, fiber = model_pair(report)
    size = product_size(collapsed_base(base, sub).face_numbers, fiber.face_numbers)
    assert verify_report(report, max_simplices=size).passed
    with pytest.raises(SizeCapExceeded) as exc:
        verify_report(report, max_simplices=size - 1)
    assert exc.value.estimate == size
    assert exc.value.cap == size - 1


@pytest.mark.parametrize("cap", [1.5, True, 1e9, "200000"], ids=["float", "bool", "big-float", "string"])
def test_cap_must_be_an_int(cap):
    # any small int cap raises SizeCapExceeded, so the number rule is
    # tested here rather than by a row of test_exactq.RULE
    with pytest.raises(ValueError, match="max_simplices must be an integer") as refused:
        verify_report(REPORTS["gr2c4"], max_simplices=cap)
    assert type(refused.value) is ValueError


def test_boundary_matrices_match_heap_elimination(monkeypatch):
    seen = []

    def both(entries):
        result = sparse_rank_and_factors(entries)
        assert result == heap_rank_and_factors(entries)
        seen.append(len(entries))
        return result

    # the reductions leave almost nothing for the sweep, so the comparison
    # runs on the full boundary matrices the oracle homology assembles
    monkeypatch.setattr(oracles, "sparse_rank_and_factors", both)
    monkeypatch.setattr(simplicial, "homology", full_elimination_homology)
    for name, report in REPORTS.items():
        result = verify_report(report)
        assert result.passed, name
        barycentric = collapse_fibers(*oracle_pair(report))
        assert full_elimination_homology(barycentric).trimmed() == result.checks[0].expected
    # gr2c4's barycentric model alone has boundary matrices with thousands of entries
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
        assert sparse_rank_and_factors(entries) == heap_rank_and_factors(entries)


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


# the differential specimens add (S^2)^4 under T^3, whose barycentric
# model has 57 020 simplices
CONED_REPORTS = dict(MODEL_REPORTS)
CONED_REPORTS["s2-4-t3"] = classify(gallery.sphere_product([E1, E2, E3, (1, 1, 1)], 3))


@pytest.mark.parametrize("name", sorted(CONED_REPORTS))
def test_coned_base_against_pulled_oracle(name):
    report = CONED_REPORTS[name]
    base, sub, fiber = model_pair(report)
    pulled, pulled_sub, _ = oracle_pair(report)
    assert is_full_subcomplex(base, sub)
    assert homology(base).trimmed() == HomologyProfile((1,), ((),)) and euler_characteristic(base) == 1
    assert homology(sub) == homology(pulled_sub)
    if not sub.simplices:
        assert base.simplices == pulled.simplices
    coned = collapse_fibers(base, sub, fiber)
    barycentric = collapse_fibers(pulled, pulled_sub, fiber)
    assert coned.simplex_count <= barycentric.simplex_count
    expected = expected_homology(sub, genus_of(report))
    assert homology(coned).trimmed() == homology(barycentric).trimmed() == expected


def test_coned_specimens_cover_both_kinds():
    empty = {not model_pair(r)[1].simplices for r in CONED_REPORTS.values()}
    assert empty == {True, False}


# the reductions as the modules define them, before any test wraps them
REDUCTIONS = {"_reduce": simplicial._reduce, "_coreduce": oracles._coreduce}


def reduced_by_sweep(monkeypatch, k, oracle=False):
    """Homology of k, with the cells and boundary entries that reach the
    sweep: the survivors of the reductions, counted from their `live`
    flags, and the entries of the matrices among them.  With oracle, the
    same for `oracles.coreduced_homology`."""
    sizes, survivors = [], []

    def counted(entries):
        sizes.append(len(entries))
        return sparse_rank_and_factors(entries)

    module, kernel, name = (
        (oracles, coreduced_homology, "_coreduce") if oracle else (simplicial, homology, "_reduce")
    )
    reduce = REDUCTIONS[name]

    def reduced(*args):
        out = reduce(*args)
        survivors.append(sum(out[1] if oracle else out))  # _coreduce returns (faces, live)
        return out

    monkeypatch.setattr(module, "sparse_rank_and_factors", counted)
    monkeypatch.setattr(module, name, reduced)
    profile = kernel(k)
    cells = survivors[0] if sizes else len(k.simplices)
    return profile, cells, sum(sizes)


@pytest.mark.parametrize("name", sorted(MODEL_REPORTS))
def test_homology_matches_full_elimination(name, monkeypatch):
    report = MODEL_REPORTS[name]
    base, sub, fiber = model_pair(report)
    barycentric = collapse_fibers(*oracle_pair(report))
    for k in (collapse_fibers(base, sub, fiber), barycentric, join(sub, fiber), sub):
        assert reduced_by_sweep(monkeypatch, k)[0] == full_elimination_homology(k)


@pytest.mark.parametrize("name", ["gr2c4", "cp4-t3"])
def test_coreduction_leaves_one_cell(name, monkeypatch):
    report = MODEL_REPORTS[name]
    coned = collapse_fibers(*model_pair(report))
    barycentric = collapse_fibers(*oracle_pair(report))
    assert barycentric.simplex_count > 7000
    for model in (coned, barycentric):
        _, cells, nnz = reduced_by_sweep(monkeypatch, model)
        assert (cells, nnz) == (1, 0)


# (cells, boundary entries) that reach the sweep from each model; the
# reduction order decides them, so a change to it fails here first
SWEEP_SIZES = {
    "blowup-g": (17, 18),
    "blowup-g-0": (1, 0),
    "blowup-g-1": (17, 18),
    "blowup-g-2": (37, 40),
    "blowup-g-3": (55, 60),
    "cp2-s1": (0, 0),
    "cp4-t3": (1, 0),
    "flag-su3": (1, 0),
    "gr2c4": (1, 0),
    "s2cubed": (1, 0),
    "s2xs2-diag": (1, 0),
    "sigma-g-x-s2": (17, 18),
    "sigma-g-x-s2-0": (1, 0),
    "sigma-g-x-s2-1": (17, 18),
    "sigma-g-x-s2-2": (37, 40),
    "sigma-g-x-s2-3": (55, 60),
    "so5-orbit": (1, 0),
}


@pytest.mark.parametrize("name", sorted(MODEL_REPORTS))
def test_sweep_sizes_are_pinned(name, monkeypatch):
    model = collapse_fibers(*model_pair(MODEL_REPORTS[name]))
    _, cells, nnz = reduced_by_sweep(monkeypatch, model)
    _, oracle_cells, oracle_nnz = reduced_by_sweep(monkeypatch, model, oracle=True)
    assert (cells, nnz) == SWEEP_SIZES[name]
    assert cells <= oracle_cells and nnz <= oracle_nnz


def test_genus_models_keep_work_for_the_sweep(monkeypatch):
    for genus in range(1, 4):
        name = f"sigma-g-x-s2-{genus}"
        model = collapse_fibers(*model_pair(MODEL_REPORTS[name]))
        profile, cells, nnz = reduced_by_sweep(monkeypatch, model)
        assert profile.betti == (1, 2 * genus, 1, 0)
        assert (cells, nnz) == SWEEP_SIZES[name]
        assert cells < model.simplex_count and nnz > 0
        assert cells <= reduced_by_sweep(monkeypatch, model, oracle=True)[1]


@pytest.mark.parametrize("name", sorted(MODEL_REPORTS))
def test_homology_matches_coreduction_oracle(name):
    report = MODEL_REPORTS[name]
    base, sub, fiber = model_pair(report)
    barycentric = collapse_fibers(*oracle_pair(report))
    for k in (collapse_fibers(base, sub, fiber), barycentric, join(sub, fiber), sub):
        assert homology(k) == coreduced_homology(k) == full_elimination_homology(k)


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


@pytest.mark.parametrize("n", [3, 4, 6])
def test_moore_space_torsion_reaches_smith(monkeypatch, n):
    residues = []
    smith = exactq.smith_normal_form

    def recorded(a):
        residues.append(a)
        return smith(a)

    monkeypatch.setattr(exactq, "smith_normal_form", recorded)
    m = moore_space(n)
    profile = homology(m)
    assert residues
    assert profile.torsion == ((), (n,), ())
    assert profile == full_elimination_homology(m) == coreduced_homology(m)
    expected = expected_homology(m, 0)
    assert expected.betti == (1, 0, 0, 0, 0)
    assert expected.torsion == ((), (), (), (), (n,))


def test_random_complexes_match_full_elimination(monkeypatch):
    rng = random.Random(11)
    components = set()
    for _ in range(300):
        k = random_complex(rng)
        profile = reduced_by_sweep(monkeypatch, k)[0]
        assert profile == full_elimination_homology(k)
        components.add(profile.betti[0])
    assert {1, 2, 3} <= components


def test_small_complexes_match_coreduction_oracle(monkeypatch):
    special = [OrderedComplex(frozenset()), OrderedComplex.from_simplices([(0,)]), RP2]
    special += [surface_complex(g) for g in range(7)]
    rng = random.Random(24)
    fewer = 0
    for k in special + [random_complex(rng) for _ in range(2000)]:
        profile, cells, _ = reduced_by_sweep(monkeypatch, k)
        oracle_profile, oracle_cells, _ = reduced_by_sweep(monkeypatch, k, oracle=True)
        assert profile == oracle_profile == full_elimination_homology(k)
        assert cells <= oracle_cells
        fewer += cells < oracle_cells
    # free faces act where coreduction stalls, on many of the draws
    assert fewer >= 200
