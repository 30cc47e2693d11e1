"""Acceptance suite.

One test per acceptance criterion; each prints a single PASS/FAIL line
(visible with pytest -s or in the captured output section on failure).
"""

import random
import time
from dataclasses import replace
from fractions import Fraction
from functools import wraps

from conftest import (
    component_at,
    moment_polytope,
    random_unimodular,
    transform,
    with_component,
    without_component,
)
from oracles import classify_m4, containment, matmul, supporting, vertex_coords
from oracles import fraction_det as det
from tquot import gallery
from tquot.classify import Verdict, classify
from tquot.exactq import (
    dot,
    smith_normal_form,
    vec,
)
from tquot.hamspace import (
    general_position,
    stratify,
    validate,
)
from tquot.polytope import convex_hull
from tquot.simplicial import (
    HomologyProfile,
    OrderedComplex,
    collapse_fibers,
    homology,
    simplex_boundary_sphere,
    verify_report,
)


def criterion(label):
    def deco(fn):
        @wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"{label}: FAIL")
                raise
            print(f"{label}: PASS")

        return wrapper

    return deco


@criterion("C1 classification-table")
def test_c1_table_reproduction(gallery_specs):
    start = time.monotonic()
    assert classify(gallery_specs["gr2c4"]).verdict == Verdict("sphere", dim=5)
    assert classify(gallery_specs["flag-su3"]).verdict == Verdict("sphere", dim=4)
    assert classify(gallery_specs["so5-orbit"]).verdict == Verdict("sphere", dim=4)
    assert classify(gallery_specs["s2xs2-diag"]).verdict == Verdict("sphere", dim=3)
    assert classify(gallery_specs["cp2-s1"]).verdict == Verdict("disk", dim=3)
    for g in (0, 1, 2, 3):
        product = Verdict("product-polytope-surface", genus=g)
        assert classify(gallery.build("sigma-g-x-s2", genus=g)).verdict == product

    report = classify(gallery_specs["s2cubed"])
    verdict = report.verdict
    assert verdict.type == "collapsed-product" and verdict.fiber == "S2"
    sp = report.stratification
    maximal = [
        fid
        for fid in verdict.short_face_ids
        if not any(a == fid and b in verdict.short_face_ids for a, b in containment(sp.lattice))
    ]
    # the two facets x = +-2 of [-2,2] x [-1,1]
    conormals = {supporting(sp.polytope, sp.lattice.face(fid))[0] for fid in maximal}
    assert conormals == {(1, 0), (-1, 0)}
    assert all(sp.lattice.face(fid).dim == 1 for fid in maximal)
    assert {
        tuple(map(tuple, vertex_coords(sp.polytope, sp.lattice.face(fid)))) for fid in maximal
    } == {
        ((Fraction(-2), Fraction(-1)), (Fraction(-2), Fraction(1))),
        ((Fraction(2), Fraction(-1)), (Fraction(2), Fraction(1))),
    }

    cp5 = classify(gallery_specs["cp5-t3"])
    assert cp5.verdict == Verdict("stratification-only")
    assert cp5.stratification.complexity == 2

    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"classification table took {elapsed:.2f}s"


@criterion("C2 stratification-exactness")
def test_c2_s2cubed_stratification(gallery_specs):
    sp = stratify(gallery_specs["s2cubed"])
    assert sp.polytope.dim == 2
    for f in sp.lattice.faces:
        fc = sp.face_complexity[f.id]
        if f.dim == 0:
            assert fc == 0
        elif f.dim == 2:
            assert fc == 1
        else:
            conormal, _ = supporting(sp.polytope, f)
            if conormal in ((1, 0), (-1, 0)):  # the facets x = -2 and x = 2
                assert fc == 0
            else:  # the facets y = -1 and y = 1
                assert conormal in ((0, 1), (0, -1))
                assert fc == 1


@criterion("C3 general-position-iff-boundary-short")
def test_c3_general_position_equivalence(gallery_specs):
    complexity_one = 0
    for name, spec in gallery_specs.items():
        sp = stratify(spec)
        if sp.complexity != 1:
            continue
        complexity_one += 1
        proper = {f.id for f in sp.lattice.proper_faces()}
        assert general_position(spec).overall == (set(sp.short_faces) == proper), name
    for g in (0, 1, 2, 3):
        for name in ("sigma-g-x-s2", "blowup-g"):
            spec = gallery.build(name, genus=g)
            sp = stratify(spec)
            assert sp.complexity == 1
            assert not general_position(spec).overall and set(sp.short_faces) != {
                f.id for f in sp.lattice.proper_faces()
            }
    assert complexity_one >= 7


@criterion("C4 homology-verification")
def test_c4_homology_verification(gallery_specs):
    expected = {
        "gr2c4": (1, 0, 0, 0, 0, 1),
        "flag-su3": (1, 0, 0, 0, 1),
        "s2xs2-diag": (1, 0, 0, 1),
    }
    for name, betti in expected.items():
        start = time.monotonic()
        result = verify_report(classify(gallery_specs[name]), max_simplices=200000)
        assert time.monotonic() - start < 60
        assert result.passed, name
        computed = {c.name: c.computed for c in result.checks}
        assert computed["quotient-homology"].betti == betti, name
        assert computed["join-homology"].betti == betti, name
        agree = next(c for c in result.checks if c.name == "models-agree")
        assert agree.passed, name

    start = time.monotonic()
    result = verify_report(classify(gallery_specs["cp2-s1"]), max_simplices=200000)
    assert time.monotonic() - start < 60
    assert result.passed and result.checks[0].computed.trimmed() == HomologyProfile((1,), ((),))

    start = time.monotonic()
    result = verify_report(classify(gallery.build("sigma-g-x-s2", genus=1)), max_simplices=200000)
    assert time.monotonic() - start < 60
    assert result.passed
    computed = result.checks[0].computed
    assert computed.betti + (0,) * (4 - len(computed.betti)) == (1, 2, 1, 0)

    start = time.monotonic()
    result = verify_report(classify(gallery_specs["s2cubed"]), max_simplices=200000)
    assert time.monotonic() - start < 60
    assert result.passed
    computed = result.checks[0].computed
    assert computed.betti + (0,) * (5 - len(computed.betti)) == (1, 0, 0, 1, 0)


@criterion("C5 four-manifold-oracle")
def test_c5_m4_oracle(gallery_specs):
    interval = OrderedComplex.from_simplices([(0, 1)])
    s2 = simplex_boundary_sphere(3)

    sphere_model = collapse_fibers(
        interval, OrderedComplex.from_simplices([(0,), (1,)]), s2
    )
    prof = homology(sphere_model)
    assert prof.betti == (1, 0, 0, 1) and all(not t for t in prof.torsion)

    disk_model = collapse_fibers(interval, OrderedComplex.from_simplices([(1,)]), s2)
    assert homology(disk_model).trimmed() == HomologyProfile((1,), ((),))

    cases = [gallery_specs["s2xs2-diag"], gallery_specs["cp2-s1"]]
    cases += [gallery.build("sigma-g-x-s2", genus=g) for g in (0, 1, 2)]
    cases += [gallery.build("blowup-g", genus=g) for g in (0, 1, 2)]
    for spec in cases:
        assert classify(spec).verdict == classify_m4(spec).verdict, spec.name


@criterion("C6 validation-suite")
def test_c6_validation(gallery_specs):
    for name, spec in gallery_specs.items():
        report = validate(spec)
        assert report.ok, (name, report.first_failed())
        assert [c.name for c in report.checks] == [
            "V1-structural",
            "V2-vertex-coverage",
            "V3-weight-span",
            "V4-vertex-cone",
            "V5-face-complexity",
            "V6-monotonicity",
            "V7-surface-genus",
        ]

    spec = gallery_specs["s2cubed"]
    poly = moment_polytope(spec)
    i = component_at(spec, (2, 1))
    c = spec.components[i]

    # documented mutation 1: flipped weight sign, caught by the vertex cone
    flipped = replace(c, weights=tuple((0, 1) if w == (0, -1) else w for w in c.weights))
    r1 = validate(with_component(spec, i, flipped))
    assert [check.name for check in r1.checks if not check.passed] == ["V4-vertex-cone"]

    # documented mutation 2: deleted vertex component, caught by coverage
    # (validated against the polytope the data was meant to generate)
    r2 = validate(without_component(spec, i), polytope=poly)
    assert [check.name for check in r2.checks if not check.passed] == ["V2-vertex-coverage"]

    # documented mutation 3: wrong weight count, caught structurally first
    # (the lost weight genuinely changes face counts, so the face check
    # reports the knock-on inconsistency as well)
    r3 = validate(with_component(spec, i, replace(c, weights=c.weights[1:])))
    assert r3.first_failed() == "V1-structural"


@criterion("C7 algebra-properties")
def test_c7_algebra_properties(gallery_specs):
    rng = random.Random(20260808)
    for _ in range(200):
        nr = rng.randint(1, 8)
        nc = rng.randint(1, 8)
        a = [[rng.randint(-9, 9) for _ in range(nc)] for _ in range(nr)]
        u, d, v = smith_normal_form(a)
        assert matmul(matmul(u, a), v) == d
        assert abs(det(u)) == 1
        assert abs(det(v)) == 1
        diag = [d[i][i] for i in range(min(nr, nc))]
        assert all(x >= 0 for x in diag)
        for x, y in zip(diag, diag[1:]):
            assert (x == 0 and y == 0) or (x != 0 and y % x == 0) or y == 0

    for _ in range(200):
        dim = rng.randint(1, 4)
        count = rng.randint(dim + 1, dim + 5)
        pts = [
            tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(dim))
            for _ in range(count)
        ]
        p = convex_hull(pts)
        for q in pts:
            for conormal, offset in p.facets:
                assert dot(vec(conormal), vec(q)) >= offset
        again = convex_hull(p.vertices)
        assert set(again.vertices) == set(p.vertices)

    for name, spec in gallery_specs.items():
        sp = stratify(spec)
        for a, b in containment(sp.lattice):
            assert sp.face_complexity[a] <= sp.face_complexity[b], name


def _equivalent(a, b):
    if a.type == "collapsed-product" and b.type == "collapsed-product":
        return len(a.short_face_ids) == len(b.short_face_ids) and a.fiber == b.fiber
    return a == b


@criterion("C8 invariance")
def test_c8_invariance(gallery_specs):
    rng = random.Random(90210)
    for name, spec in gallery_specs.items():
        baseline = classify(spec).verdict
        for _ in range(10):
            r = spec.torus_rank
            u = random_unimodular(rng, r)
            assert abs(det(u)) == 1
            shift = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(r)]
            scl = Fraction(rng.randint(1, 6), rng.randint(1, 4))
            moved = transform(spec, u, shift, scl)
            assert _equivalent(classify(moved).verdict, baseline), name
