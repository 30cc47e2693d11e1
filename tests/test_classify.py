import random
from dataclasses import replace
from fractions import Fraction

import pytest

from conftest import random_unimodular as c8_unimodular, transform
from oracles import classify_m4, containment, supporting
from test_theorem import DRAWS, _draw, _transform
from tquot import gallery
from tquot.classify import ValidationFailure, Verdict, classify
from tquot.cli import report_to_json
from tquot.hamspace import (
    HamSpec,
    SpecError,
    point_component,
    stratify,
    surface_component,
)


EXPECTED_VERDICTS = {
    "gr2c4": Verdict("sphere", dim=5),
    "flag-su3": Verdict("sphere", dim=4),
    "so5-orbit": Verdict("sphere", dim=4),
    "s2xs2-diag": Verdict("sphere", dim=3),
    "cp2-s1": Verdict("disk", dim=3),
    "s2cubed": None,  # collapsed product, checked separately
    "cp5-t3": Verdict("stratification-only"),
}


def test_named_verdicts(gallery_specs):
    for name, expected in EXPECTED_VERDICTS.items():
        if expected is None:
            continue
        assert classify(gallery_specs[name]).verdict == expected, name


def test_product_verdicts():
    for g in (0, 1, 2, 3):
        product = Verdict("product-polytope-surface", genus=g)
        assert classify(gallery.build("sigma-g-x-s2", genus=g)).verdict == product
        assert classify(gallery.build("blowup-g", genus=g)).verdict == product


def test_s2cubed_collapsed_product():
    spec = gallery.build("s2cubed")
    report = classify(spec)
    verdict = report.verdict
    assert verdict.type == "collapsed-product"
    assert verdict.fiber == "S2"
    sp = report.stratification
    maximal_short = [
        fid
        for fid in verdict.short_face_ids
        if not any(
            a == fid and b in verdict.short_face_ids for a, b in containment(sp.lattice)
        )
    ]
    conormals = {supporting(sp.polytope, sp.lattice.face(fid))[0] for fid in maximal_short}
    assert conormals == {(1, 0), (-1, 0)}
    assert all(sp.lattice.face(fid).dim == 1 for fid in maximal_short)


def test_toric_disk():
    spec = HamSpec(
        "toric-cp1",
        1,
        1,
        (point_component((1,), ((-1,),)), point_component((-1,), ((1,),))),
    )
    report = classify(spec)
    assert report.verdict == Verdict("disk", dim=1)
    assert report.provenance == "toric-disk"


def test_trivial_action_on_surface_is_product():
    # momentum image a single point, complexity one
    spec = HamSpec("just-a-surface", 1, 1, (surface_component(2, (0,), ()),))
    report = classify(spec)
    assert report.verdict == Verdict("product-polytope-surface", genus=2)


def test_classify_refuses_invalid():
    spec = gallery.build("s2cubed")
    c = spec.components[0]
    bad = replace(spec, components=(replace(c, weights=c.weights[1:]),) + spec.components[1:])
    with pytest.raises(ValidationFailure) as exc:
        classify(bad)
    assert exc.value.report.first_failed() == "V1-structural"


def test_report_keeps_its_validation_and_join_presentation(gallery_specs):
    report = classify(gallery_specs["gr2c4"])
    assert report.validation.ok and len(report.validation.checks) == 7
    assert report.join_presentation
    skipped = classify(gallery_specs["s2cubed"], skip_validation=True)
    assert skipped.validation is None
    assert not skipped.join_presentation


def test_m4_trichotomy(gallery_specs):
    assert classify_m4(gallery_specs["s2xs2-diag"]).verdict == Verdict("sphere", dim=3)
    assert classify_m4(gallery_specs["cp2-s1"]).verdict == Verdict("disk", dim=3)
    for g in (0, 1, 2):
        product = Verdict("product-polytope-surface", genus=g)
        assert classify_m4(gallery.build("sigma-g-x-s2", genus=g)).verdict == product
        assert classify_m4(gallery.build("blowup-g", genus=g)).verdict == product


def test_m4_agrees_with_classify():
    cases = [("s2xs2-diag", None), ("cp2-s1", None)]
    cases += [(n, g) for n in ("sigma-g-x-s2", "blowup-g") for g in (0, 1, 2)]
    for name, g in cases:
        spec = gallery.build(name, genus=g)
        assert classify(spec).verdict == classify_m4(spec).verdict, (name, g)


def test_m4_single_surface_positive_genus_invalid():
    spec = HamSpec(
        "bad-cap",
        1,
        2,
        (
            surface_component(1, (0,), ((1,),)),
            point_component((1,), ((-1,), (-1,))),
        ),
    )
    with pytest.raises(SpecError):
        classify_m4(spec)
    with pytest.raises(SpecError):
        classify(spec)


def test_m4_rejects_wrong_shape():
    with pytest.raises(SpecError):
        classify_m4(gallery.build("gr2c4"))


def test_point_at_vertex_never_product(gallery_specs):
    for name, spec in gallery_specs.items():
        sp = stratify(spec)
        if sp.complexity != 1:
            continue
        verts = set(sp.polytope.vertices)
        if any(not c.is_surface and c.moment in verts for c in spec.components):
            assert classify(spec).verdict.type != "product-polytope-surface", name


def test_general_position_implies_sphere(gallery_specs):
    from tquot.hamspace import general_position

    for name, spec in gallery_specs.items():
        sp = stratify(spec)
        if sp.complexity == 1 and general_position(spec).overall:
            verdict = classify(spec).verdict
            assert verdict == Verdict("sphere", dim=spec.half_dim + 1), name


def random_unimodular(rng, r):
    m = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
    for _ in range(6):
        a, b = rng.randrange(r), rng.randrange(r)
        if a == b:
            continue
        q = rng.randint(-2, 2)
        for j in range(r):
            m[a][j] += q * m[b][j]
    if rng.random() < 0.5 and r > 1:
        m[0], m[1] = m[1], m[0]
    return m


def apply_matrix(m, v):
    return tuple(sum(Fraction(m[i][j]) * Fraction(v[j]) for j in range(len(v))) for i in range(len(m)))


def transformed_spec(spec, u, shift, scl):
    comps = []
    for c in spec.components:
        moment = tuple(scl * x + s for x, s in zip(apply_matrix(u, c.moment), shift))
        weights = tuple(tuple(int(x) for x in apply_matrix(u, w)) for w in c.weights)
        comps.append(replace(c, moment=moment, weights=weights))
    return replace(spec, components=tuple(comps))


def verdicts_equivalent(a, b):
    if a.type == "collapsed-product" and b.type == "collapsed-product":
        # face ids may be renumbered by the coordinate change
        return len(a.short_face_ids) == len(b.short_face_ids) and a.fiber == b.fiber
    return a == b


def test_invariance_under_coordinate_changes(gallery_specs):
    rng = random.Random(4242)
    for name, spec in gallery_specs.items():
        baseline = classify(spec).verdict
        for _ in range(3):
            r = spec.torus_rank
            u = random_unimodular(rng, r)
            shift = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(r)]
            scl = Fraction(rng.randint(1, 5), rng.randint(1, 3))
            moved = transformed_spec(spec, u, shift, scl)
            assert verdicts_equivalent(classify(moved).verdict, baseline), name


def test_component_permutation_invariance(gallery_specs):
    rng = random.Random(7)
    for name, spec in gallery_specs.items():
        comps = list(spec.components)
        rng.shuffle(comps)
        shuffled = replace(spec, components=tuple(comps))
        assert verdicts_equivalent(
            classify(shuffled).verdict, classify(spec).verdict
        ), name


# the fields each verdict type sets besides its type, as Verdict's docstring gives them
VERDICT_FIELDS = {
    "sphere": {"dim"},
    "disk": {"dim"},
    "product-polytope-surface": {"genus"},
    "collapsed-product": {"short_face_ids", "fiber"},
    "stratification-only": set(),
}


def _verdict_specs():
    """Every gallery specimen (the genus families at genus 0 to 3), each
    under ten seeded C8 transforms, the theorem test's draws with their
    transforms, and the toric CP^1, whose complexity is zero."""
    for name in gallery.names():
        genera = (0, 1, 2, 3) if gallery.CATALOG[name].parametrized else (None,)
        for g in genera:
            yield gallery.build(name, genus=g)
    rng = random.Random(90210)
    for name in gallery.names():
        spec = gallery.build(name)
        for _ in range(10):
            r = spec.torus_rank
            shift = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(r)]
            scl = Fraction(rng.randint(1, 6), rng.randint(1, 4))
            yield transform(spec, c8_unimodular(rng, r), shift, scl)
    rng = random.Random(20180417)
    for _ in range(DRAWS):
        _, spec = _draw(rng)
        yield spec
        yield _transform(rng, spec)
    yield gallery.projective_space([(1,), (0,)])


def test_each_verdict_sets_its_own_fields_and_is_its_json():
    seen = set()
    for spec in _verdict_specs():
        report = classify(spec)
        verdict = report.verdict
        set_fields = {f for f in verdict._fields if getattr(verdict, f) is not None}
        assert set_fields == {"type"} | VERDICT_FIELDS[verdict.type], (spec.name, verdict)
        if verdict.type == "collapsed-product":
            assert verdict.fiber == "S2" and type(verdict.short_face_ids) is tuple
        expected = {f: getattr(verdict, f) for f in set_fields}
        if "short_face_ids" in expected:
            expected["short_face_ids"] = list(expected["short_face_ids"])
        doc = report_to_json(spec, report)["verdict"]
        assert doc == expected, (spec.name, verdict)
        seen.add(verdict.type)
    assert seen == set(VERDICT_FIELDS)
