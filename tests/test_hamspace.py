from dataclasses import replace

import pytest

from conftest import component_at, with_component, without_component
from tquot import gallery
from tquot.exactq import vec
from tquot.hamspace import (
    HamSpec,
    SpecError,
    complexity,
    face_complexity,
    general_position,
    moment_polytope,
    point_component,
    stratify,
    surface_component,
    validate,
)


def toric_cp1():
    return HamSpec(
        "toric-cp1",
        1,
        1,
        (point_component((1,), ((-1,),)), point_component((-1,), ((1,),))),
    )


def test_moment_polytope_s2cubed():
    poly = moment_polytope(gallery.build("s2cubed"))
    assert poly.dim == 2
    assert set(poly.vertices) == {vec(v) for v in [(-2, -1), (-2, 1), (2, -1), (2, 1)]}


def test_moment_polytope_single_point():
    spec = HamSpec("pt", 2, 0, (point_component((0, 0), ()),))
    poly = moment_polytope(spec)
    assert poly.dim == 0
    assert poly.vertices == (vec((0, 0)),)


def test_moment_polytope_gr2c4_is_hypersimplex():
    poly = moment_polytope(gallery.build("gr2c4"))
    assert poly.dim == 3
    assert len(poly.vertices) == 6
    assert len(poly.facets) == 8


def test_complexity_values():
    assert complexity(gallery.build("gr2c4")) == 1
    assert complexity(toric_cp1()) == 0
    assert complexity(gallery.build("cp5-t3")) == 2


def test_complexity_inconsistent():
    # claims half_dim 0 but the momentum image is an interval
    spec = HamSpec("bad", 1, 0, (point_component((0,), ()), point_component((1,), ())))
    with pytest.raises(SpecError):
        complexity(spec)


def faces_by(sp, dim=None):
    return [f for f in sp.lattice.faces if dim is None or f.dim == dim]


def facet_with_conormal(sp, conormal):
    for f in sp.lattice.faces:
        if f.supporting and f.supporting[0] == conormal and f.dim == sp.polytope.dim - 1:
            return f
    raise AssertionError(f"no facet with conormal {conormal}")


def test_face_complexity_s2cubed_facets():
    spec = gallery.build("s2cubed")
    sp = stratify(spec)
    # facet x = 2 has conormal (-1, 0) (polytope on the >= side)
    assert sp.face_complexity[facet_with_conormal(sp, (-1, 0)).id] == 0
    assert sp.face_complexity[facet_with_conormal(sp, (1, 0)).id] == 0
    assert sp.face_complexity[facet_with_conormal(sp, (0, 1)).id] == 1
    assert sp.face_complexity[facet_with_conormal(sp, (0, -1)).id] == 1


def test_face_complexity_cp2_vertex_with_surface():
    spec = gallery.build("cp2-s1")
    sp = stratify(spec)
    vertex0 = next(
        f for f in faces_by(sp, 0) if f.vertex_coords[0] == vec((0,))
    )
    vertex1 = next(
        f for f in faces_by(sp, 0) if f.vertex_coords[0] == vec((1,))
    )
    # the fixed sphere's implicit zero weight is parallel to the vertex
    assert sp.face_complexity[vertex0.id] == 1
    assert sp.face_complexity[vertex1.id] == 0


def test_face_complexity_direct_call():
    spec = gallery.build("s2cubed")
    sp = stratify(spec)
    top = sp.lattice.top
    assert face_complexity(spec, top) == 1


def test_stratify_toric():
    sp = stratify(toric_cp1())
    assert sp.complexity == 0
    assert set(sp.short_faces) == {f.id for f in sp.lattice.faces}
    assert sp.delta_k == {0: tuple(sorted(f.id for f in sp.lattice.faces))}


def test_stratify_gr2c4_boundary_short():
    sp = stratify(gallery.build("gr2c4"))
    proper = {f.id for f in sp.lattice.proper_faces()}
    assert set(sp.short_faces) == proper
    assert sp.face_complexity[sp.lattice.top.id] == 1


def test_stratify_top_equals_complexity(gallery_specs):
    for name, spec in gallery_specs.items():
        sp = stratify(spec)
        assert sp.face_complexity[sp.lattice.top.id] == sp.complexity, name


def test_stratify_short_downward_closed(gallery_specs):
    for name, spec in gallery_specs.items():
        sp = stratify(spec)
        short = set(sp.short_faces)
        for a, b in sp.lattice.containment:
            if b in short:
                assert a in short, name


def test_delta_leq_k_downward_closed(gallery_specs):
    for name, spec in gallery_specs.items():
        sp = stratify(spec)
        for k in sp.delta_k:
            leq = {fid for kk, ids in sp.delta_k.items() if kk <= k for fid in ids}
            for a, b in sp.lattice.containment:
                if b in leq:
                    assert a in leq, name


def test_monotonicity_all_gallery(gallery_specs):
    for name, spec in gallery_specs.items():
        sp = stratify(spec)
        for a, b in sp.lattice.containment:
            assert sp.face_complexity[a] <= sp.face_complexity[b], name


def test_general_position_gr2c4():
    gp = general_position(gallery.build("gr2c4"))
    assert gp.overall
    assert all(gp.per_component)


def test_general_position_surface_fails():
    gp = general_position(gallery.build("cp2-s1"))
    assert not gp.overall
    spec = gallery.build("cp2-s1")
    flags = dict(zip(spec.components, gp.per_component))
    for comp, ok in flags.items():
        assert ok == (not comp.is_surface)


def test_general_position_s2xs2():
    assert general_position(gallery.build("s2xs2-diag")).overall


def test_general_position_repeated_weight_fails():
    # two equal weights are a dependent pair in effective dimension two
    assert not general_position(gallery.build("s2cubed")).overall


def test_general_position_iff_boundary_short(gallery_specs):
    for name, spec in gallery_specs.items():
        sp = stratify(spec)
        if sp.complexity != 1:
            continue
        proper = {f.id for f in sp.lattice.proper_faces()}
        boundary_short = set(sp.short_faces) == proper
        assert general_position(spec).overall == boundary_short, name


def test_point_at_vertex_forces_short(gallery_specs):
    for name, spec in gallery_specs.items():
        sp = stratify(spec)
        verts = set(sp.polytope.vertices)
        if any(not c.is_surface and c.moment in verts for c in spec.components):
            assert sp.short_faces, name


def test_validate_all_gallery(gallery_specs):
    for name, spec in gallery_specs.items():
        report = validate(spec)
        assert report.ok, (name, report.first_failed(), report.failed)


def test_validate_flipped_weight_sign_fails_v4_only():
    spec = gallery.build("s2cubed")
    i = component_at(spec, (2, 1))
    c = spec.components[i]
    flipped = replace(
        c, weights=tuple((0, 1) if w == (0, -1) else w for w in c.weights)
    )
    report = validate(with_component(spec, i, flipped))
    assert [f.name for f in report.failed] == ["V4-vertex-cone"]


def test_validate_negated_vertex_surface_fails_v4_only():
    # a fixed surface at a vertex whose normal weight points out of the
    # polytope: the weight cone no longer matches the tangent cone
    for name in ("cp2-s1", "sigma-g-x-s2", "blowup-g"):
        spec = gallery.build(name)
        verts = set(spec.polytope.vertices)
        surfaces = [
            i for i, c in enumerate(spec.components) if c.is_surface and c.moment in verts
        ]
        assert surfaces, name
        for i in surfaces:
            c = spec.components[i]
            negated = replace(c, weights=tuple(tuple(-x for x in w) for w in c.weights))
            report = validate(with_component(spec, i, negated))
            assert [f.name for f in report.failed] == ["V4-vertex-cone"], (name, i)


def test_validate_deleted_vertex_component_fails_v2_only():
    spec = gallery.build("s2cubed")
    poly = moment_polytope(spec)
    mutated = without_component(spec, component_at(spec, (2, 1)))
    report = validate(mutated, polytope=poly)
    assert [f.name for f in report.failed] == ["V2-vertex-coverage"]


def test_validate_wrong_weight_count_fails_v1_first():
    spec = gallery.build("s2cubed")
    i = component_at(spec, (2, 1))
    c = spec.components[i]
    mutated = with_component(spec, i, replace(c, weights=c.weights[1:]))
    report = validate(mutated)
    assert report.first_failed() == "V1-structural"


def test_validate_duplicate_vertex_component_fails_v2():
    spec = gallery.build("s2cubed")
    i = component_at(spec, (2, 1))
    dup = replace(spec, components=spec.components + (spec.components[i],))
    report = validate(dup)
    assert report.first_failed() == "V2-vertex-coverage"


def test_surface_weight_count_enforced():
    bad = HamSpec(
        "bad-surface",
        1,
        2,
        (
            surface_component(0, (0,), ((1,), (1,))),
            surface_component(0, (1,), ((-1,),)),
        ),
    )
    report = validate(bad)
    assert report.first_failed() == "V1-structural"


def test_face_complexity_disagreement_raises():
    # a surface and a point sharing a vertex moment disagree on the
    # vertex complexity (1 from the implicit zero weight versus 0)
    spec = HamSpec(
        "clash",
        1,
        2,
        (
            surface_component(0, (0,), ((1,),)),
            point_component((0,), ((1,), (1,))),
            point_component((1,), ((-1,), (-1,))),
        ),
    )
    with pytest.raises(SpecError):
        stratify(spec)
