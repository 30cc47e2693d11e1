from collections import Counter
from dataclasses import replace
from fractions import Fraction

import random

import pytest

from conftest import (
    component_at,
    moment_polytope,
    polytope_specimens,
    random_unimodular,
    transform,
    with_component,
    without_component,
)
from oracles import (
    containment,
    dict_v2,
    dict_v4,
    every_face_readings,
    fraction_readings,
    ranked_v3,
    ranked_v5,
    supporting,
    vertex_coords,
)
from test_theorem import DRAWS, _draw, _transform
from tquot import gallery
from tquot.exactq import dot, vec
from tquot.hamspace import (
    HamSpec,
    SpecError,
    general_position,
    point_component,
    read_faces,
    read_weights,
    stratify,
    surface_component,
    validate,
)
from tquot.polytope import convex_hull, facet_incidence


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
    # a point's tangent cone is 0, generated by no weights
    assert validate(spec).ok


def test_moment_polytope_gr2c4_is_hypersimplex():
    poly = moment_polytope(gallery.build("gr2c4"))
    assert poly.dim == 3
    assert len(poly.vertices) == 6
    assert len(poly.facets) == 8


def test_complexity_values():
    assert stratify(gallery.build("gr2c4")).complexity == 1
    assert stratify(toric_cp1()).complexity == 0
    assert stratify(gallery.build("cp5-t3")).complexity == 2


def test_complexity_inconsistent():
    # claims half_dim 0 but the momentum image is an interval
    spec = HamSpec("bad", 1, 0, (point_component((0,), ()), point_component((1,), ())))
    with pytest.raises(SpecError):
        stratify(spec)


@pytest.mark.parametrize("entry", [Fraction(1, 2), 1.0, True, 0.1, "1/3"])
def test_component_builders_refuse_non_integer_weights(entry):
    with pytest.raises(SpecError, match="integers"):
        point_component((0,), ((entry,), (-1,)))
    with pytest.raises(SpecError, match="integers"):
        surface_component(0, (0,), ((entry,),))
    if isinstance(entry, Fraction):
        return  # an exact moment, kept by test_component_builders_keep_integers
    # a moment is refused too, never coerced through Fraction()
    with pytest.raises(SpecError, match="a moment must be integers or Fractions"):
        point_component((entry,), ((1,), (-1,)))
    with pytest.raises(SpecError, match="a moment must be integers or Fractions"):
        surface_component(0, (0, entry), ((1, 0),))


@pytest.mark.parametrize("genus", [1.7, Fraction(1), True, None])
def test_surface_component_refuses_non_integer_genus(genus):
    with pytest.raises(SpecError, match="integers"):
        surface_component(genus, (0,), ((1,),))


def test_component_builders_keep_integers():
    assert point_component((0,), ((2,), (-1,))).weights == ((2,), (-1,))
    surface = surface_component(3, (Fraction(1, 2),), ((1,),))
    assert (surface.genus, surface.moment, surface.weights) == (3, (Fraction(1, 2),), ((1,),))


def faces_by(sp, dim=None):
    return [f for f in sp.lattice.faces if dim is None or f.dim == dim]


def facet_with_conormal(sp, conormal):
    for f in sp.lattice.faces:
        plane = supporting(sp.polytope, f)
        if plane and plane[0] == conormal and f.dim == sp.polytope.dim - 1:
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
        f for f in faces_by(sp, 0) if vertex_coords(sp.polytope, f)[0] == vec((0,))
    )
    vertex1 = next(
        f for f in faces_by(sp, 0) if vertex_coords(sp.polytope, f)[0] == vec((1,))
    )
    # the fixed sphere's implicit zero weight is parallel to the vertex
    assert sp.face_complexity[vertex0.id] == 1
    assert sp.face_complexity[vertex1.id] == 0


def test_face_complexity_direct_call():
    spec = gallery.build("s2cubed")
    sp = stratify(spec)
    top = sp.lattice.top
    assert stratify(spec).face_complexity[top.id] == 1


def test_stratify_toric():
    sp = stratify(toric_cp1())
    assert sp.complexity == 0
    assert sp.face_complexity == {f.id: 0 for f in sp.lattice.faces}
    assert sp.short_faces == tuple(sorted(f.id for f in sp.lattice.faces))


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
        for a, b in containment(sp.lattice):
            if b in short:
                assert a in short, name


def test_delta_leq_k_downward_closed(gallery_specs):
    for name, spec in gallery_specs.items():
        sp = stratify(spec)
        for k in set(sp.face_complexity.values()):
            leq = {fid for fid, kk in sp.face_complexity.items() if kk <= k}
            for a, b in containment(sp.lattice):
                if b in leq:
                    assert a in leq, name


def test_monotonicity_all_gallery(gallery_specs):
    for name, spec in gallery_specs.items():
        sp = stratify(spec)
        for a, b in containment(sp.lattice):
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
        assert report.ok, (name, report.first_failed(), [c for c in report.checks if not c.passed])


def test_validate_flipped_weight_sign_fails_v4_only():
    spec = gallery.build("s2cubed")
    i = component_at(spec, (2, 1))
    c = spec.components[i]
    flipped = replace(
        c, weights=tuple((0, 1) if w == (0, -1) else w for w in c.weights)
    )
    report = validate(with_component(spec, i, flipped))
    assert [check.name for check in report.checks if not check.passed] == ["V4-vertex-cone"]


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
            assert [check.name for check in report.checks if not check.passed] == ["V4-vertex-cone"], (name, i)


def test_validate_deleted_vertex_component_fails_v2_only():
    spec = gallery.build("s2cubed")
    poly = moment_polytope(spec)
    mutated = without_component(spec, component_at(spec, (2, 1)))
    report = validate(mutated, polytope=poly)
    assert [c.name for c in report.checks if not c.passed] == ["V2-vertex-coverage"]


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


@pytest.mark.parametrize("moment", [(3, 3), (2, -1), (0, 1)], ids=["beyond-end", "off-hull", "off-hull-between"])
def test_validate_moment_outside_given_polytope_fails_v2(moment):
    # P is the segment from (0, 0) to (1, 1); (3, 3) lies on its line
    # beyond an end, (2, -1) and (0, 1) off its line
    ends = (point_component((0, 0), ((1, 1),)), point_component((1, 1), ((-1, -1),)))
    segment = HamSpec("segment", 2, 1, ends)
    extra = replace(segment, components=ends + (point_component(moment, ((1, 1),)),))
    report = validate(extra, polytope=segment.polytope)
    assert [c.name for c in report.checks if not c.passed] == ["V2-vertex-coverage"]
    [v2] = [c for c in report.checks if not c.passed]
    assert v2.detail == f"component 2: moment ({moment[0]}, {moment[1]}) lies outside the polytope"


def test_validate_refuses_a_given_polytope_of_another_dimension():
    # flag-su3 has moments in R^3; a triangle in R^2 once met them by
    # their first two coordinates and reported a V4 failure
    triangle = convex_hull([(0, 0), (1, 0), (0, 1)])
    with pytest.raises(ValueError, match="a point of length 3 for a polytope in dimension 2"):
        validate(gallery.build("flag-su3"), polytope=triangle)


def _v4_detail(spec):
    [v4] = [c for c in validate(spec).checks if c.name == "V4-vertex-cone"]
    assert not v4.passed
    return v4.detail


def test_v4_names_the_weight_and_the_violated_facet():
    spec = gallery.build("s2cubed")
    i = component_at(spec, (2, 1))
    c = spec.components[i]
    flipped = replace(c, weights=tuple((0, 1) if w == (0, -1) else w for w in c.weights))
    v = spec.polytope.vertices.index(c.moment)
    assert _v4_detail(with_component(spec, i, flipped)) == (
        f"component {i} at vertex {v}: weight (0, 1) violates the facet with conormal (0, -1)"
    )


def _toric_square(weights_at_origin):
    """The toric square [0, 1]^2, with the weights at (0, 0) replaced."""
    return HamSpec(
        "square",
        2,
        2,
        (
            point_component((0, 0), weights_at_origin),
            point_component((1, 0), ((-1, 0), (0, 1))),
            point_component((0, 1), ((1, 0), (0, -1))),
            point_component((1, 1), ((-1, 0), (0, -1))),
        ),
    )


def test_v4_names_the_uncovered_edge_direction():
    assert validate(_toric_square(((1, 0), (0, 1)))).ok
    # inside the tangent cone, but the cone of (1, 0) and (1, 1) misses
    # the edge direction (0, 1)
    assert _v4_detail(_toric_square(((1, 0), (1, 1)))) == (
        "component 0 at vertex 0: edge direction (0, 1) is not in the weight cone"
    )
    # a doubled weight spans a line only
    assert _v4_detail(_toric_square(((1, 0), (1, 0)))) == (
        "component 0 at vertex 0: edge direction (0, 1) is outside the span of the weights"
    )


def test_v4_names_a_weight_off_the_affine_hull():
    spec = HamSpec(
        "segment",
        2,
        1,
        (point_component((0, 0), ((1, 0),)), point_component((1, 1), ((-1, -1),))),
    )
    [n] = spec.polytope.normals
    assert _v4_detail(spec) == (
        f"component 0 at vertex 0: weight (1, 0) leaves the affine hull (normal ({n[0]}, {n[1]}))"
    )


def test_v3_names_a_weight_off_the_affine_hull():
    spec = gallery.build("gr2c4")
    [n] = spec.polytope.normals
    c = spec.components[0]
    # the first weight with its last entry raised by one
    w = c.weights[0][:-1] + (c.weights[0][-1] + 1,)
    report = validate(with_component(spec, 0, replace(c, weights=(w, *c.weights[1:]))))
    [v3] = [r for r in report.checks if r.name == "V3-weight-span"]
    assert not v3.passed
    assert v3.detail == (
        f"component 0: weight ({', '.join(map(str, w))}) leaves the polytope's directions"
        f" (normal ({', '.join(map(str, n))}))"
    )


def _readings_cases():
    """Every gallery specimen, under a seeded C8 transform, and with one
    weight removed or the weights at a vertex negated."""
    rng = random.Random(1202)
    for name in gallery.names():
        spec = gallery.build(name)
        r = spec.torus_rank
        shift = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(r)]
        scale = Fraction(rng.randint(1, 6), rng.randint(1, 4))
        yield transform(spec, random_unimodular(rng, r), shift, scale)
        i = rng.choice([i for i, c in enumerate(spec.components) if c.weights])
        c = spec.components[i]
        j = rng.randrange(len(c.weights))
        yield with_component(spec, i, replace(c, weights=c.weights[:j] + c.weights[j + 1 :]))
        vertices = spec.polytope.vertices
        i = rng.choice([i for i, c in enumerate(spec.components) if c.moment in vertices])
        c = spec.components[i]
        negated = tuple(tuple(-x for x in w) for w in c.weights)
        yield with_component(spec, i, replace(c, weights=negated))


def test_read_faces_matches_fraction_oracle():
    failing_v5 = 0
    for spec in _readings_cases():
        poly = spec.polytope
        readings = read_faces(spec, poly, spec.weight_table, poly.contacts)
        assert readings == fraction_readings(spec, poly), spec.name
        failing_v5 += "V5-face-complexity" in {c.name for c in validate(spec).checks if not c.passed}
    assert failing_v5 > 5


def _random_spec(rng):
    """Random weights and kinds over the vertices of a small polytope,
    sometimes with one more point component."""
    points = rng.choice(
        [
            [(0, 0), (1, 0)],
            [(0, 0), (2, 0), (0, 1)],
            [(0, 0), (1, 0), (0, 1), (1, 1), (2, 1)],
            [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)],
        ]
    )
    r, n = len(points[0]), rng.randint(1, 3)
    if rng.random() < 0.3:
        points.append(tuple(rng.randint(0, 1) for _ in range(r)))
    comps = []
    for p in points:
        surface = n >= 2 and rng.random() < 0.3
        weights = [tuple(rng.randint(-1, 1) for _ in range(r)) for _ in range(n - surface)]
        weights = tuple(w if any(w) else (1,) + (0,) * (r - 1) for w in weights)
        comps.append(surface_component(0, p, weights) if surface else point_component(p, weights))
    return HamSpec("random", r, n, tuple(comps))


def test_v6_along_covers_decides_as_along_all_containments():
    # V6 compares each face with the nearest faces below it that V2 and
    # V5 left a complexity; on a lattice whose facets of each face are
    # all its proper faces it compares every pair, as it did before
    rng = random.Random(2002)
    failing = 0
    for _ in range(300):
        spec = _random_spec(rng)
        lattice = spec.polytope.lattice
        poly = replace(spec.polytope)
        # the copy's cached lattice, with every proper face of a face below it
        under = [[] for _ in lattice.faces]
        for a, b in containment(lattice):
            under[b].append(a)
        poly.__dict__["lattice"] = lattice._replace(below=tuple(map(tuple, under)))
        by_facets, by_pairs = validate(spec).checks, validate(spec, polytope=poly).checks
        assert [c.passed for c in by_facets] == [c.passed for c in by_pairs], spec
        assert by_facets[:5] == by_pairs[:5]
        failing += not by_facets[5].passed
    assert failing > 50


def _doubled_first_weight_cases():
    """Each vertex component of each gallery specimen with its weights
    shifted by one, so that its first weight appears twice and its last
    is dropped.  V4 refuses most of them, and on a face parallel to the
    first and the dropped weight the count can still agree while the
    span falls short."""
    for name in gallery.names():
        spec = gallery.build(name)
        vertices = spec.polytope.vertices
        for i, c in enumerate(spec.components):
            if c.moment in vertices and len(c.weights) > 1:
                shifted = (c.weights[0], *c.weights[:-1])
                yield with_component(spec, i, replace(c, weights=shifted))


def _v5(spec):
    return next(c for c in validate(spec).checks if c.name == "V5-face-complexity")


def test_v5_matches_the_oracle_that_ranks_every_reading():
    # V5 leaves the span at a vertex to V4 and ranks only the readings V4
    # has not settled; it must say what ranking every reading says
    rng = random.Random(1996)
    transformed = []
    for name in gallery.names():
        spec = gallery.build(name)
        r = spec.torus_rank
        for _ in range(2):
            shift = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(r)]
            scale = Fraction(rng.randint(1, 6), rng.randint(1, 4))
            transformed.append(transform(spec, random_unimodular(rng, r), shift, scale))
    rng = random.Random(2002)
    drawn = [_random_spec(rng) for _ in range(300)]
    doubled = list(_doubled_first_weight_cases())
    assert len(doubled) == 29
    for spec in [*transformed, *_readings_cases(), *drawn, *doubled]:
        assert _v5(spec) == ranked_v5(spec), spec
    # the doubled weight leaves spans short at components that V4 refuses
    short = [
        spec
        for spec in doubled
        if "do not span" in _v5(spec).detail
        and not next(c for c in validate(spec).checks if c.name == "V4-vertex-cone").passed
    ]
    assert len(short) >= 4


def _negated(weights):
    return tuple(tuple(-x for x in w) for w in weights)


def _coverage_cases():
    """(variant, spec, polytope) over every gallery specimen, the genus
    families at genus 0..2, each under a seeded C8 transform: as given,
    each vertex component dropped, one duplicated, the weights negated at
    each vertex component, the components reversed with every vertex
    weight negated, each component dropped against the given polytope,
    and one vertex moment moved off it.  A polytope of None stands for
    the hull of the spec's own moments."""
    rng = random.Random(1606)
    specs = []
    for name in gallery.names():
        genera = range(3) if gallery.CATALOG[name].parametrized else [None]
        specs.extend(gallery.build(name, genus=g) for g in genera)
    for spec in specs:
        r = spec.torus_rank
        shift = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(r)]
        scale = Fraction(rng.randint(1, 6), rng.randint(1, 4))
        spec = transform(spec, random_unimodular(rng, r), shift, scale)
        poly, comps = spec.polytope, spec.components
        at_vertex = [i for i, c in enumerate(comps) if c.moment in poly.vertices]
        yield "given", spec, None
        for i in at_vertex:
            yield "dropped", without_component(spec, i), None
            negated = replace(comps[i], weights=_negated(comps[i].weights))
            yield "negated", with_component(spec, i, negated), None
        i = rng.choice(at_vertex)
        yield "duplicated", replace(spec, components=comps + (comps[i],)), None
        flipped = tuple(
            replace(c, weights=_negated(c.weights)) if c.moment in poly.vertices else c
            for c in reversed(comps)
        )
        yield "reversed", replace(spec, components=flipped), None
        for i in range(len(comps)):
            yield "dropped-given", without_component(spec, i), poly
        i = rng.choice(at_vertex)
        v = comps[i].moment
        u = rng.choice([u for u in poly.vertices if u != v])
        moved = tuple(2 * a - b for a, b in zip(v, u))  # beyond the vertex v
        yield "moved-given", with_component(spec, i, replace(comps[i], moment=moved)), poly


def _weight_specs():
    """Every gallery specimen with the genus families at genus 0..3, the
    A3 and A4 regular orbits and Gr(2,5)."""
    specs = []
    for name in gallery.names():
        genera = range(4) if gallery.CATALOG[name].parametrized else [None]
        specs.extend(gallery.build(name, genus=g) for g in genera)
    a3, a4, f = gallery.root_system("A", 3), gallery.root_system("A", 4), Fraction(1, 5)
    specs.append(gallery.coadjoint_orbit(a3, (3, 1, -1, -3)))
    specs.append(gallery.coadjoint_orbit(a4, (2, 1, 0, -1, -2)))
    specs.append(gallery.coadjoint_orbit(a4, (3 * f, 3 * f, -2 * f, -2 * f, -2 * f)))
    return specs


def _weight_cases():
    """(variant, spec, polytope) over _weight_specs and the seeded draws
    of test_theorem.py with their transforms: each as given and, against
    its own polytope, with the weights at every vertex component negated,
    one of them moved off the affine hull (where the polytope has a hull
    normal), one dropped, one doubled and one made zero, which is parallel
    to every face and still must cover no edge.  V4 reads the weights off
    the spec's table of distinct weights; these change which weights it
    holds."""
    specs, draws, rng = _weight_specs(), random.Random(20180417), random.Random(1982)
    for _ in range(DRAWS):
        _, spec = _draw(draws)
        specs += [spec, _transform(draws, spec)]
    for spec in specs:
        poly = spec.polytope

        def at_vertices(change):
            comps = tuple(
                replace(c, weights=change(c.weights)) if c.moment in poly.vertices and c.weights else c
                for c in spec.components
            )
            return replace(spec, components=comps)

        def one(change):
            def at(weights):
                i = rng.randrange(len(weights))
                return weights[:i] + change(weights[i]) + weights[i + 1 :]

            return at

        yield "given", spec, None
        yield "negated-all", at_vertices(_negated), poly
        if poly.normals:
            n = poly.normals[0]
            yield "off-hull", at_vertices(one(lambda w: (tuple(a + b for a, b in zip(w, n)),))), poly
        yield "weight-dropped", at_vertices(one(lambda w: ())), poly
        yield "weight-doubled", at_vertices(one(lambda w: (tuple(2 * x for x in w),))), poly
        yield "weight-zeroed", at_vertices(one(lambda w: ((0,) * len(w),))), poly


@pytest.mark.parametrize("spec", _weight_specs(), ids=lambda s: s.name)
def test_weight_table_matches_fraction_dot_products(spec):
    poly = spec.polytope
    table = spec.weight_table
    assert set(table) == {w for c in spec.components for w in c.weights}
    for w, (normal, zero, negative) in table.items():
        assert normal == next((n for n in poly.normals if dot(n, w)), None)
        signs = [dot(n, w) for n, _ in poly.facets]
        if normal is None:
            assert zero == sum(1 << i for i, s in enumerate(signs) if s == 0)
            assert negative == sum(1 << i for i, s in enumerate(signs) if s < 0)
        else:
            assert (zero, negative) == (0, 0)
    assert read_weights(spec, poly) == table


# a phrase of each kind of V4 witness
_WITNESSES = ("affine hull", "violates", "outside the span", "not in the weight cone")


def test_v2_and_v4_match_the_dict_oracles():
    v2_kinds = {"lies outside": 0, "has no component": 0, "carries": 0}
    v4_kinds = dict.fromkeys((None, *_WITNESSES), 0)
    reordered = 0
    for variant, spec, poly in [*_coverage_cases(), *_weight_cases()]:
        checks = {c.name: c for c in validate(spec, polytope=poly).checks}
        given = spec.polytope if poly is None else poly
        assert checks["V2-vertex-coverage"] == dict_v2(spec, given), (variant, spec.name)
        assert checks["V4-vertex-cone"] == dict_v4(spec, given), (variant, spec.name)
        for kind in v2_kinds:
            v2_kinds[kind] += kind in checks["V2-vertex-coverage"].detail
        v4 = checks["V4-vertex-cone"].detail
        for witness in v4.split("; ") if v4 else [None]:
            v4_kinds[witness and next(k for k in _WITNESSES if k in witness)] += 1
        if variant == "reversed":
            # V4 fails at every vertex component, listed in component order
            vertex_of = [
                given.vertices.index(c.moment) for c in spec.components if c.moment in given.vertices
            ]
            assert checks["V4-vertex-cone"].detail.count("component") == len(vertex_of) > 1
            reordered += vertex_of != sorted(vertex_of)
    assert all(v2_kinds.values()), v2_kinds
    # every kind of V4 witness, and none, is met
    assert min(v4_kinds.values()) > 50, v4_kinds
    assert reordered > 0


def _off_vertex_cases():
    """gr2c4 with one more point component whose moment is the centroid
    of an edge, of a facet or of the polytope, carrying the weights of
    the first component; and with a vertex component's weights made to
    fail V3, by one weight off the affine hull or one weight replaced by
    twice another; the toric square so; and the doubled first weights."""
    spec = gallery.build("gr2c4")
    poly = spec.polytope
    weights = spec.components[0].weights
    for dim in (1, poly.dim - 1, poly.dim):
        face = next(f for f in poly.lattice.faces if f.dim == dim)
        coords = [poly.vertices[v] for v in face.vertex_set]
        centroid = tuple(sum(x) / len(coords) for x in zip(*coords))
        yield f"centroid-{dim}", replace(
            spec, components=spec.components + (point_component(centroid, weights),)
        )
    c = spec.components[0]
    w = c.weights[0][:-1] + (c.weights[0][-1] + 1,)
    yield "off-hull", with_component(spec, 0, replace(c, weights=(w, *c.weights[1:])))
    doubled = tuple(2 * x for x in c.weights[0])
    multiple = (c.weights[0], doubled, *c.weights[2:])
    yield "multiple", with_component(spec, 0, replace(c, weights=multiple))
    yield "multiple-square", _toric_square(((1, 0), (2, 0)))
    for spec in _doubled_first_weight_cases():
        yield "doubled", spec


def test_carrier_walk_and_v3_match_the_oracles_that_test_every_pair():
    # read_faces walks up from each moment's carrier face, and V3 leaves
    # the components V4 accepts unranked; the oracles test every face
    # against every component and rank every component
    half = Fraction(1, 2)
    a4 = gallery.coadjoint_orbit(gallery.root_system("A", 4), (2, 1, 0, -1, -2))
    cases = [(variant, spec, poly) for variant, spec, poly in _coverage_cases()]
    assert len(cases) == 187
    cases += [("specimen", spec, None) for spec in (*polytope_specimens(), a4)]
    cases += [(variant, spec, None) for variant, spec in _off_vertex_cases()]
    a3 = polytope_specimens()[-2]
    assert a3.polytope.vertices[0] == (-3 * half, -half, half, 3 * half)
    outside = with_component(a3, 0, replace(a3.components[0], moment=(-2, -half, half, 2)))
    cases += [("outside-given", outside, a3.polytope)]
    carriers, v3_details = Counter(), Counter()
    for variant, spec, poly in cases:
        given = spec.polytope if poly is None else poly
        tight = facet_incidence(given, [c.moment for c in spec.components])
        readings = read_faces(spec, given, read_weights(spec, given), tight)
        assert readings == every_face_readings(spec, given), (variant, spec.name)
        [v3] = [c for c in validate(spec, polytope=poly).checks if c.name == "V3-weight-span"]
        assert v3 == ranked_v3(spec, given), (variant, spec.name)
        for kind in ("leaves", "do not span"):
            v3_details[kind] += kind in v3.detail
        # the dimension of each moment's carrier, the least face holding it
        lowest = {}
        for f in given.lattice.faces:
            for r in readings[f.id]:
                lowest.setdefault(r.index, f.dim)
        carriers.update(lowest.values())
        carriers["outside"] += len(spec.components) - len(lowest)
    assert v3_details["leaves"] > 5 and v3_details["do not span"] > 3, v3_details
    assert all(carriers[d] for d in (0, 1, 2, 3, "outside")), carriers
