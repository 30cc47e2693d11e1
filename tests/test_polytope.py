import random
from fractions import Fraction
from itertools import combinations

import pytest

from conftest import random_point_set
from oracles import fraction_solve_affine, lattice_membership
from tquot.exactq import dot, primitive, vec, vsub
from tquot.polytope import (
    cones_equal,
    convex_hull,
    face_lattice,
    in_cone,
    tangent_cone,
)


def hypersimplex_points():
    return [
        tuple(1 if k in (i, j) else 0 for k in range(4))
        for i in range(4)
        for j in range(i + 1, 4)
    ]


def test_hull_square_with_interior_point():
    p = convex_hull([(0, 0), (1, 0), (0, 1), (1, 1), (Fraction(1, 2), Fraction(1, 2))])
    assert len(p.vertices) == 4
    assert len(p.facets) == 4
    assert p.dim == 2


def test_hull_interval():
    p = convex_hull([(0,), (1,)])
    assert len(p.vertices) == 2
    assert len(p.facets) == 2
    assert p.dim == 1


def test_hull_single_point():
    p = convex_hull([(2, 3)])
    assert p.dim == 0
    assert p.vertices == (vec((2, 3)),)
    assert p.facets == ()


def test_hull_empty_input_raises():
    with pytest.raises(ValueError):
        convex_hull([])


def test_hull_collinear_points():
    p = convex_hull([(1, 1), (2, 2), (3, 3)])
    assert p.dim == 1
    assert p.vertices == (vec((1, 1)), vec((3, 3)))
    assert p.normals in (((1, -1),), ((-1, 1),))
    assert p.facets == (((-1, -1), -6), ((1, 1), 2))


def test_hull_points_in_a_plane():
    pts = [(0, 0, 0), (1, 2, 3), (2, 4, 6), (1, 0, 0)]
    p = convex_hull(pts)
    assert p.dim == 2
    [n] = p.normals
    assert primitive(n) in (n, tuple(-x for x in n))
    for q in pts:
        assert dot(n, vsub(q, pts[0])) == 0
    assert set(p.vertices) == {vec((0, 0, 0)), vec((2, 4, 6)), vec((1, 0, 0))}


def test_hull_hypersimplex():
    p = convex_hull(hypersimplex_points())
    assert p.dim == 3
    assert len(p.vertices) == 6
    assert len(p.facets) == 8
    lat = face_lattice(p)
    dims = [f.dim for f in lat.faces]
    assert dims.count(0) == 6
    assert dims.count(1) == 12
    assert dims.count(2) == 8
    assert dims.count(3) == 1
    assert len(lat.faces) == 27


def test_hull_input_points_satisfy_facets():
    pts = [(0, 0), (3, 0), (0, 3), (1, 1), (2, 1)]
    p = convex_hull(pts)
    for q in pts:
        for conormal, offset in p.facets:
            assert dot(conormal, q) >= offset


def test_hull_idempotence():
    pts = [(0, 0), (1, 0), (0, 1), (1, 1), (Fraction(1, 3), Fraction(2, 3))]
    p = convex_hull(pts)
    q = convex_hull(p.vertices)
    assert set(q.vertices) == set(p.vertices)
    assert set(q.facets) == set(p.facets)


def test_facet_conormals_primitive_and_in_direction_space():
    p = convex_hull(hypersimplex_points())
    _, basis = fraction_solve_affine(hypersimplex_points())
    for conormal, _ in p.facets:
        assert primitive(conormal) == conormal or primitive(conormal) == tuple(
            -x for x in conormal
        )
        assert lattice_membership(conormal, basis)


def test_face_lattice_interval():
    p = convex_hull([(0,), (1,)])
    lat = face_lattice(p)
    assert len(lat.faces) == 3
    assert lat.top.dim == 1


def test_face_lattice_square():
    p = convex_hull([(0, 0), (1, 0), (0, 1), (1, 1)])
    lat = face_lattice(p)
    assert len(lat.faces) == 9


def test_face_lattice_point():
    p = convex_hull([(5,)])
    lat = face_lattice(p)
    assert len(lat.faces) == 1
    assert lat.faces[0].dim == 0
    assert lat.faces[0].supporting is None


def test_euler_relation():
    for pts, dim in [
        ([(0,), (1,)], 1),
        ([(0, 0), (1, 0), (0, 1), (1, 1)], 2),
        (hypersimplex_points(), 3),
    ]:
        lat = face_lattice(convex_hull(pts))
        total = sum((-1) ** f.dim for f in lat.faces if f.id != lat.top.id)
        assert total == 1 + (-1) ** (dim - 1)


def test_lattice_closed_under_intersection():
    lat = face_lattice(convex_hull(hypersimplex_points()))
    sets = {frozenset(f.vertex_set) for f in lat.faces}
    for a, b in combinations(sets, 2):
        meet = a & b
        if meet:
            assert meet in sets


def test_supporting_hyperplanes():
    p = convex_hull(hypersimplex_points())
    lat = face_lattice(p)
    for f in lat.faces:
        if f.id == lat.top.id:
            assert f.supporting is None
            continue
        conormal, offset = f.supporting
        for i, v in enumerate(p.vertices):
            val = dot(conormal, v)
            assert val >= offset
            assert (val == offset) == (i in f.vertex_set)


def test_tangent_cone_square():
    p = convex_hull([(0, 0), (1, 0), (0, 1), (1, 1)])
    v = p.vertices.index(vec((0, 0)))
    assert tangent_cone(p, v) == ((0, 1), (1, 0))


def test_tangent_cone_interval():
    p = convex_hull([(0,), (1,)])
    v = p.vertices.index(vec((1,)))
    assert tangent_cone(p, v) == ((-1,),)


def test_tangent_cone_hypersimplex():
    p = convex_hull(hypersimplex_points())
    v = p.vertices.index(vec((1, 1, 0, 0)))
    cone = tangent_cone(p, v)
    expected = {
        (-1, 0, 1, 0),
        (-1, 0, 0, 1),
        (0, -1, 1, 0),
        (0, -1, 0, 1),
    }
    assert set(cone) == expected


def test_tangent_cone_matches_edges():
    p = convex_hull(hypersimplex_points())
    lat = face_lattice(p)
    for v in range(len(p.vertices)):
        gens = set(tangent_cone(p, v))
        edge_dirs = {
            primitive(vsub(p.vertices[next(i for i in f.vertex_set if i != v)], p.vertices[v]))
            for f in lat.faces
            if f.dim == 1 and v in f.vertex_set
        }
        assert gens == edge_dirs


def test_in_cone():
    gens = [(1, 0), (1, 1)]
    assert in_cone((2, 1), gens)
    assert in_cone((0, 0), gens)
    assert not in_cone((0, 1), [(1, 0)])
    assert not in_cone((-1, 0), gens)
    assert cones_equal([(1, 0), (0, 1)], [(1, 0), (0, 1), (1, 1)])


def test_random_hull_properties():
    rng = random.Random(1234)
    for _ in range(40):
        dim = rng.randint(1, 4)
        pts = random_point_set(rng, dim, rng.randint(dim + 1, dim + 5))
        p = convex_hull(pts)
        for q in pts:
            for conormal, offset in p.facets:
                assert dot(vec(conormal), vec(q)) >= offset
        q = convex_hull(p.vertices)
        assert set(q.vertices) == set(p.vertices)
