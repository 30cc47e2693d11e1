"""The fraction-free polytope layer against its Fraction oracles.

convex_hull, face_lattice, the parallel test of the face readings,
in_cone and the exactq elimination kernel run on integers;
tests/oracles.py keeps the algorithms they replaced.  Every test runs
both on the same inputs and requires equal answers.
"""

import random
from fractions import Fraction

from conftest import polytope_specimens, random_point_set
from oracles import (
    brute_force_hull,
    closure_face_lattice,
    containment,
    fraction_det,
    fraction_in_cone,
    fraction_rank,
    fraction_solve_affine,
    lattice_membership,
    scanned_tangent_cone,
    supporting,
    vertex_coords,
    vsub,
)
from tquot import gallery
from tquot.exactq import (
    dot,
    nullspace,
    primitive,
    rank,
)
from tquot.polytope import convex_hull, in_cone


def _random_matrix(rng, nrows, ncols, rational):
    def entry():
        if rational:
            return Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        return rng.randint(-3, 3)

    return [[entry() for _ in range(ncols)] for _ in range(nrows)]


def _low_dimensional_point_set(rng, ambient, dim, count):
    """Rational points on a random dim-dimensional affine subspace."""
    base = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(ambient)]
    basis = [[rng.randint(-2, 2) for _ in range(ambient)] for _ in range(dim)]
    points = []
    for _ in range(count):
        coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(dim)]
        points.append(
            tuple(base[j] + sum(c * b[j] for c, b in zip(coeffs, basis)) for j in range(ambient))
        )
    return points


def _random_point_sets():
    rng = random.Random(4711)
    sets = []
    for dim in range(1, 5):
        for _ in range(8):
            sets.append(random_point_set(rng, dim, rng.randint(dim + 1, dim + 5)))
    for ambient in range(2, 5):
        for dim in range(ambient):
            for _ in range(3):
                count = rng.randint(dim + 1, dim + 5)
                sets.append(_low_dimensional_point_set(rng, ambient, dim, count))
    return sets


def _assert_same_hull(points, label):
    new, old = convex_hull(points), brute_force_hull(points)
    assert new.ambient_dim == old.ambient_dim, label
    assert new.vertices == old.vertices, label
    assert new.facets == old.facets, label
    # the integer hull normals cut out the oracle's Fraction directions
    assert new.dim == len(old.basis), label
    assert fraction_rank(new.normals) == len(new.normals), label
    assert all(dot(n, b) == 0 for n in new.normals for b in old.basis), label


def _cube_face_points(rng, count):
    """The corners of [0, 2]^3 and grid points with one or two
    coordinates fixed at 0 or 2: on its facets and on its ridges."""
    points = [(a, b, c) for a in (0, 2) for b in (0, 2) for c in (0, 2)]
    for _ in range(count):
        q = [rng.randint(0, 2) for _ in range(3)]
        for j in rng.sample(range(3), rng.randint(1, 2)):
            q[j] = rng.choice((0, 2))
        points.append(tuple(q))
    return points


def _cross_polytope_ridge_points(rng, count):
    """The vertices of the cross-polytope in R^4 and points on its
    edges, which lie on ridges and facets: (+-a, +-b, 0, 0) with
    a + b = 1, in shuffled coordinates."""
    points = [tuple(s * int(i == j) for j in range(4)) for i in range(4) for s in (1, -1)]
    for _ in range(count):
        a = Fraction(rng.randint(1, 3), 4)
        q = [rng.choice((1, -1)) * a, rng.choice((1, -1)) * (1 - a), 0, 0]
        rng.shuffle(q)
        points.append(tuple(q))
    return points


def _simplex_face_points(rng, dim, count):
    """Rational points on the facets and ridges of a random integer
    simplex: convex combinations of d or d-1 of its vertices."""
    vertices = [tuple(rng.randint(-3, 3) for _ in range(dim)) for _ in range(dim + 1)]
    points = list(vertices)
    for _ in range(count):
        support = rng.sample(vertices, rng.randint(dim - 1, dim))
        weights = [rng.randint(1, 3) for _ in support]
        total = sum(weights)
        points.append(
            tuple(sum(Fraction(w, total) * v[j] for w, v in zip(weights, support)) for j in range(dim))
        )
    return points


def _flat_points_in_r4(rng, flat_dim, count):
    """Grid points of a random line or plane in R^4: collinear or
    coplanar, many of them on the edges of their hull."""
    base = [rng.randint(-2, 2) for _ in range(4)]
    basis = [[rng.randint(-2, 2) for _ in range(4)] for _ in range(flat_dim)]
    points = []
    for _ in range(count):
        coeffs = [rng.randint(-2, 2) for _ in range(flat_dim)]
        points.append(tuple(base[j] + sum(c * b[j] for c, b in zip(coeffs, basis)) for j in range(4)))
    return points


def _degenerate_point_sets():
    rng = random.Random(19960101)
    sets = []
    for _ in range(2):
        sets.append(_cube_face_points(rng, 6))
        sets.append(_cross_polytope_ridge_points(rng, 3))
        sets.append(_simplex_face_points(rng, 3, 8))
        sets.append(_simplex_face_points(rng, 4, 6))
        sets.append(_flat_points_in_r4(rng, 1, 8))
        sets.append(_flat_points_in_r4(rng, 2, 12))
    # a grid square in R^4 and a 3 x 2 x 2 grid box, shuffled
    square = [(a, b, 0, 1) for a in range(4) for b in range(4)]
    box = [(a, b, c, 0) for a in range(3) for b in range(2) for c in range(2)]
    for grid in (square, box):
        rng.shuffle(grid)
        sets.append(grid)
    # duplicates, in shuffled order
    for pts in [sets[0], sets[2], sets[4], sets[5], square]:
        doubled = pts + rng.sample(pts, len(pts) // 2)
        rng.shuffle(doubled)
        sets.append(doubled)
    return sets


def test_hull_matches_brute_force_on_degenerate_sets():
    point_sets = _degenerate_point_sets()
    assert {convex_hull(pts).dim for pts in point_sets} == {1, 2, 3, 4}
    for pts in point_sets:
        _assert_same_hull(pts, pts)


def test_hull_matches_brute_force_on_specimens():
    for spec in polytope_specimens():
        _assert_same_hull([c.moment for c in spec.components], spec.name)


def test_hull_matches_brute_force_on_random_points():
    point_sets = _random_point_sets()
    dims = {convex_hull(pts).dim for pts in point_sets}
    assert dims == {0, 1, 2, 3, 4}
    for pts in point_sets:
        _assert_same_hull(pts, pts)


def _faces_and_weights():
    """(polytope, face, candidate weights) for every face of the
    specimens' polytopes: all isotropy weights of the spec, every edge
    direction, and random integer vectors, which mostly lie outside the
    polytope's directions."""
    rng = random.Random(2718)
    polytopes = [
        (spec.polytope, [w for c in spec.components for w in c.weights])
        for spec in polytope_specimens()
    ]
    polytopes += [(convex_hull(pts), []) for pts in _random_point_sets()]
    for poly, weights in polytopes:
        lattice = poly.lattice
        edges = [
            primitive(vsub(poly.vertices[f.vertex_set[1]], poly.vertices[f.vertex_set[0]]))
            for f in lattice.faces
            if f.dim == 1
        ]
        randoms = [tuple(rng.randint(-2, 2) for _ in range(poly.ambient_dim)) for _ in range(4)]
        candidates = list(dict.fromkeys(weights + edges + randoms))
        for face in lattice.faces:
            yield poly, face, candidates


def test_parallel_matches_span_membership():
    # the rule of the face readings: w lies in the polytope's directions
    # and meets the conormal of every facet containing the face with 0
    answers = []
    for poly, face, weights in _faces_and_weights():
        _, basis = fraction_solve_affine(vertex_coords(poly, face))
        assert face.dim == len(basis)
        mask = sum(1 << i for i in face.facets)
        for w in weights:
            answer = poly.off_hull(w) is None and mask & poly.zero_facets(w) == mask
            assert answer == lattice_membership(w, basis), (face.vertex_set, w)
            answers.append(answer)
    assert len(answers) == 22896
    assert answers.count(True) > 2000 and answers.count(False) > 10000


def test_facet_contacts_match_fraction_dot():
    for spec in polytope_specimens():
        poly = spec.polytope
        for face in poly.lattice.faces:
            tight = {
                i
                for i, (conormal, offset) in enumerate(poly.facets)
                if all(dot(conormal, v) == offset for v in vertex_coords(poly, face))
            }
            assert face.facets == tight, (spec.name, face.vertex_set)


def _below(lattice):
    """The pairs (a, b) with face a below face b along the covers."""
    under = {}
    for a, b in lattice.covers:
        under.setdefault(b, []).append(a)
    pairs = set()
    for b, todo in under.items():
        todo = list(todo)
        while todo:
            a = todo.pop()
            if (a, b) not in pairs:
                pairs.add((a, b))
                todo.extend(under.get(a, ()))
    return pairs


def test_face_lattice_matches_closure_oracle():
    # the specimens with both hull-heavy orbits, the A4 regular orbit,
    # (S^2)^5 under T^4 and the random point sets
    polytopes = [spec.polytope for spec in polytope_specimens()]
    a4 = gallery.coadjoint_orbit(gallery.root_system("A", 4), (2, 1, 0, -1, -2))
    e = [tuple(int(i == j) for j in range(4)) for i in range(4)]
    polytopes += [a4.polytope, gallery.sphere_product([*e, (1, 1, 1, 1)], 4).polytope]
    polytopes += [convex_hull(pts) for pts in _random_point_sets()]
    for poly in polytopes:
        lattice, oracle = poly.lattice, closure_face_lattice(poly)
        assert lattice.faces == oracle.faces, poly.vertices
        assert tuple(supporting(poly, f) for f in lattice.faces) == oracle.supporting
        faces = lattice.faces
        assert all(faces[a].dim + 1 == faces[b].dim for a, b in lattice.covers)
        assert _below(lattice) == set(oracle.containment) == set(containment(lattice))
        for v in range(len(poly.vertices)):
            assert poly.lattice.edges[v] == scanned_tangent_cone(poly, v), (poly.vertices, v)
    assert sum(len(p.lattice.faces) for p in polytopes) == 1906


def test_in_cone_matches_fraction_oracle():
    rng = random.Random(1618)
    answers = []
    for _ in range(400):
        dim = rng.randint(1, 4)
        gens = [tuple(rng.randint(-2, 2) for _ in range(dim)) for _ in range(rng.randint(1, 5))]
        targets = [tuple(rng.randint(-3, 3) for _ in range(dim))]
        coeffs = [rng.randint(0, 3) for _ in gens]
        targets.append(tuple(sum(c * g[j] for c, g in zip(coeffs, gens)) for j in range(dim)))
        targets.append(tuple(Fraction(x, rng.randint(1, 3)) for x in targets[0]))
        for t in targets:
            answer = in_cone(t, gens)
            assert answer == fraction_in_cone(t, gens), (t, gens)
            answers.append(answer)
    assert answers.count(True) > 300 and answers.count(False) > 300


def test_rank_and_det_match_fraction_elimination():
    rng = random.Random(31)
    for _ in range(200):
        n = rng.randint(0, 5)
        rational = rng.random() < 0.5
        square = _random_matrix(rng, n, n, rational)
        assert (rank(square) == n) == (fraction_det(square) != 0)
        m = _random_matrix(rng, rng.randint(0, 6), rng.randint(1, 6), rational)
        assert rank(m) == fraction_rank(m)


def test_nullspace_is_primitive_basis_and_cofactor_vector():
    rng = random.Random(57)
    for _ in range(200):
        ncols = rng.randint(1, 5)
        m = _random_matrix(rng, rng.randint(0, ncols), ncols, rng.random() < 0.5)
        basis = nullspace(m, ncols)
        assert len(basis) == ncols - fraction_rank(m)
        assert fraction_rank(basis) == len(basis)
        for n in basis:
            assert primitive(n) == n
            assert all(dot(row, n) == 0 for row in m)
        if len(m) == ncols - 1 and len(basis) == 1:
            # the signed maximal minors, up to their content and sign
            minors = [
                (-1) ** j * fraction_det([row[:j] + row[j + 1 :] for row in m])
                for j in range(ncols)
            ]
            assert basis[0] in (primitive(minors), tuple(-x for x in primitive(minors)))

