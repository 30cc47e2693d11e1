"""The fraction-free polytope layer against its Fraction oracles.

convex_hull, face_lattice, Face.parallel, in_cone and the exactq
elimination kernel run on integers; tests/oracles.py keeps the Fraction
algorithms they replaced.  Every test runs both on the same inputs and
requires equal answers.
"""

import random
from fractions import Fraction

from conftest import polytope_specimens, random_point_set
from oracles import (
    brute_force_hull,
    fraction_coords,
    fraction_det,
    fraction_in_cone,
    fraction_rank,
    fraction_solve_affine,
    lattice_membership,
)
from tquot.exactq import (
    clear_denominators,
    dot,
    nullspace,
    primitive,
    rank,
    solve_fraction_free,
    vsub,
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
    """(face, candidate weights) for every face of the specimens' polytopes: all
    isotropy weights of the spec, every edge direction, and random
    integer vectors, which mostly lie outside the polytope's directions."""
    rng = random.Random(2718)
    polytopes = [
        (spec.polytope, [w for c in spec.components for w in c.weights])
        for spec in polytope_specimens()
    ]
    polytopes += [(convex_hull(pts), []) for pts in _random_point_sets()]
    for poly, weights in polytopes:
        lattice = poly.lattice
        edges = [
            primitive(vsub(f.vertex_coords[1], f.vertex_coords[0]))
            for f in lattice.faces
            if f.dim == 1
        ]
        randoms = [tuple(rng.randint(-2, 2) for _ in range(poly.ambient_dim)) for _ in range(4)]
        candidates = list(dict.fromkeys(weights + edges + randoms))
        for face in lattice.faces:
            yield face, candidates


def test_parallel_matches_span_membership():
    answers = []
    for face, weights in _faces_and_weights():
        _, basis = fraction_solve_affine(face.vertex_coords)
        assert face.dim == len(basis)
        for w in weights:
            answer = face.parallel(w)
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
                if all(dot(conormal, v) == offset for v in face.vertex_coords)
            }
            assert face.facets == tight, (spec.name, face.vertex_set)


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


def _fractions(solution):
    """A fraction-free solution as Fractions, or None."""
    if solution is None:
        return None
    numerators, denominator = solution
    return tuple(Fraction(x, denominator) for x in numerators)


def test_solves_match_fraction_gauss_jordan():
    rng = random.Random(73)
    solved = 0
    for _ in range(300):
        n = rng.randint(1, 4)
        columns = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(rng.randint(0, n))]
        target = tuple(rng.randint(-3, 3) for _ in range(n))
        if rng.random() < 0.5:
            target = tuple(sum(rng.randint(-2, 2) * c[j] for c in columns) for j in range(n))
        result = solve_fraction_free(columns, target)
        if fraction_rank(columns) < len(columns):
            assert result is None
            continue
        expected = fraction_coords(target, columns)
        assert _fractions(result) == expected
        solved += expected is not None
        # rational columns: one common scale clears the denominators of
        # the system and leaves the coefficients unchanged
        rational = [tuple(Fraction(x, rng.randint(1, 3)) for x in c) for c in columns]
        ints, _ = clear_denominators([*rational, target])
        scaled = solve_fraction_free(ints[:-1], ints[-1])
        assert _fractions(scaled) == fraction_coords(target, rational)
    assert solved > 100

