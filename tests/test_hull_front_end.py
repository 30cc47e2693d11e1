"""The hull's integer front end against the Fraction-keyed hull it replaced.

`convex_hull` clears the denominators of the given points once, keys
and sorts the distinct points as integer tuples, and takes the normals
of the affine hull from the affinely independent points alone.  The
oracle (`oracles.fraction_keyed_hull`) keys and sorts the points as
Fraction tuples and takes the normals from every difference.  Both run
on a seeded corpus of point sets with repeats, shuffled orders, lower
dimensional affine hulls, single points and mixed denominators, and
on shuffled and repeated orbit moments; the whole polytope must agree,
the contacts of every given point included.  On the same corpus the
face lattice is checked against the closure oracle, and the face
readings of a spec with a component at each point against the oracle
that tests every face against every component.
"""

import random
from collections import Counter
from fractions import Fraction

from conftest import polytope_specimens
from oracles import closure_face_lattice, every_face_readings, fraction_keyed_hull
from tquot.exactq import primitive
from tquot.hamspace import HamSpec, point_component, surface_component
from tquot.polytope import convex_hull


def _point_set(rng):
    """A few points on a random affine subspace of R^1..R^4, with
    denominators mixed from 1 to 6, sometimes some of them repeated, in
    a shuffled order."""
    ambient = rng.randint(1, 4)
    dim = rng.randint(0, ambient)
    base = [Fraction(rng.randint(-3, 3), rng.randint(1, 6)) for _ in range(ambient)]
    basis = [[rng.randint(-2, 2) for _ in range(ambient)] for _ in range(dim)]
    points = []
    for _ in range(rng.randint(1, dim + 5)):
        coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 6)) for _ in range(dim)]
        points.append(
            tuple(base[j] + sum(c * b[j] for c, b in zip(coeffs, basis)) for j in range(ambient))
        )
    if rng.random() < 0.4:
        points += rng.choices(points, k=rng.randint(1, 3))
    rng.shuffle(points)
    return points


def _orbit_sets(rng):
    """The moments of the A3 regular orbit and of Gr(2,5), shuffled and
    with some of them repeated."""
    for spec in polytope_specimens()[-2:]:
        moments = [c.moment for c in spec.components]
        yield rng.sample(moments, len(moments)) + rng.choices(moments, k=3)


def _spec_on(rng, points):
    """A spec with a component at each point: two to four weights each,
    some along the differences of the points, so parallel to faces, and
    some arbitrary; every third component a surface."""
    ambient = len(points[0])
    along = [primitive(d) for p in points for q in points if any(d := [a - b for a, b in zip(p, q)])]
    comps = []
    for i, p in enumerate(points):
        weights = []
        for _ in range(rng.randint(2, 4)):
            if along and rng.random() < 0.7:
                weights.append(tuple(rng.choice((1, -1)) * x for x in rng.choice(along)))
            else:
                weights.append(tuple(rng.randint(-2, 2) or 1 for _ in range(ambient)))
        if i % 3 == 2:
            comps.append(surface_component(0, p, weights))
        else:
            comps.append(point_component(p, weights))
    return HamSpec("front-end", ambient, 4, tuple(comps))


def test_integer_front_end_matches_the_fraction_keyed_hull():
    rng = random.Random(3141)
    corpus = [_point_set(rng) for _ in range(600)] + list(_orbit_sets(rng))
    kinds = Counter()
    for k, points in enumerate(corpus):
        # equality takes the vertices, facets, normals and facet_vertices,
        # not the contacts
        hull, oracle = convex_hull(points), fraction_keyed_hull(points)
        assert hull == oracle and hull.contacts == oracle.contacts, (k, points)

        lattice, closure = hull.lattice, closure_face_lattice(hull)
        assert lattice.faces == closure.faces, (k, points)
        dims = [f.dim for f in closure.faces]
        covers = {(a, b) for a, b in closure.containment if dims[a] + 1 == dims[b]}
        assert {(a, b) for b, under in enumerate(lattice.below) for a in under} == covers, (k, points)
        assert all(list(under) == sorted(under) for under in lattice.below), (k, points)

        spec = _spec_on(rng, points)
        assert spec.polytope == hull
        assert spec.face_readings == every_face_readings(spec, hull), (k, points)

        kinds["repeats"] += len(set(points)) < len(points)
        kinds["single point"] += len(set(points)) == 1
        kinds["lower dimensional"] += 0 < hull.dim < hull.ambient_dim
        kinds["full dimensional"] += hull.dim == hull.ambient_dim > 0
        kinds["mixed denominators"] += len({x.denominator for p in points for x in p}) > 2
        kinds["readings"] += sum(map(len, spec.face_readings.values()))
    assert min(kinds[key] for key in ("repeats", "single point", "lower dimensional")) > 50, kinds
    assert min(kinds["full dimensional"], kinds["mixed denominators"]) > 100, kinds
    assert kinds["readings"] > 5000, kinds

