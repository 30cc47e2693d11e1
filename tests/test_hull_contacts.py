"""The hull's incidences, read off the double description's contacts.

`convex_hull` lifts each facet normal of the double description from
the pivot coordinates to its ambient conormal, keeps the vertices on
each facet as a bitmask for the face lattice, and keeps the facets at
each point it was given, in order, for the face readings.  The oracle
(`oracles.nullspace_hull`) finds the same facts as the hull did before:
a nullspace per facet and the slack test `facet_incidence`.  Both run
on every specimen, on seeded C8 transforms of the gallery, on the A3
and A4 regular orbits and on seeded random clouds in every ambient
dimension and codimension, with duplicates, single points and segments.
`facet_incidence` also runs on points the hull was not built from.
"""

import random
from collections import Counter
from fractions import Fraction

import pytest

from conftest import polytope_specimens, random_unimodular, transform
from oracles import nullspace_hull
from tquot import gallery
from tquot.polytope import convex_hull, facet_incidence


def _others(rng, points):
    """Points the hull was not built from, most of them: the midpoint
    of two of the points, on a face or inside; a point beyond one of
    them from another, outside or repeated; and a point shifted off it
    along every axis, mostly off the affine hull."""
    a, b = rng.choice(points), rng.choice(points)
    return [
        tuple((x + y) / 2 for x, y in zip(a, b)),
        tuple(2 * x - y for x, y in zip(a, b)),
        tuple(x + Fraction(1, i + 2) for i, x in enumerate(a)),
    ]


def _assert_same_as_oracle(rng, points, label):
    hull, oracle = convex_hull(points), nullspace_hull(points)
    assert hull.vertices == oracle.vertices, label
    assert hull.facets == oracle.facets, label
    assert hull.facet_vertices == oracle.facet_vertices, label
    assert list(hull.contacts) == oracle.point_facets == facet_incidence(hull, points), label
    others = _others(rng, points)
    mixed = facet_incidence(hull, [*others, *points])
    assert mixed == [*facet_incidence(hull, others), *oracle.point_facets], label
    return hull


def _c8_draws(rng):
    """Three seeded C8 transforms of every gallery specimen, the genus
    families at genus 0..2."""
    for name in gallery.names():
        genera = range(3) if gallery.CATALOG[name].parametrized else [None]
        for g in genera:
            spec = gallery.build(name, genus=g)
            r = spec.torus_rank
            for _ in range(3):
                shift = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(r)]
                scale = Fraction(rng.randint(1, 6), rng.randint(1, 4))
                yield transform(spec, random_unimodular(rng, r), shift, scale)


def test_specimens_and_their_c8_draws_match_the_nullspace_hull():
    rng = random.Random(1996)
    a4 = gallery.coadjoint_orbit(gallery.root_system("A", 4), (2, 1, 0, -1, -2))
    specs = [*polytope_specimens(), a4, *_c8_draws(rng)]
    facets = 0
    for spec in specs:
        hull = _assert_same_as_oracle(rng, [c.moment for c in spec.components], spec.name)
        facets += len(hull.facets)
    # the A4 regular orbit alone has 30 facets, the A3 one 14
    assert len(specs) == 51 and facets > 200


def _cloud(rng):
    """A few rational points on a random affine subspace of a random
    dimension, in an ambient space of dimension 1 to 5; sometimes with
    some of them repeated, shuffled in."""
    ambient = rng.randint(1, 5)
    dim = rng.randint(0, ambient)
    base = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(ambient)]
    basis = [[rng.randint(-2, 2) for _ in range(ambient)] for _ in range(dim)]
    points = []
    for _ in range(rng.randint(1, dim + 6)):
        coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(dim)]
        points.append(
            tuple(base[j] + sum(c * b[j] for c, b in zip(coeffs, basis)) for j in range(ambient))
        )
    if rng.random() < 0.3:
        points += rng.choices(points, k=rng.randint(1, 3))
        rng.shuffle(points)
    return points


def test_random_clouds_match_the_nullspace_hull():
    rng = random.Random(2718)
    kinds = Counter()
    for k in range(2000):
        points = _cloud(rng)
        hull = _assert_same_as_oracle(rng, points, (k, points))
        kinds[hull.ambient_dim, hull.dim] += 1
        kinds["duplicates"] += len(set(points)) < len(points)
        kinds["single point"] += len(set(points)) == 1
        kinds["segment"] += hull.dim == 1 and hull.ambient_dim > 1
    # every ambient dimension 1..5 with every dimension of the hull in it
    assert all(kinds[a, d] for a in range(1, 6) for d in range(a + 1)), kinds
    assert min(kinds["duplicates"], kinds["single point"], kinds["segment"]) > 100, kinds


def test_hull_equality_ignores_the_order_and_repeats_of_its_points():
    # the facets at each point are kept in the order the points were
    # given, which equality and the hash leave out
    for spec in polytope_specimens():
        points = [c.moment for c in spec.components]
        hull = convex_hull(points)
        again = convex_hull([*reversed(points), *points[:2]])
        assert hull == again and hash(hull) == hash(again), spec.name
        assert again.contacts == (*reversed(hull.contacts), *hull.contacts[:2]), spec.name


def test_contacts_keep_each_given_point_repeats_included():
    p, q = (0, 0), (1, 0)
    hull = convex_hull([p, q, p])
    assert len(hull.contacts) == 3 and hull.contacts[0] == hull.contacts[2]
    assert hull.contacts == tuple(facet_incidence(hull, [p, q, p]))


def test_facet_incidence_refuses_points_of_another_length():
    triangle = convex_hull([(0, 0), (1, 0), (0, 1)])
    with pytest.raises(ValueError, match="a point of length 3 for a polytope in dimension 2"):
        facet_incidence(triangle, [(0, 0), (0, 0, 1)])
    with pytest.raises(ValueError, match="length 1 for a polytope in dimension 2"):
        facet_incidence(triangle, [(0,)])
