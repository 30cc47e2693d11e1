"""The incremental hull and the vertex-cone test at scale.

`convex_hull` builds facets by double description, and V4 reads the
edge directions as the extreme rays of the tangent cone.  Where the
brute-force hull is out of reach (the A4 regular orbit has C(120, 4) =
8 214 570 candidates), the face counts are checked against theory.  V4
is compared with the Caratheodory cone equality it once replaced, and
its witnesses with those of the weight-cone test it replaced since,
which the oracle decides by Caratheodory membership of each edge
direction, without a hull (tests/oracles.py), at every vertex of every specimen, under
seeded sign changes and merges of the weights.  The hull's own
differential tests against the brute-force oracle are in
test_fraction_free.py; here the contact masks it keeps are checked
against the slacks, on the moments and on the weight cones of the draws.
"""

import random
from math import comb

import pytest

from conftest import polytope_specimens
from oracles import cones_equal, weight_cone_witness
from tquot import classify, gallery
from tquot.classify import StratificationOnly
from tquot.exactq import clear_denominators, eliminate, vec
from tquot.hamspace import _tangent_cone_witness
from tquot.polytope import _facets


@pytest.fixture(scope="module")
def a4_regular():
    return gallery.coadjoint_orbit(gallery.root_system("A", 4), (2, 1, 0, -1, -2))


def _f_vector(poly):
    dims = [f.dim for f in poly.lattice.faces]
    return tuple(dims.count(k) for k in range(poly.dim))


def test_a4_permutohedron_face_counts(a4_regular):
    # the permutohedron of order 5: faces of dimension k are the ordered
    # set partitions of {1..5} into 5 - k blocks
    poly = a4_regular.polytope
    assert poly.dim == 4
    assert _f_vector(poly) == (120, 240, 150, 30)


def test_a4_regular_orbit_classifies_to_stratification_only(a4_regular):
    report = classify(a4_regular)
    assert report.verdict == StratificationOnly()
    assert report.validation.ok
    assert report.stratification.complexity == 10 - 4


def test_sphere_product_zonotope_face_counts():
    # (S^2)^5 under T^4: the zonotope of five generators in general
    # position in R^4 has 2 C(5, 3) facets and 2 (C(4,0)+...+C(4,3)) vertices
    e = [tuple(int(i == j) for j in range(4)) for i in range(4)]
    poly = gallery.sphere_product([*e, (1, 1, 1, 1)], 4).polytope
    assert len(poly.facets) == 2 * comb(5, 3) == 20
    assert len(poly.vertices) == 2 * sum(comb(4, i) for i in range(4)) == 30


def _sign_changes(rng, weights):
    """The weights, all negated, one negated, and one entry of one
    weight with its sign flipped."""
    out = [weights, tuple(tuple(-x for x in w) for w in weights)]
    if weights:
        i = rng.randrange(len(weights))
        out.append(weights[:i] + (tuple(-x for x in weights[i]),) + weights[i + 1 :])
        nonzero = [(i, j) for i, w in enumerate(weights) for j, x in enumerate(w) if x]
        i, j = rng.choice(nonzero)
        flipped = tuple(-x if k == j else x for k, x in enumerate(weights[i]))
        out.append(weights[:i] + (flipped,) + weights[i + 1 :])
    return out


def test_vertex_cone_matches_cone_equality_oracle():
    rng = random.Random(1996)
    decisions = []
    for spec in polytope_specimens():
        poly = spec.polytope
        for comp in spec.components:
            if comp.moment not in poly.vertices:
                continue
            v = poly.vertices.index(comp.moment)
            edges = poly.lattice.edges[v]
            for weights in _sign_changes(rng, comp.weights):
                ok = _tangent_cone_witness(poly, v, weights) is None
                assert ok == cones_equal(weights, edges), (spec.name, v, weights)
                decisions.append(ok)
    assert decisions.count(True) > 60 and decisions.count(False) > 150


def _merges(rng, weights):
    """The weights all replaced by one of them, and one of them replaced
    by a copy of another and by the sum of two others: the span or the
    cone shrinks, the facet inequalities still hold."""
    if len(weights) < 2:
        return []
    i, j, k = (rng.randrange(len(weights)) for _ in range(3))
    out = [(weights[j],) * len(weights)]
    for w in (weights[j], tuple(a + b for a, b in zip(weights[j], weights[k]))):
        if any(w):
            out.append(weights[:i] + (w,) + weights[i + 1 :])
    return out


# a phrase of each kind of V4 witness
_WITNESSES = ("affine hull", "violates", "outside the span", "not in the weight cone")


def test_vertex_cone_witness_matches_weight_cone_oracle(a4_regular):
    # V4 by extreme rays names the same witness as V4 by membership of
    # the edge directions in the weight cone, on the draws above and on
    # merges
    rng = random.Random(1996)
    kinds = []
    for spec in [*polytope_specimens(), a4_regular]:
        poly = spec.polytope
        index = {v: i for i, v in enumerate(poly.vertices)}
        for comp in spec.components:
            v = index.get(comp.moment)
            if v is None:
                continue
            for weights in _sign_changes(rng, comp.weights) + _merges(rng, comp.weights):
                witness = _tangent_cone_witness(poly, v, weights)
                assert witness == weight_cone_witness(poly, v, weights), (spec.name, v, weights)
                kinds.append(witness and next(k for k in _WITNESSES if k in witness))
    # every kind of witness, and none, is drawn
    assert min(kinds.count(k) for k in (None, *_WITNESSES)) > 150


def _projected(points):
    """The distinct points as convex_hull hands them to _facets: scaled
    to integers and projected onto the pivot coordinates of their
    directions."""
    ints, _ = clear_denominators(list(dict.fromkeys(vec(p) for p in points)))
    pivots, _ = eliminate([[a - b for a, b in zip(q, ints[0])] for q in ints])
    return [tuple(q[j] for j in pivots) for q in ints], len(pivots)


def test_facet_contacts_are_the_points_with_zero_slack(a4_regular):
    # the masks the double description keeps, on the moments of every
    # specimen and on the hull of 0 and the weights of each draw above
    rng = random.Random(1996)
    point_sets = []
    for spec in [*polytope_specimens(), a4_regular]:
        point_sets.append([c.moment for c in spec.components])
        index = {v: i for i, v in enumerate(spec.polytope.vertices)}
        for comp in spec.components:
            if comp.moment in index:
                for weights in _sign_changes(rng, comp.weights) + _merges(rng, comp.weights):
                    point_sets.append([(0,) * spec.torus_rank, *weights])
    facets = 0
    for points in point_sets:
        coords, d = _projected(points)
        if d == 0:
            continue
        for n, c, mask in _facets(coords, d):
            slacks = [sum(a * b for a, b in zip(n, q)) - c for q in coords]
            assert min(slacks) == 0, points
            assert mask == sum(1 << i for i, s in enumerate(slacks) if s == 0), points
            facets += 1
    assert facets > 10000
