from dataclasses import replace
from fractions import Fraction
from operator import attrgetter

import pytest

from tquot import gallery
from tquot.simplicial import OrderedComplex

# the hull of the component moments, cached on the spec
moment_polytope = attrgetter("polytope")


# the six-vertex real projective plane: H_1 = Z/2
RP2 = OrderedComplex.from_simplices(
    [
        (0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5),
        (1, 2, 4), (2, 3, 5), (1, 3, 4), (2, 4, 5), (1, 3, 5),
    ]
)


def moore_space(n):
    """A two-complex with H_1 = Z/n: the circle a_0 a_1 a_2, a ring
    r_0 ... r_(3n-1) that wraps it n times through an annulus, and the
    cone over the ring from the apex c."""
    a = [i % 3 for i in range(3 * n + 1)]
    r = [3 + i % (3 * n) for i in range(3 * n + 1)]
    c = 3 + 3 * n
    triangles = []
    for i in range(3 * n):
        triangles += [(a[i], a[i + 1], r[i]), (a[i + 1], r[i], r[i + 1]), (c, r[i], r[i + 1])]
    return OrderedComplex.from_simplices(tuple(sorted(t)) for t in triangles)


@pytest.fixture(scope="session")
def gallery_specs():
    """One built spec per catalog entry, default genus for the families."""
    return {name: gallery.build(name) for name in gallery.names()}


def component_at(spec, moment):
    """Index of the unique component whose moment equals the given ints."""
    hits = [
        i
        for i, c in enumerate(spec.components)
        if tuple(map(int, c.moment)) == tuple(moment) and all(x.denominator == 1 for x in c.moment)
    ]
    assert len(hits) == 1
    return hits[0]


def with_component(spec, index, comp):
    comps = spec.components[:index] + (comp,) + spec.components[index + 1 :]
    return replace(spec, components=comps)


def without_component(spec, index):
    comps = spec.components[:index] + spec.components[index + 1 :]
    return replace(spec, components=comps)


def random_unimodular(rng, r):
    m = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
    for _ in range(8):
        a, b = rng.randrange(r), rng.randrange(r)
        if a != b:
            q = rng.randint(-2, 2)
            for j in range(r):
                m[a][j] += q * m[b][j]
    return m


def _apply(m, v):
    return tuple(sum(Fraction(m[i][j]) * Fraction(v[j]) for j in range(len(v))) for i in range(len(m)))


def transform(spec, u, shift, scl):
    """The C8 transform: the unimodular u on moments and weights, then
    the moments scaled by scl and shifted."""
    comps = []
    for c in spec.components:
        moment = tuple(scl * x + s for x, s in zip(_apply(u, c.moment), shift))
        weights = tuple(tuple(int(x) for x in _apply(u, w)) for w in c.weights)
        comps.append(replace(c, moment=moment, weights=weights))
    return replace(spec, components=tuple(comps))


def polytope_specimens():
    """Every catalog specimen, the A3 regular orbit (24 points,
    permutohedron) and Gr(2,5) (the hypersimplex Delta(2,5))."""
    specs = [gallery.build(name) for name in gallery.names()]
    half = Fraction(1, 2)
    specs.append(
        gallery.coadjoint_orbit(gallery.root_system("A", 3), (3 * half, half, -half, -3 * half))
    )
    f = Fraction(1, 5)
    specs.append(
        gallery.coadjoint_orbit(gallery.root_system("A", 4), (3 * f, 3 * f, -2 * f, -2 * f, -2 * f))
    )
    return specs


def random_point_set(rng, dim, count):
    return [
        tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(dim))
        for _ in range(count)
    ]
