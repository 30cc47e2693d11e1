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
