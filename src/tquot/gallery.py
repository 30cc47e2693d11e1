"""Generators for the shipped specimens.

Coadjoint orbits are produced from first principles: enumerate the Weyl
orbit of a dominant weight and attach, at each orbit point w(lambda),
the weights -w(alpha) over the positive roots alpha off the stabilizer.
A_n and B_2 act by signed permutations, so the orbit only moves and
negates coordinates.
The sign convention is not taken on faith; the vertex-cone validation
check pins it, and the generator tests enforce that.

Sphere products, surface bundles and projective spaces follow the
standard linear-action rules for moments and isotropy weights.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, NamedTuple, Optional

from tquot.exactq import dot, exact, vec
from tquot.hamspace import (
    HamSpec,
    point_component,
    surface_component,
)


class GalleryError(ValueError):
    pass


class RootSystemData(NamedTuple):
    """The positive roots, and the Weyl group's generators as signed
    permutations: one (column, sign) per row, so (g v)_i = sign * v[column]."""

    positive_roots: tuple[tuple[int, ...], ...]
    weyl_generators: tuple[tuple[tuple[int, int], ...], ...]


def root_system(type_label: str, rank: int) -> RootSystemData:
    [rank] = exact((rank,), "a rank must be an integer", error=GalleryError)
    if type_label == "A" and rank >= 1:
        n = rank + 1
        roots = tuple(
            tuple(1 if k == i else -1 if k == j else 0 for k in range(n))
            for i in range(n)
            for j in range(i + 1, n)
        )
        ident = [(r, 1) for r in range(n)]
        gens = tuple((*ident[:i], ident[i + 1], ident[i], *ident[i + 2:]) for i in range(n - 1))
        return RootSystemData(roots, gens)
    if type_label == "B" and rank == 2:
        roots = ((1, -1), (0, 1), (1, 0), (1, 1))
        swap = ((1, 1), (0, 1))
        flip = ((0, 1), (1, -1))
        return RootSystemData(roots, (swap, flip))
    raise GalleryError(f"unsupported root system {type_label}{rank}")


def _apply(g, v):
    """g v for a signed permutation g: integers for an integer v, exact for a rational one."""
    return tuple(v[j] if s > 0 else -v[j] for j, s in g)


def _weyl_orbit(rs: RootSystemData, lam, roots):
    """All pairs (w(lambda), the images w(alpha) of the roots) over the
    Weyl group, deduplicated by point; exact, since coadjoint_orbit
    hands it a checked lambda.  A new point w'(lambda) = g(w(lambda))
    takes its images from its parent's: w'(alpha) = g(w(alpha))."""
    seen = {lam: tuple(roots)}
    frontier = [lam]
    while frontier:
        point = frontier.pop()
        for g in rs.weyl_generators:
            gp = _apply(g, point)
            if gp not in seen:
                seen[gp] = tuple(_apply(g, a) for a in seen[point])
                frontier.append(gp)
    return sorted(seen.items())


def coadjoint_orbit(rs: RootSystemData, lam, name: str = "coadjoint-orbit") -> HamSpec:
    """HamSpec of the orbit through a dominant weight lambda.

    Fixed points are the Weyl orbit; the point w(lambda) carries the
    weights -w(alpha) over the positive roots alpha not fixing lambda.
    """
    lam = vec(lam, "lambda must be integers or Fractions", GalleryError)
    ambient = len(rs.positive_roots[0])
    if len(lam) != ambient:
        raise GalleryError(f"lambda of length {len(lam)} for a root system on {ambient} coordinates")
    for alpha in rs.positive_roots:
        if dot(lam, alpha) < 0:
            raise GalleryError("lambda is not dominant")
    active = [alpha for alpha in rs.positive_roots if dot(lam, alpha) != 0]
    if not active:
        raise GalleryError("degenerate orbit: lambda is Weyl invariant")
    components = []
    for point, images in _weyl_orbit(rs, lam, active):
        weights = tuple(tuple(-x for x in a) for a in images)
        components.append(point_component(point, weights))
    return HamSpec(name, ambient, len(active), tuple(components))


def sphere_product(factor_weights, torus_rank: int, name: str = "sphere-product") -> HamSpec:
    """Product of rotating two-spheres; the momentum map adds the
    weighted heights.  Fixed points are the pole combinations."""
    [torus_rank] = exact((torus_rank,), "a torus rank must be an integer", error=GalleryError)
    what = "factor weights must be integer vectors"
    factors = [exact(w, what, error=GalleryError) for w in factor_weights]
    for w in factors:
        if len(w) != torus_rank:
            raise GalleryError("factor weight length differs from the torus rank")
        if all(x == 0 for x in w):
            raise GalleryError("a rotated sphere factor needs a nonzero weight")
    components = []
    k = len(factors)
    for mask in range(1 << k):
        signs = [1 if mask & (1 << f) else -1 for f in range(k)]
        moment = [0] * torus_rank
        for s, w in zip(signs, factors):
            for j in range(torus_rank):
                moment[j] += s * w[j]
        weights = tuple(tuple(-s * x for x in w) for s, w in zip(signs, factors))
        components.append(point_component(moment, weights))
    return HamSpec(name, torus_rank, k, tuple(components))


def surface_times_sphere(genus: int, name: str = "sigma-g-x-s2") -> HamSpec:
    """Genus-g surface times a rotating sphere: two fixed surfaces at
    the ends of the momentum interval.  The genus must be an int >= 0."""
    [genus] = exact((genus,), f"{name} needs an integer genus", error=GalleryError)
    if genus < 0:
        raise GalleryError(f"{name} needs a genus >= 0, got {genus}")
    comps = (
        surface_component(genus, (0,), ((1,),)),
        surface_component(genus, (1,), ((-1,),)),
    )
    return HamSpec(name, 1, 2, comps)


def blowup_example(genus: int, name: str = "blowup-g") -> HamSpec:
    """The same surface bundle blown up at a fixed point: one extra
    isolated fixed point in the interior of the momentum interval."""
    ends = surface_times_sphere(genus, name).components
    return HamSpec(name, 1, 2, (*ends, point_component((Fraction(1, 2),), ((1,), (-1,)))))


def projective_space(coord_weights, name: str = "projective-space") -> HamSpec:
    """Complex projective space with a linear torus action.

    Homogeneous coordinates sharing a weight vector span a pointwise
    fixed subspace: a single coordinate gives an isolated fixed point, a
    pair gives a fixed projective line (a genus-zero surface), anything
    larger is outside the data model.  The weight of coordinate j seen
    from the fixed locus at weight w is w_j - w.
    """
    what = "coordinate weights must be integer vectors"
    ws = [exact(w, what, error=GalleryError) for w in coord_weights]
    if len(ws) < 2:
        raise GalleryError("projective space needs at least two coordinates")
    r = len(ws[0])
    if any(len(w) != r for w in ws):
        raise GalleryError("coordinate weights of mixed length")
    groups: dict[tuple[int, ...], list[int]] = {}
    for i, w in enumerate(ws):
        groups.setdefault(w, []).append(i)
    n = len(ws) - 1
    components = []
    for w, idxs in sorted(groups.items()):
        normal = tuple(
            tuple(a - b for a, b in zip(ws[j], w)) for j in range(len(ws)) if j not in idxs
        )
        if len(idxs) == 1:
            components.append(point_component(w, normal))
        elif len(idxs) == 2:
            components.append(surface_component(0, w, normal))
        else:
            raise GalleryError(
                "unsupported fixed component: a fixed locus of complex dimension >= 2"
            )
    return HamSpec(name, r, n, tuple(components))


class GalleryEntry(NamedTuple):
    name: str
    row: int
    summary: str
    reported_quotient: str
    parametrized: bool
    builder: Callable[[Optional[int]], HamSpec]


def _gr2c4(_genus=None):
    rs = root_system("A", 3)
    lam = tuple(Fraction(1, 2) if i < 2 else Fraction(-1, 2) for i in range(4))
    return coadjoint_orbit(rs, lam, name="gr2c4")


def _flag_su3(_genus=None):
    return coadjoint_orbit(root_system("A", 2), (1, 0, -1), name="flag-su3")


def _so5_orbit(_genus=None):
    return coadjoint_orbit(root_system("B", 2), (1, 0), name="so5-orbit")


def _s2xs2_diag(_genus=None):
    return sphere_product([(1,), (1,)], 1, name="s2xs2-diag")


def _cp2_s1(_genus=None):
    return projective_space([(1,), (0,), (0,)], name="cp2-s1")


def _sigma_g(genus=None):
    return surface_times_sphere(1 if genus is None else genus)


def _blowup(genus=None):
    return blowup_example(1 if genus is None else genus)


def _s2cubed(_genus=None):
    return sphere_product([(1, 0), (1, 0), (0, 1)], 2, name="s2cubed")


def _cp5_t3(_genus=None):
    pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    ws = [tuple(1 if k in pair else 0 for k in range(4)) for pair in pairs]
    return projective_space(ws, name="cp5-t3")


CATALOG: dict[str, GalleryEntry] = {
    e.name: e
    for e in [
        GalleryEntry(
            "gr2c4", 1, "Grassmannian of 2-planes in C^4, torus of rank 3", "S^5", False, _gr2c4
        ),
        GalleryEntry(
            "flag-su3", 2, "complete flags in C^3, torus of rank 2", "S^4", False, _flag_su3
        ),
        GalleryEntry(
            "so5-orbit",
            3,
            "oriented real 2-planes in R^5, torus of rank 2",
            "S^4",
            False,
            _so5_orbit,
        ),
        GalleryEntry(
            "s2xs2-diag", 5, "S^2 x S^2 with the diagonal circle", "S^3", False, _s2xs2_diag
        ),
        GalleryEntry(
            "cp2-s1", 6, "CP^2 with one rotated homogeneous coordinate", "D^3", False, _cp2_s1
        ),
        GalleryEntry(
            "sigma-g-x-s2",
            7,
            "genus-g surface times a rotating sphere",
            "I x Sigma_g",
            True,
            _sigma_g,
        ),
        GalleryEntry(
            "blowup-g",
            7,
            "the surface bundle blown up at a fixed point",
            "I x Sigma_g",
            True,
            _blowup,
        ),
        GalleryEntry(
            "s2cubed",
            8,
            "(S^2)^3 with a rank-2 torus",
            "S^3 x I",
            False,
            _s2cubed,
        ),
        GalleryEntry(
            "cp5-t3",
            10,
            "CP^5 as lines in the second exterior power of C^4",
            "S^2 * CP^2 (reported identification; complexity 2)",
            False,
            _cp5_t3,
        ),
    ]
}


def names() -> tuple[str, ...]:
    return tuple(CATALOG)


def build(name: str, genus: Optional[int] = None) -> HamSpec:
    if name not in CATALOG:
        raise GalleryError(f"unknown gallery name {name!r}")
    entry = CATALOG[name]
    if genus is not None and not entry.parametrized:
        raise GalleryError(f"{name} takes no genus parameter")
    return entry.builder(genus)
