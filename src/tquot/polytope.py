"""Exact rational convex polytopes.

A hull is built by the incremental double description method (Fukuda &
Prodon 1996) on integer points: facets are updated point by point, and
two facets combine into a new one only when they meet in a ridge, so
the work follows the facets the hull actually has, not the C(N, d)
d-subsets of the points.  A polytope that is not full dimensional is
built in the pivot coordinates of its direction space, a projection
that is injective on its affine hull, so momentum images of
non-effective actions work unchanged.

Denominators are cleared once per routine: `convex_hull` scales all
points by one common integer, and `facet_incidence` scales its points,
the facet offsets and a vertex by another.  From there the hull runs on
integer points: the primitive normals of the affine hull, the facets
and the bitmasks of their contacts in the projected coordinates, the
vertices as the points where the facets through them meet alone, then
each facet's ambient conormal as the primitive integer vector normal to
its contacts and to the hull normals.  The face lattice runs on
vertex-facet bitmasks, and the cone test `in_cone` reads the facets
through the origin of one more hull.  Only the vertices and the facet
offsets are Fractions.  A face is its dimension, its vertex indices and
the facets containing it; the lattice adds the cover pairs and the edge
directions at each vertex.  Points come in through `exactq.vec`, so an
entry that is not an int or a Fraction raises ValueError.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd
from operator import mul
from typing import Optional

from tquot.exactq import Vector, clear_denominators, eliminate, nullspace, primitive, vec

# a facet is (conormal, offset) meaning <conormal, x> >= offset
Facet = tuple[tuple[int, ...], Fraction]


@dataclass(frozen=True)
class RationalPolytope:
    ambient_dim: int
    vertices: tuple[Vector, ...]
    facets: tuple[Facet, ...]
    # primitive integer normals of the affine hull, one per dimension
    # it lacks: the hull is cut out by <n, x> = <n, v> at any vertex v
    normals: tuple[tuple[int, ...], ...]

    @property
    def dim(self) -> int:
        return self.ambient_dim - len(self.normals)

    @cached_property
    def lattice(self) -> "FaceLattice":
        """The face lattice, built on first use and kept with the polytope."""
        return face_lattice(self)

    def off_hull(self, w) -> Optional[tuple[int, ...]]:
        """The first hull normal the vector w meets with nonzero, or
        None when w lies in the polytope's directions."""
        return next((n for n in self.normals if sum(map(mul, n, w))), None)

    def zero_facets(self, w) -> int:
        """The bitmask of the facets whose conormal the integer vector w
        meets with 0.  A w in the polytope's directions is parallel to a
        face iff these hold the facets containing the face."""
        return sum(1 << i for i, (n, _) in enumerate(self.facets) if not sum(map(mul, n, w)))


@dataclass(frozen=True)
class Face:
    id: int
    dim: int
    vertex_set: tuple[int, ...]
    facets: frozenset[int]  # indices of the facets containing the face


@dataclass(frozen=True)
class FaceLattice:
    faces: tuple[Face, ...]
    covers: tuple[tuple[int, int], ...]  # (a, b) when face a is a facet of face b, sorted
    # per vertex, the sorted primitive integer directions of its edges
    edges: tuple[tuple[tuple[int, ...], ...], ...]

    @property
    def top(self) -> Face:
        """The polytope, last in the (dim, vertex set) order of the faces."""
        return self.faces[-1]

    def face(self, face_id: int) -> Face:
        return self.faces[face_id]

    def proper_faces(self) -> tuple[Face, ...]:
        return self.faces[:-1]


def convex_hull(points) -> RationalPolytope:
    """Convex hull of rational points, with irredundant H-representation.

    Vertices are exactly the extreme points of the input.  Facet
    conormals are primitive integer vectors inside the direction space
    of the affine hull, signed so the polytope lies on the >= side.
    """
    pts = list(dict.fromkeys(vec(p) for p in points))
    if not pts:
        raise ValueError("no points")
    ambient = len(pts[0])
    if any(len(p) != ambient for p in pts):
        raise ValueError("points of mixed length")
    # the points scaled once to integers by a common factor; the normals
    # of their affine hull; and the points projected onto the pivot
    # coordinates of its directions, which is injective on the hull
    ints, scale = clear_denominators(pts)
    diffs = [[a - b for a, b in zip(q, ints[0])] for q in ints]
    hull_normals = tuple(nullspace(diffs, ambient))
    pivots, _ = eliminate(diffs)
    d = len(pivots)
    if d == 0:
        return RationalPolytope(ambient, (pts[0],), (), hull_normals)
    coords = [tuple(q[j] for j in pivots) for q in ints]

    # each facet with its contacts, as the double description keeps them;
    # a point is a vertex iff the facets through it meet in it alone
    supports = [
        (mask, [i for i in range(len(pts)) if mask >> i & 1]) for _, _, mask in _facets(coords, d)
    ]
    meet = [(1 << len(pts)) - 1] * len(pts)
    for mask, contact in supports:
        for i in contact:
            meet[i] &= mask
    vertex_idx = sorted((i for i, m in enumerate(meet) if m == 1 << i), key=lambda i: pts[i])
    vertices = tuple(pts[i] for i in vertex_idx)

    # the ambient conormal of a facet is normal to its contacts and lies
    # in the affine hull's directions; a point off the facet signs it
    facets = []
    for mask, contact in supports:
        q0 = ints[contact[0]]
        rows = [[a - b for a, b in zip(ints[i], q0)] for i in contact[1:]]
        [w] = nullspace([*rows, *hull_normals], ambient)
        level = sum(map(mul, w, q0))
        off = next(i for i in range(len(ints)) if not mask >> i & 1)
        if sum(map(mul, w, ints[off])) < level:
            w, level = tuple(-x for x in w), -level
        facets.append((w, Fraction(level, scale)))
    facets.sort()
    return RationalPolytope(ambient, vertices, tuple(facets), hull_normals)


def _facets(coords, d: int) -> list[tuple[tuple[int, ...], int, int]]:
    """The facets (n, c, contacts), <n, x> >= c with n primitive, of the
    hull of distinct integer points that affinely span R^d, d >= 1;
    contacts is the bitmask of the points on the facet.

    The incremental double description method (Fukuda & Prodon, "Double
    description method revisited", 1996): start from the simplex on d+1
    affinely independent points, the first ones one Bareiss pass finds,
    and insert the other points one at a time.  Each facet keeps its
    contacts among the points inserted so far as a bitmask.  A facet
    with slack 0 at the new point gains it as a contact; one with
    negative slack is dropped.  A dropped facet f and a facet g with
    positive slack that meet in a ridge give the new facet
    s_g h_f - s_f h_g through that ridge and the point.  They meet in a
    ridge iff they share at least d-1 contacts and no third facet holds
    all of them (the combinatorial adjacency test).
    """
    p0 = coords[0]
    pivots, _ = eliminate([[q[j] - p0[j] for q in coords] for j in range(d)])
    simplex = [0, *pivots]
    facets = []  # (normal, offset, contacts)
    for i in simplex:
        rest = [j for j in simplex if j != i]
        q = coords[rest[0]]
        [n] = nullspace([[a - b for a, b in zip(coords[j], q)] for j in rest[1:]], d)
        c = sum(map(mul, n, q))
        if sum(map(mul, n, coords[i])) < c:
            n, c = tuple(-x for x in n), -c
        facets.append((n, c, sum(1 << j for j in rest)))

    for k, p in enumerate(coords):
        if k in simplex:
            continue
        bit = 1 << k
        slacks = [sum(map(mul, n, p)) - c for n, c, _ in facets]
        new = []
        for f, sf in zip(facets, slacks):
            if sf >= 0:
                continue
            for g, sg in zip(facets, slacks):
                if sg <= 0:
                    continue
                ridge = f[2] & g[2]
                if ridge.bit_count() < d - 1 or any(
                    h is not f and h is not g and h[2] & ridge == ridge for h in facets
                ):
                    continue
                n = [sg * a - sf * b for a, b in zip(f[0], g[0])]
                content = gcd(*n)
                c = (sg * f[1] - sf * g[1]) // content
                new.append((tuple(x // content for x in n), c, ridge | bit))
        facets = [
            (n, c, contacts | bit if s == 0 else contacts)
            for (n, c, contacts), s in zip(facets, slacks)
            if s >= 0
        ] + new
    return facets


def facet_incidence(p: RationalPolytope, points) -> list[Optional[frozenset[int]]]:
    """For each point, the indices of the facets it lies on, or None
    when the point is outside the polytope: off its affine hull, or
    beneath one of its facets.

    The offsets and a vertex ride along as two more vectors, so that
    one scale clears the denominators of the points, the offsets and
    the vertex, and every slack is an integer.
    """
    ints, _ = clear_denominators([*points, [o for _, o in p.facets], p.vertices[0]])
    *ints, levels, base = ints
    hull = [sum(map(mul, n, base)) for n in p.normals]
    incidence = []
    for q in ints:
        slack = [sum(map(mul, c, q)) - level for (c, _), level in zip(p.facets, levels)]
        inside = all(x >= 0 for x in slack) and all(
            sum(map(mul, n, q)) == h for n, h in zip(p.normals, hull)
        )
        incidence.append(frozenset(i for i, x in enumerate(slack) if x == 0) if inside else None)
    return incidence


def face_lattice(p: RationalPolytope) -> FaceLattice:
    """Every nonempty face of the polytope, ordered by dimension, the
    cover relation among them and the edge directions at each vertex.

    The walk goes down from the polytope on vertex sets as bitmasks
    (Kaibel & Pfetsch, "Computing the face lattice of a polytope from
    its vertex-facet incidences", Comput. Geom. 23, 2002): the facets of
    a face F are the maximal sets among F & G over the facets G of the
    polytope that do not contain F.  A face's dimension is its level.
    """
    nv = len(p.vertices)
    incidence = facet_incidence(p, p.vertices)
    on = [sum(1 << v for v, at in enumerate(incidence) if i in at) for i in range(len(p.facets))]
    top = (1 << nv) - 1
    # vertex mask -> (dim, vertex set, the facets containing the face)
    found = {top: (p.dim, tuple(range(nv)), frozenset())}
    below: dict[int, list[int]] = {}  # vertex mask -> the masks of its facets
    level = [top]
    for dim in range(p.dim - 1, -1, -1):
        lower = []
        for f in level:
            _, vs, containing = found[f]
            # each meet, with the facets G that meet F in it
            meets: dict[int, set[int]] = {}
            for i, g in enumerate(on):
                if i not in containing and f & g:
                    meets.setdefault(f & g, set()).add(i)
            below[f] = []
            # a set no larger than the ones kept is maximal iff none of
            # them holds it.  A facet h of F is held by the facets that
            # hold F and by those that meet F in h: one that met F in
            # more would make a meet larger than h
            for h in sorted(meets, key=int.bit_count, reverse=True):
                if all(h & k != h for k in below[f]):
                    below[f].append(h)
                    if h not in found:
                        found[h] = (dim, tuple(v for v in vs if h >> v & 1), containing | meets[h])
                        lower.append(h)
        level = lower

    ints, _ = clear_denominators(p.vertices)
    order = sorted(found, key=lambda mask: found[mask][:2])
    faces = []
    edges: list[list] = [[] for _ in ints]
    for fid, mask in enumerate(order):
        dim, vs, containing = found[mask]
        if dim == 1:
            a, b = vs
            edges[a].append(primitive([y - x for x, y in zip(ints[a], ints[b])]))
            edges[b].append(tuple(-x for x in edges[a][-1]))
        faces.append(Face(fid, dim, vs, containing))

    ids = {mask: fid for fid, mask in enumerate(order)}
    covers = tuple(sorted((ids[h], ids[f]) for f, hs in below.items() for h in hs))
    return FaceLattice(tuple(faces), covers, tuple(tuple(sorted(e)) for e in edges))


def in_cone(target, generators) -> bool:
    """Exact membership of a vector in the cone spanned by generators.

    That cone is the tangent cone at the origin of the hull of the
    origin and the generators, so the vector lies in it iff it lies in
    the hull's directions and meets the conormal of every facet through
    the origin with >= 0.
    """
    target = vec(target)
    hull = convex_hull([(0,) * len(target), *generators])
    return hull.off_hull(target) is None and all(
        sum(map(mul, n, target)) >= 0 for n, offset in hull.facets if offset == 0
    )
