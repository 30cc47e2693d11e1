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
the given points by one common integer before it drops repeats and
sorts them, and `facet_incidence` scales its points, the facet offsets
and a vertex by another.  From there the hull runs on integer points:
the primitive normals of the affine hull, a nullspace of the affinely
independent points one elimination finds, the facets and the bitmasks
of their contacts in the projected coordinates, the vertices as the
points where the facets through them meet alone, then each facet's
ambient conormal lifted from its projected normal by one map per hull.  The hull keeps what the
contacts tell, as bitmasks: the vertices on each facet, on which the
face lattice runs, and as `contacts` the facets at each point it was
handed, in the order given and repeats included (bit i for
`facets[i]`, as in every set of facets here), which the face readings
take; `facet_incidence` finds them by slacks for the points of any
other polytope.  The cone test `in_cone` reads the facets through the
origin of one more hull.  Only the vertices and the facet offsets are
Fractions.  A face is its dimension, its vertex indices and the facets
containing it; the lattice adds, as `below`, the ascending ids of the
facets of each face (each below its face's id, since faces go by
dimension), and is built level by level on bitmasks alone, with no
coordinate arithmetic.  Points come in through `exactq.vec`, so an
entry that is not an int or a Fraction raises ValueError.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd
from operator import mul
from typing import NamedTuple, Optional

from tquot.exactq import Vector, clear_denominators, eliminate, nullspace, vec

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
    # per facet, the bitmask of the vertices on it
    facet_vertices: tuple[int, ...]
    # per point handed to convex_hull, in that order and repeats
    # included, the bitmask of the facets it lies on; the same polytope
    # built from other points is equal, so they are left out of equality
    contacts: tuple[int, ...] = field(compare=False, repr=False)

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

    def facet_signs(self, w) -> tuple[int, int]:
        """The bitmasks of the facets whose conormal the integer vector w
        meets with 0 and with < 0, in one pass over the facets."""
        zero = negative = 0
        for i, (n, _) in enumerate(self.facets):
            if not (s := sum(map(mul, n, w))):
                zero |= 1 << i
            elif s < 0:
                negative |= 1 << i
        return zero, negative


class Face(NamedTuple):
    id: int
    dim: int
    vertex_set: tuple[int, ...]
    facets: int  # bitmask of the facets containing the face: bit i for facets[i]


class FaceLattice(NamedTuple):
    faces: tuple[Face, ...]
    below: tuple[tuple[int, ...], ...]  # per face, the ascending ids of its facets

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
    given = [vec(p) for p in points]
    if not given:
        raise ValueError("no points")
    ambient = len(given[0])
    if any(len(p) != ambient for p in given):
        raise ValueError("points of mixed length")
    # the points scaled once to integers by a common positive factor,
    # which keeps their order; the distinct ones go in lexicographic
    # order, so that the cost does not depend on the order given and the
    # vertices come sorted, each with its Fraction coordinates
    scaled, scale = clear_denominators(given)
    point_of = dict(zip(scaled, given))
    ints = sorted(point_of)
    pts = [point_of[q] for q in ints]
    place = {q: i for i, q in enumerate(ints)}
    # the normals of the affine hull, from the affinely independent
    # points one elimination finds, each last nonzero on a column that
    # is not a pivot of its directions; and the points projected onto
    # the pivot coordinates, which is injective on the hull
    diffs = [[a - b for a, b in zip(q, ints[0])] for q in ints[1:]]
    independent, _ = eliminate([list(column) for column in zip(*diffs)])
    hull_normals = tuple(nullspace([diffs[k] for k in independent], ambient))
    free = {max(j for j, x in enumerate(n) if x) for n in hull_normals}
    pivots = [j for j in range(ambient) if j not in free]
    d = len(pivots)
    if d == 0:
        return RationalPolytope(ambient, (pts[0],), (), hull_normals, (), (0,) * len(given))
    coords = [tuple(q[j] for j in pivots) for q in ints]

    # each facet with its contacts, as the double description keeps them,
    # its normal lifted to the ambient conormal, read at its first contact
    lift = _lift(hull_normals, pivots, ambient)
    supports = []
    for n, _, mask in _facets(coords, d):
        contact = [i for i in range(len(pts)) if mask >> i & 1]
        w = lift(n)
        supports.append((w, Fraction(sum(map(mul, w, ints[contact[0]])), scale), mask, contact))
    supports.sort()  # by conormal, as no two facets share one

    # a point is a vertex iff the facets through it meet in it alone
    meet = [(1 << len(pts)) - 1] * len(pts)
    at = [0] * len(pts)  # per point, the bitmask of the facets through it
    for f, (_, _, mask, contact) in enumerate(supports):
        for i in contact:
            meet[i] &= mask
            at[i] |= 1 << f
    vertex_idx = [i for i, m in enumerate(meet) if m == 1 << i]
    bit = {i: 1 << v for v, i in enumerate(vertex_idx)}
    return RationalPolytope(
        ambient,
        tuple(pts[i] for i in vertex_idx),
        tuple((w, offset) for w, offset, _, _ in supports),
        hull_normals,
        tuple(sum(bit.get(i, 0) for i in contact) for *_, contact in supports),
        tuple(at[place[q]] for q in scaled),
    )


def _lift(hull_normals, pivots, ambient):
    """The map from a facet normal in the pivot coordinates to its
    ambient conormal, keeping the orientation.  The normal put back at
    the pivot coordinates meets the affine hull's directions as it meets
    their projection, and so does its part off the hull normals, which
    lies in the directions; the conormal is its primitive multiple."""
    basis = []  # the hull normals made mutually orthogonal, with their squares

    def off(w):
        for b, bb in basis:
            t = sum(map(mul, w, b))
            if t:
                w = [bb * x - t * y for x, y in zip(w, b)]
        g = gcd(*w)
        return tuple(x // g for x in w)

    for u in hull_normals:
        u = off(u)
        basis.append((u, sum(map(mul, u, u))))

    def lift(n):
        w = [0] * ambient
        for j, x in zip(pivots, n):
            w[j] = x
        return off(w)

    return lift


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


def facet_incidence(p: RationalPolytope, points) -> list[Optional[int]]:
    """For each point, the bitmask of the facets it lies on, or None
    when the point is outside the polytope: off its affine hull, or
    beneath one of its facets.  A point whose length is not the
    polytope's ambient dimension raises ValueError.

    The offsets and a vertex ride along as two more vectors, so that
    one scale clears the denominators of the points, the offsets and
    the vertex, and every slack is an integer.
    """
    for q in points:
        if len(q) != p.ambient_dim:
            raise ValueError(f"a point of length {len(q)} for a polytope in dimension {p.ambient_dim}")
    ints, _ = clear_denominators([*points, [o for _, o in p.facets], p.vertices[0]])
    *ints, levels, base = ints
    hull = [sum(map(mul, n, base)) for n in p.normals]
    incidence = []
    for q in ints:
        slack = [sum(map(mul, c, q)) - level for (c, _), level in zip(p.facets, levels)]
        inside = all(x >= 0 for x in slack) and all(
            sum(map(mul, n, q)) == h for n, h in zip(p.normals, hull)
        )
        incidence.append(sum(1 << i for i, x in enumerate(slack) if x == 0) if inside else None)
    return incidence


def face_lattice(p: RationalPolytope) -> FaceLattice:
    """Every nonempty face of the polytope, ordered by dimension and
    then by vertex set, and the facets of each face.

    The walk goes down from the polytope on vertex sets as bitmasks
    (Kaibel & Pfetsch, "Computing the face lattice of a polytope from
    its vertex-facet incidences", Comput. Geom. 23, 2002): the facets of
    a face F are the maximal sets among F & G over the facets G of the
    polytope that do not contain F.  A face's dimension is its level.
    """
    nv = len(p.vertices)
    top = (1 << nv) - 1
    facets = [(1 << i, g) for i, g in enumerate(p.facet_vertices)]
    # vertex mask -> (dim, vertex set, the bitmask of the facets containing the face)
    found = {top: (p.dim, tuple(range(nv)), 0)}
    below: dict[int, list[int]] = {}  # vertex mask -> the masks of its facets
    levels = [[top]]  # the faces by dimension, from the top down
    for dim in range(p.dim - 1, -1, -1):
        lower = []
        for f in levels[-1]:
            _, vs, containing = found[f]
            # each meet, with the facets G that meet F in it; G holds F
            # iff F's vertices lie in G's
            meets: dict[int, int] = {}
            for b, g in facets:
                if (m := f & g) and m != f:
                    meets[m] = meets.get(m, 0) | b
            # a set no larger than the ones kept is maximal iff none of
            # them holds it; the meets of an edge are its two vertices.
            # A facet h of F is held by the facets that hold F and by
            # those that meet F in h: one that met F in more would make
            # a meet larger than h
            kept = below[f] = []
            for h in sorted(meets, key=int.bit_count, reverse=True) if dim else meets:
                for k in kept:
                    if h & k == h:
                        break
                else:
                    kept.append(h)
                    if h not in found:
                        found[h] = (dim, tuple([v for v in vs if h >> v & 1]), containing | meets[h])
                        lower.append(h)
        levels.append(lower)

    order = [h for level in reversed(levels) for h in sorted(level, key=lambda h: found[h][1])]
    ids = {mask: fid for fid, mask in enumerate(order)}
    faces = tuple(Face(fid, *found[mask]) for fid, mask in enumerate(order))
    below_ids = tuple(tuple(sorted(map(ids.__getitem__, below.get(mask, ())))) for mask in order)
    return FaceLattice(faces, below_ids)


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
