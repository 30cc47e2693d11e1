"""Exact rational convex polytopes.

Hulls are built by brute-force enumeration of candidate supporting
hyperplanes over affinely independent vertex subsets, with exact
sidedness tests.  Ambient dimension stays small (at most 4 in every
shipped specimen), so robustness wins over asymptotics.  A polytope
that is not full dimensional is enumerated in the pivot coordinates of
its direction space, a projection that is injective on its affine hull,
so momentum images of non-effective actions work unchanged.

Denominators are cleared once per routine: `convex_hull` scales all
points by one common integer, and `facet_incidence` scales its points
and the facet offsets by another.  From there the hull runs on integer
points: the primitive normals of the affine hull, candidate normals,
sidedness and facet contacts in the projected coordinates, then each
facet's ambient conormal as the primitive integer vector normal to its
contacts and to the hull normals.  The face normals and the cone test
of `in_cone` run fraction-free too (`exactq.eliminate`).  Only the
vertices and the facet offsets are Fractions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from operator import mul
from typing import Optional

from tquot.exactq import (
    Vector,
    clear_denominators,
    eliminate,
    integral,
    nullspace,
    primitive,
    rank,
    solve_fraction_free,
    vec,
    vsub,
)

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


@dataclass(frozen=True)
class Face:
    id: int
    dim: int
    vertex_set: tuple[int, ...]
    vertex_coords: tuple[Vector, ...]
    # integer normals cutting out the face's direction space: the
    # primitive normals of the polytope's affine hull, then the
    # conormals of the facets containing the face
    normals: tuple[tuple[int, ...], ...]
    supporting: Optional[Facet]
    facets: frozenset[int]  # indices of the facets containing the face

    def parallel(self, w) -> bool:
        """Does the integer vector w lie in the direction space of the face?"""
        return all(sum(map(mul, n, w)) == 0 for n in self.normals)


@dataclass(frozen=True)
class FaceLattice:
    faces: tuple[Face, ...]
    containment: tuple[tuple[int, int], ...]

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

    # supporting hyperplanes from affinely independent d-subsets; a
    # dependent subset leaves more than one normal.  Each one is a facet:
    # it supports the hull and contains d affinely independent points.
    supports: dict[tuple[tuple[int, ...], int], list[int]] = {}
    for comb in combinations(range(len(coords)), d):
        p0 = coords[comb[0]]
        normals = nullspace([[a - b for a, b in zip(coords[i], p0)] for i in comb[1:]], d)
        if len(normals) != 1:
            continue
        n = normals[0]
        c = sum(map(mul, n, p0))
        vals = [sum(map(mul, n, q)) for q in coords]
        if min(vals) < c:
            if max(vals) > c:
                continue
            n, c, vals = tuple(-x for x in n), -c, [-x for x in vals]
        if (n, c) not in supports:
            supports[n, c] = [i for i, x in enumerate(vals) if x == c]

    # extreme points: active conormals span the full coordinate space
    active_normals: dict[int, list] = {i: [] for i in range(len(pts))}
    for (n, _), contact in supports.items():
        for i in contact:
            active_normals[i].append(n)
    vertex_idx = [i for i in range(len(pts)) if rank(active_normals[i]) == d]
    vertex_idx.sort(key=lambda i: pts[i])
    vertices = tuple(pts[i] for i in vertex_idx)

    # the ambient conormal of a facet is normal to its contacts and lies
    # in the affine hull's directions; a point off the facet signs it
    facets = []
    for contact in supports.values():
        q0 = ints[contact[0]]
        rows = [[a - b for a, b in zip(ints[i], q0)] for i in contact[1:]]
        [w] = nullspace([*rows, *hull_normals], ambient)
        level = sum(map(mul, w, q0))
        off = next(i for i in range(len(ints)) if i not in contact)
        if sum(map(mul, w, ints[off])) < level:
            w, level = tuple(-x for x in w), -level
        facets.append((w, Fraction(level, scale)))
    facets.sort()
    return RationalPolytope(ambient, vertices, tuple(facets), hull_normals)


def facet_incidence(p: RationalPolytope, points) -> list[Optional[frozenset[int]]]:
    """For each point, the indices of the facets it lies on, or None
    when the point is outside the polytope.

    The offsets ride along as one more vector, so that one scale clears
    the denominators of the points and the offsets and every slack is
    an integer.
    """
    ints, _ = clear_denominators([*points, [o for _, o in p.facets]])
    levels = ints.pop()
    incidence = []
    for q in ints:
        slack = [sum(map(mul, c, q)) - level for (c, _), level in zip(p.facets, levels)]
        inside = all(x >= 0 for x in slack)
        incidence.append(frozenset(i for i, x in enumerate(slack) if x == 0) if inside else None)
    return incidence


def face_lattice(p: RationalPolytope) -> FaceLattice:
    """Every nonempty face of the polytope, ordered by dimension.

    Faces are intersections of facet vertex sets, so the closure of the
    facet contacts under pairwise intersection enumerates all of them;
    the polytope itself is the unique maximum.
    """
    nv = len(p.vertices)
    incidence = facet_incidence(p, p.vertices)
    sets: set[frozenset[int]] = {frozenset(range(nv))}
    for i in range(len(p.facets)):
        sets.add(frozenset(v for v, on in enumerate(incidence) if i in on))
    worklist = list(sets)
    while worklist:
        s = worklist.pop()
        for t in list(sets):
            meet = s & t
            if meet and meet not in sets:
                sets.add(meet)
                worklist.append(meet)

    # the face's direction space is cut out of the affine hull's
    # directions by the conormals of the facets containing it: the
    # facets its vertices all lie on
    described = []
    for s in sets:
        vs = tuple(sorted(s))
        containing = frozenset.intersection(*(incidence[v] for v in vs))
        normals = p.normals + tuple(p.facets[i][0] for i in sorted(containing))
        described.append((p.ambient_dim - rank(normals), vs, normals, containing))
    described.sort(key=lambda t: (t[0], t[1]))

    faces = []
    for fid, (dim, vs, normals, containing) in enumerate(described):
        if len(vs) == nv and dim == p.dim:
            supporting = None
        else:
            total = [sum(column) for column in zip(*(p.facets[i][0] for i in containing))]
            total_off = sum(p.facets[i][1] for i in containing)
            conormal = primitive(total)
            lam = next(Fraction(a, b) for a, b in zip(conormal, total) if b)
            supporting = (conormal, lam * total_off)
        coords = tuple(p.vertices[i] for i in vs)
        faces.append(Face(fid, dim, vs, coords, normals, supporting, containing))

    vertex_sets = [frozenset(f.vertex_set) for f in faces]
    containment = tuple(
        (a, b)
        for a, sa in enumerate(vertex_sets)
        for b, sb in enumerate(vertex_sets)
        if sa < sb
    )
    return FaceLattice(tuple(faces), containment)


def tangent_cone(p: RationalPolytope, v: int):
    """Primitive generators of the edge directions at vertex v.

    The cone they span is the set of directions pointing into the
    polytope at that vertex.
    """
    gens = []
    for f in p.lattice.faces:
        if f.dim == 1 and v in f.vertex_set:
            other = next(i for i in f.vertex_set if i != v)
            gens.append(primitive(vsub(p.vertices[other], p.vertices[v])))
    return tuple(sorted(gens))


def in_cone(target, generators) -> bool:
    """Exact membership of a vector in the cone spanned by generators.

    Caratheodory: the vector lies in the cone iff it is a nonnegative
    combination of some linearly independent subset.  Every vector is
    first scaled by a positive integer to an integer vector, and each
    subset is solved fraction-free.
    """
    target = integral(target)
    if not any(target):
        return True
    gens = [integral(g) for g in generators]
    bound = min(len(gens), len(target))
    for k in range(1, bound + 1):
        for subset in combinations(gens, k):
            solution = solve_fraction_free(subset, target)
            if solution is not None and all(x * solution[1] >= 0 for x in solution[0]):
                return True
    return False


def cones_equal(gens_a, gens_b) -> bool:
    return all(in_cone(g, gens_b) for g in gens_a) and all(
        in_cone(g, gens_a) for g in gens_b
    )
