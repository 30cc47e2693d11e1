"""Exact rational convex polytopes.

Hulls are built by brute-force enumeration of candidate supporting
hyperplanes over affinely independent vertex subsets, with exact
sidedness tests.  Ambient dimension stays small (at most 4 in every
shipped specimen), so robustness wins over asymptotics.  Polytopes that
are not full dimensional are handled in coordinates of their affine
hull and mapped back, so momentum images of non-effective actions work
unchanged.

Denominators are cleared once per routine: `convex_hull` scales the
affine coordinates of all points by one common integer, and
`face_lattice` does the same for the vertices.  Candidate normals,
sidedness, facet contacts, the face normals and the cone test of
`in_cone` then run fraction-free on Python ints
(`exactq.eliminate`).  Only the map from affine coordinates back to
ambient conormals and offsets uses Fraction.
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
    combination_coords,
    dot,
    integral,
    nullspace,
    primitive,
    rank,
    solve_affine,
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
    affine_hull: tuple[Vector, tuple[Vector, ...]]

    @property
    def dim(self) -> int:
        return len(self.affine_hull[1])

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


def _dedupe(points: list[Vector]) -> list[Vector]:
    return list(dict.fromkeys(points))


def convex_hull(points) -> RationalPolytope:
    """Convex hull of rational points, with irredundant H-representation.

    Vertices are exactly the extreme points of the input.  Facet
    conormals are primitive integer vectors inside the direction space
    of the affine hull, signed so the polytope lies on the >= side.
    """
    pts = _dedupe([vec(p) for p in points])
    if not pts:
        raise ValueError("no points")
    ambient = len(pts[0])
    if any(len(p) != ambient for p in pts):
        raise ValueError("points of mixed length")
    base, basis = solve_affine(pts)
    d = len(basis)
    if d == 0:
        hull_pt = pts[0]
        return RationalPolytope(ambient, (hull_pt,), (), (base, ()))

    # affine coordinates, scaled once to integers by a common factor
    coords, coord_scale = clear_denominators(
        [combination_coords(vsub(p, base), basis) for p in pts]
    )

    # candidate supporting hyperplanes from affinely independent
    # d-subsets; a dependent subset leaves more than one normal.  A
    # candidate that is not a facet is kept as None.
    supports: dict[tuple[tuple[int, ...], int], Optional[list[int]]] = {}
    for comb in combinations(range(len(coords)), d):
        p0 = coords[comb[0]]
        normals = nullspace([[a - b for a, b in zip(coords[i], p0)] for i in comb[1:]], d)
        if len(normals) != 1:
            continue
        n = normals[0]
        c = sum(map(mul, n, p0))
        vals = [sum(map(mul, n, q)) for q in coords]
        if min(vals) >= c:
            pass
        elif max(vals) <= c:
            n = tuple(-x for x in n)
            c = -c
            vals = [-x for x in vals]
        else:
            continue
        key = (n, c)
        if key not in supports:
            contact = [i for i, x in enumerate(vals) if x == c]
            # keep true facets only: contact set affinely spans the hyperplane
            q0 = coords[contact[0]]
            spans = rank([[a - b for a, b in zip(coords[i], q0)] for i in contact]) == d - 1
            supports[key] = contact if spans else None
    supports = {key: contact for key, contact in supports.items() if contact is not None}

    # extreme points: active conormals span the full coordinate space
    active_normals: dict[int, list] = {i: [] for i in range(len(pts))}
    for (n, _), contact in supports.items():
        for i in contact:
            active_normals[i].append(n)
    vertex_idx = [i for i in range(len(pts)) if rank(active_normals[i]) == d]
    vertex_idx.sort(key=lambda i: pts[i])
    vertices = tuple(pts[i] for i in vertex_idx)

    # Gram matrix of the direction basis, for mapping conormals back
    gram = [[dot(bi, bj) for bj in basis] for bi in basis]
    facets = []
    for (n, c), contact in supports.items():
        coeff = combination_coords(n, gram)  # solves gram^T c = n; gram is symmetric
        w0 = tuple(
            sum(coeff[k] * basis[k][j] for k in range(d)) for j in range(ambient)
        )
        w = primitive(w0)
        lam = None
        for a, b in zip(w, w0):
            if b:
                lam = Fraction(a) / b
                break
        offset = lam * (dot(w0, base) + Fraction(c, coord_scale))
        facets.append((w, offset))
    facets.sort()
    return RationalPolytope(ambient, vertices, tuple(facets), (base, basis))


def face_lattice(p: RationalPolytope) -> FaceLattice:
    """Every nonempty face of the polytope, ordered by dimension.

    Faces are intersections of facet vertex sets, so the closure of the
    facet contacts under pairwise intersection enumerates all of them;
    the polytope itself is the unique maximum.
    """
    nv = len(p.vertices)
    # the offsets ride along as one more vector, so that one scale
    # clears the denominators of the vertices and the offsets
    verts, _ = clear_denominators(p.vertices + (tuple(o for _, o in p.facets),))
    levels = verts.pop()
    all_verts = frozenset(range(nv))
    sets: set[frozenset[int]] = {all_verts}
    contact_of_facet: list[frozenset[int]] = []
    for (conormal, _), level in zip(p.facets, levels):
        contact = frozenset(i for i, v in enumerate(verts) if sum(map(mul, conormal, v)) == level)
        contact_of_facet.append(contact)
        sets.add(contact)
    worklist = list(sets)
    while worklist:
        s = worklist.pop()
        for t in list(sets):
            meet = s & t
            if meet and meet not in sets:
                sets.add(meet)
                worklist.append(meet)

    # the face's direction space is cut out of the affine hull's
    # directions by the conormals of the facets containing it
    hull_normals = tuple(nullspace(p.affine_hull[1], p.ambient_dim))
    described = []
    for s in sets:
        vs = tuple(sorted(s))
        containing = frozenset(
            i for i, contact in enumerate(contact_of_facet) if contact.issuperset(s)
        )
        normals = hull_normals + tuple(p.facets[i][0] for i in sorted(containing))
        described.append((p.ambient_dim - rank(normals), vs, normals, containing))
    described.sort(key=lambda t: (t[0], t[1]))

    faces = []
    for fid, (dim, vs, normals, containing) in enumerate(described):
        if len(vs) == nv and dim == p.dim:
            supporting = None
        else:
            total = [0] * p.ambient_dim
            total_off = Fraction(0)
            for i in sorted(containing):
                conormal, offset = p.facets[i]
                total = [a + b for a, b in zip(total, conormal)]
                total_off += offset
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


def relative_interior_point(f: Face) -> Vector:
    """Barycenter of the face's vertices, always relatively interior."""
    k = len(f.vertex_coords)
    if k == 0:
        raise ValueError("empty face")
    n = len(f.vertex_coords[0])
    return tuple(
        sum((c[j] for c in f.vertex_coords), Fraction(0)) / k for j in range(n)
    )


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
