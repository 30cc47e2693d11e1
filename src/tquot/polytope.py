"""Exact rational convex polytopes.

Hulls are built by brute-force enumeration of candidate supporting
hyperplanes over affinely independent vertex subsets, with exact
sidedness tests.  Ambient dimension stays small (at most 4 in every
shipped specimen), so robustness wins over asymptotics.  Polytopes that
are not full dimensional are handled in coordinates of their affine
hull and mapped back, so momentum images of non-effective actions work
unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from typing import Optional

from tquot.exactq import (
    Vector,
    _Echelon,
    combination_coords,
    dot,
    is_zero,
    primitive,
    rank,
    solve_affine,
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
    direction_basis: tuple[Vector, ...]
    supporting: Optional[Facet]
    facets: frozenset[int]  # indices of the facets containing the face


@dataclass(frozen=True)
class FaceLattice:
    faces: tuple[Face, ...]
    containment: tuple[tuple[int, int], ...]

    @property
    def top(self) -> Face:
        return max(self.faces, key=lambda f: len(f.vertex_set))

    def face(self, face_id: int) -> Face:
        return self.faces[face_id]

    def proper_faces(self) -> tuple[Face, ...]:
        top_id = self.top.id
        return tuple(f for f in self.faces if f.id != top_id)

    def sub_ids(self, face_id: int) -> tuple[int, ...]:
        return tuple(a for a, b in self.containment if b == face_id)

    def super_ids(self, face_id: int) -> tuple[int, ...]:
        return tuple(b for a, b in self.containment if a == face_id)


def _dedupe(points: list[Vector]) -> list[Vector]:
    return list(dict.fromkeys(points))


def _nullspace_line(rows, ncols) -> Vector:
    """One nonzero solution of rows * n = 0 for an (ncols-1)-rank system."""
    ech = _Echelon()
    for r in rows:
        ech.add(r)
    reduced = ech.rows
    pivots = ech.pivots
    free = next(c for c in range(ncols) if c not in pivots)
    n = [Fraction(0)] * ncols
    n[free] = Fraction(1)
    # back substitution against the echelon rows, in reverse pivot order
    for row, p in sorted(zip(reduced, pivots), key=lambda t: -t[1]):
        n[p] = -sum(row[c] * n[c] for c in range(ncols) if c != p) / row[p]
    return tuple(n)


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

    coords = [combination_coords(vsub(p, base), basis) for p in pts]

    # candidate supporting hyperplanes from affinely independent d-subsets
    supports: dict[tuple[tuple[int, ...], Fraction], list[int]] = {}
    for comb in combinations(range(len(pts)), d):
        p0 = coords[comb[0]]
        diffs = [vsub(coords[i], p0) for i in comb[1:]]
        if d > 1 and rank(diffs) != d - 1:
            continue
        n = primitive(_nullspace_line(diffs, d)) if d > 1 else (1,)
        c = dot(n, p0)
        vals = [dot(n, q) for q in coords]
        if all(x >= c for x in vals):
            pass
        elif all(x <= c for x in vals):
            n = tuple(-x for x in n)
            c = -c
            vals = [-x for x in vals]
        else:
            continue
        contact = [i for i, x in enumerate(vals) if x == c]
        key = (n, c)
        if key not in supports:
            # keep true facets only: contact set affinely spans the hyperplane
            if d == 1 or rank([vsub(coords[i], coords[contact[0]]) for i in contact]) == d - 1:
                supports[key] = contact

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
        offset = lam * (dot(w0, base) + c)
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
    all_verts = frozenset(range(nv))
    sets: set[frozenset[int]] = {all_verts}
    contact_of_facet: list[frozenset[int]] = []
    for conormal, offset in p.facets:
        contact = frozenset(
            i for i, v in enumerate(p.vertices) if dot(conormal, v) == offset
        )
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

    described = []
    for s in sets:
        vs = tuple(sorted(s))
        coords = tuple(p.vertices[i] for i in vs)
        _, basis = solve_affine(coords)
        described.append((len(basis), vs, coords, basis))
    described.sort(key=lambda t: (t[0], t[1]))

    faces = []
    for fid, (dim, vs, coords, basis) in enumerate(described):
        containing = frozenset(
            i for i, contact in enumerate(contact_of_facet) if contact.issuperset(vs)
        )
        if len(vs) == nv and dim == p.dim:
            supporting = None
        else:
            total = [Fraction(0)] * p.ambient_dim
            total_off = Fraction(0)
            for i in sorted(containing):
                conormal, offset = p.facets[i]
                total = [a + b for a, b in zip(total, conormal)]
                total_off += offset
            conormal = primitive(total)
            lam = next(Fraction(a, b) for a, b in zip(conormal, total) if b)
            supporting = (conormal, lam * total_off)
        faces.append(Face(fid, dim, vs, coords, basis, supporting, containing))

    containment = tuple(
        (a.id, b.id)
        for a in faces
        for b in faces
        if a.id != b.id and set(a.vertex_set) < set(b.vertex_set)
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
    combination of some linearly independent subset.
    """
    target = vec(target)
    if is_zero(target):
        return True
    gens = [vec(g) for g in generators]
    bound = min(len(gens), len(target))
    for k in range(1, bound + 1):
        for subset in combinations(gens, k):
            if rank(subset) != k:
                continue
            coeffs = combination_coords(target, subset)
            if coeffs is not None and all(c >= 0 for c in coeffs):
                return True
    return False


def cones_equal(gens_a, gens_b) -> bool:
    return all(in_cone(g, gens_b) for g in gens_a) and all(
        in_cone(g, gens_a) for g in gens_b
    )
