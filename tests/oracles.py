"""Reference algorithms over Fraction, kept as differential oracles.

These are the routines as they were before the polytope layer and the
exact linear algebra moved to fraction-free integer arithmetic: rank,
determinant, affine span and coordinates by rational elimination, the
C(N, d) brute-force hull on top of them, the span-membership parallel
test, the Caratheodory cone test with a rational subset solve (which
`in_cone` ran with an integer solve before it read the facets of a
hull), and on it the cone equality, which decided the vertex-cone check
V4 before it read facet inequalities.  Then the face layer as it was
before it went by covers and integer readings: the face lattice by
pairwise closure of the facet vertex sets with all-pairs containment,
the edge directions by a scan of every face, V4 by the membership of
each edge direction in the weight cone, the face readings by Fraction
membership of the moments and span membership of the weights, V5
ranking the parallel weights of every reading, and V2 and V4 as they
were before they read the face readings, each with its own dict keyed
by the vertices' Fraction coordinates; that V4 tests every weight slot
at every vertex anew, by hull normals, facet conormals and primitive
rays against the scanned edge directions, as it did before it read a
table of the distinct weights and the readings on the edges.  Then the
face readings as they
were taken before they walked up from each moment's carrier face, every
face against every component, and V3 ranking every component, also
those whose vertex cone V4 accepts.  `vertex_coords` and `supporting`
give a face's vertex coordinates and a supporting hyperplane, which the
face lattice no longer keeps, and `containment` all pairs of any
lattice, for tests that assert along containment.  Below
them are the verification model as it was built before it went through
top simplices and a row sweep: the staircase product closed downward in
full, the same product closed from its top simplices (the paths that
the collapse mapped one by one before it emitted the model's top
simplices directly), the fiber collapse that maps every face of that
closure, the pulling triangulation on polytope vertices alone, in which
the short locus is seldom full, and the unit-pivot elimination driven
by a Markowitz heap.  Then comes integral homology by full elimination
of every boundary matrix, as it was before coreduction ran first, and
by seed-vertex coreduction alone, as it was before the cells were
grouped by dimension and free-face reductions took over where
coreduction stalls, and the Euler characteristic as an alternating
count of simplices, which the package no longer needs, and the
surfaces of higher genus by connected sums that copy the whole
surface for each torus, and by one set with a heap of the triangles,
as they were built before the largest triangle was read off the newest
torus.  Last is the trichotomy for circle actions
on four-manifolds, an independent decision for the cases it covers.
Next to the brute-force hull sits the double description hull as it
was before it read every incidence off its contacts: one nullspace per
facet conormal, signed by a point off the facet, and `facet_incidence`
for the vertices on each facet and the facets at each point; and the
hull as it was before it cleared denominators over the given points,
keying and sorting the distinct points as Fraction tuples and taking
the affine hull's normals from every difference, not only from the
affinely independent ones.
Then the gallery's Weyl orbits as they were built before their
generators became signed permutations: each generator an n x n matrix
(`weyl_matrices`), applied by rows (`matvec`) in the same search
(`matrix_weyl_orbit`).  The matrix product `matmul` left the package
when the Weyl orbits stopped composing group elements.
The invariant factors of an integer matrix come from its determinantal
divisors, the gcds of its minors, with no elimination of its own, and
the Smith normal form is kept as it was before it re-picked its pivot
after each remainder: it promotes the remainder in place, and its U and
V grow to thousands of digits on 12 x 12 matrices.
Tests compare the package code against them; nothing in the package
imports this module.
"""

import heapq
from collections import deque, namedtuple
from fractions import Fraction
from functools import reduce
from itertools import combinations
from math import gcd
from operator import and_, mul

from tquot.classify import TopologyReport, ValidationFailure, Verdict
from tquot.exactq import (
    clear_denominators,
    dot,
    eliminate,
    exact,
    nullspace,
    primitive,
    smith_normal_form,
    sparse_rank_and_factors,
    vec,
)
from tquot.exactq import rank
from tquot.hamspace import (
    CheckResult,
    FaceReading,
    SpecError,
    _parens,
    stratify,
    validate,
)
from tquot.polytope import Face, RationalPolytope, _facets, _lift, facet_incidence
from tquot.simplicial import (
    _TORUS_TRIANGLES,
    HomologyProfile,
    OrderedComplex,
    barycentric_pair,
    is_full_subcomplex,
    simplex_boundary_sphere,
)


def vsub(a, b):
    return tuple(Fraction(x) - Fraction(y) for x, y in zip(a, b))


def is_zero(v) -> bool:
    return all(x == 0 for x in v)


def bits(mask: int) -> tuple[int, ...]:
    """The indices of the set bits of a facet bitmask, ascending."""
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


class Echelon:
    """Incremental row-echelon accumulator over Q."""

    def __init__(self):
        self.rows: list[list[Fraction]] = []
        self.pivots: list[int] = []

    def residual(self, v) -> list[Fraction]:
        r = [Fraction(x) for x in v]
        for row, p in zip(self.rows, self.pivots):
            if r[p]:
                f = r[p] / row[p]
                r = [a - f * b for a, b in zip(r, row)]
        return r

    def add(self, v) -> bool:
        """Absorb v if it is independent of the rows; report whether it was."""
        r = self.residual(v)
        for p, x in enumerate(r):
            if x:
                self.rows.append(r)
                self.pivots.append(p)
                return True
        return False

    def contains(self, v) -> bool:
        return all(x == 0 for x in self.residual(v))


def fraction_rank(m) -> int:
    ech = Echelon()
    for row in m:
        ech.add(row)
    return len(ech.rows)


def fraction_solve_affine(points):
    """Basepoint and the first maximal independent subfamily of the differences."""
    pts = [vec(p) for p in points]
    base = pts[0]
    ech = Echelon()
    return base, tuple(d for d in (vsub(p, base) for p in pts[1:]) if ech.add(d))


def fraction_coords(target, basis):
    """Coefficients of target in an independent basis by Gauss-Jordan over
    Fraction, or None outside the span."""
    k = len(basis)
    target = vec(target)
    n = len(target)
    rows = [[Fraction(basis[j][i]) for j in range(k)] + [target[i]] for i in range(n)]
    r = 0
    for col in range(k):
        piv = next(i for i in range(r, n) if rows[i][col])
        rows[r], rows[piv] = rows[piv], rows[r]
        pr = rows[r] = [x / rows[r][col] for x in rows[r]]
        for i in range(n):
            if i != r and rows[i][col]:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], pr)]
        r += 1
    if any(rows[i][k] for i in range(k, n)):
        return None
    return tuple(rows[c][k] for c in range(k))


def fraction_det(m) -> Fraction:
    """Determinant by Gaussian elimination over Fraction."""
    n = len(m)
    if n == 0:
        return Fraction(1)
    rows = [[Fraction(x) for x in row] for row in m]
    sign = 1
    result = Fraction(1)
    for col in range(n):
        piv = next((i for i in range(col, n) if rows[i][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            sign = -sign
        pr = rows[col]
        result *= pr[col]
        for i in range(col + 1, n):
            if rows[i][col]:
                f = rows[i][col] / pr[col]
                rows[i] = [a - f * b for a, b in zip(rows[i], pr)]
    return sign * result


def minor_invariant_factors(a) -> list[int]:
    """The nonzero invariant factors of an integer matrix: d_k = D_k /
    D_(k-1), where D_k is the gcd of all k x k minors (`fraction_det`)
    and D_0 = 1, for each k up to the rank."""
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    factors, prev = [], 1
    for k in range(1, min(nrows, ncols) + 1):
        dk = gcd(
            *(
                int(fraction_det([[a[i][j] for j in cs] for i in rs]))
                for rs in combinations(range(nrows), k)
                for cs in combinations(range(ncols), k)
            )
        )
        if not dk:
            break
        factors.append(dk // prev)
        prev = dk
    return factors


def matmul(a, b) -> list[list]:
    """The matrix product, by which the tests check Smith normal forms;
    the gallery's Weyl orbits composed matrix group elements with it
    before they carried the images of the roots, and before their
    generators became signed permutations."""
    if not a or not b:
        return [list(row) for row in a] if not b else []
    cols_b = len(b[0])
    inner = len(b)
    return [
        [sum(row[k] * b[k][j] for k in range(inner)) for j in range(cols_b)]
        for row in a
    ]


def weyl_matrices(type_label, rank) -> list[tuple[tuple[int, ...], ...]]:
    """The Weyl generators of A_rank (the adjacent transposition
    matrices) or of B_2 (the swap and the sign change of the second
    coordinate) as integer matrices."""
    if type_label == "B":
        return [((0, 1), (1, 0)), ((1, 0), (0, -1))]
    n = rank + 1
    gens = []
    for i in range(n - 1):
        src = [i + 1 if r == i else i if r == i + 1 else r for r in range(n)]
        gens.append(tuple(tuple(int(c == src[r]) for c in range(n)) for r in range(n)))
    return gens


def matvec(matrix, v) -> tuple:
    return tuple(sum(map(mul, row, v)) for row in matrix)


def matrix_weyl_orbit(generators, lam, roots) -> list:
    """Sorted pairs (w(lambda), the images w(alpha) of the roots) over
    the group the matrices generate, by the search `_weyl_orbit` runs."""
    seen = {tuple(lam): tuple(roots)}
    frontier = [tuple(lam)]
    while frontier:
        point = frontier.pop()
        for g in generators:
            gp = matvec(g, point)
            if gp not in seen:
                seen[gp] = tuple(matvec(g, a) for a in seen[point])
                frontier.append(gp)
    return sorted(seen.items())


def identity_matrix(n) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def lattice_membership(v, basis) -> bool:
    """Is v a rational linear combination of the basis vectors?

    An empty basis spans only the zero vector.
    """
    ech = Echelon()
    for b in basis:
        ech.add(b)
    return ech.contains(v)


def _nullspace_line(rows, ncols):
    """One nonzero solution of rows * n = 0 for an (ncols-1)-rank system."""
    ech = Echelon()
    for r in rows:
        ech.add(r)
    free = next(c for c in range(ncols) if c not in ech.pivots)
    n = [Fraction(0)] * ncols
    n[free] = Fraction(1)
    for row, p in sorted(zip(ech.rows, ech.pivots), key=lambda t: -t[1]):
        n[p] = -sum(row[c] * n[c] for c in range(ncols) if c != p) / row[p]
    return tuple(n)


# the oracle's hull: vertices and facets as convex_hull gives them, and
# a Fraction basis of the affine hull's directions
OracleHull = namedtuple("OracleHull", "ambient_dim vertices facets basis")


def brute_force_hull(points) -> OracleHull:
    """Convex hull by C(N, d) enumeration over Fraction affine coordinates."""
    pts = list(dict.fromkeys(vec(p) for p in points))
    ambient = len(pts[0])
    base, basis = fraction_solve_affine(pts)
    d = len(basis)
    if d == 0:
        return OracleHull(ambient, (pts[0],), (), ())
    coords = [fraction_coords(vsub(p, base), basis) for p in pts]
    supports = {}
    for comb in combinations(range(len(pts)), d):
        p0 = coords[comb[0]]
        diffs = [vsub(coords[i], p0) for i in comb[1:]]
        if d > 1 and fraction_rank(diffs) != d - 1:
            continue
        n = primitive(_nullspace_line(diffs, d)) if d > 1 else (1,)
        c = dot(n, p0)
        vals = [dot(n, q) for q in coords]
        if all(x >= c for x in vals):
            pass
        elif all(x <= c for x in vals):
            n, c, vals = tuple(-x for x in n), -c, [-x for x in vals]
        else:
            continue
        contact = [i for i, x in enumerate(vals) if x == c]
        if (n, c) not in supports:
            diffs = [vsub(coords[i], coords[contact[0]]) for i in contact]
            if d == 1 or fraction_rank(diffs) == d - 1:
                supports[(n, c)] = contact
    active = {i: [] for i in range(len(pts))}
    for (n, _), contact in supports.items():
        for i in contact:
            active[i].append(n)
    vertices = tuple(sorted(pts[i] for i in range(len(pts)) if fraction_rank(active[i]) == d))
    gram = [[dot(bi, bj) for bj in basis] for bi in basis]
    facets = []
    for (n, c), _ in supports.items():
        coeff = fraction_coords(n, gram)
        w0 = tuple(sum(coeff[k] * basis[k][j] for k in range(d)) for j in range(ambient))
        w = primitive(w0)
        lam = next(Fraction(a) / b for a, b in zip(w, w0) if b)
        facets.append((w, lam * (dot(w0, base) + c)))
    facets.sort()
    return OracleHull(ambient, vertices, tuple(facets), basis)


# the hull as convex_hull built it before it lifted the conormals: its
# vertices and facets, each facet's vertex bitmask and each point's facets
NullspaceHull = namedtuple("NullspaceHull", "vertices facets facet_vertices point_facets")


def nullspace_hull(points) -> NullspaceHull:
    """The double description's facets and contacts, each ambient
    conormal by one nullspace: the primitive integer vector normal to
    the facet's contacts and to the hull normals, signed by a point off
    the facet.  The vertices on each facet and the facets at each point
    come from `facet_incidence`, as the face lattice and the face
    readings took them before they read the hull's contacts."""
    pts = list(dict.fromkeys(vec(p) for p in points))
    ambient = len(pts[0])
    ints, scale = clear_denominators(pts)
    diffs = [[a - b for a, b in zip(q, ints[0])] for q in ints]
    hull_normals = tuple(nullspace(diffs, ambient))
    pivots, _ = eliminate(diffs)
    vertices, facets = (pts[0],), []
    if pivots:
        coords = [tuple(q[j] for j in pivots) for q in ints]
        supports = [
            (mask, [i for i in range(len(pts)) if mask >> i & 1])
            for _, _, mask in _facets(coords, len(pivots))
        ]
        meet = [(1 << len(pts)) - 1] * len(pts)
        for mask, contact in supports:
            for i in contact:
                meet[i] &= mask
        vertices = tuple(sorted(pts[i] for i, m in enumerate(meet) if m == 1 << i))
        for mask, contact in supports:
            q0 = ints[contact[0]]
            rows = [[a - b for a, b in zip(ints[i], q0)] for i in contact[1:]]
            [w] = nullspace([*rows, *hull_normals], ambient)
            level = sum(a * b for a, b in zip(w, q0))
            off = next(i for i in range(len(ints)) if not mask >> i & 1)
            if sum(a * b for a, b in zip(w, ints[off])) < level:
                w, level = tuple(-x for x in w), -level
            facets.append((w, Fraction(level, scale)))
        facets.sort()
    poly = RationalPolytope(ambient, vertices, tuple(facets), hull_normals, (), ())
    on = facet_incidence(poly, vertices)
    masks = tuple(sum(1 << v for v, at in enumerate(on) if at >> i & 1) for i in range(len(facets)))
    return NullspaceHull(vertices, tuple(facets), masks, facet_incidence(poly, points))


def fraction_keyed_hull(points) -> RationalPolytope:
    """convex_hull as it was before it cleared denominators over the
    given points: the distinct points keyed and sorted as Fraction
    tuples, then scaled to integers, and the normals of the affine hull
    from the nullspace of every point's difference from the first."""
    index = {}
    given = [index.setdefault(vec(p), len(index)) for p in points]
    if not index:
        raise ValueError("no points")
    pts, seen = zip(*sorted(index.items()))
    place = {j: i for i, j in enumerate(seen)}
    ambient = len(pts[0])
    if any(len(p) != ambient for p in pts):
        raise ValueError("points of mixed length")
    ints, scale = clear_denominators(pts)
    diffs = [[a - b for a, b in zip(q, ints[0])] for q in ints]
    hull_normals = tuple(nullspace(diffs, ambient))
    free = {max(j for j, x in enumerate(n) if x) for n in hull_normals}
    pivots = [j for j in range(ambient) if j not in free]
    d = len(pivots)
    if d == 0:
        return RationalPolytope(ambient, (pts[0],), (), hull_normals, (), (0,) * len(given))
    coords = [tuple(q[j] for j in pivots) for q in ints]
    lift = _lift(hull_normals, pivots, ambient)
    supports = []
    for n, _, mask in _facets(coords, d):
        contact = [i for i in range(len(pts)) if mask >> i & 1]
        w = lift(n)
        supports.append((w, Fraction(sum(map(mul, w, ints[contact[0]])), scale), mask, contact))
    supports.sort()
    meet = [(1 << len(pts)) - 1] * len(pts)
    at = [0] * len(pts)
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
        tuple(at[place[j]] for j in given),
    )


def fraction_in_cone(target, generators) -> bool:
    """Caratheodory cone membership with a Fraction subset solve.  An
    independent subset has at most as many members as the rank of the
    generators."""
    target = vec(target)
    if is_zero(target):
        return True
    gens = [vec(g) for g in generators]
    for k in range(1, fraction_rank(gens) + 1):
        for subset in combinations(gens, k):
            if fraction_rank(subset) != k:
                continue
            coeffs = fraction_coords(target, subset)
            if coeffs is not None and all(c >= 0 for c in coeffs):
                return True
    return False


def cones_equal(gens_a, gens_b) -> bool:
    """Do the two families generate the same cone?  Each member of one
    must lie in the cone of the other, by `fraction_in_cone`: the
    vertex-cone test V4 ran before it read facet inequalities."""
    return all(fraction_in_cone(g, gens_b) for g in gens_a) and all(
        fraction_in_cone(g, gens_a) for g in gens_b
    )


# the oracle's face lattice: the faces as face_lattice gives them, every
# pair (a, b) with face a a proper subface of face b, and each face's
# supporting hyperplane by the facet offsets, None for the polytope
OracleLattice = namedtuple("OracleLattice", "faces containment supporting")


def vertex_coords(poly, face):
    """The Fraction coordinates of the face's vertices, in vertex order."""
    return tuple(poly.vertices[i] for i in face.vertex_set)


def supporting(poly, face):
    """A supporting hyperplane (conormal, offset) of a proper face, as
    face_lattice built it before no package code read it: the primitive
    sum of the conormals of the facets containing the face, at the level
    of any of its vertices.  None for the polytope itself."""
    if not face.facets:
        return None
    conormal = primitive([sum(c) for c in zip(*(poly.facets[i][0] for i in bits(face.facets)))])
    return conormal, dot(conormal, poly.vertices[face.vertex_set[0]])


def closure_face_lattice(p) -> OracleLattice:
    """The face lattice by closing the facet vertex sets under pairwise
    intersection, dimensions by rank, and all-pairs containment."""
    nv = len(p.vertices)
    incidence = facet_incidence(p, p.vertices)
    sets = {frozenset(range(nv))}
    for i in range(len(p.facets)):
        sets.add(frozenset(v for v, on in enumerate(incidence) if on >> i & 1))
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
        containing = reduce(and_, (incidence[v] for v in vs))
        normals = p.normals + tuple(p.facets[i][0] for i in bits(containing))
        described.append((p.ambient_dim - rank(normals), vs, containing))
    described.sort(key=lambda t: (t[0], t[1]))
    faces, hyperplanes = [], []
    for fid, (dim, vs, containing) in enumerate(described):
        if len(vs) == nv and dim == p.dim:
            hyperplanes.append(None)
        else:
            total = [sum(column) for column in zip(*(p.facets[i][0] for i in bits(containing)))]
            total_off = sum(p.facets[i][1] for i in bits(containing))
            conormal = primitive(total)
            lam = next(Fraction(a, b) for a, b in zip(conormal, total) if b)
            hyperplanes.append((conormal, lam * total_off))
        faces.append(Face(fid, dim, vs, containing))
    lattice = OracleLattice(tuple(faces), (), tuple(hyperplanes))
    return lattice._replace(containment=containment(lattice))


def containment(lattice):
    """Every pair (a, b) of face ids with face a a proper subface of face
    b, from the vertex sets."""
    sets = [frozenset(f.vertex_set) for f in lattice.faces]
    return tuple((a, b) for a, sa in enumerate(sets) for b, sb in enumerate(sets) if sa < sb)


def scanned_tangent_cone(p, v):
    """Primitive edge directions at vertex v, by scanning every face."""
    gens = []
    for f in p.lattice.faces:
        if f.dim == 1 and v in f.vertex_set:
            other = next(i for i in f.vertex_set if i != v)
            gens.append(primitive(vsub(p.vertices[other], p.vertices[v])))
    return tuple(sorted(gens))


def weight_cone_witness(poly, v, weights):
    """The vertex-cone check V4 as it was before it read extreme rays:
    after the facet inequalities at v, every edge direction must lie in
    the weight cone, here by the Caratheodory search of
    `fraction_in_cone`, which builds no hull."""
    at_v = [poly.facets[i][0] for i in bits(poly.lattice.faces[v].facets)]
    for w in weights:
        for n in poly.normals:
            if dot(n, w):
                return f"weight {_parens(w)} leaves the affine hull (normal {_parens(n)})"
        for n in at_v:
            if dot(n, w) < 0:
                return f"weight {_parens(w)} violates the facet with conormal {_parens(n)}"
    edges = scanned_tangent_cone(poly, v)
    span = rank(weights)
    if span < poly.dim:
        e = next(e for e in edges if rank([*weights, e]) > span)
        return f"edge direction {_parens(e)} is outside the span of the weights"
    for e in edges:
        if not fraction_in_cone(e, weights):
            return f"edge direction {_parens(e)} is not in the weight cone"
    return None


def slotwise_tangent_cone_witness(poly: RationalPolytope, v: int, weights):
    """Why the weights do not generate the tangent cone of poly at
    vertex v, or None when they do.

    The weights lie in the tangent cone iff each lies in the polytope's
    directions and meets the conormal of every facet at v with >= 0.
    The tangent cone is pointed and its extreme rays are the edge
    directions at v, so then the two cones are equal iff every edge
    direction is a positive multiple of a weight.  An edge direction
    that is not lies outside the span of the weights when they do not
    span the polytope's directions, and outside their cone otherwise.
    """
    # the dim-0 faces come first in the lattice, in vertex order
    at_v = [poly.facets[i][0] for i in bits(poly.lattice.faces[v].facets)]
    for w in weights:
        n = poly.off_hull(w)
        if n is not None:
            return f"weight {_parens(w)} leaves the affine hull (normal {_parens(n)})"
        for n in at_v:
            if sum(map(mul, n, w)) < 0:
                return f"weight {_parens(w)} violates the facet with conormal {_parens(n)}"
    rays = {primitive(w) for w in weights if any(w)}
    missed = [e for e in scanned_tangent_cone(poly, v) if e not in rays]
    if not missed:
        return None
    span = rank(weights)
    if span < poly.dim:
        e = next(e for e in missed if rank([*weights, e]) > span)
        return f"edge direction {_parens(e)} is outside the span of the weights"
    return f"edge direction {_parens(missed[0])} is not in the weight cone"


def fraction_readings(spec, poly):
    """The face readings by Fraction membership of each moment among the
    face's vertices and span membership of each weight in the face's
    directions, face by face and weight by weight."""
    tight = facet_incidence(poly, [c.moment for c in spec.components])
    readings = {}
    for f in poly.lattice.faces:
        coords = vertex_coords(poly, f)
        _, basis = fraction_solve_affine(coords)
        row = []
        for i, (comp, t) in enumerate(zip(spec.components, tight)):
            if t is not None and f.facets & t == f.facets:
                parallel = tuple(w for w in comp.weights if lattice_membership(w, basis))
                k = len(parallel) + comp.is_surface - f.dim
                row.append(FaceReading(i, k, parallel, comp.moment in coords))
        readings[f.id] = tuple(row)
    return readings


def every_face_readings(spec, poly):
    """The face readings as read_faces took them before it walked up from
    each moment's carrier face: every face against every component, the
    facets tight at the moment and the zero facets of each weight as
    bitmasks."""
    tight = facet_incidence(poly, [c.moment for c in spec.components])
    vertices = set(poly.vertices)
    at_vertex = [c.moment in vertices for c in spec.components]
    weights = dict.fromkeys(w for c in spec.components for w in c.weights)
    zeros = {
        w: sum(1 << i for i, (n, _) in enumerate(poly.facets) if not dot(n, w))
        for w in weights
        if poly.off_hull(w) is None
    }
    readings = {}
    for f in poly.lattice.faces:
        row = []
        for i, (comp, t, vertex) in enumerate(zip(spec.components, tight, at_vertex)):
            if t is not None and f.facets & t == f.facets:
                parallel = tuple(
                    w for w in comp.weights if w in zeros and f.facets & zeros[w] == f.facets
                )
                k = len(parallel) + comp.is_surface - f.dim
                row.append(FaceReading(i, k, parallel, vertex))
        readings[f.id] = tuple(row)
    return readings


def ranked_v3(spec, poly):
    """The weight-span check V3 as it was before it left the components
    that V4 accepts alone: the weights of every component are ranked."""
    problems = []
    for idx, comp in enumerate(spec.components):
        off = [(w, n) for w in comp.weights if (n := poly.off_hull(w))]
        if off:
            w, n = off[0]
            problems.append(
                f"component {idx}: weight {_parens(w)} leaves the polytope's directions"
                f" (normal {_parens(n)})"
            )
        elif rank(comp.weights) != poly.dim:
            problems.append(f"component {idx}: weights do not span the polytope directions")
    return CheckResult("V3-weight-span", not problems, "; ".join(problems))


def ranked_v5(spec):
    """The face-complexity check V5 as it was before it left the spans at
    vertices to V4: the parallel weights of every reading on a face are
    ranked, also those of a component whose vertex cone V4 accepted."""
    problems = []
    readings = spec.face_readings
    for f in spec.polytope.lattice.faces:
        over = readings[f.id]
        if not any(r.at_vertex for r in over):
            continue
        values = sorted({r.complexity for r in over})
        if len(values) > 1:
            problems.append(f"face {f.vertex_set}: components disagree on complexity {values}")
        elif values[0] < 0:
            problems.append(f"face {f.vertex_set}: negative complexity")
        elif any(rank(r.parallel) != f.dim for r in over):
            problems.append(
                f"face {f.vertex_set}: parallel weights do not span the face directions"
            )
    return CheckResult("V5-face-complexity", not problems, "; ".join(problems))


def dict_v2(spec, poly):
    """The vertex-coverage check V2 as it was before it read the face
    readings: the moments outside by their facet incidence in poly, and
    the carriers of each vertex counted in a dict keyed by its Fraction
    coordinates."""
    problems = []
    tight = facet_incidence(poly, [c.moment for c in spec.components])
    for idx, (comp, t) in enumerate(zip(spec.components, tight)):
        if t is None:
            problems.append(
                f"component {idx}: moment {_parens(comp.moment)} lies outside the polytope"
            )
    carried = dict.fromkeys(poly.vertices, 0)
    for comp in spec.components:
        if comp.moment in carried:
            carried[comp.moment] += 1
    for v, carriers in carried.items():
        if carriers == 0:
            problems.append(f"vertex {tuple(map(str, v))} has no component")
        elif carriers > 1:
            problems.append(f"vertex {tuple(map(str, v))} carries {carriers} components")
    return CheckResult("V2-vertex-coverage", not problems, "; ".join(problems))


def dict_v4(spec, poly):
    """The vertex-cone check V4 as it was before it walked the readings
    of the vertex faces: each component in turn, its vertex looked up in
    a dict from Fraction coordinates to vertex index."""
    problems = []
    vertex_index = {v: i for i, v in enumerate(poly.vertices)}
    for idx, comp in enumerate(spec.components):
        v = vertex_index.get(comp.moment)
        if v is None:
            continue
        witness = slotwise_tangent_cone_witness(poly, v, comp.weights)
        if witness:
            problems.append(f"component {idx} at vertex {v}: {witness}")
    return CheckResult("V4-vertex-cone", not problems, "; ".join(problems))


def _connected_sum(a: OrderedComplex, b: OrderedComplex) -> OrderedComplex:
    """Glue two closed triangulated surfaces along a removed triangle."""
    ta = max(a.maximal_simplices())
    tb = max(b.maximal_simplices())
    fresh = max(a.vertices) + 1
    mapping = dict(zip(tb, ta))
    for v in b.vertices:
        if v not in mapping:
            mapping[v] = fresh
            fresh += 1
    relabeled = {tuple(sorted(mapping[v] for v in s)) for s in b.simplices}
    merged = (set(a.simplices) - {ta}) | (relabeled - {ta})
    return OrderedComplex(frozenset(merged))


def summed_surface(g: int) -> OrderedComplex:
    """surface_complex as it was built before it kept one set: each torus
    is glued on by a connected sum that copies and relabels the whole
    surface so far and searches it for its largest triangle."""
    if g == 0:
        return simplex_boundary_sphere(3)
    torus = OrderedComplex.from_simplices(_TORUS_TRIANGLES)
    acc = torus
    for _ in range(g - 1):
        acc = _connected_sum(acc, torus)
    return acc


def heap_surface_complex(g: int) -> OrderedComplex:
    """surface_complex as it was built before it kept a running largest
    triangle: a heap of the negated triangles finds the largest one."""
    if g < 0:
        raise ValueError("genus must be nonnegative")
    if g == 0:
        return simplex_boundary_sphere(3)
    torus = OrderedComplex.from_simplices(_TORUS_TRIANGLES)
    simplices = set(torus.simplices)
    heap = sorted(tuple(-v for v in t) for t in _TORUS_TRIANGLES)  # sorted, so a heap
    glued = max(_TORUS_TRIANGLES)
    rest = [v for v in range(7) if v not in glued]
    for fresh in range(7, 4 * g + 3, 4):
        largest = tuple(-v for v in heapq.heappop(heap))
        simplices.discard(largest)
        mapping = dict(zip(glued, largest))
        mapping.update(zip(rest, range(fresh, fresh + 4)))
        for s in torus.simplices:
            if s != glued:
                simplices.add(tuple(sorted(mapping[v] for v in s)))
        for t in _TORUS_TRIANGLES:
            if t != glued:
                heapq.heappush(heap, tuple(-x for x in sorted(mapping[v] for v in t)))
    return OrderedComplex(frozenset(simplices))


def euler_characteristic(k: OrderedComplex) -> int:
    """The alternating count of the simplices of k."""
    return sum((-1) ** (len(s) - 1) for s in k.simplices)


def _staircases(sigma: tuple, tau: tuple):
    """Monotone lattice paths through the grid sigma x tau."""
    last_i, last_j = len(sigma) - 1, len(tau) - 1
    out = []

    def rec(i, j, acc):
        if i == last_i and j == last_j:
            out.append(tuple(acc))
            return
        if i < last_i:
            rec(i + 1, j, acc + [(sigma[i + 1], tau[j])])
        if j < last_j:
            rec(i, j + 1, acc + [(sigma[i], tau[j + 1])])

    rec(0, 0, [(sigma[0], tau[0])])
    return out


def staircase_closure(k: OrderedComplex, l: OrderedComplex):
    """Staircase product closed downward face by face; returns
    (simplices, pair label per vertex id)."""
    vk, vl = k.vertices, l.vertices
    pos_k = {v: i for i, v in enumerate(vk)}
    pos_l = {w: j for j, w in enumerate(vl)}
    width = len(vl)
    closed: set = set()
    for sigma in k.maximal_simplices():
        for tau in l.maximal_simplices():
            for path in _staircases(sigma, tau):
                top = tuple(pos_k[v] * width + pos_l[w] for v, w in path)
                for size in range(1, len(top) + 1):
                    closed.update(combinations(top, size))
    labels = tuple((v, w) for v in vk for w in vl)
    return closed, labels


def _staircase(k: OrderedComplex, l: OrderedComplex):
    """The pairs (v, w) labelling the staircase product's vertices, in
    lexicographic order, and a generator of its top simplices: the
    monotone paths through sigma x tau, sigma and tau maximal."""
    vk, vl = k.vertices, l.vertices
    pos_k = {v: i for i, v in enumerate(vk)}
    pos_l = {w: j for j, w in enumerate(vl)}
    width = len(vl)

    def tops():
        taus = [[pos_l[w] for w in tau] for tau in l.maximal_simplices()]
        for sigma in k.maximal_simplices():
            rows = [pos_k[v] * width for v in sigma]
            for cols in taus:
                steps = len(rows) + len(cols) - 2
                for up in combinations(range(steps), len(rows) - 1):
                    i, top = 0, []
                    for s in range(steps + 1):
                        top.append(rows[i] + cols[s - i])
                        i += s in up
                    yield tuple(top)

    return tuple((v, w) for v in vk for w in vl), tops()


def product(k: OrderedComplex, l: OrderedComplex) -> OrderedComplex:
    """Staircase triangulation of the product, closed down from its top
    simplices; vertex i is the i-th pair (v, w) in lexicographic order."""
    if not k.simplices or not l.simplices:
        raise ValueError("product of an empty complex")
    _, tops = _staircase(k, l)
    return OrderedComplex.from_simplices(tops)


def close_then_map_collapse(base, sub, fiber) -> OrderedComplex:
    """Fiber collapse that maps every simplex of the closed product."""
    if sub.simplices and not is_full_subcomplex(base, sub):
        base, sub = barycentric_pair(base, sub)
    prod_simplices, pair_labels = staircase_closure(base, fiber)
    subv = set(sub.vertices)
    classes = [("c", v) if v in subv else ("p", v, w) for v, w in pair_labels]
    distinct = sorted(set(classes))
    class_id = {c: i for i, c in enumerate(distinct)}
    vmap = [class_id[c] for c in classes]
    out = {tuple(sorted({vmap[v] for v in s})) for s in prod_simplices}
    return OrderedComplex(frozenset(out))


def pulled_boundary_subcomplex(sp, face_ids):
    """The polytope triangulated with the selected faces as a subcomplex,
    by the pulling triangulation on polytope vertices alone: each face
    is the cone from its smallest vertex over the triangulated faces it
    covers that miss that vertex.  The selection is seldom full in it."""
    lattice = sp.lattice
    ids = set(face_ids)
    if any(not ids.issuperset(lattice.below[fid]) for fid in ids):
        raise ValueError("selected faces are not downward closed")
    tri = {}
    for f in sorted(lattice.faces, key=lambda f: f.dim):
        if f.dim == 0:
            tri[f.id] = {(f.vertex_set[0],)}
            continue
        apex = min(f.vertex_set)
        tri[f.id] = {
            tuple(sorted(set(s) | {apex}))
            for gid in lattice.below[f.id]
            if apex not in lattice.face(gid).vertex_set
            for s in tri[gid]
        }
    full = OrderedComplex.from_simplices(tri[lattice.top.id])
    sub = OrderedComplex.from_simplices(s for fid in ids for s in tri[fid])
    return full, sub


def promoting_smith_normal_form(a):
    """Smith normal form of an integer matrix; any other entry raises
    ValueError.

    Returns (u, d, v) with d = u*a*v, u and v unimodular, and d diagonal
    with nonnegative entries d1 | d2 | ... .  Pivots are chosen as the
    smallest nonzero absolute value in the remaining block, and a
    remainder that beats the pivot is swapped in as the new pivot.
    """
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    d = [list(exact(row, "a matrix must be integers")) for row in a]
    u = identity_matrix(nrows)
    v = identity_matrix(ncols)

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in d:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, q):
        # row[dst] += q * row[src]
        d[dst] = [x + q * y for x, y in zip(d[dst], d[src])]
        u[dst] = [x + q * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, q):
        for row in d:
            row[dst] += q * row[src]
        for row in v:
            row[dst] += q * row[src]

    t = 0
    limit = min(nrows, ncols)
    while t < limit:
        best = None
        for i in range(t, nrows):
            row = d[i]
            for j in range(t, ncols):
                x = row[j]
                if x and (best is None or abs(x) < best[0]):
                    best = (abs(x), i, j)
        if best is None:
            break
        swap_rows(t, best[1])
        swap_cols(t, best[2])
        while True:
            restart = False
            for i in range(t + 1, nrows):
                if d[i][t]:
                    q = d[i][t] // d[t][t]
                    if q:
                        add_row(t, i, -q)
                    if d[i][t]:
                        # remainder beats the pivot; promote it
                        swap_rows(t, i)
                        restart = True
            if restart:
                continue
            for j in range(t + 1, ncols):
                if d[t][j]:
                    q = d[t][j] // d[t][t]
                    if q:
                        add_col(t, j, -q)
                    if d[t][j]:
                        swap_cols(t, j)
                        restart = True
            if restart:
                continue
            pivot = d[t][t]
            offender = None
            for i in range(t + 1, nrows):
                row = d[i]
                for j in range(t + 1, ncols):
                    if row[j] % pivot:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            add_row(offender, t, 1)
        t += 1
    for i in range(limit):
        if d[i][i] < 0:
            d[i] = [-x for x in d[i]]
            u[i] = [-x for x in u[i]]
    return u, d, v


def heap_rank_and_factors(entries):
    """Rank and invariant factors of a sparse integer matrix, unit pivots
    taken greedily from a Markowitz heap, the rest by dense Smith form."""
    rows: dict[int, dict[int, int]] = {}
    cols: dict[int, set[int]] = {}
    for (i, j), val in entries.items():
        if val:
            rows.setdefault(i, {})[j] = val
            cols.setdefault(j, set()).add(i)

    heap: list[tuple[int, int, int]] = []

    def push_if_unit(i, j, val):
        if val in (1, -1):
            cost = (len(rows[i]) - 1) * (len(cols[j]) - 1)
            heapq.heappush(heap, (cost, i, j))

    for i, row in rows.items():
        for j, val in row.items():
            push_if_unit(i, j, val)

    unit_count = 0
    while heap:
        _, pi, pj = heapq.heappop(heap)
        val = rows.get(pi, {}).get(pj, 0)
        if val not in (1, -1):
            continue
        prow = rows.pop(pi)
        for j in prow:
            cols[j].discard(pi)
            if not cols[j]:
                del cols[j]
        for i in list(cols.get(pj, ())):
            row = rows[i]
            f = row[pj] * val
            for j, x in prow.items():
                nv = row.get(j, 0) - f * x
                if nv:
                    row[j] = nv
                    cols.setdefault(j, set()).add(i)
                    push_if_unit(i, j, nv)
                elif j in row:
                    del row[j]
                    cols[j].discard(i)
                    if not cols[j]:
                        del cols[j]
            if not row:
                del rows[i]
        cols.pop(pj, None)
        unit_count += 1

    factors = [1] * unit_count
    rk = unit_count
    if rows:
        live_rows = sorted(rows)
        live_cols = sorted({j for row in rows.values() for j in row})
        col_index = {j: k for k, j in enumerate(live_cols)}
        dense = [[0] * len(live_cols) for _ in live_rows]
        for k, i in enumerate(live_rows):
            for j, x in rows[i].items():
                dense[k][col_index[j]] = x
        _, diag, _ = smith_normal_form(dense)
        for k in range(min(len(dense), len(dense[0]))):
            if diag[k][k]:
                factors.append(diag[k][k])
                rk += 1
    return rk, factors


def full_elimination_homology(k: OrderedComplex) -> HomologyProfile:
    """Integral homology from every boundary matrix of k, reduced in full
    by `sparse_rank_and_factors`; torsion in degree d is read from the
    invariant factors one degree up."""
    if not k.simplices:
        return HomologyProfile((), ())
    by_dim: dict[int, list[tuple]] = {}
    for s in k.simplices:
        by_dim.setdefault(len(s) - 1, []).append(s)
    dim = max(by_dim)
    for d in by_dim:
        by_dim[d].sort()
    index = {d: {s: i for i, s in enumerate(by_dim[d])} for d in by_dim}

    ranks = {0: 0}
    factors = {}
    for d in range(1, dim + 1):
        entries = {}
        rows = index[d - 1]
        for col, s in enumerate(by_dim[d]):
            for i in range(len(s)):
                face = s[:i] + s[i + 1 :]
                entries[(rows[face], col)] = -1 if i % 2 else 1
        rk, inv = sparse_rank_and_factors(entries)
        ranks[d] = rk
        factors[d] = inv
    ranks[dim + 1] = 0
    factors[dim + 1] = []

    betti = tuple(
        len(by_dim.get(d, ())) - ranks[d] - ranks[d + 1] for d in range(dim + 1)
    )
    torsion = tuple(
        tuple(x for x in factors[d + 1] if x > 1) for d in range(dim + 1)
    )
    return HomologyProfile(betti, torsion)


def _coreduce(cells: list) -> tuple[list, list]:
    """Boundary lists of the sorted cells, and which cells survive
    coreduction.

    faces[c][i] is cell c with its vertex i deleted.  The seed, cell 0
    (the smallest vertex), is removed first; a FIFO queue then removes
    each live cell that has exactly one live face together with that
    face.  In a simplicial boundary that coefficient is +-1, so the pair
    carries no homology, and the boundary restricted to the live cells
    is that of a chain complex with the homology of the complex
    relative to the seed (Mrozek & Batko, DCG 42, 2009).
    """
    face_id = {s: c for c, s in enumerate(cells)}.__getitem__
    # combinations deletes the last vertex first
    faces = [
        tuple(map(face_id, combinations(s, len(s) - 1)))[::-1] if len(s) > 1 else ()
        for s in cells
    ]
    cofaces = [[] for _ in cells]
    for c, fs in enumerate(faces):
        for f in fs:
            cofaces[f].append(c)
    live = [True] * len(cells)
    live_faces = [len(fs) for fs in faces]
    queue = deque()

    def remove(c):
        live[c] = False
        for u in cofaces[c]:
            if live[u]:
                live_faces[u] -= 1
                queue.append(u)

    remove(0)
    while queue:
        c = queue.popleft()
        if live[c] and live_faces[c] == 1:
            t = next(f for f in faces[c] if live[f])
            remove(c)
            remove(t)
    return faces, live


def coreduced_homology(k: OrderedComplex) -> HomologyProfile:
    """Integral simplicial homology, betti numbers and torsion.

    Coreduction (`_coreduce`) first, then elimination: the boundary
    restricted to the surviving cells goes, degree by degree, to
    `sparse_rank_and_factors` (a unit-pivot sweep, then the Smith
    residue).  Torsion in degree d is read from the invariant factors
    one degree up, and the removed seed is added back to H_0.
    """
    if not k.simplices:
        return HomologyProfile((), ())
    cells = sorted(k.simplices)  # cell 0 is the smallest vertex, the seed
    faces, live = _coreduce(cells)
    dim = max(map(len, cells)) - 1
    survivors: list[list[int]] = [[] for _ in range(dim + 1)]
    position = [0] * len(cells)
    for c, s in enumerate(cells):
        if live[c]:
            group = survivors[len(s) - 1]
            position[c] = len(group)
            group.append(c)
    ranks = [0] * (dim + 2)
    factors = [[] for _ in range(dim + 2)]
    for d in range(1, dim + 1):
        entries = {
            (position[f], col): -1 if i % 2 else 1
            for col, c in enumerate(survivors[d])
            for i, f in enumerate(faces[c])
            if live[f]
        }
        ranks[d], factors[d] = sparse_rank_and_factors(entries)

    betti = [len(survivors[d]) - ranks[d] - ranks[d + 1] for d in range(dim + 1)]
    betti[0] += 1  # the seed
    torsion = tuple(
        tuple(x for x in factors[d + 1] if x > 1) for d in range(dim + 1)
    )
    return HomologyProfile(tuple(betti), torsion)


def classify_m4(spec) -> TopologyReport:
    """The trichotomy for circle actions on compact four-manifolds (half
    dim 2, complexity 1), by the fixed surfaces: none gives S^3, one
    sphere gives D^3, two of genus g give interval x genus-g surface."""
    validation = validate(spec)
    if not validation.ok:
        raise ValidationFailure(validation)
    sp = stratify(spec)
    if spec.half_dim != 2 or sp.polytope.dim != 1 or sp.complexity != 1:
        raise SpecError("the trichotomy needs half_dim 2, effective rank 1, complexity 1")
    genera = [c.genus for c in spec.components if c.is_surface]
    if not genera:
        verdict = Verdict("sphere", dim=3)
    elif genera == [0]:
        verdict = Verdict("disk", dim=3)
    elif len(genera) == 2 and genera[0] == genera[1]:
        verdict = Verdict("product-polytope-surface", genus=genera[0])
    else:
        raise SpecError(f"invalid spec: fixed surfaces of genera {genera} in a four-manifold")
    return TopologyReport(verdict, "four-manifold-trichotomy", sp, validation)
