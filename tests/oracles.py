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
by the vertices' Fraction coordinates.  Then the face readings as they
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
the Euler characteristic as an alternating count of simplices, which
the package no longer needs, and the surfaces of higher genus by
connected sums that copy the whole surface for each torus.  Last is
the trichotomy for circle actions on four-manifolds, an independent
decision for the cases it covers.
Tests compare the package code against them; nothing in the package
imports this module.
"""

import heapq
from collections import namedtuple
from fractions import Fraction
from itertools import combinations

from tquot.classify import (
    Disk,
    ProductPolytopeSurface,
    Sphere,
    TopologyReport,
    ValidationFailure,
)
from tquot.exactq import (
    dot,
    is_zero,
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
    _tangent_cone_witness,
    stratify,
    validate,
)
from tquot.polytope import Face, facet_incidence
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
    conormal = primitive([sum(c) for c in zip(*(poly.facets[i][0] for i in face.facets))])
    return conormal, dot(conormal, poly.vertices[face.vertex_set[0]])


def closure_face_lattice(p) -> OracleLattice:
    """The face lattice by closing the facet vertex sets under pairwise
    intersection, dimensions by rank, and all-pairs containment."""
    nv = len(p.vertices)
    incidence = facet_incidence(p, p.vertices)
    sets = {frozenset(range(nv))}
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
    described = []
    for s in sets:
        vs = tuple(sorted(s))
        containing = frozenset.intersection(*(incidence[v] for v in vs))
        normals = p.normals + tuple(p.facets[i][0] for i in sorted(containing))
        described.append((p.ambient_dim - rank(normals), vs, containing))
    described.sort(key=lambda t: (t[0], t[1]))
    faces, hyperplanes = [], []
    for fid, (dim, vs, containing) in enumerate(described):
        if len(vs) == nv and dim == p.dim:
            hyperplanes.append(None)
        else:
            total = [sum(column) for column in zip(*(p.facets[i][0] for i in containing))]
            total_off = sum(p.facets[i][1] for i in containing)
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
    at_v = [poly.facets[i][0] for i in sorted(poly.lattice.faces[v].facets)]
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
            if t is not None and f.facets <= t:
                parallel = tuple(w for w in comp.weights if lattice_membership(w, basis))
                k = len(parallel) + comp.is_surface - f.dim
                row.append(FaceReading(i, k, parallel, comp.moment in coords))
        readings[f.id] = tuple(row)
    return readings


def every_face_readings(spec, poly):
    """The face readings as read_faces took them before it walked up from
    each moment's carrier face: every face against every component, the
    facets tight at the moment and the zero facets of each weight as
    sets."""
    tight = facet_incidence(poly, [c.moment for c in spec.components])
    vertices = set(poly.vertices)
    at_vertex = [c.moment in vertices for c in spec.components]
    weights = dict.fromkeys(w for c in spec.components for w in c.weights)
    zeros = {
        w: frozenset(i for i, (n, _) in enumerate(poly.facets) if not dot(n, w))
        for w in weights
        if poly.off_hull(w) is None
    }
    readings = {}
    for f in poly.lattice.faces:
        row = []
        for i, (comp, t, vertex) in enumerate(zip(spec.components, tight, at_vertex)):
            if t is not None and f.facets <= t:
                parallel = tuple(w for w in comp.weights if w in zeros and f.facets <= zeros[w])
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
        witness = _tangent_cone_witness(poly, v, comp.weights)
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
    sub_of = {f.id: set() for f in lattice.faces}
    for a, b in lattice.covers:
        sub_of[b].add(a)
    if any(not sub_of[fid] <= ids for fid in ids):
        raise ValueError("selected faces are not downward closed")
    tri = {}
    for f in sorted(lattice.faces, key=lambda f: f.dim):
        if f.dim == 0:
            tri[f.id] = {(f.vertex_set[0],)}
            continue
        apex = min(f.vertex_set)
        tri[f.id] = {
            tuple(sorted(set(s) | {apex}))
            for gid in sub_of[f.id]
            if apex not in lattice.face(gid).vertex_set
            for s in tri[gid]
        }
    full = OrderedComplex.from_simplices(tri[lattice.top.id])
    sub = OrderedComplex.from_simplices(s for fid in ids for s in tri[fid])
    return full, sub


def heap_rank_and_factors(entries, nrows, ncols):
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
        rk, inv = sparse_rank_and_factors(entries, len(by_dim[d - 1]), len(by_dim[d]))
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
        verdict = Sphere(3)
    elif genera == [0]:
        verdict = Disk(3)
    elif len(genera) == 2 and genera[0] == genera[1]:
        verdict = ProductPolytopeSurface(genera[0])
    else:
        raise SpecError(f"invalid spec: fixed surfaces of genera {genera} in a four-manifold")
    return TopologyReport(verdict, "four-manifold-trichotomy", sp, validation)
