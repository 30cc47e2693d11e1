"""Reference algorithms over Fraction, kept as differential oracles.

These are the routines as they were before the polytope layer and the
exact linear algebra moved to fraction-free integer arithmetic: rank,
determinant, affine span and coordinates by rational elimination, the
brute-force hull on top of them, the span-membership parallel test and
the Caratheodory cone test with a rational subset solve.  Below them are
the verification model as it was built before it went through top
simplices and a row sweep: the staircase product closed downward in
full, the fiber collapse that maps every face of that closure, and the
unit-pivot elimination driven by a Markowitz heap.  Then comes integral
homology by full elimination of every boundary matrix, as it was before
coreduction ran first.  Last is the trichotomy for circle actions on
four-manifolds, an independent decision for the cases it covers.  Tests
compare the package code against them; nothing in the package imports
this module.
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
    vsub,
)
from tquot.hamspace import SpecError, stratify, validate
from tquot.simplicial import (
    HomologyProfile,
    OrderedComplex,
    barycentric_pair,
    is_full_subcomplex,
)


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
    """Caratheodory cone membership with a Fraction subset solve."""
    target = vec(target)
    if is_zero(target):
        return True
    gens = [vec(g) for g in generators]
    for k in range(1, min(len(gens), len(target)) + 1):
        for subset in combinations(gens, k):
            if fraction_rank(subset) != k:
                continue
            coeffs = fraction_coords(target, subset)
            if coeffs is not None and all(c >= 0 for c in coeffs):
                return True
    return False


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
