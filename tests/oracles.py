"""Reference algorithms over Fraction, kept as differential oracles.

These are the routines as they were before the polytope layer and the
exact linear algebra moved to fraction-free integer arithmetic: rank,
determinant, affine span and coordinates by rational elimination, the
brute-force hull on top of them, the span-membership parallel test and
the Caratheodory cone test with a rational subset solve.  Tests compare
the integer code against them; nothing in the package imports this
module.
"""

from fractions import Fraction
from itertools import combinations

from tquot.exactq import dot, is_zero, primitive, vec, vsub
from tquot.polytope import RationalPolytope


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


def brute_force_hull(points) -> RationalPolytope:
    """Convex hull by C(N, d) enumeration over Fraction affine coordinates."""
    pts = list(dict.fromkeys(vec(p) for p in points))
    ambient = len(pts[0])
    base, basis = fraction_solve_affine(pts)
    d = len(basis)
    if d == 0:
        return RationalPolytope(ambient, (pts[0],), (), (base, ()))
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
    return RationalPolytope(ambient, vertices, tuple(facets), (base, basis))


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
