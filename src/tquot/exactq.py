"""Exact linear algebra over the rationals and integer normal forms.

Vectors are tuples of Fraction, matrices are lists of rows.  Everything
runs in arbitrary precision and no floats appear anywhere.  Of the
polytope layer, only the vertices and the facet offsets stay Fractions;
the affine hull is described by its integer normals alone.

A number that comes in is an int, never a bool, or where a rational
is allowed a Fraction.  `exact` is the one test of that rule, and `vec`
applies it to rational vectors; a float, a bool or a string such as
"1/3" is refused, never coerced.

Denominators are cleared at the entry of each routine that eliminates:
`integral` scales a vector by the lcm of its denominators, and
`clear_denominators` scales a whole family by one common lcm.  One
fraction-free (Bareiss) elimination, `eliminate`, then serves `rank`
and `nullspace` (for a corank-one matrix, the cofactor normal) on plain
Python ints.  The Smith normal form works on ints too.  Sparse boundary
matrices (`sparse_rank_and_factors`) are reduced by one sweep of unit
pivots over their rows, and only what survives that sweep meets the
dense Smith routine.  Homology coreduces a complex before it builds any
matrix, so the sweep sees only the boundary among the cells that
coreduction leaves: nothing for the sphere models of gr2c4 or CP^4, a
few hundred cells for the genus-g product models.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul

Vector = tuple[Fraction, ...]


def exact(values, what: str, kinds=int, error=ValueError) -> tuple:
    """The values as a tuple if each is of kinds; a bool never is.
    Anything else raises error with what and the values: nothing is
    coerced.  The one test of the rule for numbers that come in."""
    values = tuple(values)
    if any(isinstance(x, bool) or not isinstance(x, kinds) for x in values):
        raise error(f"{what}, got {values!r}")
    return values


def vec(values, what: str = "a vector must be integers or Fractions", error=ValueError) -> Vector:
    """The values as a tuple of Fractions.  Each must be an int or a
    Fraction (`exact`), and only an int is made a Fraction."""
    return tuple(
        x if isinstance(x, Fraction) else Fraction(x)
        for x in exact(values, what, (int, Fraction), error)
    )


def is_zero(v) -> bool:
    return all(x == 0 for x in v)


def dot(a, b) -> Fraction:
    return sum(map(mul, a, b), Fraction(0))


def integral(v) -> tuple[int, ...]:
    """v scaled by the lcm of its entries' denominators: an integer
    vector with the same direction.  An integer vector is itself."""
    if all(type(x) is int for x in v):
        return tuple(v)
    factor = lcm(*(x.denominator for x in v))
    return tuple(x.numerator * (factor // x.denominator) for x in v)


def clear_denominators(vectors) -> tuple[list[tuple[int, ...]], int]:
    """The vectors scaled by one common positive integer, the lcm of all
    their denominators, as integer vectors; and that scale."""
    factor = lcm(*(x.denominator for v in vectors for x in v))
    return [tuple(x.numerator * (factor // x.denominator) for x in v) for v in vectors], factor


def primitive(v) -> tuple[int, ...]:
    """Scale a nonzero rational vector by a positive rational to the
    shortest integer vector with the same direction (gcd of entries 1)."""
    ints = integral(v)
    g = gcd(*ints)
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    return tuple(x // g for x in ints)


def eliminate(rows: list[list[int]], reduce: bool = False) -> tuple[list[int], int]:
    """Fraction-free (Bareiss) elimination of an integer matrix, in place.

    Each update divides exactly by the previous pivot, so every entry
    stays an integer (a minor of the input) and the last pivot is, up to
    the sign of the row swaps, the leading minor on the pivot columns.
    With reduce, the entries above the pivots are cleared too, and each
    pivot row ends as D times its reduced row echelon form, D the last
    pivot.  Returns the pivot columns and the number of row swaps.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots: list[int] = []
    swaps = 0
    prev = 1
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if rows[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            swaps += 1
        pr = rows[r]
        p = pr[c]
        for i in range(0 if reduce else r + 1, nrows):
            if i == r:
                continue
            f = rows[i][c]
            if f:
                rows[i] = [(p * a - f * b) // prev for a, b in zip(rows[i], pr)]
            elif p != prev:
                rows[i] = [p * a // prev for a in rows[i]]
        pivots.append(c)
        prev = p
    return pivots, swaps


def rank(m) -> int:
    """Rank of a matrix (rows of rationals), by fraction-free elimination."""
    return len(eliminate([list(integral(row)) for row in m])[0])


def nullspace(m, ncols: int) -> list[tuple[int, ...]]:
    """A basis of primitive integer vectors n with m * n = 0.

    One vector per non-pivot column of the fraction-free reduced form.
    For an (ncols-1) x ncols matrix of full rank that single vector is
    the cofactor vector (the signed maximal minors) over its content;
    the list is longer exactly when the rows are dependent.
    """
    rows = [list(integral(row)) for row in m]
    pivots, _ = eliminate(rows, reduce=True)
    d = rows[len(pivots) - 1][pivots[-1]] if pivots else 1
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        n = [0] * ncols
        n[free] = d
        for row, p in zip(rows, pivots):
            n[p] = -row[free]
        g = gcd(*n)
        basis.append(tuple(x // g for x in n))
    return basis


def identity_matrix(n) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def matmul(a, b) -> list[list]:
    if not a or not b:
        return [list(row) for row in a] if not b else []
    cols_b = len(b[0])
    inner = len(b)
    return [
        [sum(row[k] * b[k][j] for k in range(inner)) for j in range(cols_b)]
        for row in a
    ]


def smith_normal_form(a):
    """Smith normal form of an integer matrix; any other entry raises
    ValueError.

    Returns (u, d, v) with d = u*a*v, u and v unimodular, and d diagonal
    with nonnegative entries d1 | d2 | ... .  Pivots are chosen as the
    smallest nonzero absolute value in the remaining block, which keeps
    coefficient growth tame in practice.
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


def sparse_rank_and_factors(entries, nrows, ncols):
    """Rank and invariant factors of a sparse integer matrix.

    entries maps (row, col) -> nonzero int.  The rows are swept once, in
    index order: a row with a unit entry is eliminated on the unit whose
    column has the fewest entries, which needs no division and keeps
    fill-in low on boundary matrices.  Whatever survives the sweep is
    handed to the dense Smith routine.  Returns (rank, factors) with the
    full divisibility chain (including leading 1s).
    """
    rows: dict[int, dict[int, int]] = {}
    cols: dict[int, set[int]] = {}
    for (i, j), val in entries.items():
        if val:
            rows.setdefault(i, {})[j] = val
            cols.setdefault(j, set()).add(i)

    unit_count = 0
    for pi in sorted(rows):
        prow = rows[pi]
        units = [j for j, x in prow.items() if x in (1, -1)]
        if not units:
            continue
        pj = min(units, key=lambda j: len(cols[j]))
        del rows[pi]
        for j in prow:
            cols[j].discard(pi)
        val = prow.pop(pj)
        for i in cols.pop(pj):
            row = rows[i]
            f = row.pop(pj) * val  # row -= f * prow  (prow[pj] = val, val*val = 1)
            for j, x in prow.items():
                nv = row.get(j, 0) - f * x
                if nv:
                    row[j] = nv
                    cols[j].add(i)
                else:
                    del row[j]
                    cols[j].discard(i)
        unit_count += 1

    factors = [1] * unit_count
    rk = unit_count
    live_rows = sorted(i for i, row in rows.items() if row)
    if live_rows:
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
