"""Exact linear algebra over the rationals and integer normal forms.

Vectors are tuples of Fraction, matrices are lists of rows.  Everything
runs in arbitrary precision and no floats appear anywhere.  Of the
polytope layer, only the vertices and the facet offsets stay Fractions;
the affine hull is described by its integer normals alone.

A number that comes in has the type int, or where a rational is
allowed Fraction.  `exact` is the one test of that rule, and `vec`
and `integral` (so `rank`, `nullspace` and `primitive`) apply it to
rational vectors; a float, a bool, an IntEnum member or a string such
as "1/3" is refused, never coerced.

Denominators are cleared at the entry of each routine that eliminates:
`integral` scales a vector by the lcm of its denominators, and
`clear_denominators` scales a whole family by one common lcm.  One
fraction-free (Bareiss) elimination, `eliminate`, then serves `rank`
and `nullspace` (for a corank-one matrix, the cofactor normal) on plain
Python ints.  The Smith normal form works on ints too, taking the
smallest nonzero entry left as its pivot and taking it anew after every
remainder.  Sparse boundary matrices
(`sparse_rank_and_factors`) are reduced by one sweep of unit pivots
over their rows, and only the rows that sweep leaves meet the dense
Smith routine.  Homology reduces a complex by coreductions and
free faces before it builds any matrix, so the sweep sees only the
boundary among the cells those leave: nothing for the sphere models of
gr2c4 or CP^4, a few dozen cells for the genus-g product models.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul

Vector = tuple[Fraction, ...]

def exact(values, what: str, kinds=(int,), error=ValueError) -> tuple:
    """The values as a tuple if the type of each is one of kinds, never a
    bool nor another subclass; else error with what and the values."""
    values = tuple(values)
    if not set(map(type, values)).issubset(kinds):
        raise error(f"{what}, got {values!r}")
    return values


def vec(values, what: str = "a vector must be integers or Fractions", error=ValueError) -> Vector:
    """The values as a tuple of Fractions.  Each must be an int or a
    Fraction (`exact`), and only an int is made a Fraction."""
    return tuple(
        x if isinstance(x, Fraction) else Fraction(x)
        for x in exact(values, what, (int, Fraction), error)
    )


def dot(a, b) -> Fraction:
    """The dot product of two vectors; ValueError if their lengths differ."""
    if len(a) != len(b):
        raise ValueError(f"dot product of vectors of lengths {len(a)} and {len(b)}")
    return sum(map(mul, a, b), Fraction(0))


def integral(v) -> tuple[int, ...]:
    """v scaled by the lcm of its entries' denominators: an integer
    vector with the same direction.  An integer vector is itself; an
    entry that is not an int or a Fraction raises ValueError (`exact`)."""
    if all(type(x) is int for x in v):
        return tuple(v)
    v = exact(v, "a vector must be integers or Fractions", (int, Fraction))
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

    One vector per non-pivot column of the fraction-free reduced form,
    its last nonzero entry, the one at that column, made positive: the
    basis depends on the row space of m alone, not on its rows.
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
        g = gcd(*n) if d > 0 else -gcd(*n)
        basis.append(tuple(x // g for x in n))
    return basis


def smith_normal_form(a):
    """Smith normal form of an integer matrix; any other entry raises
    ValueError.

    Returns (u, d, v) with d = u*a*v, u and v unimodular, and d diagonal
    with nonnegative entries d1 | d2 | ... .  Position t takes as its
    pivot the smallest nonzero |entry| of the block below and right of
    (t, t), ties broken by row and then column, and reduces the pivot's
    column and row by floor quotients.  A remainder is smaller than the
    pivot, so the pivot is simply picked again.  So it is when the pivot
    does not divide some entry of the block: that entry's row is added
    to row t, whose reduction then leaves a remainder.
    """
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    d = [list(exact(row, "a matrix must be integers")) for row in a]
    u = [[int(i == j) for j in range(nrows)] for i in range(nrows)]
    v = [[int(i == j) for j in range(ncols)] for i in range(ncols)]
    t = 0
    while t < min(nrows, ncols):
        live = [(abs(x), i, j) for i in range(t, nrows) for j in range(t, ncols) if (x := d[i][j])]
        if not live:
            break
        _, i, j = min(live)
        d[t], d[i] = d[i], d[t]
        u[t], u[i] = u[i], u[t]
        for row in d + v:  # d and v share their column indices
            row[t], row[j] = row[j], row[t]
        p = d[t][t]
        for i in range(t + 1, nrows):
            if q := d[i][t] // p:
                d[i] = [x - q * y for x, y in zip(d[i], d[t])]
                u[i] = [x - q * y for x, y in zip(u[i], u[t])]
        for j in range(t + 1, ncols):
            if q := d[t][j] // p:
                for row in d + v:
                    row[j] -= q * row[t]
        if any(d[i][t] for i in range(t + 1, nrows)) or any(d[t][t + 1 :]):
            continue
        i = next((i for i in range(t + 1, nrows) if any(x % p for x in d[i])), None)
        if i is not None:
            d[t] = [x + y for x, y in zip(d[t], d[i])]
            u[t] = [x + y for x, y in zip(u[t], u[i])]
            continue
        if p < 0:
            d[t] = [-x for x in d[t]]
            u[t] = [-x for x in u[t]]
        t += 1
    return u, d, v


def sparse_rank_and_factors(entries):
    """Rank and invariant factors of a sparse integer matrix.

    entries maps (row, col) -> nonzero int.  The rows are swept once, in
    index order: a row with a unit entry is eliminated on the unit whose
    column has the fewest entries, which needs no division and keeps
    fill-in low on boundary matrices.  Each such pivot is an invariant
    factor 1, and the rows the sweep leaves go to the dense Smith
    routine.  Returns (rank, factors) with the full divisibility chain
    (including leading 1s).
    """
    rows: dict[int, dict[int, int]] = {}
    cols: dict[int, set[int]] = {}
    for (i, j), val in entries.items():
        if val:
            rows.setdefault(i, {})[j] = val
            cols.setdefault(j, set()).add(i)

    factors = []
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
        factors.append(1)

    live_cols = sorted({j for row in rows.values() for j in row})
    if live_cols:
        dense = [[row.get(j, 0) for j in live_cols] for row in rows.values() if row]
        _, diag, _ = smith_normal_form(dense)
        factors += [diag[k][k] for k in range(min(len(dense), len(live_cols))) if diag[k][k]]
    return len(factors), factors
