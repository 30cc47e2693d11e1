import random
from enum import IntEnum
from fractions import Fraction

import pytest

from oracles import (
    fraction_coords,
    lattice_membership,
    matmul,
    minor_invariant_factors,
    promoting_smith_normal_form,
)
from oracles import fraction_det as det
from tquot.exactq import (
    dot,
    exact,
    nullspace,
    primitive,
    rank,
    smith_normal_form,
    sparse_rank_and_factors,
    vec,
)
from tquot.gallery import (
    GalleryError,
    build,
    coadjoint_orbit,
    projective_space,
    root_system,
    sphere_product,
)
from tquot.hamspace import SpecError, point_component, surface_component
from tquot.polytope import convex_hull, in_cone


def e(i, n):
    return tuple(1 if k == i else 0 for k in range(n))


def vdiff(a, b):
    return tuple(x - y for x, y in zip(a, b))


I3 = [list(e(i, 3)) for i in range(3)]


def test_rank_identity():
    assert rank(I3) == 3


def test_rank_dependent_rows():
    assert rank([[1, 2], [2, 4]]) == 1


def test_rank_grassmannian_weights():
    # weights at the fixed plane span(e1, e2): e3-e1, e4-e1, e3-e2, e4-e2.
    # Hand elimination: the fourth is (second + third - first), rank 3.
    rows = [
        vdiff(e(2, 4), e(0, 4)),
        vdiff(e(3, 4), e(0, 4)),
        vdiff(e(2, 4), e(1, 4)),
        vdiff(e(3, 4), e(1, 4)),
    ]
    assert rank(rows) == 3


def test_rank_empty():
    assert rank([]) == 0


def test_rank_transpose_invariance():
    rng = random.Random(7)
    for _ in range(50):
        nr = rng.randint(1, 5)
        nc = rng.randint(1, 5)
        m = [[rng.randint(-4, 4) for _ in range(nc)] for _ in range(nr)]
        mt = [[m[i][j] for i in range(nr)] for j in range(nc)]
        assert rank(m) == rank(mt)


def test_lattice_membership_axis():
    assert lattice_membership((0, -1), [(0, 1)])
    assert not lattice_membership((-1, 0), [(0, 1)])


def test_lattice_membership_facet_direction():
    # direction basis of the hypersimplex facet x1 = 1, spanned by the
    # moments of the planes 12, 13, 14
    p12 = (1, 1, 0, 0)
    p13 = (1, 0, 1, 0)
    p14 = (1, 0, 0, 1)
    basis = [vdiff(p13, p12), vdiff(p14, p12)]
    assert lattice_membership(vdiff(e(2, 4), e(1, 4)), basis)
    assert not lattice_membership(vdiff(e(2, 4), e(0, 4)), basis)


def test_lattice_membership_facet_x4_zero():
    # e3 - e1 against the facet carrying the planes 12, 13, 23
    p12 = (1, 1, 0, 0)
    p13 = (1, 0, 1, 0)
    p23 = (0, 1, 1, 0)
    basis = [vdiff(p13, p12), vdiff(p23, p12)]
    assert lattice_membership(vdiff(e(2, 4), e(0, 4)), basis)
    assert not lattice_membership(vdiff(e(3, 4), e(0, 4)), basis)


def test_lattice_membership_empty_basis():
    assert lattice_membership((0, 0), [])
    assert not lattice_membership((1, 0), [])


def test_primitive():
    assert primitive((Fraction(1, 2), Fraction(-3, 4))) == (2, -3)
    assert primitive((4, 6)) == (2, 3)
    assert primitive((0, -2, 4)) == (0, -1, 2)
    with pytest.raises(ValueError):
        primitive((0, 0))


def test_snf_identity():
    u, d, v = smith_normal_form(I3)
    assert d == I3
    assert u == I3
    assert v == I3


def test_snf_worked_example():
    # d1 = gcd of entries = 2, d1*d2 = |det| = |16 - 24| = 8, so diag (2, 4)
    u, d, v = smith_normal_form([[2, 4], [6, 8]])
    assert [d[0][0], d[1][1]] == [2, 4]
    assert d[0][1] == d[1][0] == 0
    assert matmul(matmul(u, [[2, 4], [6, 8]]), v) == d


def test_snf_zero_matrix():
    u, d, v = smith_normal_form([[0, 0], [0, 0], [0, 0]])
    assert all(x == 0 for row in d for x in row)
    assert abs(det(u)) == 1
    assert abs(det(v)) == 1


def check_snf_contract(a):
    u, d, v = smith_normal_form(a)
    assert matmul(matmul(u, a), v) == d
    assert abs(det(u)) == 1
    assert abs(det(v)) == 1
    diag = [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0))]
    assert all(x >= 0 for x in diag)
    for i, j in zip(diag, diag[1:]):
        if j:
            assert i != 0 and j % i == 0
        # trailing zeros after a zero are fine
        if i == 0:
            assert j == 0
    for i, row in enumerate(d):
        for j, x in enumerate(row):
            if i != j:
                assert x == 0
    return diag


def test_snf_random_contract():
    rng = random.Random(20240814)
    for _ in range(60):
        nr = rng.randint(1, 6)
        nc = rng.randint(1, 6)
        a = [[rng.randint(-9, 9) for _ in range(nc)] for _ in range(nr)]
        check_snf_contract(a)


def test_sparse_factors_without_unit_entries():
    # no +-1 entries: the whole matrix lands in the dense fallback
    entries = {(0, 0): 2, (0, 1): 4, (1, 0): 6, (1, 1): 8}
    rk, factors = sparse_rank_and_factors(entries)
    assert rk == 2
    assert factors == [2, 4]
    rk, factors = sparse_rank_and_factors({(0, 0): 2, (0, 1): 3})
    assert rk == 1
    assert factors == [1]


def test_sparse_rank_and_factors_matches_dense():
    rng = random.Random(99)
    for _ in range(40):
        nr = rng.randint(1, 6)
        nc = rng.randint(1, 6)
        a = [[rng.randint(-4, 4) for _ in range(nc)] for _ in range(nr)]
        entries = {(i, j): a[i][j] for i in range(nr) for j in range(nc) if a[i][j]}
        rk, factors = sparse_rank_and_factors(entries)
        _, d, _ = smith_normal_form(a)
        diag = sorted(d[i][i] for i in range(min(nr, nc)) if d[i][i])
        assert rk == len(diag)
        assert sorted(factors) == diag


def random_integer_matrix(rng, side):
    """Up to side x side, entries up to 1, 3 or 40 in absolute value,
    with up to two rows or columns zeroed."""
    nr, nc = rng.randint(1, side), rng.randint(1, side)
    bound = rng.choice((1, 3, 40))
    a = [[rng.randint(-bound, bound) for _ in range(nc)] for _ in range(nr)]
    for _ in range(rng.randint(0, 2)):
        if rng.random() < 0.5:
            a[rng.randrange(nr)] = [0] * nc
        else:
            j = rng.randrange(nc)
            for row in a:
                row[j] = 0
    return a


def check_invariant_factors(a, expected):
    diag = check_snf_contract(a)
    assert [x for x in diag if x] == expected
    entries = {(i, j): x for i, row in enumerate(a) for j, x in enumerate(row) if x}
    assert sparse_rank_and_factors(entries) == (len(expected), expected)


def test_snf_matches_determinantal_divisors():
    rng = random.Random(25)
    shapes, torsion = set(), 0
    for _ in range(500):
        a = random_integer_matrix(rng, 6)
        expected = minor_invariant_factors(a)
        check_invariant_factors(a, expected)
        old = promoting_smith_normal_form(a)[1]
        assert [old[k][k] for k in range(len(expected))] == expected
        shapes.add((len(a) > len(a[0])) - (len(a) < len(a[0])))
        torsion += any(x > 1 for x in expected)
    assert shapes == {-1, 0, 1} and torsion > 100


def test_snf_matches_promoting_routine():
    rng = random.Random(26)
    for _ in range(500):
        a = random_integer_matrix(rng, 8)
        old = promoting_smith_normal_form(a)[1]
        check_invariant_factors(a, [old[k][k] for k in range(min(len(a), len(a[0]))) if old[k][k]])


@pytest.mark.parametrize(
    "pool, seed", [(range(-3, 4), 1), ((0, 0, 0, 0, 1, -1, 2), 2)], ids=["dense", "sparse"]
)
def test_snf_transforms_stay_small(pool, seed):
    # promoting each remainder in place (promoting_smith_normal_form) grows
    # U and V to thousands of digits on draws like these
    rng = random.Random(seed)
    for _ in range(3):
        a = [[rng.choice(pool) for _ in range(20)] for _ in range(20)]
        u, d, v = smith_normal_form(a)
        assert matmul(matmul(u, a), v) == d
        assert max(abs(x) for row in u + v for x in row) < 10**199  # under 200 digits


def test_echelon_membership_roundtrip():
    basis = [vec((1, 2, 0)), vec((0, 1, 1))]
    combo = tuple(Fraction(3, 2) * a - 2 * b for a, b in zip(*basis))
    assert lattice_membership(combo, basis)
    assert fraction_coords(combo, basis) == (Fraction(3, 2), Fraction(-2))


# Every public entry that takes numbers applies the one rule of exactq.exact:
# (entry, call on one value, the exception it raises, whether a Fraction is allowed)
RULE = [
    ("point weight", lambda x: point_component((0,), ((x,), (-1,))), SpecError, False),
    ("point moment", lambda x: point_component((x,), ((1,), (-1,))), SpecError, True),
    ("surface weight", lambda x: surface_component(0, (0,), ((x,),)), SpecError, False),
    ("surface moment", lambda x: surface_component(0, (x,), ((1,),)), SpecError, True),
    ("surface genus", lambda x: surface_component(x, (0,), ((1,),)), SpecError, False),
    ("convex_hull", lambda x: convex_hull([[x, 0], [1, 0], [0, 1]]), ValueError, True),
    ("in_cone", lambda x: in_cone((x, 0), [(1, 0)]), ValueError, True),
    ("sphere_product", lambda x: sphere_product([(x,)], 1), GalleryError, False),
    ("sphere_product torus_rank", lambda x: sphere_product([(1, 1)], x), GalleryError, False),
    ("root_system", lambda x: root_system("A", x), GalleryError, False),
    ("gallery genus", lambda x: build("sigma-g-x-s2", genus=x), GalleryError, False),
    ("projective_space", lambda x: projective_space([(x,), (0,), (0,)]), GalleryError, False),
    ("coadjoint_orbit", lambda x: coadjoint_orbit(root_system("A", 2), (x, 0, -1)), GalleryError, True),
    ("smith_normal_form", lambda x: smith_normal_form([[x, 0], [0, 3]]), ValueError, False),
    ("rank", lambda x: rank([[x, 1]]), ValueError, True),
    ("nullspace", lambda x: nullspace([[x, 1]], 2), ValueError, True),
    ("primitive", lambda x: primitive([x, 2]), ValueError, True),
]


@pytest.mark.parametrize("value", [0.5, True, "1/3"], ids=["float", "bool", "string"])
@pytest.mark.parametrize("entry, call, error, _", RULE, ids=[r[0] for r in RULE])
def test_public_entries_refuse_what_they_cannot_hold_exactly(entry, call, error, _, value):
    with pytest.raises(error) as refused:
        call(value)
    assert type(refused.value) is error


@pytest.mark.parametrize("entry, call, error, rational", RULE, ids=[r[0] for r in RULE])
def test_public_entries_keep_ints_and_allowed_fractions(entry, call, error, rational):
    call(2)
    if rational:
        call(Fraction(1, 2))
    else:
        with pytest.raises(error):
            call(Fraction(1, 2))


def test_dot_refuses_vectors_of_two_lengths():
    assert dot((1, Fraction(1, 2)), (2, 2)) == 3
    for a, b in [((1, 0), (1, 0, 0)), ((1, 0, 0), (1, 0)), ((), (1,))]:
        with pytest.raises(ValueError, match=f"lengths {len(a)} and {len(b)}"):
            dot(a, b)


def test_exact_coerces_nothing():
    assert exact([1, -2], "ints") == (1, -2)
    assert exact((Fraction(1, 2), 3), "rationals", (int, Fraction)) == (Fraction(1, 2), 3)
    with pytest.raises(SpecError, match=r"ints, got \(1, 2.0\)"):
        exact([1, 2.0], "ints", error=SpecError)
    assert (Fraction(1, 10), 0) in convex_hull([[Fraction(1, 10), 0], [1, 0], [0, 1]]).vertices
    assert smith_normal_form([[2, 0], [0, 3]])[1] == [[1, 0], [0, 6]]


class _Level(IntEnum):
    LOW = 1


class _Ratio(Fraction):
    pass


INT, RATIONAL = (int,), (int, Fraction)


@pytest.mark.parametrize(
    "values, kinds",
    [((1, True), INT), ((True,), INT), ((True, 2), RATIONAL), ((1.0,), INT), ((1, 0.5), RATIONAL),
     (("1",), INT), ((1, "1/3"), RATIONAL), ((Fraction(1, 2),), INT), ((_Ratio(1, 2),), INT),
     ((_Level.LOW, 2), INT), ((_Ratio(1, 3), 1), RATIONAL)],
    ids=["int-then-bool", "bool", "bool-rational", "float", "float-rational", "string",
         "string-rational", "fraction-as-int", "fraction-subclass-as-int", "int-subclass",
         "fraction-subclass"],
)
def test_exact_refuses_with_the_message_of_the_rule(values, kinds):
    # the rule passes exactly the types int, or int and Fraction: a
    # bool, a subclass and any other type is refused with its message
    with pytest.raises(SpecError) as refused:
        exact(values, "numbers", kinds, SpecError)
    assert str(refused.value) == f"numbers, got {values!r}"
