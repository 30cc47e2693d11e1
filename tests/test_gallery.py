from fractions import Fraction

import pytest

from conftest import moment_polytope
from oracles import matrix_weyl_orbit, weyl_matrices
from tquot import gallery
from tquot.exactq import vec
from tquot.gallery import (
    GalleryError,
    _weyl_orbit,
    blowup_example,
    coadjoint_orbit,
    projective_space,
    root_system,
    sphere_product,
    surface_times_sphere,
)
from tquot.hamspace import stratify, validate


def _assert_signed_permutations_permuting_the_roots(rs):
    n = len(rs.positive_roots[0])
    for g in rs.weyl_generators:
        assert sorted(j for j, _ in g) == list(range(n))
        assert {s for _, s in g} <= {1, -1}
    # reflections permute the full root set
    roots = set(rs.positive_roots) | {tuple(-x for x in r) for r in rs.positive_roots}
    for g in rs.weyl_generators:
        assert {gallery._apply(g, r) for r in roots} == roots


def test_root_system_a3():
    rs = root_system("A", 3)
    assert len(rs.positive_roots) == 6
    _assert_signed_permutations_permuting_the_roots(rs)


def test_root_system_b2():
    rs = root_system("B", 2)
    assert len(rs.positive_roots) == 4
    _assert_signed_permutations_permuting_the_roots(rs)


def _lambdas(type_label, rank):
    if type_label == "B":
        return [(2, 1), (1, 0), (Fraction(3, 2), Fraction(1, 2))]
    n = rank + 1
    regular = tuple(range(rank, -1, -1))
    singular = (1,) + (0,) * rank
    centred = tuple(Fraction(rank - 2 * k, 2) for k in range(n))
    return [regular, singular, centred]


@pytest.mark.parametrize(
    "type_label, rank", [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("A", 5), ("B", 2)]
)
def test_weyl_orbit_matches_the_matrix_oracle(type_label, rank):
    rs = root_system(type_label, rank)
    matrices = weyl_matrices(type_label, rank)
    for lam in _lambdas(type_label, rank):
        lam = vec(lam)
        expected = matrix_weyl_orbit(matrices, lam, rs.positive_roots)
        assert _weyl_orbit(rs, lam, rs.positive_roots) == expected, lam


@pytest.mark.parametrize("lam", [(1, 0), (2, 1, 0, -5)])
def test_coadjoint_orbit_refuses_lambda_of_another_length(lam):
    with pytest.raises(GalleryError, match=f"length {len(lam)} .* on 3 coordinates"):
        coadjoint_orbit(root_system("A", 2), lam)


@pytest.mark.parametrize("rank", [0, -1])
def test_root_system_refuses_a_rank_below_one(rank):
    with pytest.raises(GalleryError, match="unsupported root system"):
        root_system("A", rank)


def test_weyl_orbit_sizes():
    a2, a3, b2 = root_system("A", 2), root_system("A", 3), root_system("B", 2)
    assert len(_weyl_orbit(a2, (1, 0, -1), a2.positive_roots)) == 6
    half = Fraction(1, 2)
    assert len(_weyl_orbit(a3, (half, half, -half, -half), a3.positive_roots)) == 6
    assert len(_weyl_orbit(b2, (1, 0), b2.positive_roots)) == 4


def test_coadjoint_orbit_gr2c4_structure():
    spec = gallery.build("gr2c4")
    assert len(spec.components) == 6
    assert spec.half_dim == 4
    assert all(len(c.weights) == 4 for c in spec.components)
    # moments sit on the Weyl orbit of lambda
    moments = {tuple(c.moment) for c in spec.components}
    assert len(moments) == 6


def test_coadjoint_orbit_so5_weights():
    spec = gallery.build("so5-orbit")
    at_e1 = next(c for c in spec.components if c.moment == vec((1, 0)))
    assert sorted(at_e1.weights) == sorted([(-1, 0), (-1, 1), (-1, -1)])


def test_coadjoint_orbit_points_are_polytope_vertices():
    for name in ("gr2c4", "flag-su3", "so5-orbit"):
        spec = gallery.build(name)
        poly = moment_polytope(spec)
        assert set(poly.vertices) == {c.moment for c in spec.components}, name


def test_coadjoint_orbit_rejects_nondominant():
    with pytest.raises(GalleryError):
        coadjoint_orbit(root_system("A", 2), (-1, 0, 1))


def test_coadjoint_orbit_rejects_fixed_lambda():
    with pytest.raises(GalleryError):
        coadjoint_orbit(root_system("A", 2), (0, 0, 0))


def test_sphere_product_counts():
    spec = gallery.build("s2cubed")
    assert len(spec.components) == 8
    poly = moment_polytope(spec)
    assert set(poly.vertices) == {vec(v) for v in [(2, 1), (2, -1), (-2, 1), (-2, -1)]}
    at21 = next(c for c in spec.components if c.moment == vec((2, 1)))
    assert sorted(at21.weights) == sorted([(-1, 0), (-1, 0), (0, -1)])


def test_sphere_product_rejects_zero_weight():
    with pytest.raises(GalleryError):
        sphere_product([(0, 0)], 2)


@pytest.mark.parametrize("weight", [Fraction(1, 2), 1.0, True])
def test_sphere_product_refuses_non_integer_weights(weight):
    with pytest.raises(GalleryError, match="integer"):
        sphere_product([(weight,)], 1)


@pytest.mark.parametrize("torus_rank", [True, 1.0, Fraction(1)])
def test_sphere_product_refuses_a_torus_rank_that_is_not_an_int(torus_rank):
    # each equals the length of the weight, so only the number rule refuses it
    with pytest.raises(GalleryError, match="torus rank must be an integer"):
        sphere_product([(1,)], torus_rank)


@pytest.mark.parametrize("weight", [1.9, Fraction(2), False])
def test_projective_space_refuses_non_integer_weights(weight):
    with pytest.raises(GalleryError, match="integer"):
        projective_space([(weight,), (0,), (0,)])


def test_surface_times_sphere():
    spec = surface_times_sphere(2)
    assert spec.half_dim == 2
    assert all(c.is_surface and c.genus == 2 for c in spec.components)


def test_blowup_interior_point_changes_nothing_short():
    spec = blowup_example(1)
    sp = stratify(spec)
    assert sp.short_faces == ()
    assert validate(spec).ok


def test_projective_space_cp2():
    spec = gallery.build("cp2-s1")
    kinds = sorted(c.kind for c in spec.components)
    assert kinds == ["point", "surface"]
    surf = next(c for c in spec.components if c.is_surface)
    pt = next(c for c in spec.components if not c.is_surface)
    assert surf.genus == 0
    assert surf.moment == vec((0,)) and surf.weights == ((1,),)
    assert pt.moment == vec((1,)) and pt.weights == ((-1,), (-1,))


def test_projective_space_cp5():
    spec = gallery.build("cp5-t3")
    assert len(spec.components) == 6
    assert spec.half_dim == 5
    assert all(len(c.weights) == 5 for c in spec.components)


def test_projective_space_rejects_big_fixed_locus():
    with pytest.raises(GalleryError):
        projective_space([(0,), (0,), (0,)])


def test_projective_space_cp1_toric():
    from tquot.classify import Verdict, classify

    spec = projective_space([(1,), (0,)])
    assert classify(spec).verdict == Verdict("disk", dim=1)


def test_all_gallery_specs_validate(gallery_specs):
    for name, spec in gallery_specs.items():
        assert validate(spec).ok, name
    for name in ("sigma-g-x-s2", "blowup-g"):
        for g in (0, 1, 2, 3):
            assert validate(gallery.build(name, genus=g)).ok


def test_builders_deterministic():
    a = gallery.build("gr2c4")
    b = gallery.build("gr2c4")
    assert a == b


def test_build_unknown_name():
    with pytest.raises(GalleryError):
        gallery.build("nope")


def test_genus_only_for_parametrized():
    with pytest.raises(GalleryError):
        gallery.build("gr2c4", genus=2)


@pytest.mark.parametrize("name", ["sigma-g-x-s2", "blowup-g"])
def test_negative_genus_refused(name):
    with pytest.raises(GalleryError, match="genus >= 0"):
        gallery.build(name, genus=-1)
    # the default genus lives in the builders
    assert {c.genus for c in gallery.build(name).components if c.is_surface} == {1}


@pytest.mark.parametrize(
    "name, builder", [("sigma-g-x-s2", surface_times_sphere), ("blowup-g", blowup_example)]
)
@pytest.mark.parametrize(
    "genus, message",
    [
        (True, "{name} needs an integer genus, got (True,)"),
        (1.5, "{name} needs an integer genus, got (1.5,)"),
        ("2", "{name} needs an integer genus, got ('2',)"),
        (-1, "{name} needs a genus >= 0, got -1"),
    ],
    ids=["bool", "float", "str", "negative"],
)
def test_surface_builders_refuse_a_genus_that_is_not_an_int_from_0(name, builder, genus, message):
    # the builders hold the genus rule, so calling one directly refuses
    # what the catalog refuses, with the same message
    for build in (builder, lambda g: gallery.build(name, genus=g)):
        with pytest.raises(GalleryError) as refused:
            build(genus)
        assert str(refused.value) == message.format(name=name)
    assert {c.genus for c in builder(0).components if c.is_surface} == {0}
