from fractions import Fraction

import pytest

from conftest import moment_polytope
from tquot import gallery
from tquot.exactq import dot, vec
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


def test_root_system_a3():
    rs = root_system("A", 3)
    assert len(rs.positive_roots) == 6
    # reflections permute the full root set
    roots = set(rs.positive_roots) | {tuple(-x for x in r) for r in rs.positive_roots}
    for g in rs.weyl_generators:
        image = {tuple(int(dot(row, r)) for row in g) for r in roots}
        assert image == roots


def test_root_system_b2():
    rs = root_system("B", 2)
    assert len(rs.positive_roots) == 4
    roots = set(rs.positive_roots) | {tuple(-x for x in r) for r in rs.positive_roots}
    for g in rs.weyl_generators:
        image = {tuple(int(dot(row, r)) for row in g) for r in roots}
        assert image == roots


def test_weyl_orbit_sizes():
    assert len(_weyl_orbit(root_system("A", 2), (1, 0, -1))) == 6
    assert len(_weyl_orbit(root_system("A", 3), (Fraction(1, 2), Fraction(1, 2), Fraction(-1, 2), Fraction(-1, 2)))) == 6
    assert len(_weyl_orbit(root_system("B", 2), (1, 0))) == 4


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
    from tquot.classify import Disk, classify

    spec = projective_space([(1,), (0,)])
    assert classify(spec).verdict == Disk(1)


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
