import pytest

from conftest import RP2
from oracles import euler_characteristic, product
from tquot import gallery, simplicial
from tquot.classify import classify
from tquot.simplicial import (
    HomologyProfile,
    OrderedComplex,
    SizeCapExceeded,
    barycentric_pair,
    boundary_subcomplex_of_polytope,
    collapse_fibers,
    expected_homology,
    homology,
    is_full_subcomplex,
    join,
    simplex_boundary_sphere,
    surface_complex,
    surface_face_numbers,
    verify_report,
)


def interval():
    return OrderedComplex.from_simplices([(0, 1)])


def no_torsion(profile):
    return all(not t for t in profile.torsion)


def sphere_betti(m):
    return (1,) + (0,) * (m - 1) + (1,)


def test_from_simplices_closes_downward():
    k = OrderedComplex.from_simplices([(0, 1, 2)])
    assert (0, 1) in k.simplices and (2,) in k.simplices
    assert k.simplex_count == 7


def test_from_simplices_rejects_unsorted():
    with pytest.raises(ValueError):
        OrderedComplex.from_simplices([(1, 0)])


def test_boundary_sphere_small():
    assert homology(simplex_boundary_sphere(1)).betti == (2,)
    assert homology(simplex_boundary_sphere(3)).betti == (1, 0, 1)
    assert homology(simplex_boundary_sphere(4)).betti == (1, 0, 0, 1)
    with pytest.raises(ValueError):
        simplex_boundary_sphere(0)


def closed_surface_check(k):
    triangles = [s for s in k.simplices if len(s) == 3]
    edges = [s for s in k.simplices if len(s) == 2]
    for e in edges:
        cofaces = [t for t in triangles if set(e) <= set(t)]
        assert len(cofaces) == 2
    # vertex links are single cycles: every link is connected with
    # as many link edges as link vertices
    for v in k.vertices:
        link_edges = [tuple(x for x in t if x != v) for t in triangles if v in t]
        link_verts = {x for e in link_edges for x in e}
        assert len(link_edges) == len(link_verts)
        reached = {link_edges[0][0]}
        frontier = [link_edges[0][0]]
        while frontier:
            cur = frontier.pop()
            for a, b in link_edges:
                nxt = b if a == cur else a if b == cur else None
                if nxt is not None and nxt not in reached:
                    reached.add(nxt)
                    frontier.append(nxt)
        assert reached == link_verts


@pytest.mark.parametrize("g,betti", [(0, (1, 0, 1)), (1, (1, 2, 1)), (2, (1, 4, 1)), (3, (1, 6, 1))])
def test_surface_complexes(g, betti):
    k = surface_complex(g)
    prof = homology(k)
    assert prof.betti == betti
    assert no_torsion(prof)
    closed_surface_check(k)
    assert euler_characteristic(k) == 2 - 2 * g


@pytest.mark.parametrize("g", range(9))
def test_surface_face_numbers_match_the_complex(g):
    assert surface_face_numbers(g) == surface_complex(g).face_numbers


def test_product_edge_edge():
    sq = product(interval(), interval())
    assert sum(1 for s in sq.simplices if len(s) == 3) == 2
    assert homology(sq).reduced_trivial


def test_product_s0_s0():
    pts = simplex_boundary_sphere(1)
    four = product(pts, pts)
    assert homology(four).betti == (4,)


def test_product_spheres():
    s2 = simplex_boundary_sphere(3)
    prof = homology(product(s2, s2))
    assert prof.betti == (1, 0, 2, 0, 1)
    assert no_torsion(prof)


def test_product_projections_are_simplicial():
    k = OrderedComplex.from_simplices([(0, 1, 2)])
    l = interval()
    p = product(k, l)
    # the product's vertices number the pairs in lexicographic order
    pairs = [(v, w) for v in k.vertices for w in l.vertices]
    for s in p.simplices:
        left = tuple(sorted({pairs[v][0] for v in s}))
        right = tuple(sorted({pairs[v][1] for v in s}))
        assert left in k.simplices
        assert right in l.simplices


def test_kunneth_betti_on_products():
    pairs = [
        (simplex_boundary_sphere(2), surface_complex(1)),
        (simplex_boundary_sphere(3), surface_complex(2)),
    ]
    for a, b in pairs:
        ha, hb = homology(a), homology(b)
        hp = homology(product(a, b))
        expect = [0] * (len(ha.betti) + len(hb.betti) - 1)
        for i, x in enumerate(ha.betti):
            for j, y in enumerate(hb.betti):
                expect[i + j] += x * y
        assert hp.betti == tuple(expect)


def test_join_s0_s0_is_circle():
    s0 = simplex_boundary_sphere(1)
    circ = join(s0, s0)
    assert homology(circ).betti == (1, 1)
    assert sum(1 for s in circ.simplices if len(s) == 2) == 4


def test_join_with_point_is_cone():
    pt = OrderedComplex.from_simplices([(0,)])
    cone = join(pt, surface_complex(2))
    assert homology(cone).reduced_trivial


def test_join_octahedron_tetrahedron_is_s5():
    octa = OrderedComplex.from_simplices(
        [
            (a, b, c)
            for a in (0, 1)
            for b in (2, 3)
            for c in (4, 5)
        ]
    )
    assert homology(octa).betti == (1, 0, 1)
    model = join(octa, simplex_boundary_sphere(3))
    prof = homology(model)
    assert prof.betti == (1, 0, 0, 0, 0, 1)
    assert no_torsion(prof)


def test_join_suspension_shifts_reduced_homology():
    # reduced homology of the suspension is that of the base, one degree up
    s0 = simplex_boundary_sphere(1)
    for base in (simplex_boundary_sphere(3), surface_complex(1)):
        h = homology(base)
        reduced = (h.betti[0] - 1,) + h.betti[1:]
        sus = homology(join(s0, base))
        assert sus.betti == (1,) + reduced
        assert sus.torsion[1:] == ((),) + h.torsion[:-1]


def test_euler_characteristic_matches_homology():
    for k in (
        simplex_boundary_sphere(3),
        surface_complex(2),
        product(interval(), surface_complex(1)),
        join(simplex_boundary_sphere(1), simplex_boundary_sphere(1)),
    ):
        prof = homology(k)
        assert euler_characteristic(k) == sum(
            (-1) ** d * b for d, b in enumerate(prof.betti)
        )


def test_homology_empty():
    assert homology(OrderedComplex(frozenset())) == HomologyProfile((), ())


def test_rp2_torsion():
    # six-vertex projective plane (antipodal icosahedron): Z/2 in degree one
    rp2 = OrderedComplex.from_simplices(
        [
            (0, 1, 2),
            (0, 2, 3),
            (0, 3, 4),
            (0, 4, 5),
            (0, 1, 5),
            (1, 2, 4),
            (2, 4, 5),
            (2, 3, 5),
            (1, 3, 5),
            (1, 3, 4),
        ]
    )
    prof = homology(rp2)
    assert prof.betti == (1, 0, 0)
    assert prof.torsion[1] == (2,)


def test_collapse_interval_both_ends_gives_s3():
    q = collapse_fibers(
        interval(),
        OrderedComplex.from_simplices([(0,), (1,)]),
        simplex_boundary_sphere(3),
    )
    prof = homology(q)
    assert prof.betti == (1, 0, 0, 1)
    assert no_torsion(prof)


def test_collapse_interval_one_end_gives_d3():
    q = collapse_fibers(
        interval(),
        OrderedComplex.from_simplices([(1,)]),
        simplex_boundary_sphere(3),
    )
    assert homology(q).reduced_trivial


def test_collapse_empty_sub_is_product():
    s2 = simplex_boundary_sphere(3)
    q = collapse_fibers(interval(), OrderedComplex(frozenset()), s2)
    p = product(interval(), s2)
    assert q.simplices == p.simplices


def test_collapse_empty_fiber_is_empty():
    # the product is empty, so nothing is left to crush, even over sub
    empty = OrderedComplex(frozenset())
    for sub in (empty, OrderedComplex.from_simplices([(0,)]), interval()):
        assert not collapse_fibers(interval(), sub, empty).simplices


def test_collapse_full_base_is_base():
    s2 = simplex_boundary_sphere(3)
    q = collapse_fibers(interval(), interval(), s2)
    assert homology(q).betti == homology(interval()).betti


def test_collapse_torus_fiber():
    q = collapse_fibers(
        interval(), OrderedComplex.from_simplices([(0,), (1,)]), surface_complex(1)
    )
    # unreduced suspension of the torus: betti (1, 0, 2, 1)
    assert homology(q).betti == (1, 0, 2, 1)


def test_collapse_requires_subcomplex():
    with pytest.raises(ValueError):
        collapse_fibers(interval(), OrderedComplex.from_simplices([(5,)]), simplex_boundary_sphere(3))


def test_barycentric_pair_fullness():
    base = interval()
    sub = OrderedComplex.from_simplices([(0,), (1,)])
    assert not is_full_subcomplex(base, sub)
    sd_base, sd_sub = barycentric_pair(base, sub)
    assert is_full_subcomplex(sd_base, sd_sub)
    assert homology(sd_base).reduced_trivial
    assert homology(sd_sub).betti == (2,)


def test_barycentric_preserves_homology():
    for k in (simplex_boundary_sphere(3), surface_complex(1)):
        sd, _ = barycentric_pair(k, OrderedComplex(frozenset()))
        assert homology(sd).betti == homology(k).betti


def test_boundary_subcomplex_interval_one_end():
    sp = classify(gallery.build("cp2-s1")).stratification
    full, sub = boundary_subcomplex_of_polytope(sp, sp.short_faces)
    assert sum(1 for s in full.simplices if len(s) == 2) == 1
    assert sub.simplices == frozenset({(next(iter(sub.simplices))[0],)})


def test_boundary_subcomplex_interval_both_ends():
    # both endpoints are short, so the interval is split at one new
    # vertex; the selection is the two endpoints, full in the split
    sp = classify(gallery.build("s2xs2-diag")).stratification
    full, sub = boundary_subcomplex_of_polytope(sp, sp.short_faces)
    mid = len(sp.polytope.vertices) + sp.lattice.top.id
    assert full.simplices == {(0,), (1,), (mid,), (0, mid), (1, mid)}
    assert sorted(sub.simplices) == [(0,), (1,)]
    assert is_full_subcomplex(full, sub)


def test_boundary_subcomplex_rectangle():
    sp = classify(gallery.build("s2cubed")).stratification
    full, sub = boundary_subcomplex_of_polytope(sp, sp.short_faces)
    assert homology(full).reduced_trivial
    # two opposite closed edges: two contractible components
    assert homology(sub).betti == (2, 0)
    assert euler_characteristic(full) == 1


def test_boundary_subcomplex_octahedron_boundary():
    sp = classify(gallery.build("gr2c4")).stratification
    full, sub = boundary_subcomplex_of_polytope(sp, sp.short_faces)
    assert homology(full).reduced_trivial
    assert homology(sub).betti == (1, 0, 1)
    # every polytope vertex is short, so each face that is not short is
    # coned from its own new vertex, vertex count + face id
    n = len(sp.polytope.vertices)
    short = set(sp.short_faces)
    coned = {n + f.id for f in sp.lattice.faces if f.id not in short}
    assert set(full.vertices) == set(range(n)) | coned
    assert max(full.vertices) < n + len(sp.lattice.faces)
    assert is_full_subcomplex(full, sub)


def test_boundary_subcomplex_requires_downward_closed():
    sp = classify(gallery.build("s2cubed")).stratification
    top_short = [fid for fid in sp.short_faces if sp.lattice.face(fid).dim == 1]
    with pytest.raises(ValueError):
        boundary_subcomplex_of_polytope(sp, top_short)


def test_verify_gallery_sphere_cases(gallery_specs):
    expected = {
        "gr2c4": (1, 0, 0, 0, 0, 1),
        "flag-su3": (1, 0, 0, 0, 1),
        "so5-orbit": (1, 0, 0, 0, 1),
        "s2xs2-diag": (1, 0, 0, 1),
    }
    for name, betti in expected.items():
        report = classify(gallery_specs[name])
        result = verify_report(report)
        assert result.passed, name
        computed = result.checks[0].computed
        assert computed.betti == betti, name
        names = [c.name for c in result.checks]
        assert names == ["quotient-homology", "join-homology", "models-agree"]


E4 = [tuple(int(i == j) for j in range(4)) for i in range(4)]


@pytest.mark.parametrize(
    "spec",
    [
        gallery.projective_space([(0, 0, 0, 0), *E4, (1, 1, 1, 1)], name="cp5-t4"),
        gallery.sphere_product([*E4, (1, 1, 1, 1)], 4, name="s2-5-t4"),
    ],
    ids=["cp5-t4", "s2-5-t4"],
)
def test_verify_passes_where_the_barycentric_model_was_refused(spec):
    # the products of the coned bases have 8 798 and 120 734 simplices;
    # subdividing the pulled triangulation gives 421 438 and 9 725 054,
    # over the default cap
    report = classify(spec)
    result = verify_report(report)
    assert result.passed
    assert [c.name for c in result.checks] == ["quotient-homology", "join-homology", "models-agree"]
    quotient = result.checks[0]
    assert quotient.computed.betti == quotient.expected.betti == sphere_betti(spec.half_dim + 1)


def test_verify_disk_and_products(gallery_specs):
    result = verify_report(classify(gallery_specs["cp2-s1"]))
    assert result.passed
    assert result.checks[0].computed.reduced_trivial

    for g in (0, 1, 2):
        result = verify_report(classify(gallery.build("sigma-g-x-s2", genus=g)))
        assert result.passed
        assert result.checks[0].computed.betti_padded(4) == (1, 2 * g, 1, 0)


def test_verify_s2cubed_profile(gallery_specs):
    report = classify(gallery_specs["s2cubed"])
    result = verify_report(report)
    assert result.passed
    assert result.checks[0].computed.betti_padded(5) == (1, 0, 0, 1, 0)


def cone(q):
    """The cone over q from a new last vertex; q is full in it."""
    apex = max(q.vertices, default=-1) + 1
    return OrderedComplex.from_simplices([s + (apex,) for s in q.maximal_simplices()] or [(apex,)])


@pytest.mark.parametrize(
    "q, genus",
    [
        (OrderedComplex.from_simplices([(0,)]), 0),
        (OrderedComplex.from_simplices([(0,), (1,)]), 0),
        (simplex_boundary_sphere(2), 0),
        (RP2, 0),
        (OrderedComplex(frozenset()), 0),
        (OrderedComplex(frozenset()), 1),
        (OrderedComplex(frozenset()), 2),
    ],
    ids=["point", "two-points", "circle", "rp2", "empty-g0", "empty-g1", "empty-g2"],
)
def test_expected_homology_is_the_collapsed_cone(q, genus):
    model = collapse_fibers(cone(q), q, surface_complex(genus))
    assert homology(model).trimmed() == expected_homology(q, genus)


def test_expected_homology_carries_torsion():
    assert homology(RP2).torsion == ((), (2,), ())
    profile = expected_homology(RP2, 0)
    assert profile.betti == (1, 0, 0, 0, 0)
    assert profile.torsion == ((), (), (), (), (2,))


def test_verify_toric_disk():
    from tquot.hamspace import HamSpec, point_component

    spec = HamSpec(
        "toric-cp1",
        1,
        1,
        (point_component((1,), ((-1,),)), point_component((-1,), ((1,),))),
    )
    result = verify_report(classify(spec))
    assert result.passed
    assert result.checks[0].computed.reduced_trivial


def test_verify_rejects_stratification_only(gallery_specs):
    with pytest.raises(ValueError):
        verify_report(classify(gallery_specs["cp5-t3"]))


def test_verify_size_cap(gallery_specs):
    with pytest.raises(SizeCapExceeded):
        verify_report(classify(gallery_specs["gr2c4"]), max_simplices=10)


E3 = [tuple(int(i == j) for j in range(3)) for i in range(3)]


def boundary_short_specs(gallery_specs):
    specs = [gallery_specs[n] for n in ("gr2c4", "flag-su3", "so5-orbit", "s2xs2-diag")]
    specs.append(gallery.projective_space([(0, 0, 0), *E3, (1, 1, 1)], name="cp4-t3"))
    specs.append(gallery.sphere_product([*E3, (1, 1, 1)], 3, name="s2-4-t3"))
    return specs


def test_quotient_equals_join_for_boundary_short(gallery_specs):
    for spec in boundary_short_specs(gallery_specs):
        report = classify(spec)
        assert report.join_presentation, spec.name
        result = verify_report(report)
        agree = next(c for c in result.checks if c.name == "models-agree")
        assert agree.passed
        assert result.checks[0].computed.betti == sphere_betti(spec.half_dim + 1)
        # the coned model is the join model itself, simplex for simplex
        sp = report.stratification
        full, sub = boundary_subcomplex_of_polytope(sp, sp.short_faces)
        s2 = surface_complex(0)
        assert collapse_fibers(full, sub, s2).simplices == join(sub, s2).simplices


def test_join_check_computes_a_join_that_differs(gallery_specs, monkeypatch):
    # verify_report reuses the model's profile only for a join equal to
    # the model; a different join is reduced on its own and fails
    torus = surface_complex(1)
    monkeypatch.setattr(simplicial, "join", lambda k, l: join(k, torus))
    for spec in boundary_short_specs(gallery_specs):
        report = classify(spec)
        result = verify_report(report)
        assert not result.passed, spec.name
        checks = {c.name: c for c in result.checks}
        assert checks["quotient-homology"].passed
        sp = report.stratification
        _, sub = boundary_subcomplex_of_polytope(sp, sp.short_faces)
        assert checks["join-homology"].computed == homology(join(sub, torus))
        assert not checks["join-homology"].passed
        assert not checks["models-agree"].passed
