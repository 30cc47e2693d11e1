"""Each derived fact is computed once per command.

The hull, the face lattice and the per-face complexity readings are
cached on the spec and on the polytope, and classify is the one caller
of validate, which decides the vertex cones without the cone test
in_cone; the components over each face come from the facets at each
moment, which V2 shares and the hull reads off its contacts, as the
face lattice reads the vertices of each facet.  A span is ranked at
most once: by V3 or V5 only where V4 has not accepted the vertex cone,
and never in the hull, which lifts its conormals without a nullspace
per facet and takes no nullspace of more rows than the polytope has
dimensions.  Verify collapses the model once and reduces
it and the short locus, not the join again when the join is the model.
The parser leaves the numbers of a spec to the component builders, so
each passes the one test of the rule, `exactq.exact`, once.  The
counting tests wrap the builders in every tquot namespace that holds
them; the oracle keeps the dot-product membership test the
incidence replaced.
"""

import json
import sys
from collections import Counter
from fractions import Fraction

import pytest

from conftest import polytope_specimens
from oracles import supporting
from tquot import classify, cli, exactq, gallery, hamspace, polytope, simplicial
from tquot.cli import dump_spec, spec_to_json
from tquot.exactq import dot
from tquot.hamspace import read_faces


def _counter(monkeypatch, module, fnames, calls=None):
    """Count calls to module's functions fnames, wherever they are looked
    up; with calls, a list, also append each call's arguments to it."""
    counts = Counter()
    namespaces = [
        mod for name, mod in sorted(sys.modules.items()) if name == "tquot" or name.startswith("tquot.")
    ]
    for fname in fnames:
        original = getattr(module, fname)

        def counted(*args, _original=original, _name=fname, **kwargs):
            counts[_name] += 1
            if calls is not None:
                calls.append(args)
            return _original(*args, **kwargs)

        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if value is original:
                    monkeypatch.setattr(ns, attr, counted)
    return counts


@pytest.fixture
def builds(monkeypatch):
    return _counter(monkeypatch, polytope, ("convex_hull", "face_lattice"))


@pytest.fixture
def passes(monkeypatch):
    return _counter(monkeypatch, hamspace, ("validate", "read_faces"))


def _main(capsys, *argv):
    code = cli.main(list(argv))
    capsys.readouterr()
    return code


@pytest.mark.parametrize(
    "argv",
    [("classify", "{path}"), ("verify", "{path}"), ("gallery", "show", "s2cubed")],
    ids=["classify", "verify", "gallery-show"],
)
def test_one_hull_and_one_lattice_per_command(tmp_path, capsys, builds, argv):
    path = tmp_path / "s2cubed.json"
    dump_spec(gallery.build("s2cubed"), str(path))
    assert _main(capsys, *(a.format(path=path) for a in argv)) == 0
    assert builds == {"convex_hull": 1, "face_lattice": 1}


@pytest.mark.parametrize(
    "argv",
    [("classify", "{path}"), ("verify", "{path}"), ("gallery", "show", "s2cubed")],
    ids=["classify", "verify", "gallery-show"],
)
def test_one_validation_and_one_face_pass_per_command(tmp_path, capsys, passes, argv):
    path = tmp_path / "s2cubed.json"
    dump_spec(gallery.build("s2cubed"), str(path))
    assert _main(capsys, *(a.format(path=path) for a in argv)) == 0
    assert passes == {"validate": 1, "read_faces": 1}


def test_skip_validation_runs_no_validation(tmp_path, capsys, passes):
    path = tmp_path / "s2cubed.json"
    dump_spec(gallery.build("s2cubed"), str(path))
    assert _main(capsys, "classify", str(path), "--skip-validation") == 0
    assert passes == {"read_faces": 1}


@pytest.mark.parametrize("name", gallery.names())
def test_classify_builds_one_hull_and_runs_no_cone_search(monkeypatch, name):
    # V4 reads facet inequalities, so in_cone, which builds a hull of
    # the weights, stays off the hot path
    spec = gallery.build(name)
    calls = _counter(monkeypatch, polytope, ("convex_hull", "in_cone"))
    classify(spec)
    assert (calls["convex_hull"], calls["in_cone"]) == (1, 0)


@pytest.mark.parametrize("skip_validation", [False, True], ids=["validated", "skipped"])
@pytest.mark.parametrize("name", gallery.names())
def test_classify_finds_the_facets_at_the_moments_once(monkeypatch, name, skip_validation):
    # the double description finds them: the face lattice reads the
    # vertices of each facet, and V2 and the face readings the facets at
    # each moment, off the hull's contacts, with no slack test at all
    spec = gallery.build(name)
    calls = _counter(monkeypatch, polytope, ("facet_incidence",))
    classify(spec, skip_validation=skip_validation)
    assert calls["facet_incidence"] == 0


def test_classify_lifts_the_conormals_without_a_nullspace_per_facet(monkeypatch):
    # one nullspace for the hull normals and one per facet of the
    # starting simplex of the double description, however many facets
    # the hull ends with: the conormals are lifted from the normals
    half = Fraction(1, 2)
    spec = gallery.coadjoint_orbit(gallery.root_system("A", 3), (3 * half, half, -half, -3 * half))
    calls = _counter(monkeypatch, exactq, ("nullspace",))
    assert classify(spec).validation.ok
    assert len(spec.polytope.facets) == 14
    assert calls["nullspace"] == 1 + (spec.polytope.dim + 1) == 5


def test_classify_takes_no_nullspace_of_more_rows_than_the_polytope_dimension(monkeypatch):
    # the affine hull's normals come from the affinely independent
    # points one elimination finds, not from the 24 points of the orbit
    half = Fraction(1, 2)
    spec = gallery.coadjoint_orbit(gallery.root_system("A", 3), (3 * half, half, -half, -3 * half))
    calls = []
    _counter(monkeypatch, exactq, ("nullspace",), calls)
    assert classify(spec).validation.ok
    assert len(calls) == 5
    assert max(len(m) for m, _ in calls) == spec.polytope.dim == 3


def test_classify_ranks_once_per_component_and_the_hull_never(monkeypatch):
    # every moment of the A3 regular orbit is a vertex whose cone V4
    # accepts, so V3 and V5 leave every span to V4, which ranks none
    # when it accepts: no component is ranked even once.  The hull
    # reads its vertices off its contacts
    half = Fraction(1, 2)
    spec = gallery.coadjoint_orbit(gallery.root_system("A", 3), (3 * half, half, -half, -3 * half))
    calls = _counter(monkeypatch, exactq, ("rank",))
    assert len(spec.polytope.vertices) == len(spec.components) == 24
    assert calls["rank"] == 0
    assert classify(spec).validation.ok
    assert calls["rank"] == 0


@pytest.mark.parametrize(
    "build, slots, distinct",
    [
        (lambda: gallery.coadjoint_orbit(gallery.root_system("A", 3), (3, 1, -1, -3)), 144, 12),
        (lambda: gallery.coadjoint_orbit(gallery.root_system("A", 4), (3, 3, -2, -2, -2)), 60, 20),
    ],
    ids=["a3-regular", "gr2c5"],
)
def test_classify_weighs_each_distinct_weight_once(monkeypatch, build, slots, distinct):
    # the weight table meets each distinct weight with the hull normals
    # and the facets once; V3, V4 and the face readings look it up, so
    # no weight slot at a vertex is weighed again
    spec = build()
    assert sum(len(c.weights) for c in spec.components) == slots
    seen = []
    off_hull = polytope.RationalPolytope.off_hull
    monkeypatch.setattr(
        polytope.RationalPolytope, "off_hull", lambda poly, w: seen.append(w) or off_hull(poly, w)
    )
    assert classify(spec).validation.ok
    assert len(seen) == len(set(seen)) == distinct


def test_load_spec_checks_each_number_once(tmp_path, monkeypatch):
    # the parser leaves the numbers to the component builders: one test
    # of the rule per weight row, per moment and per genus, and one each
    # for torus_rank and half_dim
    half = Fraction(1, 2)
    spec = gallery.coadjoint_orbit(gallery.root_system("A", 3), (3 * half, half, -half, -3 * half))
    path = tmp_path / "a3.json"
    dump_spec(spec, str(path))
    calls = _counter(monkeypatch, exactq, ("exact",))
    assert cli.load_spec(str(path)) == spec
    rows = sum(len(c.weights) for c in spec.components)
    genera = sum(c.is_surface for c in spec.components)
    assert calls["exact"] == rows + len(spec.components) + genera + 2 == 24 * 6 + 24 + 2


def test_verify_collapses_once_and_reduces_model_and_short_locus(tmp_path, capsys, monkeypatch):
    # gr2c4 is a boundary-short sphere: its join check reuses the
    # model's homology, since the coned model is that join
    path = tmp_path / "gr2c4.json"
    dump_spec(gallery.build("gr2c4"), str(path))
    calls = _counter(monkeypatch, simplicial, ("collapse_fibers", "homology"))
    assert _main(capsys, "verify", str(path)) == 0
    assert calls == {"collapse_fibers": 1, "homology": 2}


def test_no_hull_for_spec_failing_v1(tmp_path, capsys, builds):
    doc = spec_to_json(gallery.build("s2cubed"))
    doc["fixed_components"][0]["moment"] = [0, 0, 0]  # longer than torus_rank
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    for op in ("classify", "verify"):
        assert _main(capsys, op, str(path)) == 1
    assert not builds


def _moment_in_face(moment, face, poly):
    # the membership test the incidence replaced: every facet inequality,
    # then the face's supporting hyperplane
    for conormal, offset in poly.facets:
        if dot(conormal, moment) < offset:
            return False
    if supporting(poly, face) is None:
        return True
    conormal, offset = supporting(poly, face)
    return dot(conormal, moment) == offset


def test_incidence_matches_dot_product_membership():
    pairs = 0
    for spec in polytope_specimens():
        poly = spec.polytope
        readings = read_faces(spec, poly, spec.weight_table, poly.contacts)
        for face in poly.lattice.faces:
            carriers = tuple(r.index for r in readings[face.id])
            expected = tuple(
                i for i, c in enumerate(spec.components) if _moment_in_face(c.moment, face, poly)
            )
            assert carriers == expected, (spec.name, face.vertex_set)
            pairs += len(spec.components)
    assert pairs == 3153
