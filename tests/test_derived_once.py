"""Each derived fact is computed once per command.

The hull, the face lattice and the per-face complexity readings are
cached on the spec and on the polytope, and classify is the one caller
of validate; the components over each face come from one component x
facet incidence.  The counting tests wrap the builders in every tquot
namespace that holds them; the oracle keeps the dot-product membership
test the incidence replaced.
"""

import json
import sys
from collections import Counter

import pytest

from conftest import polytope_specimens
from tquot import cli, gallery, hamspace, polytope
from tquot.cli import dump_spec, spec_to_json
from tquot.exactq import dot
from tquot.hamspace import read_faces


def _counter(monkeypatch, module, fnames):
    """Count calls to module's functions fnames, wherever they are looked up."""
    counts = Counter()
    namespaces = [
        mod for name, mod in sorted(sys.modules.items()) if name == "tquot" or name.startswith("tquot.")
    ]
    for fname in fnames:
        original = getattr(module, fname)

        def counted(*args, _original=original, _name=fname, **kwargs):
            counts[_name] += 1
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
    if face.supporting is None:
        return True
    conormal, offset = face.supporting
    return dot(conormal, moment) == offset


def test_incidence_matches_dot_product_membership():
    pairs = 0
    for spec in polytope_specimens():
        poly = spec.polytope
        readings = read_faces(spec, poly)
        for face in poly.lattice.faces:
            carriers = tuple(r.component for r in readings[face.id])
            expected = tuple(c for c in spec.components if _moment_in_face(c.moment, face, poly))
            assert carriers == expected, (spec.name, face.vertex_set)
            pairs += len(spec.components)
    assert pairs == 3153
