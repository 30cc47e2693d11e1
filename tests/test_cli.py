import json

import pytest

from tquot import gallery
from tquot.cli import (
    SpecFileError,
    dump_spec,
    load_spec,
    main,
    parse_spec,
    spec_to_json,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_roundtrip_exact(tmp_path):
    for name in gallery.names():
        spec = gallery.build(name)
        path = tmp_path / f"{name}.json"
        dump_spec(spec, str(path))
        loaded = load_spec(str(path))
        assert loaded == spec, name


def test_export_byte_identical(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    dump_spec(gallery.build("gr2c4"), str(a))
    dump_spec(gallery.build("gr2c4"), str(b))
    assert a.read_bytes() == b.read_bytes()


def test_rational_strings():
    spec = gallery.build("blowup-g", genus=1)
    doc = spec_to_json(spec)
    moments = [c["moment"] for c in doc["fixed_components"]]
    assert ["1/2"] in moments
    assert parse_spec(doc) == spec


def test_parse_rejects_bad_rational():
    doc = spec_to_json(gallery.build("cp2-s1"))
    doc["fixed_components"][0]["moment"] = ["1/0"]
    with pytest.raises(SpecFileError):
        parse_spec(doc)
    doc["fixed_components"][0]["moment"] = [0.5]
    with pytest.raises(SpecFileError):
        parse_spec(doc)


def test_cli_classify_gr2c4(tmp_path, capsys):
    path = tmp_path / "gr2c4.json"
    dump_spec(gallery.build("gr2c4"), str(path))
    code, out, _ = run(capsys, "classify", str(path), "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == {"type": "sphere", "dim": 5}
    assert doc["provenance"] == "boundary-short-sphere"
    assert doc["complexity"] == 1


def test_cli_classify_deterministic_json(tmp_path, capsys):
    path = tmp_path / "s2cubed.json"
    dump_spec(gallery.build("s2cubed"), str(path))
    code1, out1, _ = run(capsys, "classify", str(path), "--format", "json")
    code2, out2, _ = run(capsys, "classify", str(path), "--format", "json")
    assert code1 == code2 == 0
    assert out1 == out2


def test_cli_classify_s2cubed_short_facets(tmp_path, capsys):
    path = tmp_path / "s2cubed.json"
    dump_spec(gallery.build("s2cubed"), str(path))
    code, out, _ = run(capsys, "classify", str(path), "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"]["type"] == "collapsed-product"
    short = set(doc["verdict"]["short_face_ids"])
    by_id = {f["id"]: f for f in doc["faces"]}
    maximal = [fid for fid in short if by_id[fid]["dim"] == 1]
    assert len(maximal) == 2
    assert len(short) == 6


def test_cli_classify_validation_failure(tmp_path, capsys):
    spec = gallery.build("s2cubed")
    doc = spec_to_json(spec)
    doc["fixed_components"].append(doc["fixed_components"][0])  # duplicate vertex comp
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "classify", str(path), "--format", "json")
    assert code == 1
    report = json.loads(out)
    assert report["error"] == "validation-failed"
    assert report["check"] == "V2-vertex-coverage"


def test_cli_classify_parse_error(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "classify", str(path))
    assert code == 2
    assert "cannot read" in err


@pytest.mark.parametrize("value", [5, None, True, {}], ids=["int", "null", "bool", "object"])
def test_cli_components_not_array_is_parse_error(tmp_path, capsys, value):
    doc = spec_to_json(gallery.build("cp2-s1"))
    doc["fixed_components"] = value
    path = tmp_path / "shape.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "classify", str(path))
    assert code == 2
    assert out == ""
    assert "fixed_components must be a JSON array" in err


def test_cli_component_not_object_is_parse_error(tmp_path, capsys):
    doc = spec_to_json(gallery.build("cp2-s1"))
    doc["fixed_components"][1] = None
    path = tmp_path / "shape.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "verify", str(path))
    assert code == 2
    assert "component 1: not a JSON object" in err


def test_cli_skip_validation(tmp_path, capsys):
    path = tmp_path / "gr2c4.json"
    dump_spec(gallery.build("gr2c4"), str(path))
    code, out, _ = run(capsys, "classify", str(path), "--skip-validation")
    assert code == 0
    assert "Sphere(5)" in out


def test_cli_gallery_list(capsys):
    code, out, _ = run(capsys, "gallery", "list")
    assert code == 0
    for name in gallery.names():
        assert name in out


def test_cli_gallery_show(capsys):
    code, out, _ = run(capsys, "gallery", "show", "s2cubed")
    assert code == 0
    assert "CollapsedProduct" in out
    assert "S^3 x I" in out


def test_cli_gallery_unknown(capsys):
    code, _, err = run(capsys, "gallery", "show", "nope")
    assert code == 2
    assert "unknown" in err


def test_cli_gallery_export_then_classify(tmp_path, capsys):
    path = tmp_path / "flag.json"
    code, _, _ = run(capsys, "gallery", "export", "flag-su3", str(path))
    assert code == 0
    code, out, _ = run(capsys, "classify", str(path))
    assert code == 0
    assert "Sphere(4)" in out


def test_cli_gallery_export_genus(tmp_path, capsys):
    path = tmp_path / "sigma2.json"
    code, _, _ = run(capsys, "gallery", "export", "sigma-g-x-s2", str(path), "--genus", "2")
    assert code == 0
    spec = load_spec(str(path))
    assert all(c.genus == 2 for c in spec.components)


def test_cli_verify_pass(tmp_path, capsys):
    path = tmp_path / "gr2c4.json"
    dump_spec(gallery.build("gr2c4"), str(path))
    code, out, _ = run(capsys, "verify", str(path), "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["verification"]["passed"] is True
    betti = {
        c["name"]: c["computed_betti"] for c in doc["verification"]["checks"]
    }
    assert betti["quotient-homology"] == [1, 0, 0, 0, 0, 1]
    assert betti["join-homology"] == [1, 0, 0, 0, 0, 1]


def test_cli_verify_skips_stratification_only(tmp_path, capsys):
    path = tmp_path / "cp5.json"
    dump_spec(gallery.build("cp5-t3"), str(path))
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 4
    assert "StratificationOnly: complexity 2" in out


def test_cli_verify_size_cap(tmp_path, capsys):
    path = tmp_path / "gr2c4.json"
    dump_spec(gallery.build("gr2c4"), str(path))
    code, out, _ = run(capsys, "verify", str(path), "--max-simplices", "20")
    assert code == 4
    assert "size cap" in out


def test_cli_verify_validation_failure(tmp_path, capsys):
    spec = gallery.build("s2cubed")
    doc = spec_to_json(spec)
    doc["fixed_components"][0]["weights"] = doc["fixed_components"][0]["weights"][1:]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 1
    assert "V1-structural" in out
