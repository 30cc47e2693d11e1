import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conftest import RP2
from tquot import cli, gallery
from tquot.cli import (
    SpecFileError,
    dump_spec,
    load_spec,
    main,
    parse_spec,
    spec_to_json,
)
from tquot.simplicial import (
    MAX_SIMPLICES,
    HomologyProfile,
    VerificationCheck,
    VerificationResult,
    expected_homology,
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


def _put(doc, field, value):
    """Write value into a blowup-g export, whose component 0 is a genus-1
    surface with moment [0] and weights [[1]]."""
    comp = doc["fixed_components"][0]
    if field == "weight":
        comp["weights"][0][0] = value
    elif field == "weight-row":
        comp["weights"][0] = value
    elif field == "moment":
        comp["moment"][0] = value
    elif field == "genus":
        comp["genus"] = value
    else:
        doc[field] = value


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("weight", 1.5, "fixed_components[0].weights[0][0] must be an integer, got 1.5"),
        ("weight", True, "fixed_components[0].weights[0][0] must be an integer, got true"),
        ("weight", "1", 'fixed_components[0].weights[0][0] must be an integer, got "1"'),
        ("weight-row", "1", "fixed_components[0].weights[0] must be a JSON array"),
        ("genus", 1.9, "fixed_components[0].genus must be an integer, got 1.9"),
        ("genus", False, "fixed_components[0].genus must be an integer, got false"),
        ("moment", True, "fixed_components[0].moment[0]: not a rational: true"),
        ("moment", "\u00b2", 'fixed_components[0].moment[0]: not a rational: "\\u00b2"'),
        ("moment", "1/\u00b2", 'fixed_components[0].moment[0]: not a rational: "1/\\u00b2"'),
        ("moment", "\u0663", 'fixed_components[0].moment[0]: not a rational: "\\u0663"'),
        ("moment", "--3", 'fixed_components[0].moment[0]: not a rational: "--3"'),
        ("torus_rank", 1.0, "torus_rank must be an integer, got 1.0"),
        ("torus_rank", "1", 'torus_rank must be an integer, got "1"'),
        ("half_dim", True, "half_dim must be an integer, got true"),
        ("half_dim", 0, "half_dim must be at least 1, got 0"),
        ("half_dim", -2, "half_dim must be at least 1, got -2"),
        ("name", ["blowup-g"], 'name must be a string, got ["blowup-g"]'),
    ],
    ids=[
        "weight-float",
        "weight-bool",
        "weight-string",
        "weight-row-string",
        "genus-float",
        "genus-bool",
        "moment-bool",
        "moment-superscript-digit",
        "moment-superscript-denominator",
        "moment-arabic-indic-digit",
        "moment-double-minus",
        "torus-rank-float",
        "torus-rank-string",
        "half-dim-bool",
        "half-dim-zero",
        "half-dim-negative",
        "name-array",
    ],
)
@pytest.mark.parametrize("op", ["classify", "verify"])
def test_cli_non_integer_is_parse_error(tmp_path, capsys, field, value, message, op):
    doc = spec_to_json(gallery.build("blowup-g", genus=1))
    _put(doc, field, value)
    path = tmp_path / "strict.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, op, str(path), "--format", "json")
    assert code == 2
    assert out == ""
    assert message in err


def _at(name, path, value):
    """The export of a gallery specimen with value put at path, a
    sequence of keys below fixed_components."""
    doc = spec_to_json(gallery.build(name))
    node = doc["fixed_components"]
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


# each case: specimen, path below fixed_components, value, and the whole
# stderr; the path lies past the first component, row and entry
PARSE_ERRORS = {
    "weight-bool": (
        "gr2c4",
        (3, "weights", 2, 3),
        True,
        "malformed spec file: fixed_components[3].weights[2][3] must be an integer, got true",
    ),
    "weight-float": (
        "gr2c4",
        (3, "weights", 2, 3),
        1.0,
        "malformed spec file: fixed_components[3].weights[2][3] must be an integer, got 1.0",
    ),
    "weight-string": (
        "gr2c4",
        (3, "weights", 2, 3),
        "-1",
        'malformed spec file: fixed_components[3].weights[2][3] must be an integer, got "-1"',
    ),
    "weight-row-object": (
        "gr2c4",
        (3, "weights", 1),
        {"0": 1},
        "malformed spec file: fixed_components[3].weights[1] must be a JSON array",
    ),
    "weights-string": (
        "gr2c4",
        (3, "weights"),
        "[[1, 0, 0, -1]]",
        "malformed spec file: fixed_components[3].weights must be a JSON array",
    ),
    "moment-not-rational": (
        "gr2c4",
        (3, "moment", 2),
        "1/2/3",
        'fixed_components[3].moment[2]: not a rational: "1/2/3"',
    ),
    "moment-zero-denominator": (
        "gr2c4",
        (3, "moment", 2),
        "-1/0",
        'fixed_components[3].moment[2]: rational needs a positive denominator: "-1/0"',
    ),
    "moment-700-digits": (
        "gr2c4",
        (3, "moment", 2),
        "1/" + "7" * 700,
        "fixed_components[3].moment[2]: rational with more than 640 digits"
        " in its numerator or denominator",
    ),
    "genus-bool": (
        "blowup-g",
        (1, "genus"),
        True,
        "malformed spec file: fixed_components[1].genus must be an integer, got true",
    ),
}


@pytest.mark.parametrize("case", sorted(PARSE_ERRORS))
@pytest.mark.parametrize("op", ["classify", "verify"])
def test_cli_parse_error_names_the_position(tmp_path, capsys, case, op):
    name, at, value, message = PARSE_ERRORS[case]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(_at(name, at, value)))
    assert run(capsys, op, str(path)) == (2, "", f"error: {message}\n")


def test_cli_parse_error_names_the_first_bad_weight(tmp_path, capsys):
    doc = _at("gr2c4", (3, "weights", 2, 3), "-1")
    doc["fixed_components"][3]["weights"][1][2] = 0.0
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert run(capsys, "classify", str(path)) == (
        2,
        "",
        "error: malformed spec file: fixed_components[3].weights[1][2]"
        " must be an integer, got 0.0\n",
    )


def _long_value_case(case):
    """A blowup-g export (text) with one long malformed value, and the
    message its parse error must show before the cut value."""
    doc = spec_to_json(gallery.build("blowup-g", genus=1))
    if case == "deep-moment":
        _put(doc, "moment", "@")
        text = json.dumps(doc).replace('"@"', "[" * 900 + "]" * 900)
        return text, "fixed_components[0].moment[0]: not a rational: "
    if case == "long-weight":
        _put(doc, "weight", "x" * 5000)
        return json.dumps(doc), "fixed_components[0].weights[0][0] must be an integer, got "
    if case == "long-kind":
        doc["fixed_components"][1]["kind"] = "x" * 5000
        return json.dumps(doc), "fixed_components[1].kind: unknown component kind "
    if case == "zero-denominator":
        _put(doc, "moment", "1/" + "0" * 640)
        return json.dumps(doc), "fixed_components[0].moment[0]: rational needs a positive denominator: "
    _put(doc, "name", "@")
    text = json.dumps(doc).replace('"@"', "[" * 300 + '"blowup-g"' + "]" * 300)
    return text, "name must be a string, got "


@pytest.mark.parametrize(
    "case", ["deep-moment", "long-weight", "nested-name", "long-kind", "zero-denominator"]
)
@pytest.mark.parametrize("op", ["classify", "verify"])
def test_cli_long_value_in_parse_error_is_cut(tmp_path, capsys, case, op):
    text, message = _long_value_case(case)
    path = tmp_path / "long.json"
    path.write_text(text)
    code, out, err = run(capsys, op, str(path), "--format", "json")
    assert code == 2
    assert out == ""
    [line] = err.splitlines()
    assert message in line
    assert line.endswith("…")
    assert len(line) < 200


@pytest.mark.parametrize("change", ["longer", "shorter"])
@pytest.mark.parametrize("name", ["blowup-g", "cp2-s1", "gr2c4"])
def test_cli_weight_of_wrong_length_fails_v1(tmp_path, capsys, name, change):
    doc = spec_to_json(gallery.build(name))
    weights = doc["fixed_components"][-1]["weights"]
    weights[0] = weights[0] + [1] if change == "longer" else weights[0][:-1]
    path = tmp_path / "length.json"
    path.write_text(json.dumps(doc))
    for op in ("classify", "verify"):
        code, out, err = run(capsys, op, str(path), "--format", "json")
        assert code == 1, err
        assert json.loads(out)["check"] == "V1-structural"


def test_cli_skip_validation(tmp_path, capsys):
    path = tmp_path / "gr2c4.json"
    dump_spec(gallery.build("gr2c4"), str(path))
    code, out, _ = run(capsys, "classify", str(path), "--skip-validation")
    assert code == 0
    assert "Sphere(5)" in out


@pytest.mark.parametrize("name, vector", [("s2cubed", "moment"), ("gr2c4", "weight")])
def test_cli_skip_validation_refuses_wrong_length(tmp_path, capsys, name, vector):
    doc = spec_to_json(gallery.build(name))
    comp = doc["fixed_components"][0]
    (comp["moment"] if vector == "moment" else comp["weights"][0]).append(1)
    path = tmp_path / "length.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "classify", str(path), "--skip-validation")
    assert code == 1, err
    assert out == ""
    assert "validation failed: V1-structural" in err


# passes V1-V7, but a single fixed surface in a four-manifold must be a sphere
GENUS_ONE_FOUR_MANIFOLD = {
    "name": "fm",
    "torus_rank": 1,
    "half_dim": 2,
    "fixed_components": [
        {"kind": "point", "moment": [0], "weights": [[1], [1]]},
        {"kind": "surface", "genus": 1, "moment": [1], "weights": [[-1]]},
    ],
}

# blowup-g at genus 0 with the normal weight of a surface removed:
# V1 refuses it, and unvalidated stratification finds it inconsistent
SURFACE_WITHOUT_WEIGHT = {
    "name": "blowup-g",
    "torus_rank": 1,
    "half_dim": 2,
    "fixed_components": [
        {"kind": "surface", "genus": 0, "moment": [0], "weights": []},
        {"kind": "surface", "genus": 0, "moment": [1], "weights": [[-1]]},
        {"kind": "point", "moment": ["1/2"], "weights": [[1], [-1]]},
    ],
}


@pytest.mark.parametrize(
    "doc, argv, message",
    [
        (GENUS_ONE_FOUR_MANIFOLD, ["classify"], "a single fixed surface in a four-manifold"),
        (GENUS_ONE_FOUR_MANIFOLD, ["verify"], "a single fixed surface in a four-manifold"),
        (SURFACE_WITHOUT_WEIGHT, ["classify", "--skip-validation"], "face complexity inconsistent"),
    ],
    ids=["classify", "verify", "skip-validation"],
)
def test_cli_invalid_spec_exits_1(tmp_path, capsys, doc, argv, message):
    """Data that no action can have is bad input, not an internal error."""
    path = tmp_path / "invalid.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, argv[0], str(path), *argv[1:])
    assert code == 1
    assert out == ""
    assert err.startswith("error: invalid spec: ") and message in err
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "genera, check", [((2, 3), "V7-surface-genus"), ((-1, -1), "V1-structural")],
    ids=["several", "negative"],
)
def test_cli_skip_validation_refuses_surface_genera(tmp_path, capsys, genera, check):
    """With nothing short the verdict reads the one genus of the fixed
    surfaces; several genera or a negative one is data that no action
    can have, refused by V7 or V1 first when validation runs."""
    doc = spec_to_json(gallery.build("sigma-g-x-s2"))
    for comp, genus in zip(doc["fixed_components"], genera):
        comp["genus"] = genus
    path = tmp_path / "genera.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "classify", str(path), "--skip-validation")
    assert (code, out) == (1, "")
    assert err.startswith("error: invalid spec: ") and err.count("\n") == 1
    code, out, _ = run(capsys, "classify", str(path), "--format", "json")
    assert code == 1
    assert json.loads(out)["check"] == check


def test_cli_missing_component_key_names_its_path(tmp_path, capsys):
    doc = spec_to_json(gallery.build("cp2-s1"))
    del doc["fixed_components"][1]["moment"]
    path = tmp_path / "missing.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "classify", str(path))
    assert code == 2
    assert err == "error: malformed spec file: fixed_components[1].moment is missing\n"


@pytest.mark.parametrize("key", ["name", "torus_rank", "half_dim", "fixed_components"])
def test_cli_missing_top_level_key_names_it(tmp_path, capsys, key):
    doc = spec_to_json(gallery.build("cp2-s1"))
    del doc[key]
    path = tmp_path / "missing.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "classify", str(path))
    assert code == 2
    assert out == ""
    assert err == f"error: malformed spec file: {key} is missing\n"


def test_cli_export_to_unwritable_path(tmp_path, capsys):
    out_path = tmp_path / "no-such-directory" / "x.json"
    code, out, err = run(capsys, "gallery", "export", "gr2c4", str(out_path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {out_path}: ")


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


def test_cli_gallery_export_negative_genus_is_refused(tmp_path, capsys):
    path = tmp_path / "sigma.json"
    code, out, err = run(capsys, "gallery", "export", "sigma-g-x-s2", str(path), "--genus", "-1")
    assert code == 2
    assert (out, err) == ("", "error: sigma-g-x-s2 needs a genus >= 0, got -1\n")
    assert not path.exists()


def test_cli_gallery_genus_for_an_unparametrized_specimen_is_refused(capsys):
    code, out, err = run(capsys, "gallery", "show", "gr2c4", "--genus", "7")
    assert code == 2
    assert (out, err) == ("", "error: gr2c4 takes no genus parameter\n")


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


def test_cli_verify_passes_s2_power_under_the_default_cap(tmp_path, capsys):
    # (S^2)^5 under T^4: the coned model has 8 114 simplices, collapsed
    # from a product of 120 734, well under the default cap
    e = [tuple(int(i == j) for j in range(4)) for i in range(4)]
    path = tmp_path / "s2-5-t4.json"
    dump_spec(gallery.sphere_product([*e, (1, 1, 1, 1)], 4), str(path))
    code, out, _ = run(capsys, "verify", str(path), "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["verification"]["passed"] is True
    assert doc["verification"]["checks"][0]["computed_betti"] == [1, 0, 0, 0, 0, 0, 1]


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


@pytest.mark.parametrize(
    "name, genus, cap, estimate",
    [("gr2c4", None, 2000, 3742), ("sigma-g-x-s2", 10**6, MAX_SIMPLICES, 186000038)],
)
def test_cli_verify_counts_the_product_before_building_it(tmp_path, capsys, name, genus, cap, estimate):
    # the cap is checked before the fiber is built; a genus-10^6 fiber would not finish
    path = tmp_path / "spec.json"
    dump_spec(gallery.build(name, genus=genus), str(path))
    start = time.perf_counter()
    code, out, _ = run(capsys, "verify", str(path), "--max-simplices", str(cap), "--format", "json")
    assert time.perf_counter() - start < 2
    assert code == 4
    assert json.loads(out) == {
        "estimate": estimate,
        "skipped": f"size cap exceeded: {estimate} simplices (cap {cap})",
    }


def test_cli_verify_validation_failure(tmp_path, capsys):
    spec = gallery.build("s2cubed")
    doc = spec_to_json(spec)
    doc["fixed_components"][0]["weights"] = doc["fixed_components"][0]["weights"][1:]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 1
    assert "V1-structural" in out


@pytest.mark.parametrize("name", gallery.names())
def test_cli_verify_ignores_the_spec_name(tmp_path, capsys, name):
    doc = spec_to_json(gallery.build(name))
    outcomes = []
    for label in (name, "renamed"):
        doc["name"] = label
        path = tmp_path / f"{label}.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "verify", str(path), "--format", "json")
        outcomes.append((code, json.loads(out).get("verification")))
    assert outcomes[0] == outcomes[1]


def test_cli_verify_renamed_s2cubed(tmp_path, capsys):
    doc = spec_to_json(gallery.build("s2cubed"))
    doc["name"] = "renamed"
    path = tmp_path / "renamed.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", str(path), "--format", "json")
    assert code == 0
    [check] = json.loads(out)["verification"]["checks"]
    assert check["name"] == "quotient-homology" and check["passed"]
    assert check["expected_betti"] == [1, 0, 0, 1]


def _bytes_case(case):
    """A spec file (bytes) that is malformed beyond the reach of
    parse_spec's field checks, and the message it must give."""
    doc = spec_to_json(gallery.build("blowup-g", genus=1))
    if case == "deep-nesting":
        doc["fixed_components"] = "@"
        text = json.dumps(doc).replace('"@"', "[" * 100000 + "]" * 100000)
        return text.encode(), "maximum recursion depth exceeded"
    if case == "byte-ff":
        return json.dumps(doc).encode() + b"\xff", "can't decode byte 0xff"
    if case == "long-integer":
        doc["fixed_components"][0]["weights"][0][0] = "@"
        text = json.dumps(doc).replace('"@"', "-" + "7" * 5000)
        message = "fixed_components[0].weights[0][0] is an integer of 5000 digits, more than 640"
        return text.encode(), message
    if case.startswith("top-level-"):
        text = {"array": "[1, 2]", "string": '"abc"', "number": "3", "null": "null"}[case[10:]]
        return text.encode(), "malformed spec file: the document must be a JSON object"
    doc["fixed_components"][0]["moment"][0] = "1/" + "3" * 5000
    message = "fixed_components[0].moment[0]: rational with more than 640 digits"
    return json.dumps(doc).encode(), message


@pytest.mark.parametrize(
    "case",
    [
        "deep-nesting",
        "byte-ff",
        "long-integer",
        "long-rational",
        "top-level-array",
        "top-level-string",
        "top-level-number",
        "top-level-null",
    ],
)
@pytest.mark.parametrize("op", ["classify", "verify"])
def test_cli_unreadable_spec_is_parse_error(tmp_path, capsys, case, op):
    data, message = _bytes_case(case)
    path = tmp_path / "spec.json"
    path.write_bytes(data)
    code, out, err = run(capsys, op, str(path), "--format", "json")
    assert code == 2
    assert out == ""
    assert message in err


@pytest.mark.parametrize("digits", [640, 641])
@pytest.mark.parametrize("where", ["rational", "integer", "integer-beside-long-string"])
def test_cli_digit_limit_is_inclusive(tmp_path, capsys, where, digits):
    doc = spec_to_json(gallery.build("cp2-s1"))
    if where == "rational":
        assert doc["fixed_components"][0]["moment"] == [0]
        doc["fixed_components"][0]["moment"] = ["0/" + "3" * digits]  # still zero
    else:
        doc["note"] = -int("7" * digits)  # an unknown key, still a JSON integer
    if where == "integer-beside-long-string":
        doc["remark"] = "9" * 700  # a long run of digits, but in a string
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "classify", str(path))
    assert code == (0 if digits == 640 else 2)
    assert ("more than 640" in err) == (digits == 641)


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_cli_verify_shows_torsion(tmp_path, capsys, monkeypatch, fmt):
    # RP^2 gives torsion Z/2 in degree 4 of the expected profile; a
    # computed profile without it differs in torsion only
    expected = expected_homology(RP2, 0)
    untwisted = HomologyProfile(expected.betti, ((),) * len(expected.betti))
    result = VerificationResult(
        False,
        (
            VerificationCheck("quotient-homology", False, untwisted, expected),
            VerificationCheck("join-homology", True, expected, expected),
        ),
    )
    monkeypatch.setattr(cli, "verify_report", lambda report, max_simplices: result)
    path = tmp_path / "gr2c4.json"
    dump_spec(gallery.build("gr2c4"), str(path))
    code, out, _ = run(capsys, "verify", str(path), "--format", fmt)
    assert code == 1
    if fmt == "json":
        checks = json.loads(out)["verification"]["checks"]
        assert checks[0]["computed_betti"] == checks[0]["expected_betti"] == [1, 0, 0, 0, 0]
        assert checks[0]["computed_torsion"] == [[]] * 5
        assert [c["expected_torsion"] for c in checks] == [[[], [], [], [], [2]]] * 2
    else:
        assert (
            "quotient-homology: FAIL computed betti [1, 0, 0, 0, 0] expected [1, 0, 0, 0, 0]"
            " computed torsion [[], [], [], [], []] expected torsion [[], [], [], [], [2]]"
        ) in out
        assert (
            "join-homology: pass computed betti [1, 0, 0, 0, 0] expected [1, 0, 0, 0, 0]"
            " computed torsion [[], [], [], [], [2]] expected torsion [[], [], [], [], [2]]"
        ) in out


def test_cli_verify_without_torsion_prints_none(tmp_path, capsys):
    path = tmp_path / "gr2c4.json"
    dump_spec(gallery.build("gr2c4"), str(path))
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0
    assert "torsion" not in out
    code, out, _ = run(capsys, "verify", str(path), "--format", "json")
    checks = json.loads(out)["verification"]["checks"]
    assert [c["expected_torsion"] for c in checks] == [[[]] * 6] * 3


def test_parser_survives_an_argparse_error(tmp_path, capsys):
    # the parser is built once per process and then reused
    path = tmp_path / "s2xs2-diag.json"
    dump_spec(gallery.build("s2xs2-diag"), str(path))
    first = run(capsys, "classify", str(path), "--format", "json")
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert run(capsys, "classify", str(path), "--format", "json") == first
    assert first[0] == 0


def _python_m_tquot(*argv):
    """Run `python -m tquot` in a fresh interpreter on this checkout's sources."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    return subprocess.run(
        [sys.executable, "-m", "tquot", *argv], capture_output=True, text=True, env=env
    )


def test_python_m_tquot_matches_in_process(tmp_path, capsys):
    path = tmp_path / "gr2c4.json"
    dump_spec(gallery.build("gr2c4"), str(path))
    argv = ("classify", str(path), "--format", "json")
    proc = _python_m_tquot(*argv)
    code, out, _ = run(capsys, *argv)
    assert (proc.returncode, proc.stdout) == (code, out)
    assert code == 0


def test_python_m_tquot_malformed_file_is_parse_error(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    proc = _python_m_tquot("classify", str(path))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "cannot read spec file" in proc.stderr
