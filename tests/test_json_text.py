"""`cli.json_text` against `json.dumps(value, sort_keys=True, indent=2)`.

The emitter must give the same text as the standard library's indenting
encoder, which stays here as the oracle, on every document the program
prints or exports and on hand-made values at the edges of JSON; and it
must refuse what a report never holds.  The commands that print or
export a document must not reach the pure-Python encoder.
"""

import json
import json.encoder
import random
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import random_unimodular, transform
from tquot import gallery
from tquot.classify import classify
from tquot.cli import dump_spec, json_text, main, report_to_json

GOLDEN = Path(__file__).with_name("cli_golden.json")


def oracle(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2)


def _run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_golden_documents_are_emitted_as_printed():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    documents = 0
    for key, run in golden.items():
        if "--format json" not in key or run["exit"] == 4 or not run["stdout"]:
            continue  # a text run, the compact skipped record or a refusal on stderr
        doc = json.loads(run["stdout"])
        assert json_text(doc) + "\n" == oracle(doc) + "\n" == run["stdout"], key
        documents += 1
    assert documents >= 18


def _moved_specs():
    """Every gallery specimen under a seeded C8 transform."""
    rng = random.Random(2109)
    for name in gallery.names():
        spec = gallery.build(name)
        r = spec.torus_rank
        shift = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(r)]
        scale = Fraction(rng.randint(1, 6), rng.randint(1, 4))
        yield transform(spec, random_unimodular(rng, r), shift, scale)


def test_transformed_gallery_matches_the_oracle(tmp_path, capsys):
    verified = rationals = 0
    for spec in _moved_specs():
        doc = report_to_json(spec, classify(spec))
        assert json_text(doc) == oracle(doc), spec.name
        path = tmp_path / f"{spec.name}.json"
        dump_spec(spec, str(path))
        exported = path.read_text(encoding="utf-8")
        assert exported == oracle(json.loads(exported)) + "\n", spec.name
        moments = [x for c in json.loads(exported)["fixed_components"] for x in c["moment"]]
        rationals += sum(isinstance(x, str) for x in moments)
        code, out = _run(capsys, "verify", str(path), "--format", "json")
        if code != 4:
            assert out == oracle(json.loads(out)) + "\n", spec.name
            verified += "verification" in json.loads(out)
    assert verified >= 6 and rationals > 0


HAND_MADE = [
    [],
    {},
    (),
    [[]],
    {"a": {}},
    [[], {}, [[{}]]],
    {"": [], "b": {"c": []}},
    None,
    True,
    False,
    [None, True, False, 0, -0, 1],
    {"z": None, "a": True, "m": False},
    -7,
    10**639,
    -(10**639) - 1,
    (1, (2, 3), [4]),
    {"t": (), "u": ({"v": (None,)},)},
    'quote " and backslash \\',
    "control \x00\x01\x1f\x7f \b\f\n\r\t",
    "non-ASCII é ☃ ß",
    "non-BMP 😀 𝔽",
    "lone surrogates \ud800 \udfff \udc00\ud800",
    {"\ud800": 1, "é": 2, "e": 3, "E": 4, "": 5, "10": 6, "9": 7},
    {"nested": [{"b": 1, "a": [1, "2/3", None]}, {"": ""}]},
]


@pytest.mark.parametrize("value", HAND_MADE, ids=range(len(HAND_MADE)))
def test_hand_made_values_match_the_oracle(value):
    assert json_text(value) == oracle(value)


@pytest.mark.parametrize(
    "value", [0.5, [1.0], {"a": float("nan")}, {1: "a"}, {"a": {None: 1}}, Fraction(1, 2), [Fraction(2)]]
)
def test_what_a_report_never_holds_is_refused(value):
    with pytest.raises(TypeError):
        json_text(value)


def test_commands_never_reach_the_indenting_encoder(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the pure-Python indenting encoder ran")

    exported = tmp_path / "gr2c4.json"
    dump_spec(gallery.build("gr2c4"), str(exported))
    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    for op in ("classify", "verify"):
        code, out = _run(capsys, op, str(exported), "--format", "json")
        assert code == 0 and json.loads(out)["name"] == "gr2c4", op
    again = tmp_path / "again.json"
    assert _run(capsys, "gallery", "export", "gr2c4", str(again)) == (0, f"wrote {again}\n")
    assert again.read_bytes() == exported.read_bytes()
