"""Golden outputs of the command line on the gallery.

For every gallery specimen (default genus), `cli_golden.json` holds the
stdout, the stderr and the exit code of `classify` and `verify` in json
and text, and of `gallery show`.  It also holds the refusal paths: for
every specimen, `classify` of its spec with one weight entry made a
float, a boolean and a string, and for the specimens with a fixed
surface, with a float genus; and one V4 failure, s2cubed with the
weights at its first vertex negated.  A refactor must leave every one
of them byte for byte unchanged; the test shows a unified diff of the
first that moved.  To record new outputs after a deliberate change of
the output, run `PYTHONPATH=src python tests/test_cli_golden.py` and
review the diff of the data file.
"""

import contextlib
import copy
import difflib
import io
import json
import tempfile
from pathlib import Path

from tquot import gallery
from tquot.cli import main, spec_to_json

GOLDEN = Path(__file__).with_name("cli_golden.json")

# what replaces the last entry of the last weight of the last component
BAD_WEIGHTS = {"float": 1.0, "bool": True, "string": "1"}


def _run(*argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _variants(doc: dict) -> dict:
    """The refused variants of a spec document, by their label."""
    variants = {}
    for label, value in BAD_WEIGHTS.items():
        bad = copy.deepcopy(doc)
        bad["fixed_components"][-1]["weights"][-1][-1] = value
        variants[f"weight {label}"] = bad
    surfaces = [c for c in doc["fixed_components"] if c["kind"] == "surface"]
    if surfaces:
        bad = copy.deepcopy(doc)
        next(c for c in bad["fixed_components"] if c["kind"] == "surface")["genus"] = 1.0
        variants["genus float"] = bad
    return variants


def outputs() -> dict:
    """Every golden run, keyed by its command line."""
    runs = {}
    with tempfile.TemporaryDirectory() as tmp:

        def write(stem, doc):
            path = Path(tmp) / f"{stem}.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            return str(path)

        for name in gallery.names():
            doc = spec_to_json(gallery.build(name))
            path = write(name, doc)
            for command in ("classify", "verify"):
                for fmt in ("json", "text"):
                    runs[f"{command} {name} --format {fmt}"] = _run(command, path, "--format", fmt)
            runs[f"gallery show {name}"] = _run("gallery", "show", name)
            for label, bad in _variants(doc).items():
                runs[f"classify {name} {label}"] = _run("classify", write("bad", bad))
        doc = spec_to_json(gallery.build("s2cubed"))
        vertex = doc["fixed_components"][0]
        vertex["weights"] = [[-x for x in w] for w in vertex["weights"]]
        path = write("v4", doc)
        for fmt in ("json", "text"):
            runs[f"classify s2cubed negated vertex weights --format {fmt}"] = _run(
                "classify", path, "--format", fmt
            )
    return runs


def test_cli_outputs_match_golden():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    actual = outputs()
    assert sorted(actual) == sorted(golden)
    for key, want in golden.items():
        got = actual[key]
        assert got["exit"] == want["exit"], f"{key}: exit {got['exit']}, golden {want['exit']}"
        for stream in ("stdout", "stderr"):
            if got[stream] != want[stream]:
                diff = difflib.unified_diff(
                    want[stream].splitlines(keepends=True),
                    got[stream].splitlines(keepends=True),
                    f"golden {stream}: {key}",
                    f"actual {stream}: {key}",
                )
                raise AssertionError("".join(diff))


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(outputs(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
