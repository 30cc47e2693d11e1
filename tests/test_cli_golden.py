"""Golden outputs of the command line on the gallery.

For every gallery specimen (default genus), `cli_golden.json` holds the
stdout and the exit code of `classify` and `verify` in json and text,
and of `gallery show`.  A refactor must leave every one of them byte
for byte unchanged; the test shows a unified diff of the first that
moved.  To record new outputs after a deliberate change of the
output, run `PYTHONPATH=src python tests/test_cli_golden.py` and review
the diff of the data file.
"""

import contextlib
import difflib
import io
import json
import tempfile
from pathlib import Path

from tquot import gallery
from tquot.cli import dump_spec, main

GOLDEN = Path(__file__).with_name("cli_golden.json")


def _run(*argv) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return {"exit": code, "stdout": out.getvalue()}


def outputs() -> dict:
    """Every golden run, keyed by its command line."""
    runs = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in gallery.names():
            path = str(Path(tmp) / f"{name}.json")
            dump_spec(gallery.build(name), path)
            for command in ("classify", "verify"):
                for fmt in ("json", "text"):
                    runs[f"{command} {name} --format {fmt}"] = _run(command, path, "--format", fmt)
            runs[f"gallery show {name}"] = _run("gallery", "show", name)
    return runs


def test_cli_outputs_match_golden():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    actual = outputs()
    assert sorted(actual) == sorted(golden)
    for key, want in golden.items():
        got = actual[key]
        assert got["exit"] == want["exit"], f"{key}: exit {got['exit']}, golden {want['exit']}"
        if got["stdout"] != want["stdout"]:
            diff = difflib.unified_diff(
                want["stdout"].splitlines(keepends=True),
                got["stdout"].splitlines(keepends=True),
                f"golden: {key}",
                f"actual: {key}",
            )
            raise AssertionError("".join(diff))


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(outputs(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
