"""Digests of the command line on the benchmark's spec files.

The corpus is every spec file `perfbench/workloads.generate` writes for
the four workloads at seeds 1 and 2, each run under `classify` and
`verify` in json and text.  `cli_digests.json` holds, per run, the
sha256 of its exit code, stdout and stderr, with the temporary
directory the files are written to replaced by a fixed marker.  A
refactor must leave every digest unchanged; the golden file
`cli_golden.json` shows the text of the gallery runs, and this one
covers the transformed and mutated specs the harness times.  To record
new digests after a deliberate change of the output, run
`PYTHONPATH=src python tests/test_cli_digests.py`, which prints how
many runs moved and the first of them before it writes, and say which
runs moved and why.

The generator is loaded by path, as test_spans.py loads spans.py, so
nothing under perfbench/ is imported as a package.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import sys
import tempfile
from pathlib import Path

from tquot.cli import main

DIGESTS = Path(__file__).with_name("cli_digests.json")
WORKLOADS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
SEEDS = (1, 2)


def load_workloads():
    # registered before it runs: its dataclass looks its module up
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = sys.modules["perfbench_workloads"] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _digest(workdir: str, *argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    text = "\0".join((str(code), out.getvalue(), err.getvalue())).replace(workdir, "<dir>")
    return hashlib.sha256(text.encode("utf-8", "surrogatepass")).hexdigest()


def digests() -> dict:
    """Every run's digest, keyed by workload, seed, case, command and format."""
    workloads = load_workloads()
    runs = {}
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            with tempfile.TemporaryDirectory() as tmp:
                for case in workloads.generate(workload, seed, tmp):
                    for command in workloads.OPS:
                        for fmt in ("json", "text"):
                            key = f"{workload} {seed} {case.label} {command} --format {fmt}"
                            runs[key] = _digest(tmp, command, case.path, "--format", fmt)
    return runs


def test_cli_outputs_match_digests():
    want = json.loads(DIGESTS.read_text(encoding="utf-8"))
    got = digests()
    assert sorted(got) == sorted(want)
    moved = [key for key in want if got[key] != want[key]]
    assert not moved, f"{len(moved)} runs moved, first {moved[:5]}"


if __name__ == "__main__":
    old, new = json.loads(DIGESTS.read_text(encoding="utf-8")), digests()
    moved = [key for key in sorted(new) if key in old and old[key] != new[key]]
    print(f"{len(moved)} runs moved, first {moved[:5]}")
    DIGESTS.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n", encoding="utf-8")
