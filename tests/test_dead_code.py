"""No function in the package goes uncalled without a reason.

A fixed command-line corpus runs under `sys.setprofile`, which sees the
call of every Python function.  Its specs are built inside the profiled
region, from the gallery, so that building them counts.  Every named
function or method in `src/tquot`, nested ones included, is found by
compiling the sources; those the corpus never called must be exactly
the ones in UNCALLED, each with its reason.  The test fails when code
goes dead without being listed, and when a listed function is called
again or no longer exists, so that the list stays true.
"""

import contextlib
import inspect
import io
import json
import sys
import types
from pathlib import Path

import tquot
from tquot import cli

SRC = Path(tquot.__file__).parent

# functions the corpus does not call, by module and qualified name
UNCALLED = {
    "exactq.smith_normal_form": "runs on the residue the unit-pivot sweep leaves, which no"
    " gallery model has; perfbench/spans.py wraps it and acceptance C7 pins its U and V",
    "exactq.smith_normal_form.<locals>.add_col": "part of smith_normal_form",
    "exactq.smith_normal_form.<locals>.add_row": "part of smith_normal_form",
    "exactq.smith_normal_form.<locals>.swap_cols": "part of smith_normal_form",
    "exactq.smith_normal_form.<locals>.swap_rows": "part of smith_normal_form",
    "exactq.identity_matrix": "smith_normal_form's starting U and V",
    "polytope.in_cone": "perfbench/spans.py wraps it; the cone test of the public API",
    "simplicial.barycentric_pair": "collapse_fibers' branch for a sub that is not full, which"
    " verification never takes; perfbench/spans.py wraps it and acceptance C5 pins the branch",
    "simplicial.HomologyProfile.reduced_trivial": "acceptance pin",
    "simplicial.HomologyProfile.betti_padded": "acceptance pin",
    "hamspace.ValidationReport.failed": "acceptance pin",
    "simplicial.OrderedComplex.simplex_count": "perfbench/spans.py reads the model size with it",
    "hamspace.general_position": "public API: the general-position test of a spec",
}


def defined() -> dict:
    """(file, first line) -> "module.qualname" of every named function
    in the package sources; class bodies and comprehensions are left out."""
    found = {}
    for path in sorted(SRC.glob("*.py")):
        stack = [(compile(path.read_text(encoding="utf-8"), str(path), "exec"), "")]
        while stack:
            code, prefix = stack.pop()
            for const in code.co_consts:
                if not isinstance(const, types.CodeType) or const.co_name.startswith("<"):
                    continue
                qualname = prefix + const.co_name
                if const.co_flags & inspect.CO_OPTIMIZED:
                    found[(const.co_filename, const.co_firstlineno)] = f"{path.stem}.{qualname}"
                    stack.append((const, qualname + ".<locals>."))
                else:
                    stack.append((const, qualname + "."))
    return found


def _main(*argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(list(argv))


def run_corpus(tmp: Path) -> None:
    for name in cli.gallery.names():
        path = str(tmp / f"{name}.json")
        _main("gallery", "export", name, path)
        for op in ("classify", "verify"):
            for fmt in ("json", "text"):
                _main(op, path, "--format", fmt)
        _main("classify", path, "--skip-validation")
        _main("verify", path, "--max-simplices", "20")
        _main("gallery", "show", name)
    _main("gallery", "list")
    # a genus-2 fiber is a connected sum of tori
    _main("gallery", "export", "sigma-g-x-s2", str(tmp / "genus2.json"), "--genus", "2")
    assert _main("verify", str(tmp / "genus2.json")) == 0
    doc = json.loads((tmp / "s2cubed.json").read_text(encoding="utf-8"))
    for name, value in (("float", 1.5), ("long", "@")):
        text = json.dumps(dict(doc, torus_rank=value)).replace('"@"', "7" * 700)
        (tmp / f"{name}.json").write_text(text, encoding="utf-8")
        assert _main("classify", str(tmp / f"{name}.json")) == 2
    vertex = doc["fixed_components"][0]
    # a weight entry that the builder refuses and the parser names
    vertex["weights"][0][0] = True
    (tmp / "bool.json").write_text(json.dumps(doc), encoding="utf-8")
    assert _main("classify", str(tmp / "bool.json")) == 2
    vertex["weights"][0][0] = 1
    vertex["weights"] = [[-x for x in w] for w in vertex["weights"]]  # fails V4
    (tmp / "invalid.json").write_text(json.dumps(doc), encoding="utf-8")
    for fmt in ("json", "text"):
        assert _main("classify", str(tmp / "invalid.json"), "--format", fmt) == 1


def test_uncalled_functions_are_the_listed_ones(tmp_path):
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    cli.build_parser.cache_clear()  # built once per process, so build it here
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run_corpus(tmp_path)
    finally:
        sys.setprofile(previous)
    uncalled = {name for key, name in defined().items() if key not in called}
    assert sorted(uncalled - UNCALLED.keys()) == [], "uncalled, and not in UNCALLED"
    assert sorted(UNCALLED.keys() - uncalled) == [], "in UNCALLED, but called or gone"
