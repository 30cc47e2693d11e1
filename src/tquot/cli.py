"""Command-line interface: classify, gallery, verify.

Spec files are JSON with exact rationals ("p/q" strings, bare integers
allowed).  Exit codes: 0 success, 1 validation or verification failure
or an invalid spec, 2 parse error, unknown name or unwritable export, 3
internal error, 4 verification skipped.

Each command calls `classify` once and builds one JSON document, which
`_emit` prints with sorted keys or renders as text from the document
alone (`_text`).  Errors reach `main`, which maps them to exit codes; a
validation failure is such a document for every command: the failed
check, then every check.  `classify --skip-validation` refuses a
malformed spec on stderr only.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from fractions import Fraction

from tquot import gallery
from tquot.classify import (
    CollapsedProduct,
    Disk,
    ProductPolytopeSurface,
    Sphere,
    StratificationOnly,
    TopologyReport,
    ValidationFailure,
    classify,
)
from tquot.exactq import exact
from tquot.hamspace import (
    HamSpec,
    SpecError,
    point_component,
    surface_component,
    validate,  # not called here (classify validates); perfbench/selftest.py looks the name up here
)
from tquot.simplicial import MAX_SIMPLICES, SizeCapExceeded, verify_report


class SpecFileError(ValueError):
    pass


# ASCII digits only: str.isdigit and int() also take other Unicode digits
_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")

# Digits allowed in a JSON integer and in the numerator or denominator of
# a rational string: the smallest limit on int/str conversion that an
# interpreter can be configured with, so none refuses an accepted spec.
MAX_DIGITS = 640


class _LongInteger:
    """A JSON integer with more than MAX_DIGITS digits, left unconverted
    so that _decode can name its path."""

    def __init__(self, digits: int):
        self.digits = digits


def _decode(text: str):
    """json.loads, refusing an integer of more than MAX_DIGITS digits
    with its JSON path.  The tree is searched for that path only when
    the decoder met such an integer."""
    long_integers = []

    def integer(literal: str):
        digits = len(literal.lstrip("-"))
        if digits <= MAX_DIGITS:
            return int(literal)
        long_integers.append(digits)
        return _LongInteger(digits)

    data = json.loads(text, parse_int=integer)
    if not long_integers:
        return data
    stack = [("", data)]
    while stack:
        path, value = stack.pop()
        if isinstance(value, _LongInteger):
            raise SpecFileError(
                f"malformed spec file: {path or 'the document'} is an integer of"
                f" {value.digits} digits, more than {MAX_DIGITS}"
            )
        if isinstance(value, dict):
            items = [(f"{path}.{k}" if path else k, v) for k, v in value.items()]
        elif isinstance(value, list):
            items = [(f"{path}[{i}]", v) for i, v in enumerate(value)]
        else:
            continue
        stack.extend(reversed(items))
    return data


# Characters of an offending value that a parse error shows
SHOWN_CHARS = 60


def _shown(value) -> str:
    """value as JSON, cut to SHOWN_CHARS characters and "…" when longer.
    Encoded lazily, so a deeply nested value is encoded only as far as
    it is shown."""
    text = ""
    for chunk in json.JSONEncoder().iterencode(value):
        text += chunk
        if len(text) > SHOWN_CHARS:
            return text[:SHOWN_CHARS] + "…"
    return text


def _fraction_from_json(value, at: str, j: int):
    """Entry j of the moment of component at: a JSON integer, returned as
    it is, or a "p/q" string, as a Fraction.  Its path is formatted only
    for an error."""
    if type(value) is int:  # a JSON integer, not true or false
        return value
    match = _RATIONAL.fullmatch(value) if isinstance(value, str) else None
    if not match:
        problem = f"not a rational: {_shown(value)}"
    elif len(value) > MAX_DIGITS and max(map(len, value.lstrip("-").split("/"))) > MAX_DIGITS:
        problem = f"rational with more than {MAX_DIGITS} digits in its numerator or denominator"
    elif not (den := int(match.group(2) or 1)):
        problem = f"rational needs a positive denominator: {_shown(value)}"
    else:
        return Fraction(int(match.group(1)), den)
    raise SpecFileError(f"{at}.moment[{j}]: {problem}")


def _integer(value, path: str) -> int:
    """A JSON integer, by `exactq.exact`.  Booleans, floats and strings
    are refused with the path, never coerced."""
    try:
        [value] = exact((value,), path)
    except ValueError:
        raise SpecFileError(
            f"malformed spec file: {path} must be an integer, got {_shown(value)}"
        ) from None
    return value


def _array(value, path: str) -> list:
    if not isinstance(value, list):
        raise SpecFileError(f"malformed spec file: {path} must be a JSON array")
    return value


def _fraction_to_json(x: Fraction):
    if x.denominator == 1:
        return x.numerator
    return f"{x.numerator}/{x.denominator}"


def _name_refused(raw: dict, at: str) -> None:
    """Raise the parse error for the first value of component at that is
    not a JSON integer where one is needed: the weights row by row, then
    a surface's genus."""
    for i, w in enumerate(raw["weights"]):
        for j, x in enumerate(_array(w, f"{at}.weights[{i}]")):
            _integer(x, f"{at}.weights[{i}][{j}]")
    if raw["kind"] == "surface":
        _integer(raw["genus"], f"{at}.genus")


def parse_spec(data) -> HamSpec:
    """Build a spec from a decoded JSON document.

    Only what JSON knows is checked here: shapes, missing keys, rational
    strings.  The builders check the numbers, and the first value one
    refuses is reported with its JSON path.
    """
    if not isinstance(data, dict):
        raise SpecFileError("malformed spec file: the document must be a JSON object")
    try:
        name = data["name"]
        torus_rank = data["torus_rank"]
        half_dim = data["half_dim"]
        raw_components = data["fixed_components"]
    except KeyError as exc:
        raise SpecFileError(f"malformed spec file: {exc.args[0]} is missing") from exc
    if not isinstance(name, str):
        raise SpecFileError(f"malformed spec file: name must be a string, got {_shown(name)}")
    torus_rank = _integer(torus_rank, "torus_rank")
    if _integer(half_dim, "half_dim") < 1:
        raise SpecFileError(f"malformed spec file: half_dim must be at least 1, got {half_dim}")
    components = []
    for idx, raw in enumerate(_array(raw_components, "fixed_components")):
        if not isinstance(raw, dict):
            raise SpecFileError(f"malformed component {idx}: not a JSON object")
        at = f"fixed_components[{idx}]"
        try:
            kind = raw["kind"]
            moment = tuple(
                _fraction_from_json(x, at, j)
                for j, x in enumerate(_array(raw["moment"], f"{at}.moment"))
            )
            weights = _array(raw["weights"], f"{at}.weights")
            try:  # the walk names a row that is no array; an unknown kind comes after it
                if kind not in ("point", "surface") or any(type(w) is not list for w in weights):
                    raise SpecError(f"{at}: not a component")
                if kind == "point":
                    components.append(point_component(moment, weights))
                else:
                    components.append(surface_component(raw.get("genus"), moment, weights))
            except SpecError:  # the walk names a refused number, so what it passes is the kind
                _name_refused(raw, at)
                raise SpecFileError(f"{at}.kind: unknown component kind {_shown(kind)}") from None
        except KeyError as exc:
            raise SpecFileError(f"malformed spec file: {at}.{exc.args[0]} is missing") from exc
    return HamSpec(name, torus_rank, half_dim, tuple(components))


def load_spec(path: str) -> HamSpec:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = _decode(fh.read())
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise SpecFileError(f"cannot read spec file {path}: {exc}") from exc
    return parse_spec(data)


def spec_to_json(spec: HamSpec) -> dict:
    components = []
    for c in spec.components:
        entry = {
            "kind": c.kind,
            "moment": [_fraction_to_json(x) for x in c.moment],
            "weights": [list(w) for w in c.weights],
        }
        if c.is_surface:
            entry["genus"] = c.genus
        components.append(entry)
    return {
        "name": spec.name,
        "torus_rank": spec.torus_rank,
        "half_dim": spec.half_dim,
        "fixed_components": components,
    }


def dump_spec(spec: HamSpec, path: str) -> None:
    text = json.dumps(spec_to_json(spec), sort_keys=True, indent=2) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


# The text name of each verdict type, formatted with the verdict's JSON fields
VERDICT_TEXT = {
    "sphere": "Sphere({dim})",
    "disk": "Disk({dim})",
    "product-polytope-surface": "ProductPolytopeSurface(genus={genus})",
    "collapsed-product": "CollapsedProduct(short_faces={short_face_ids}, fiber=S2)",
    "stratification-only": "StratificationOnly",
}


def _verdict(verdict) -> dict:
    if isinstance(verdict, Sphere):
        return {"type": "sphere", "dim": verdict.dim}
    if isinstance(verdict, Disk):
        return {"type": "disk", "dim": verdict.dim}
    if isinstance(verdict, ProductPolytopeSurface):
        return {"type": "product-polytope-surface", "genus": verdict.genus}
    if isinstance(verdict, CollapsedProduct):
        return {"type": "collapsed-product", "short_face_ids": list(verdict.short_face_ids), "fiber": "S2"}
    return {"type": "stratification-only"}


def report_to_json(spec: HamSpec, report: TopologyReport) -> dict:
    sp = report.stratification
    entry = gallery.CATALOG.get(spec.name)
    faces = [
        {"id": f.id, "dim": f.dim, "vertices": list(f.vertex_set), "complexity": sp.face_complexity[f.id]}
        for f in sp.lattice.faces
    ]
    doc = {
        "name": spec.name,
        "verdict": _verdict(report.verdict),
        "provenance": report.provenance,
        "join_presentation": report.join_presentation,
        "annotation": entry.reported_quotient if entry else None,
        "complexity": sp.complexity,
        "polytope": {
            "ambient_dim": sp.polytope.ambient_dim,
            "dim": sp.polytope.dim,
            "vertices": [[_fraction_to_json(x) for x in v] for v in sp.polytope.vertices],
            "facets": [
                {"conormal": list(c), "offset": _fraction_to_json(o)}
                for c, o in sp.polytope.facets
            ],
        },
        "faces": faces,
        "short_faces": list(sp.short_faces),
    }
    if report.validation is not None:
        doc["validation"] = _checks_json(report.validation)
    return doc


def _checks_json(validation) -> list:
    return [{"check": c.name, "passed": c.passed, "detail": c.detail} for c in validation.checks]


def _check_lines(rows) -> list:
    return [f"{r['check']}: {'ok' if r['passed'] else 'FAIL ' + r['detail']}" for r in rows]


def _text(doc: dict) -> str:
    """The text form of a document: a validation failure, or a report
    with its validation and verification rows when it has them."""
    if "error" in doc:
        return "\n".join(_check_lines(doc["validation"]) + [f"validation failed: {doc['check']}"])
    lines = [f"spec: {doc['name']}"]
    lines.extend("  " + line for line in _check_lines(doc.get("validation", ())))
    poly = doc["polytope"]
    counts = f"{len(poly['vertices'])} vertices, {len(poly['facets'])} facets"
    lines.append(f"momentum polytope: dim {poly['dim']}, {counts}")
    lines.append(f"complexity: {doc['complexity']}")
    lines.extend(
        f"  face {f['id']} dim {f['dim']} vertices {f['vertices']} complexity {f['complexity']}"
        for f in doc["faces"]
    )
    lines.append(f"short faces: {doc['short_faces']}")
    lines.append("verdict: " + VERDICT_TEXT[doc["verdict"]["type"]].format(**doc["verdict"]))
    lines.append(f"provenance: {doc['provenance']}")
    if doc["annotation"]:
        lines.append(f"reported identification: {doc['annotation']}")
    if "verification" in doc:
        lines.append("verification:")
        for c in doc["verification"]["checks"]:
            line = (
                f"  {c['name']}: {'pass' if c['passed'] else 'FAIL'} computed betti"
                f" {c['computed_betti']} expected {c['expected_betti']}"
            )
            # so that a torsion-only mismatch never fails beside equal Betti numbers
            if any(c["computed_torsion"]) or any(c["expected_torsion"]):
                line += (
                    f" computed torsion {c['computed_torsion']}"
                    f" expected torsion {c['expected_torsion']}"
                )
            lines.append(line)
    return "\n".join(lines)


def _emit(doc: dict, fmt: str) -> None:
    print(json.dumps(doc, sort_keys=True, indent=2) if fmt == "json" else _text(doc))


def cmd_classify(args) -> int:
    spec = load_spec(args.path)
    report = classify(spec, args.skip_validation)
    _emit(report_to_json(spec, report), args.format)
    return 0


def cmd_gallery(args) -> int:
    if args.gallery_command == "list":
        for name in gallery.names():
            entry = gallery.CATALOG[name]
            genus = " (takes --genus)" if entry.parametrized else ""
            print(f"{name:14s} row ({entry.row}): {entry.summary}; quotient {entry.reported_quotient}{genus}")
        return 0
    # an unknown name, or a genus the specimen does not take, raises
    # GalleryError, which main reports
    spec = gallery.build(args.name, genus=args.genus)
    if args.gallery_command == "show":
        _emit(report_to_json(spec, classify(spec)), "text")
        return 0
    try:
        dump_spec(spec, args.out_path)
    except OSError as exc:
        raise SpecFileError(f"cannot write {args.out_path}: {exc}") from exc
    print(f"wrote {args.out_path}")
    return 0


def cmd_verify(args) -> int:
    spec = load_spec(args.path)
    report = classify(spec)
    skipped = None
    if isinstance(report.verdict, StratificationOnly):
        skipped = {"skipped": f"StratificationOnly: complexity {report.stratification.complexity}"}
    else:
        try:
            result = verify_report(report, max_simplices=args.max_simplices)
        except SizeCapExceeded as exc:
            msg = f"size cap exceeded: {exc.estimate} simplices (cap {exc.cap})"
            skipped = {"skipped": msg, "estimate": exc.estimate}
    if skipped:
        print(json.dumps(skipped, sort_keys=True) if args.format == "json" else f"skipped: {skipped['skipped']}")
        return 4
    doc = report_to_json(spec, report)
    doc["verification"] = {
        "passed": result.passed,
        "checks": [
            {
                "name": c.name,
                "passed": c.passed,
                "computed_betti": list(c.computed.betti),
                "computed_torsion": [list(t) for t in c.computed.torsion],
                "expected_betti": list(c.expected.betti),
                "expected_torsion": [list(t) for t in c.expected.torsion],
            }
            for c in result.checks
        ],
    }
    _emit(doc, args.format)
    return 0 if result.passed else 1


# built once per process, on first use: it costs about as much as a small classify
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tquot",
        description="momentum polytopes, complexity stratification and quotient topology",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser("classify", help="classify the quotient of a spec file")
    p_classify.add_argument("path")
    p_classify.add_argument("--format", choices=["text", "json"], default="text")
    p_classify.add_argument("--skip-validation", action="store_true")

    p_gallery = sub.add_parser("gallery", help="list, show or export shipped specimens")
    gsub = p_gallery.add_subparsers(dest="gallery_command", required=True)
    gsub.add_parser("list")
    p_show = gsub.add_parser("show")
    p_show.add_argument("name")
    p_show.add_argument("--genus", type=int)
    p_export = gsub.add_parser("export")
    p_export.add_argument("name")
    p_export.add_argument("out_path")
    p_export.add_argument("--genus", type=int)

    p_verify = sub.add_parser("verify", help="verify a classification by homology")
    p_verify.add_argument("path")
    p_verify.add_argument("--format", choices=["text", "json"], default="text")
    p_verify.add_argument(
        "--max-simplices",
        type=int,
        default=MAX_SIMPLICES,
        help="skip (exit 4) when the staircase product the model is collapsed from"
        " has more simplices; this bounds the product before the collapse, not the"
        " smaller model homology runs on (gr2c4: product 3742, model 404)",
    )

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command = {"classify": cmd_classify, "gallery": cmd_gallery, "verify": cmd_verify}[args.command]
    try:
        return command(args)
    except ValidationFailure as exc:
        if getattr(args, "skip_validation", False):
            print(f"validation failed: {exc.report.first_failed()}", file=sys.stderr)
        else:
            doc = {"error": "validation-failed", "check": exc.report.first_failed()}
            doc["validation"] = _checks_json(exc.report)
            _emit(doc, getattr(args, "format", "text"))
        return 1
    except (SpecFileError, SpecError, gallery.GalleryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, SpecError) else 2
    except Exception as exc:  # pragma: no cover
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
