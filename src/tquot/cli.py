"""Command-line interface: classify, gallery, verify.

Spec files are JSON with exact rationals ("p/q" strings, bare integers
allowed); reports render as text or JSON with stable ordering.  Exit
codes: 0 success, 1 validation or verification failure, 2 parse error
or unknown name, 3 internal error, 4 verification skipped.
"""

from __future__ import annotations

import argparse
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
from tquot.hamspace import (
    HamSpec,
    SpecError,
    point_component,
    surface_component,
    validate,
)
from tquot.simplicial import SizeCapExceeded, verify_report


class SpecFileError(ValueError):
    pass


# ASCII digits only: str.isdigit and int() also take other Unicode digits
_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def _fraction_from_json(value, path: str) -> Fraction:
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    match = _RATIONAL.fullmatch(value) if isinstance(value, str) else None
    if match:
        num, den = int(match.group(1)), int(match.group(2) or 1)
        if den == 0:
            raise SpecFileError(f"{path}: rational {value!r} needs a positive denominator")
        return Fraction(num, den)
    raise SpecFileError(f"{path}: not a rational: {json.dumps(value)}")


def _integer(value, path: str) -> int:
    """A JSON integer.  Booleans, floats and strings are refused, never
    coerced."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise SpecFileError(
            f"malformed spec file: {path} must be an integer, got {json.dumps(value)}"
        )
    return value


def _array(value, path: str) -> list:
    if not isinstance(value, list):
        raise SpecFileError(f"malformed spec file: {path} must be a JSON array")
    return value


def _fraction_to_json(x: Fraction):
    x = Fraction(x)
    if x.denominator == 1:
        return int(x)
    return f"{x.numerator}/{x.denominator}"


def parse_spec(data) -> HamSpec:
    """Build a spec from a decoded JSON document.

    Every integer field must be a JSON integer, and a malformed value is
    reported with its JSON path.
    """
    try:
        name = data["name"]
        torus_rank = data["torus_rank"]
        half_dim = data["half_dim"]
        raw_components = data["fixed_components"]
    except (KeyError, TypeError) as exc:
        raise SpecFileError(f"malformed spec file: {exc}") from exc
    if not isinstance(name, str):
        raise SpecFileError(f"malformed spec file: name must be a string, got {json.dumps(name)}")
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
                _fraction_from_json(x, f"{at}.moment[{j}]")
                for j, x in enumerate(_array(raw["moment"], f"{at}.moment"))
            )
            weights = tuple(
                tuple(
                    _integer(x, f"{at}.weights[{i}][{j}]")
                    for j, x in enumerate(_array(w, f"{at}.weights[{i}]"))
                )
                for i, w in enumerate(_array(raw["weights"], f"{at}.weights"))
            )
            if kind == "point":
                components.append(point_component(moment, weights))
            elif kind == "surface":
                genus = _integer(raw["genus"], f"{at}.genus")
                components.append(surface_component(genus, moment, weights))
            else:
                raise SpecFileError(f"unknown component kind {kind!r}")
        except KeyError as exc:
            raise SpecFileError(f"malformed component: {exc}") from exc
    return HamSpec(name, torus_rank, half_dim, tuple(components))


def load_spec(path: str) -> HamSpec:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
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


def _verdict_to_json(verdict) -> dict:
    if isinstance(verdict, Sphere):
        return {"type": "sphere", "dim": verdict.dim}
    if isinstance(verdict, Disk):
        return {"type": "disk", "dim": verdict.dim}
    if isinstance(verdict, ProductPolytopeSurface):
        return {"type": "product-polytope-surface", "genus": verdict.genus}
    if isinstance(verdict, CollapsedProduct):
        return {
            "type": "collapsed-product",
            "short_face_ids": list(verdict.short_face_ids),
            "fiber": "S2",
        }
    if isinstance(verdict, StratificationOnly):
        return {"type": "stratification-only"}
    raise ValueError(f"unknown verdict {verdict!r}")


def verdict_text(verdict) -> str:
    if isinstance(verdict, Sphere):
        return f"Sphere({verdict.dim})"
    if isinstance(verdict, Disk):
        return f"Disk({verdict.dim})"
    if isinstance(verdict, ProductPolytopeSurface):
        return f"ProductPolytopeSurface(genus={verdict.genus})"
    if isinstance(verdict, CollapsedProduct):
        return f"CollapsedProduct(short_faces={list(verdict.short_face_ids)}, fiber=S2)"
    return "StratificationOnly"


def report_to_json(spec: HamSpec, report: TopologyReport, validation=None) -> dict:
    sp = report.stratification
    faces = [
        {
            "id": f.id,
            "dim": f.dim,
            "vertices": list(f.vertex_set),
            "complexity": sp.face_complexity[f.id],
        }
        for f in sp.lattice.faces
    ]
    doc = {
        "name": spec.name,
        "verdict": _verdict_to_json(report.verdict),
        "provenance": report.provenance,
        "join_presentation": report.join_presentation,
        "annotation": report.annotation,
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
    if validation is not None:
        doc["validation"] = _checks_json(validation)
    return doc


def _checks_json(validation) -> list:
    return [{"check": c.name, "passed": c.passed, "detail": c.detail} for c in validation.checks]


def _checks_text(validation) -> list:
    return [f"{c.name}: {'ok' if c.passed else 'FAIL ' + c.detail}" for c in validation.checks]


def _render_report_text(spec, report, validation) -> str:
    sp = report.stratification
    lines = [f"spec: {spec.name}"]
    if validation is not None:
        lines.extend("  " + line for line in _checks_text(validation))
    lines.append(f"momentum polytope: dim {sp.polytope.dim}, {len(sp.polytope.vertices)} vertices, {len(sp.polytope.facets)} facets")
    lines.append(f"complexity: {sp.complexity}")
    for f in sp.lattice.faces:
        lines.append(
            f"  face {f.id} dim {f.dim} vertices {list(f.vertex_set)} complexity {sp.face_complexity[f.id]}"
        )
    lines.append(f"short faces: {list(sp.short_faces)}")
    lines.append(f"verdict: {verdict_text(report.verdict)}")
    lines.append(f"provenance: {report.provenance}")
    if report.annotation:
        lines.append(f"reported identification: {report.annotation}")
    return "\n".join(lines)


def _emit(doc, text: str, fmt: str, out) -> None:
    if fmt == "json":
        print(json.dumps(doc, sort_keys=True, indent=2), file=out)
    else:
        print(text, file=out)


def _annotation_for(spec: HamSpec):
    entry = gallery.CATALOG.get(spec.name)
    return entry.reported_quotient if entry else None


def cmd_classify(args, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    try:
        spec = load_spec(args.path)
    except SpecFileError as exc:
        print(f"error: {exc}", file=err)
        return 2
    validation = None
    if not args.skip_validation:
        validation = validate(spec)
        if not validation.ok:
            first = validation.first_failed()
            doc = {"error": "validation-failed", "check": first, "validation": _checks_json(validation)}
            text = "\n".join(_checks_text(validation) + [f"validation failed: {first}"])
            _emit(doc, text, args.format, out)
            return 1
    try:
        report = classify(spec, skip_validation=True, annotation=_annotation_for(spec))
    except SpecError as exc:
        print(f"error: {exc}", file=err)
        return 3
    _emit(report_to_json(spec, report, validation), _render_report_text(spec, report, validation), args.format, out)
    return 0


def cmd_gallery(args, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    if args.gallery_command == "list":
        for name in gallery.names():
            entry = gallery.CATALOG[name]
            genus = " (takes --genus)" if entry.parametrized else ""
            print(
                f"{name:14s} row ({entry.row}): {entry.summary}; quotient {entry.reported_quotient}{genus}",
                file=out,
            )
        return 0
    name = args.name
    if name not in gallery.CATALOG:
        print(f"error: unknown gallery name {name!r}", file=err)
        return 2
    genus = args.genus if gallery.CATALOG[name].parametrized else None
    spec = gallery.build(name, genus=genus)
    if args.gallery_command == "show":
        validation = validate(spec)
        if not validation.ok:
            raise ValidationFailure(validation)
        report = classify(spec, skip_validation=True, annotation=_annotation_for(spec))
        print(_render_report_text(spec, report, validation), file=out)
        return 0
    dump_spec(spec, args.out_path)
    print(f"wrote {args.out_path}", file=out)
    return 0


def cmd_verify(args, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    try:
        spec = load_spec(args.path)
    except SpecFileError as exc:
        print(f"error: {exc}", file=err)
        return 2
    validation = validate(spec)
    if not validation.ok:
        first = validation.first_failed()
        if args.format == "json":
            print(
                json.dumps({"error": "validation-failed", "check": first}, sort_keys=True),
                file=out,
            )
        else:
            print(f"validation failed: {first}", file=out)
        return 1
    report = classify(spec, skip_validation=True, annotation=_annotation_for(spec))
    if isinstance(report.verdict, StratificationOnly):
        msg = f"StratificationOnly: complexity {report.stratification.complexity}"
        if args.format == "json":
            print(json.dumps({"skipped": msg}, sort_keys=True), file=out)
        else:
            print(f"skipped: {msg}", file=out)
        return 4
    try:
        result = verify_report(report, max_simplices=args.max_simplices)
    except SizeCapExceeded as exc:
        msg = f"size cap exceeded: at least {exc.estimate} simplices (cap {exc.cap})"
        if args.format == "json":
            print(json.dumps({"skipped": msg, "estimate": exc.estimate}, sort_keys=True), file=out)
        else:
            print(f"skipped: {msg}", file=out)
        return 4
    doc = report_to_json(spec, report, validation)
    doc["verification"] = {
        "passed": result.passed,
        "checks": [
            {
                "name": c.name,
                "passed": c.passed,
                "computed_betti": list(c.computed.betti),
                "computed_torsion": [list(t) for t in c.computed.torsion],
                "expected_betti": list(c.expected.betti),
            }
            for c in result.checks
        ],
    }
    lines = [_render_report_text(spec, report, validation), "verification:"]
    for c in result.checks:
        lines.append(
            f"  {c.name}: {'pass' if c.passed else 'FAIL'} computed betti {list(c.computed.betti)}"
            f" expected {list(c.expected.betti)}"
        )
    _emit(doc, "\n".join(lines), args.format, out)
    return 0 if result.passed else 1


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
    p_show.add_argument("--genus", type=int, default=1)
    p_export = gsub.add_parser("export")
    p_export.add_argument("name")
    p_export.add_argument("out_path")
    p_export.add_argument("--genus", type=int, default=1)

    p_verify = sub.add_parser("verify", help="verify a classification by homology")
    p_verify.add_argument("path")
    p_verify.add_argument("--format", choices=["text", "json"], default="text")
    p_verify.add_argument("--max-simplices", type=int, default=200000)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "classify":
            return cmd_classify(args)
        if args.command == "gallery":
            return cmd_gallery(args)
        if args.command == "verify":
            return cmd_verify(args)
        return 3
    except ValidationFailure as exc:
        print(f"validation failed: {exc.report.first_failed()}", file=sys.stderr)
        return 1
    except (SpecError, gallery.GalleryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, gallery.GalleryError) else 3
    except Exception as exc:  # pragma: no cover
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
