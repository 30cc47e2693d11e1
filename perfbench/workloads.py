"""Seeded spec files for the four benchmark workloads, and their oracle.

Every workload is a list of cases.  A case is one spec file written in
the program's own export format plus what `classify` and `verify` must
answer for it.  The expected answers come from theory, never from a run
of the program: the README specimen table and the homology criterion
(C4) give the verdicts and Betti vectors, a transform that preserves the
combinatorics (C8) must leave them unchanged, and the exit-code table
gives the answer for every rejected spec.

The same seed gives byte-identical files; the seed only enters through
`random.Random(f"{workload}/{seed}")`.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional

WORKLOADS = ("gallery", "verify-heavy", "hull-heavy", "reject")
OPS = ("classify", "verify")

# ROADMAP item 5: parse_spec coerces weights with int() and does not
# type-check the top-level shape.
_ITEM5 = "parse_spec coerces with int() and does not type-check the spec shape (ROADMAP item 5)"
KNOWN_DEFECTS = {
    "components-not-list": _ITEM5,
    "weight-not-integer": _ITEM5,
    "weight-bool": _ITEM5,
    "negate-surface-weights": "V4 checks the weight cone of isolated fixed points only, "
    "so a fixed surface at a vertex whose normal weight points out of the polytope passes",
}


@dataclass(frozen=True)
class Case:
    label: str
    path: str
    kind: str  # "valid" or a mutation kind of the reject workload
    expect: dict  # op -> expectation, see check()
    known_defect: Optional[str] = None


def _sphere_betti(m):
    return tuple(1 if i in (0, m) else 0 for i in range(m + 1))


def _sphere(m, name):
    return {
        "classify": {"rc": 0, "name": name, "verdict": {"type": "sphere", "dim": m}, "complexity": 1},
        "verify": {"rc": 0, "name": name, "betti": _sphere_betti(m), "join": True},
    }


def _disk(m, name):
    return {
        "classify": {"rc": 0, "name": name, "verdict": {"type": "disk", "dim": m}, "complexity": 1},
        "verify": {"rc": 0, "name": name, "betti": (1,), "join": False},
    }


def _product(g, name):
    verdict = {"type": "product-polytope-surface", "genus": g}
    return {
        "classify": {"rc": 0, "name": name, "verdict": verdict, "complexity": 1},
        "verify": {"rc": 0, "name": name, "betti": (1, 2 * g, 1), "join": False},
    }


def _collapsed(short_faces, betti, name):
    verdict = {"type": "collapsed-product", "short_faces": short_faces}
    return {
        "classify": {"rc": 0, "name": name, "verdict": verdict, "complexity": 1},
        "verify": {"rc": 0, "name": name, "betti": betti, "join": False},
    }


def _stratified(k, faces, name):
    verdict = {"type": "stratification-only"}
    return {
        "classify": {"rc": 0, "name": name, "verdict": verdict, "complexity": k, "faces": faces},
        "verify": {"rc": 4, "skipped": f"StratificationOnly: complexity {k}"},
    }


def _gallery_specs(gallery):
    """Every catalog row, the genus families at genus 0..3, with the
    README table's verdicts; s2cubed's short locus is the two facets
    x = +-2 with their four vertices (C1) and its profile S^3 x I (C4)."""
    fixed = {
        "gr2c4": lambda n: _sphere(5, n),
        "flag-su3": lambda n: _sphere(4, n),
        "so5-orbit": lambda n: _sphere(4, n),
        "s2xs2-diag": lambda n: _sphere(3, n),
        "cp2-s1": lambda n: _disk(3, n),
        "s2cubed": lambda n: _collapsed(6, (1, 0, 0, 1), n),
        "cp5-t3": lambda n: _stratified(2, 27, n),
    }
    out = []
    for name in gallery.names():
        if gallery.CATALOG[name].parametrized:
            for g in range(4):
                out.append((f"{name}-g{g}", gallery.build(name, genus=g), _product(g, name)))
        else:
            out.append((name, gallery.build(name), fixed[name](name)))
    return out


def _verify_heavy_specs(gallery):
    """Complexity one in general position, so every verdict is the
    (n+1)-sphere with n = half_dim: gr2c4 (n=4), CP^4 under T^3 (n=4)
    and (S^2)^4 under T^3 (n=4)."""
    e1, e2, e3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    cp4 = gallery.projective_space([(0, 0, 0), e1, e2, e3, (1, 1, 1)], name="cp4-t3")
    s2_4 = gallery.sphere_product([e1, e2, e3, (1, 1, 1)], 3, name="s2-4-t3")
    return [
        ("gr2c4", gallery.build("gr2c4"), _sphere(5, "gr2c4")),
        ("cp4-t3", cp4, _sphere(5, "cp4-t3")),
        ("s2-4-t3", s2_4, _sphere(5, "s2-4-t3")),
    ]


def _hull_heavy_specs(gallery):
    """Two orbits of complexity >= 2.  The A3 regular orbit is the full
    flag manifold of C^4 (n=6 over a 3-dimensional permutohedron with
    24 + 36 + 14 + 1 = 75 faces, complexity 3); Gr(2,5) has n=6 over the
    hypersimplex Delta(2,5) with 10 + 30 + 30 + 10 + 1 = 81 faces,
    complexity 2."""
    half = Fraction(1, 2)
    a3 = gallery.coadjoint_orbit(
        gallery.root_system("A", 3), (3 * half, half, -half, -3 * half), name="a3-regular"
    )
    f = Fraction(1, 5)
    gr25 = gallery.coadjoint_orbit(
        gallery.root_system("A", 4), (3 * f, 3 * f, -2 * f, -2 * f, -2 * f), name="gr2c5"
    )
    return [
        ("a3-regular", a3, _stratified(3, 75, "a3-regular")),
        ("gr2c5", gr25, _stratified(2, 81, "gr2c5")),
    ]


def _unitriangular(rng, r):
    return [[rng.randint(-2, 2) if j < i else int(i == j) for j in range(r)] for i in range(r)]


def _transform(spec, rng):
    """A C8 transform: unimodular on weights and moments, then a
    positive rational scale and a rational shift of the moments.

    The unimodular part is lower unitriangular, which keeps the
    lexicographic order of the moments.  The vertex order, hence the
    pulled triangulation, the verify model and every per-op count, is
    then the same for every seed; a general unimodular map reorders the
    vertices and changes the model size with the seed."""
    r = spec.torus_rank
    u = _unitriangular(rng, r)
    shift = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(r)]
    scale = Fraction(rng.randint(1, 6), rng.randint(1, 4))

    def apply(v):
        return [sum(u[i][j] * v[j] for j in range(r)) for i in range(r)]

    comps = []
    for c in spec.components:
        moment = tuple(scale * x + s for x, s in zip(apply(c.moment), shift))
        weights = tuple(tuple(apply(w)) for w in c.weights)
        comps.append(replace(c, moment=moment, weights=weights))
    return replace(spec, components=tuple(comps))


def _write(workdir, filename, doc):
    path = os.path.join(workdir, filename)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    return path


# mutation kind -> expected exit code (an exit 1 must also name a V-check)
MUTATIONS = {
    "drop-vertex": 1,
    "negate-vertex-weights": 1,
    "remove-weight": 1,
    "zero-weight": 1,
    "missing-key": 2,
    "components-not-list": 2,
    "weight-not-integer": 2,
    "weight-bool": 2,
}


_VERTEX_DRAWS = 64


def _vertex_index(comps, rng, kind=None):
    """A component whose moment is a polytope vertex: the
    lexicographically largest maximizer of a random linear functional.
    With `kind`, the first such maximizer of that kind among up to
    _VERTEX_DRAWS functionals, else the last one drawn."""
    r = len(comps[0]["moment"])
    moments = [tuple(Fraction(x) for x in c["moment"]) for c in comps]
    for _ in range(_VERTEX_DRAWS):
        direction = [rng.randint(-9, 9) for _ in range(r)]
        index = max(
            range(len(comps)),
            key=lambda i: (sum(d * x for d, x in zip(direction, moments[i])), moments[i]),
        )
        if kind is None or comps[index]["kind"] == kind:
            break
    return index


def _weight_entry(comps, rng, wanted=None):
    """(component, weight, coordinate) of a nonzero weight entry, equal
    to `wanted` when given."""
    spots = [
        (i, j, k)
        for i, c in enumerate(comps)
        for j, w in enumerate(c["weights"])
        for k, x in enumerate(w)
        if x != 0 and (wanted is None or x == wanted)
    ]
    return rng.choice(spots)


def _mutate(doc, kind, rng, position):
    """Apply one mutation in place to the export at `position` in the
    gallery; returns the known-defect key that covers the case, if any.
    Which cases hit a known defect does not depend on the seed, so every
    round fails the same number of ops."""
    comps = doc["fixed_components"]
    if kind == "drop-vertex":
        del comps[_vertex_index(comps, rng)]
    elif kind == "negate-vertex-weights":
        # a surface vertex whenever the spec has one: that is where V4 has
        # its gap, and a seed-chosen kind would make the verdict, hence
        # `failed`, depend on the seed
        surfaces = any(c["kind"] == "surface" for c in comps)
        comp = comps[_vertex_index(comps, rng, "surface" if surfaces else None)]
        comp["weights"] = [[-x for x in w] for w in comp["weights"]]
        if comp["kind"] == "surface":
            return "negate-surface-weights"
    elif kind == "remove-weight":
        comp = rng.choice(comps)
        del comp["weights"][rng.randrange(len(comp["weights"]))]
    elif kind == "zero-weight":
        comp = rng.choice(comps)
        comp["weights"].insert(rng.randrange(len(comp["weights"]) + 1), [0] * doc["torus_rank"])
    elif kind == "missing-key":
        owner = rng.choice([doc, rng.choice(comps)])
        del owner[rng.choice(sorted(owner))]
    elif kind == "components-not-list":
        # the type, which alone decides the exit code, follows the spec's
        # position, so the seed changes the number but not what fails
        shape = position % 5
        doc["fixed_components"] = [rng.randint(1, 9), "components", {}, None, True][shape]
        return None if shape == 1 else kind
    elif kind == "weight-not-integer":
        # away from zero by a half, so int() truncates back to the original
        i, j, k = _weight_entry(comps, rng)
        x = comps[i]["weights"][j][k]
        comps[i]["weights"][j][k] = x + (0.5 if x > 0 else -0.5)
        return kind
    elif kind == "weight-bool":
        i, j, k = _weight_entry(comps, rng, wanted=1)
        comps[i]["weights"][j][k] = True
        return kind
    else:
        raise ValueError(f"unknown mutation {kind!r}")
    return None


def generate(workload: str, seed: int, workdir: str) -> list[Case]:
    """Build the workload's specs, transform or mutate them with the
    seed, and export one spec file per case into workdir."""
    from tquot import cli, gallery

    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}/{seed}")
    cases = []
    if workload == "reject":
        for position, (label, spec, _) in enumerate(_gallery_specs(gallery)):
            base = cli.spec_to_json(spec)
            for kind, rc in MUTATIONS.items():
                doc = json.loads(json.dumps(base))
                known = _mutate(doc, kind, rng, position)
                path = _write(workdir, f"{label}.{kind}.json", doc)
                expect = {op: {"rc": rc} for op in OPS}
                cases.append(Case(f"{label}.{kind}", path, kind, expect, known))
        return cases
    specs = {
        "gallery": _gallery_specs,
        "verify-heavy": _verify_heavy_specs,
        "hull-heavy": _hull_heavy_specs,
    }[workload](gallery)
    for label, spec, expect in specs:
        moved = _transform(spec, rng)
        path = os.path.join(workdir, f"{label}.json")
        cli.dump_spec(moved, path)
        cases.append(Case(label, path, "valid", expect))
    return cases


def check(case: Case, op: str, rc, stdout: str) -> Optional[str]:
    """None when the op's outcome is what the oracle demands, else the
    reason it failed."""
    want = case.expect[op]
    if rc != want["rc"]:
        return f"exit {rc}, expected {want['rc']}"
    if case.kind != "valid":
        if want["rc"] == 1:
            try:
                named = json.loads(stdout).get("check") or ""
            except ValueError:
                return "no JSON error report"
            if not named.startswith("V"):
                return f"check field {named!r} names no V-check"
        return None
    try:
        doc = json.loads(stdout)
    except ValueError:
        return "stdout is not JSON"
    if want["rc"] == 4:
        return None if doc.get("skipped") == want["skipped"] else f"skipped {doc.get('skipped')!r}"
    if doc.get("name") != want["name"]:
        return f"name {doc.get('name')!r}"
    if op == "classify":
        return _check_classify(doc, want)
    return _check_verify(doc, want)


def _check_classify(doc, want):
    verdict = dict(doc["verdict"])
    if verdict.get("type") == "collapsed-product":
        # face ids follow the vertex order, which a transform permutes
        verdict = {"type": verdict["type"], "short_faces": len(verdict["short_face_ids"])}
    if verdict != want["verdict"]:
        return f"verdict {doc['verdict']}"
    if doc["complexity"] != want["complexity"]:
        return f"complexity {doc['complexity']}"
    if "faces" in want and len(doc["faces"]) != want["faces"]:
        return f"{len(doc['faces'])} faces"
    if not all(c["passed"] for c in doc.get("validation", ())):
        return "a validation check failed"
    return None


def _check_verify(doc, want):
    ver = doc.get("verification")
    if not ver or not ver["passed"]:
        return "verification did not pass"
    names = [c["name"] for c in ver["checks"]]
    expected_names = ["quotient-homology"]
    if want["join"]:
        expected_names += ["join-homology", "models-agree"]
    if names != expected_names:
        return f"checks {names}"
    betti = tuple(want["betti"])
    for c in ver["checks"]:
        if c["name"] == "models-agree":
            continue
        computed = tuple(c["computed_betti"])
        width = max(len(computed), len(betti))
        if computed + (0,) * (width - len(computed)) != betti + (0,) * (width - len(betti)):
            return f"{c['name']} betti {list(computed)}"
        if any(c["computed_torsion"]):
            return f"{c['name']} torsion {c['computed_torsion']}"
    return None
