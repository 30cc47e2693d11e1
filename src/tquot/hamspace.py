"""Fixed-point data of compact Hamiltonian torus spaces.

A HamSpec records, for each fixed component, its momentum value and the
nonzero isotropy weights on the normal directions.  Point components
carry n weights; surface components carry n - 1 and one implicit zero
weight along the surface, modelled by the kind rather than stored.

From such data the momentum polytope is the hull of the component
moments, the complexity of the action is n minus the polytope
dimension, and each face F gets its own complexity: the number of
weights at a vertex component of F parallel to F (plus one for the
implicit zero of a surface) minus dim F.  Stratification groups the
faces by that number; the complexity-zero faces form the short locus.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Optional

from tquot.exactq import Vector, dot, is_zero, lattice_membership, rank, vec
from tquot.polytope import (
    Face,
    FaceLattice,
    RationalPolytope,
    cones_equal,
    convex_hull,
    tangent_cone,
)

POINT = "point"
SURFACE = "surface"


class SpecError(ValueError):
    """Raised when fixed-point data is internally inconsistent."""


@dataclass(frozen=True)
class FixedComponent:
    kind: str
    moment: Vector
    weights: tuple[tuple[int, ...], ...]
    genus: Optional[int] = None

    @property
    def is_surface(self) -> bool:
        return self.kind == SURFACE


def point_component(moment, weights) -> FixedComponent:
    return FixedComponent(POINT, vec(moment), tuple(tuple(int(x) for x in w) for w in weights))


def surface_component(genus, moment, weights) -> FixedComponent:
    return FixedComponent(
        SURFACE, vec(moment), tuple(tuple(int(x) for x in w) for w in weights), genus=int(genus)
    )


@dataclass(frozen=True)
class HamSpec:
    name: str
    torus_rank: int
    half_dim: int
    components: tuple[FixedComponent, ...]

    @cached_property
    def polytope(self) -> RationalPolytope:
        """Convex hull of the component moments, built on first use."""
        if not self.components:
            raise SpecError("spec has no fixed components")
        return convex_hull([c.moment for c in self.components])


@dataclass(frozen=True)
class StratifiedPolytope:
    polytope: RationalPolytope
    lattice: FaceLattice
    face_complexity: dict
    delta_k: dict
    short_faces: tuple[int, ...]
    complexity: int


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failed(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def first_failed(self) -> Optional[str]:
        for c in self.checks:
            if not c.passed:
                return c.name
        return None


@dataclass(frozen=True)
class GeneralPositionReport:
    per_component: tuple[bool, ...]
    overall: bool


def moment_polytope(spec: HamSpec) -> RationalPolytope:
    """Convex hull of the component moments."""
    return spec.polytope


def complexity(spec: HamSpec) -> int:
    """Half the manifold dimension minus the effective torus dimension,
    read off as n - dim of the momentum polytope."""
    k = spec.half_dim - spec.polytope.dim
    if k < 0:
        raise SpecError(
            f"inconsistent spec: momentum polytope dimension exceeds half_dim {spec.half_dim}"
        )
    return k


def _face_carriers(spec: HamSpec, poly: RationalPolytope) -> dict[int, tuple[FixedComponent, ...]]:
    """Face id -> the components whose moment lies on the face.

    Built from one component x facet incidence: the facets tight at each
    moment, or None for a moment outside the polytope.  A moment inside
    the polytope lies on a face iff it is tight on every facet that
    contains the face.
    """
    tight = []
    for c in spec.components:
        slack = [dot(conormal, c.moment) - offset for conormal, offset in poly.facets]
        inside = all(x >= 0 for x in slack)
        tight.append(frozenset(i for i, x in enumerate(slack) if x == 0) if inside else None)
    return {
        f.id: tuple(c for c, t in zip(spec.components, tight) if t is not None and f.facets <= t)
        for f in poly.lattice.faces
    }


def _complexities(face: Face, comps) -> dict[int, list[list]]:
    """Face complexity as each component sees it, mapped to the parallel
    weights of the components that see it.

    The rule: weights parallel to the face, plus one for the implicit
    zero weight of a surface, minus dim F.
    """
    values: dict[int, list[list]] = {}
    for comp in comps:
        parallel = [w for w in comp.weights if lattice_membership(w, face.direction_basis)]
        values.setdefault(len(parallel) + comp.is_surface - face.dim, []).append(parallel)
    return values


def _agreed_complexity(face: Face, over) -> int:
    """Face complexity read at the components over the face's vertices."""
    values = _complexities(face, [c for c in over if c.moment in face.vertex_coords])
    if not values:
        raise SpecError(
            f"no fixed component at any vertex of face {face.vertex_set}"
        )
    if len(values) > 1:
        raise SpecError(
            f"invalid spec: face complexity inconsistent on face {face.vertex_set}: {sorted(values)}"
        )
    value = next(iter(values))
    if value < 0:
        raise SpecError(
            f"invalid spec: negative face complexity on face {face.vertex_set}"
        )
    return value


def face_complexity(spec: HamSpec, face: Face) -> int:
    """Complexity of the sub-space sitting over a face of spec.polytope.

    Evaluated at components whose moment is a vertex of the face; every
    face has one because vertex preimages are fixed components.  All
    such components must agree.
    """
    return _agreed_complexity(face, _face_carriers(spec, spec.polytope)[face.id])


def stratify(spec: HamSpec) -> StratifiedPolytope:
    """Complexity label for every face, grouped into the strata."""
    poly = spec.polytope
    lattice = poly.lattice
    k = spec.half_dim - poly.dim
    if k < 0:
        raise SpecError("inconsistent spec: polytope dimension exceeds half_dim")
    carriers = _face_carriers(spec, poly)
    fc = {}
    for f in lattice.faces:
        fc[f.id] = _agreed_complexity(f, carriers[f.id])
    if fc[lattice.top.id] != k:
        raise SpecError(
            "invalid spec: top-face complexity disagrees with the action complexity"
        )
    delta_k: dict[int, tuple[int, ...]] = {}
    for fid, val in sorted(fc.items()):
        delta_k.setdefault(val, [])
        delta_k[val].append(fid)
    delta_k = {key: tuple(ids) for key, ids in delta_k.items()}
    short = delta_k.get(0, ())
    return StratifiedPolytope(poly, lattice, fc, delta_k, short, k)


def general_position(spec: HamSpec) -> GeneralPositionReport:
    """Weight collections in general position, component by component.

    Evaluated in the effective dimension d = dim of the momentum
    polytope: a component passes iff every weight (including the
    implicit zero of a surface) is nonzero and every sub-collection of
    size up to d is linearly independent.  Surfaces therefore always
    fail.  Repetitions count: a doubled weight is a dependent pair.
    """
    d = spec.polytope.dim
    per = []
    for comp in spec.components:
        ok = not comp.is_surface and all(not is_zero(w) for w in comp.weights)
        if ok:
            size = min(d, len(comp.weights))
            for subset in combinations(comp.weights, size):
                if rank(subset) != size:
                    ok = False
                    break
        per.append(ok)
    return GeneralPositionReport(tuple(per), all(per))


def validate(spec: HamSpec, polytope: Optional[RationalPolytope] = None) -> ValidationReport:
    """Run the structural and geometric checks in order.

    polytope is the momentum polytope the data is meant to generate;
    it defaults to the hull of the component moments.  Passing the
    intended polytope lets the vertex-coverage check catch data that
    lost a fixed component (the hull of the surviving moments would
    otherwise shrink around the defect).

    Later checks skip whatever earlier failures make undefined (a face
    with no carrier component is V2's finding, not V5's), so a single
    defect surfaces as a single failing check wherever possible.
    """
    checks: list[CheckResult] = []

    # V1: structural counts and vector lengths
    problems = []
    if not spec.components:
        problems.append("no fixed components")
    for idx, comp in enumerate(spec.components):
        if len(comp.moment) != spec.torus_rank:
            problems.append(f"component {idx}: moment length != torus_rank")
        for w in comp.weights:
            if len(w) != spec.torus_rank:
                problems.append(f"component {idx}: weight length != torus_rank")
        if any(is_zero(w) for w in comp.weights):
            problems.append(f"component {idx}: zero isotropy weight")
        expected = spec.half_dim - (1 if comp.is_surface else 0)
        if len(comp.weights) != expected:
            problems.append(
                f"component {idx}: {len(comp.weights)} weights, expected {expected}"
            )
        if comp.is_surface and (comp.genus is None or comp.genus < 0):
            problems.append(f"component {idx}: surface needs genus >= 0")
    checks.append(CheckResult("V1-structural", not problems, "; ".join(problems)))
    if any(len(c.moment) != spec.torus_rank for c in spec.components) or not spec.components:
        checks.append(CheckResult("V2-vertex-coverage", False, "skipped: malformed moments"))
        return ValidationReport(tuple(checks))

    poly = spec.polytope if polytope is None else polytope
    lattice = poly.lattice
    d = poly.dim
    _, direction_basis = poly.affine_hull

    # V2: every vertex of the polytope carries exactly one component
    # (vertex preimages are connected fixed components)
    problems = []
    for v in poly.vertices:
        carriers = sum(1 for c in spec.components if c.moment == v)
        if carriers == 0:
            problems.append(f"vertex {tuple(map(str, v))} has no component")
        elif carriers > 1:
            problems.append(f"vertex {tuple(map(str, v))} carries {carriers} components")
    checks.append(CheckResult("V2-vertex-coverage", not problems, "; ".join(problems)))

    # V3: at every component the weights span the direction space of the polytope
    problems = []
    for idx, comp in enumerate(spec.components):
        if not all(lattice_membership(w, direction_basis) for w in comp.weights):
            problems.append(f"component {idx}: weight outside the polytope directions")
        elif rank(comp.weights) != d:
            problems.append(f"component {idx}: weights do not span the polytope directions")
    checks.append(CheckResult("V3-weight-span", not problems, "; ".join(problems)))

    # V4: the weights of a component at a vertex, isolated point or fixed
    # surface, generate the tangent cone there (a surface's implicit zero
    # weight adds nothing to the cone)
    problems = []
    for idx, comp in enumerate(spec.components):
        if comp.moment not in poly.vertices:
            continue
        v = poly.vertices.index(comp.moment)
        cone = tangent_cone(poly, v)
        if not cones_equal(comp.weights, cone):
            problems.append(
                f"component {idx}: weight cone differs from the tangent cone at vertex {v}"
            )
    checks.append(CheckResult("V4-vertex-cone", not problems, "; ".join(problems)))

    # V5: all components over a face agree on its complexity, and the
    # parallel weights span the face directions
    problems = []
    fc: dict[int, int] = {}
    carriers = _face_carriers(spec, poly)
    for f in lattice.faces:
        over = carriers[f.id]
        if not any(c.moment in f.vertex_coords for c in over):
            continue  # V2's finding
        values = _complexities(f, over)
        if len(values) > 1:
            problems.append(
                f"face {f.vertex_set}: components disagree on complexity {sorted(values)}"
            )
            continue
        [(value, parallels)] = values.items()
        if value < 0:
            problems.append(f"face {f.vertex_set}: negative complexity")
            continue
        fc[f.id] = value
        if any(rank(parallel) != f.dim for parallel in parallels):
            problems.append(
                f"face {f.vertex_set}: parallel weights do not span the face directions"
            )
    checks.append(CheckResult("V5-face-complexity", not problems, "; ".join(problems)))

    # V6: complexity is monotone along face containment
    problems = []
    for a, b in lattice.containment:
        if a in fc and b in fc and fc[a] > fc[b]:
            problems.append(
                f"face {lattice.face(a).vertex_set} exceeds its superface {lattice.face(b).vertex_set}"
            )
    checks.append(CheckResult("V6-monotonicity", not problems, "; ".join(problems)))

    # V7: one genus when complexity-one and nothing is short
    problems = []
    k = spec.half_dim - d
    if k == 1 and fc and all(v > 0 for v in fc.values()):
        genera = {c.genus for c in spec.components if c.is_surface}
        if len(genera) > 1:
            problems.append(f"surface components carry several genera {sorted(genera)}")
    checks.append(CheckResult("V7-surface-genus", not problems, "; ".join(problems)))

    return ValidationReport(tuple(checks))
