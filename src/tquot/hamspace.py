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

The polytope and one reading of the face complexity per face and
component on it (`read_faces`) are cached on the spec and shared: V2
reads the moments outside and the carriers of each vertex off them, V4
the components at the vertices, V5 every component on a face and
stratification those at its vertices.  The readings are taken from the
face whose relative interior holds each moment upward along the covers,
so their cost follows the component-face incidences.  Each fact is
proven once: V4 runs first, and V3 ranks the weights and V5 the
parallel weights only of what V4 has not settled, the components away
from a vertex and those whose vertex cone V4 refused.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from operator import mul
from typing import Optional

from tquot.exactq import Vector, exact, is_zero, primitive, rank, vec
from tquot.polytope import FaceLattice, RationalPolytope, convex_hull, facet_incidence

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


_MOMENT = "a moment must be integers or Fractions"


def point_component(moment, weights) -> FixedComponent:
    weights = tuple(exact(w, "weights must be integers", error=SpecError) for w in weights)
    return FixedComponent(POINT, vec(moment, _MOMENT, SpecError), weights)


def surface_component(genus, moment, weights) -> FixedComponent:
    weights = tuple(exact(w, "weights must be integers", error=SpecError) for w in weights)
    [genus] = exact((genus,), "a genus must be integers", error=SpecError)
    return FixedComponent(SURFACE, vec(moment, _MOMENT, SpecError), weights, genus=genus)


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

    @cached_property
    def face_readings(self) -> dict[int, tuple[FaceReading, ...]]:
        """read_faces over self.polytope, built on first use."""
        return read_faces(self, self.polytope)


@dataclass(frozen=True)
class FaceReading:
    """A component on a face, by its index in the spec: the complexity it
    reads, its weights parallel to the face, and whether it is at a vertex."""

    index: int
    complexity: int
    parallel: tuple[tuple[int, ...], ...]
    at_vertex: bool


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
        return next((c.name for c in self.checks if not c.passed), None)


@dataclass(frozen=True)
class GeneralPositionReport:
    per_component: tuple[bool, ...]
    overall: bool


def read_faces(spec: HamSpec, poly: RationalPolytope) -> dict[int, tuple[FaceReading, ...]]:
    """Face id -> a reading for each component whose moment lies on the
    face, in component order.

    The rule: weights parallel to the face, plus one for the implicit
    zero weight of a surface, minus dim F.  A moment inside the polytope
    lies in the relative interior of one face, its carrier, whose facets
    are those tight at the moment (`facet_incidence`; a moment outside
    lies on no face); the faces holding it are the carrier and the faces
    above it along the covers.  A weight in the polytope's directions is
    parallel to a face iff the facets whose conormal it meets with 0
    hold every facet that contains the face, read on bitmasks.
    """
    faces = poly.lattice.faces
    above: list[list[int]] = [[] for _ in faces]
    for a, b in poly.lattice.covers:
        above[a].append(b)
    carrier = {f.facets: f.id for f in faces}
    masks = [sum(1 << i for i in f.facets) for f in faces]
    weights = dict.fromkeys(w for c in spec.components for w in c.weights)
    zeros = {w: poly.zero_facets(w) for w in weights if poly.off_hull(w) is None}
    rows: list[list[FaceReading]] = [[] for _ in faces]
    tight = facet_incidence(poly, [c.moment for c in spec.components])
    for i, (comp, t) in enumerate(zip(spec.components, tight)):
        if t is None:
            continue
        level = [carrier[t]]  # then the faces one dimension up, level by level
        vertex = faces[level[0]].dim == 0
        own = [(w, zeros[w]) for w in comp.weights if w in zeros]
        while level:
            for f in level:
                m = masks[f]
                parallel = tuple(w for w, z in own if m & z == m)
                k = len(parallel) + comp.is_surface - faces[f].dim
                rows[f].append(FaceReading(i, k, parallel, vertex))
            level = dict.fromkeys(b for f in level for b in above[f])
    return {f.id: tuple(row) for f, row in zip(faces, rows)}


def stratify(spec: HamSpec) -> StratifiedPolytope:
    """Complexity label for every face, grouped into the strata.

    A face's complexity is read at the components whose moment is a
    vertex of the face; every face has one because vertex preimages are
    fixed components.  All such components must agree.
    """
    poly = spec.polytope
    lattice = poly.lattice
    k = spec.half_dim - poly.dim
    if k < 0:
        raise SpecError("inconsistent spec: polytope dimension exceeds half_dim")
    readings = spec.face_readings
    fc = {}
    for f in lattice.faces:
        values = {r.complexity for r in readings[f.id] if r.at_vertex}
        if not values:
            raise SpecError(f"no fixed component at any vertex of face {f.vertex_set}")
        if len(values) > 1:
            raise SpecError(
                f"invalid spec: face complexity inconsistent on face {f.vertex_set}: {sorted(values)}"
            )
        [fc[f.id]] = values
        if fc[f.id] < 0:
            raise SpecError(f"invalid spec: negative face complexity on face {f.vertex_set}")
    if fc[lattice.top.id] != k:
        raise SpecError("invalid spec: top-face complexity disagrees with the action complexity")
    delta_k: dict = {}
    for fid, val in sorted(fc.items()):
        delta_k.setdefault(val, []).append(fid)
    delta_k = {key: tuple(ids) for key, ids in delta_k.items()}
    return StratifiedPolytope(poly, lattice, fc, delta_k, delta_k.get(0, ()), k)


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


def malformed_vectors(spec: HamSpec) -> Optional[str]:
    """Why the polytope layer cannot run on the spec, or None: it needs
    at least one moment, and every moment and weight in the torus rank
    (the integer tests zip weights against face normals)."""
    if not spec.components or any(len(c.moment) != spec.torus_rank for c in spec.components):
        return "malformed moments"
    if any(len(w) != spec.torus_rank for c in spec.components for w in c.weights):
        return "malformed weights"
    return None


def _parens(v) -> str:
    return f"({', '.join(map(str, v))})"


def _tangent_cone_witness(poly: RationalPolytope, v: int, weights) -> Optional[str]:
    """Why the weights do not generate the tangent cone of poly at
    vertex v, or None when they do.

    The weights lie in the tangent cone iff each lies in the polytope's
    directions and meets the conormal of every facet at v with >= 0.
    The tangent cone is pointed and its extreme rays are the edge
    directions at v, so then the two cones are equal iff every edge
    direction is a positive multiple of a weight.  An edge direction
    that is not lies outside the span of the weights when they do not
    span the polytope's directions, and outside their cone otherwise.
    """
    # the dim-0 faces come first in the lattice, in vertex order
    at_v = [poly.facets[i][0] for i in sorted(poly.lattice.faces[v].facets)]
    for w in weights:
        n = poly.off_hull(w)
        if n is not None:
            return f"weight {_parens(w)} leaves the affine hull (normal {_parens(n)})"
        for n in at_v:
            if sum(map(mul, n, w)) < 0:
                return f"weight {_parens(w)} violates the facet with conormal {_parens(n)}"
    rays = {primitive(w) for w in weights if any(w)}
    missed = [e for e in poly.lattice.edges[v] if e not in rays]
    if not missed:
        return None
    span = rank(weights)
    if span < poly.dim:
        e = next(e for e in missed if rank([*weights, e]) > span)
        return f"edge direction {_parens(e)} is outside the span of the weights"
    return f"edge direction {_parens(missed[0])} is not in the weight cone"


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
    malformed = malformed_vectors(spec)
    if malformed:
        checks.append(CheckResult("V2-vertex-coverage", False, f"skipped: {malformed}"))
        return ValidationReport(tuple(checks))

    poly = spec.polytope if polytope is None else polytope
    lattice = poly.lattice
    d = poly.dim
    readings = spec.face_readings if polytope is None else read_faces(spec, poly)

    # V2: every moment lies in the polytope, and every vertex of the
    # polytope carries exactly one component (vertex preimages are
    # connected fixed components)
    inside = {r.index for r in readings[lattice.top.id]}
    problems = [
        f"component {idx}: moment {_parens(c.moment)} lies outside the polytope"
        for idx, c in enumerate(spec.components)
        if idx not in inside
    ]
    # the dim-0 faces come first in the lattice, in vertex order
    for v, vertex in enumerate(poly.vertices):
        carriers = len(readings[v])
        if carriers == 0:
            problems.append(f"vertex {tuple(map(str, vertex))} has no component")
        elif carriers > 1:
            problems.append(f"vertex {tuple(map(str, vertex))} carries {carriers} components")
    checks.append(CheckResult("V2-vertex-coverage", not problems, "; ".join(problems)))

    # V4: the weights of a component at a vertex, isolated point or fixed
    # surface, generate the tangent cone there (a surface's implicit zero
    # weight adds nothing to the cone).  It runs before V3: a component
    # it accepts has its weights in the polytope's directions and a
    # positive multiple of each edge direction at its vertex among them,
    # so they span those directions and V3 need not rank them
    problems = []
    coned, unconed = set(), set()  # the components at a vertex that pass it and fail it
    for idx, v in sorted((r.index, v) for v in range(len(poly.vertices)) for r in readings[v]):
        witness = _tangent_cone_witness(poly, v, spec.components[idx].weights)
        if witness:
            unconed.add(idx)
            problems.append(f"component {idx} at vertex {v}: {witness}")
        else:
            coned.add(idx)
    v4 = CheckResult("V4-vertex-cone", not problems, "; ".join(problems))

    # V3: at every component the weights span the direction space of the polytope
    problems = []
    for idx, comp in enumerate(spec.components):
        if idx in coned:
            continue
        off = [(w, n) for w in comp.weights if (n := poly.off_hull(w))]
        if off:
            w, n = off[0]
            problems.append(
                f"component {idx}: weight {_parens(w)} leaves the polytope's directions"
                f" (normal {_parens(n)})"
            )
        elif rank(comp.weights) != d:
            problems.append(f"component {idx}: weights do not span the polytope directions")
    checks.append(CheckResult("V3-weight-span", not problems, "; ".join(problems)))
    checks.append(v4)

    # V5: all components over a face agree on its complexity, and the
    # parallel weights span the face directions.  At a vertex where V4
    # holds they do: each edge of the face there is a positive multiple
    # of a weight, which is then parallel to the face
    problems = []
    fc: dict[int, int] = {}
    for f in lattice.faces:
        over = readings[f.id]
        if not any(r.at_vertex for r in over):
            continue  # V2's finding
        values = {r.complexity for r in over}
        if len(values) > 1:
            problems.append(
                f"face {f.vertex_set}: components disagree on complexity {sorted(values)}"
            )
            continue
        [value] = values
        if value < 0:
            problems.append(f"face {f.vertex_set}: negative complexity")
            continue
        fc[f.id] = value
        unsettled = (r for r in over if not r.at_vertex or r.index in unconed)
        if any(rank(r.parallel) != f.dim for r in unsettled):
            problems.append(
                f"face {f.vertex_set}: parallel weights do not span the face directions"
            )
    checks.append(CheckResult("V5-face-complexity", not problems, "; ".join(problems)))

    # V6: complexity is monotone along face containment.  By transitivity it is enough to
    # compare a face with its covers, looking through those that V2 or V5 left without one
    near: dict[int, set[int]] = {}
    for a, b in lattice.covers:  # sorted, so near[a] is complete here
        near.setdefault(b, set()).update({a} if a in fc else near.get(a, ()))
    problems = [
        f"face {lattice.face(a).vertex_set} exceeds its superface {lattice.face(b).vertex_set}"
        for a, b in sorted((a, b) for b in fc for a in near.get(b, ()) if fc[a] > fc[b])
    ]
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
