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

The polytope, one entry per distinct weight (`read_weights`) and one
reading of the face complexity per face and component on it
(`read_faces`) are cached on the spec and shared: the readings, V3 and
V4 look each weight up, and V2, V4, V5 and stratification read the
components on faces off the readings.  The readings walk up from the
face whose relative interior holds each moment, through the inverse of
the lattice's `below`, so their cost follows the component-face
incidences; that face is found by the facets at the moment, which the
hull keeps per point in the order given (`contacts`), so a classify
tests no slack.  Each fact is proven once: V4 runs first, and V3 ranks
the weights and V5 the parallel weights only of what V4 has not
settled, the components away from a vertex and those whose vertex cone
V4 refused.  V4 reads by the same facet masks which edges at a vertex
no weight lies along, and computes edge directions only for a witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import NamedTuple, Optional, Sequence

from tquot.exactq import Vector, exact, primitive, rank, vec
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
    def weight_table(self) -> dict:
        """read_weights over self.polytope, built on first use."""
        return read_weights(self, self.polytope)

    @cached_property
    def face_readings(self) -> dict[int, tuple[FaceReading, ...]]:
        """read_faces over self.polytope, built on first use."""
        return read_faces(self, self.polytope, self.weight_table, self.polytope.contacts)


class FaceReading(NamedTuple):
    """A component on a face, by its index in the spec: the complexity it
    reads, its weights parallel to the face, and whether it is at a vertex.
    The field `index` shadows `tuple.index`, which nothing calls."""

    index: int
    complexity: int
    parallel: tuple[tuple[int, ...], ...]
    at_vertex: bool


class StratifiedPolytope(NamedTuple):
    polytope: RationalPolytope
    lattice: FaceLattice
    face_complexity: dict
    short_faces: tuple[int, ...]
    complexity: int


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str = ""


class ValidationReport(NamedTuple):
    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def first_failed(self) -> Optional[str]:
        return next((c.name for c in self.checks if not c.passed), None)


class GeneralPositionReport(NamedTuple):
    per_component: tuple[bool, ...]
    overall: bool


class WeightReading(NamedTuple):
    """A weight against a polytope: the first hull normal it meets with
    nonzero and the bitmasks of the facets it meets with 0 and with < 0.
    Off the hull, where readers stop, both masks are 0."""

    normal: Optional[tuple[int, ...]]
    zero: int
    negative: int


def read_weights(spec: HamSpec, poly: RationalPolytope) -> dict[tuple[int, ...], WeightReading]:
    """Each distinct weight of the spec -> its reading against poly."""
    return {
        w: WeightReading(n, 0, 0) if (n := poly.off_hull(w)) else
        WeightReading(None, *poly.facet_signs(w))
        for w in {w for c in spec.components for w in c.weights}
    }


def read_faces(
    spec: HamSpec, poly: RationalPolytope, table: dict, tight: Sequence[Optional[int]]
) -> dict[int, tuple[FaceReading, ...]]:
    """Face id -> a reading for each component whose moment lies on the
    face, in component order.

    The rule: weights parallel to the face, plus one for the implicit
    zero weight of a surface, minus dim F.  tight holds, per component,
    the bitmask of the facets at its moment, or None for a moment
    outside poly.  A moment inside lies in the relative interior of one
    face, its carrier, whose facets are those at the moment; the faces
    holding it are the carrier and the faces above it, by the inverse
    of the lattice's `below`.  A weight in the polytope's directions is
    parallel to a face iff the facets whose conormal it meets with 0
    hold every facet that contains the face, read on bitmasks off
    table, the spec's `read_weights` over poly.
    """
    faces = poly.lattice.faces
    masks = [f.facets for f in faces]
    dims = [f.dim for f in faces]
    above: list[list[int]] = [[] for _ in faces]
    for b, under in enumerate(poly.lattice.below):
        for a in under:
            above[a].append(b)
    carrier = {m: fid for fid, m in enumerate(masks)}  # the top face by 0
    rows: list[list[FaceReading]] = [[] for _ in faces]
    for i, (comp, t) in enumerate(zip(spec.components, tight)):
        if t is None:
            continue
        walk = [carrier[t]]  # then every face above it, each once
        seen = set(walk)
        for f in walk:
            for b in above[f]:
                if b not in seen:
                    seen.add(b)
                    walk.append(b)
        vertex, surface = dims[walk[0]] == 0, comp.is_surface
        own = [(w, table[w].zero) for w in comp.weights if table[w].normal is None]
        for f in walk:
            m = masks[f]
            parallel = tuple([w for w, z in own if m & z == m])
            rows[f].append(FaceReading(i, len(parallel) + surface - dims[f], parallel, vertex))
    return {f.id: tuple(row) for f, row in zip(faces, rows)}


def stratify(spec: HamSpec) -> StratifiedPolytope:
    """Complexity label for every face, and the short faces (complexity 0) by id.

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
    short = tuple(sorted(fid for fid, val in fc.items() if val == 0))
    return StratifiedPolytope(poly, lattice, fc, short, k)


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
        ok = not comp.is_surface and all(map(any, comp.weights))
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


def _tangent_cone_witness(poly: RationalPolytope, v: int, weights, table, missed) -> Optional[str]:
    """Why the weights do not generate the tangent cone of poly at
    vertex v, or None when they do, read off their `read_weights` table
    and missed, the edges at v on which they have no nonzero parallel one.

    The weights lie in the tangent cone iff each lies in the polytope's
    directions and meets no conormal of a facet at v negatively.
    The tangent cone is pointed and its extreme rays are the edge
    directions at v, so then a weight parallel to an edge points along
    it, and the two cones are equal iff no edge is missed.  A missed
    edge direction lies outside the span of the weights when they do not
    span the polytope's directions, and outside their cone otherwise.
    """
    # the dim-0 faces come first in the lattice, in vertex order
    at_v = poly.lattice.faces[v].facets
    for w in weights:
        if (n := table[w].normal) is not None:
            return f"weight {_parens(w)} leaves the affine hull (normal {_parens(n)})"
        if m := table[w].negative & at_v:
            n = poly.facets[(m & -m).bit_length() - 1][0]  # the lowest facet it violates
            return f"weight {_parens(w)} violates the facet with conormal {_parens(n)}"
    if not missed:
        return None
    ends = (poly.vertices[u] for e in missed for u in e.vertex_set if u != v)
    directions = sorted(primitive([b - a for a, b in zip(poly.vertices[v], u)]) for u in ends)
    span = rank(weights)
    if span < poly.dim:
        e = next(e for e in directions if rank([*weights, e]) > span)
        return f"edge direction {_parens(e)} is outside the span of the weights"
    return f"edge direction {_parens(directions[0])} is not in the weight cone"


def validate(spec: HamSpec, polytope: Optional[RationalPolytope] = None) -> ValidationReport:
    """Run the structural and geometric checks in order.

    polytope is the momentum polytope the data is meant to generate;
    it defaults to the hull of the component moments.  Passing the
    intended polytope lets the vertex-coverage check catch data that
    lost a fixed component (the hull of the surviving moments would
    otherwise shrink around the defect).  The facets at each moment are
    then found by `facet_incidence`, which raises ValueError for a
    polytope whose ambient dimension is not the length of the moments.

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
        if not all(map(any, comp.weights)):
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
    if polytope is None:
        table, readings = spec.weight_table, spec.face_readings
    else:
        table = read_weights(spec, poly)
        tight = facet_incidence(poly, [c.moment for c in spec.components])
        readings = read_faces(spec, poly, table, tight)

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
    missed: dict[int, list] = {}  # per component at its one vertex, the edges it leaves uncovered
    for e in lattice.faces:
        for r in readings[e.id] if e.dim == 1 else ():
            if r.at_vertex and not any(map(any, r.parallel)):
                missed.setdefault(r.index, []).append(e)
    coned = set()  # the components at a vertex that pass it
    for idx, v in sorted((r.index, v) for v in range(len(poly.vertices)) for r in readings[v]):
        witness = _tangent_cone_witness(poly, v, spec.components[idx].weights, table, missed.get(idx))
        if witness:
            problems.append(f"component {idx} at vertex {v}: {witness}")
        else:
            coned.add(idx)
    v4 = CheckResult("V4-vertex-cone", not problems, "; ".join(problems))

    # V3: at every component the weights span the direction space of the polytope
    problems = []
    for idx, comp in enumerate(spec.components):
        if idx in coned:
            continue
        off = [(w, n) for w in comp.weights if (n := table[w].normal)]
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
    # of a weight, which is then parallel to the face.  So when V4 holds
    # at every component, no span is ranked
    problems = []
    fc: dict[int, int] = {}
    unsettled = len(coned) < len(spec.components)
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
        if unsettled and any(rank(r.parallel) != f.dim for r in over if r.index not in coned):
            problems.append(
                f"face {f.vertex_set}: parallel weights do not span the face directions"
            )
    checks.append(CheckResult("V5-face-complexity", not problems, "; ".join(problems)))

    # V6: complexity is monotone along face containment.  By transitivity it is enough to
    # compare a face with its facets, looking through those that V2 or V5 left without
    # one.  reach[a] is (a,) if face a has a complexity, else the nearest faces below it
    # that do; a facet's id is below its face's, so one pass in id order fills it
    reach: list = []
    pairs = []
    for b, under in enumerate(lattice.below):
        near = {x for a in under for x in reach[a]}
        if b in fc:
            pairs += [(a, b) for a in near if fc[a] > fc[b]]
            near = (b,)
        reach.append(near)
    problems = [
        f"face {lattice.face(a).vertex_set} exceeds its superface {lattice.face(b).vertex_set}"
        for a, b in sorted(pairs)
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
