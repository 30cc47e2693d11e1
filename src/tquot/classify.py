"""Topology of the quotient from the stratified momentum polytope.

The decision tree for a validated spec:

* complexity 0: the quotient is a disk of dimension n (orbital momentum
  map is a homeomorphism onto the polytope).
* complexity 1 with every proper face short: the quotient is the
  (n+1)-sphere, presentable as the join of the polytope boundary with a
  two-sphere.
* complexity 1 with nothing short: the quotient is polytope x surface;
  the genus is read from the fixed surfaces (they all agree, and every
  vertex carries one, since an isolated fixed point at a vertex would
  force a short vertex).
* complexity 1 otherwise: the collapsed product (polytope x S^2 with
  the fibers over the short faces crushed), left unnamed except for the
  four-manifold special case of a single short endpoint, which is a
  three-disk.
* complexity >= 2: stratification only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from tquot.hamspace import (
    HamSpec,
    SpecError,
    StratifiedPolytope,
    ValidationReport,
    stratify,
    validate,
)


class ValidationFailure(Exception):
    """A spec was rejected by validation; carries the full report."""

    def __init__(self, report: ValidationReport):
        super().__init__(f"validation failed: {report.first_failed()}")
        self.report = report


@dataclass(frozen=True)
class Sphere:
    dim: int


@dataclass(frozen=True)
class Disk:
    dim: int


@dataclass(frozen=True)
class ProductPolytopeSurface:
    genus: int


@dataclass(frozen=True)
class SphereFiber:
    pass


@dataclass(frozen=True)
class SurfaceFiber:
    genus: int


@dataclass(frozen=True)
class CollapsedProduct:
    short_face_ids: tuple[int, ...]
    fiber: Union[SphereFiber, SurfaceFiber]


@dataclass(frozen=True)
class StratificationOnly:
    pass


Verdict = Union[Sphere, Disk, ProductPolytopeSurface, CollapsedProduct, StratificationOnly]


@dataclass(frozen=True)
class TopologyReport:
    verdict: Verdict
    provenance: str
    stratification: StratifiedPolytope
    join_presentation: bool = False
    annotation: Optional[str] = None


@dataclass(frozen=True)
class JoinPresentation:
    boundary_face_ids: tuple[int, ...]
    fiber: str  # always the two-sphere


def _validated_strata(spec: HamSpec, skip_validation: bool) -> StratifiedPolytope:
    if not skip_validation:
        report = validate(spec)
        if not report.ok:
            raise ValidationFailure(report)
    return stratify(spec)


def classify(spec: HamSpec, skip_validation: bool = False, annotation: Optional[str] = None) -> TopologyReport:
    """Classify the quotient of a validated spec."""
    sp = _validated_strata(spec, skip_validation)
    n = spec.half_dim
    k = sp.complexity
    short = set(sp.short_faces)
    proper = {f.id for f in sp.lattice.proper_faces()}

    if k == 0:
        return TopologyReport(Disk(n), "toric-disk", sp, annotation=annotation)
    if k >= 2:
        return TopologyReport(
            StratificationOnly(), "stratification-only", sp, annotation=annotation
        )

    if proper and short >= proper:
        return TopologyReport(
            Sphere(n + 1),
            "boundary-short-sphere",
            sp,
            join_presentation=True,
            annotation=annotation,
        )
    if not short:
        genera = sorted({c.genus for c in spec.components if c.is_surface})
        if not genera:
            raise SpecError("invalid spec: nothing short yet no fixed surface in sight")
        return TopologyReport(
            ProductPolytopeSurface(genera[0]), "no-short-product", sp, annotation=annotation
        )

    # partial collapse
    if n == 2 and sp.polytope.dim == 1 and len(short) == 1:
        only = sp.lattice.face(next(iter(short)))
        if only.dim == 0:
            _require_sphere_cap(spec)
            return TopologyReport(
                Disk(3), "four-manifold-endpoint-disk", sp, annotation=annotation
            )
    return TopologyReport(
        CollapsedProduct(tuple(sorted(short)), SphereFiber()),
        "partial-collapse",
        sp,
        annotation=annotation,
    )


def _require_sphere_cap(spec: HamSpec) -> None:
    # a compact four-manifold with one fixed surface forces genus zero
    surfaces = [c for c in spec.components if c.is_surface]
    if any(c.genus != 0 for c in surfaces):
        raise SpecError(
            "invalid spec: a single fixed surface in a four-manifold must be a sphere"
        )


def classify_m4(spec: HamSpec, skip_validation: bool = False) -> TopologyReport:
    """Trichotomy for circle actions on compact four-manifolds.

    Requires half_dim 2, effective rank 1, complexity 1.  Counts the
    fixed surfaces: none gives the three-sphere, one (necessarily a
    sphere) gives the three-disk, two of equal genus g give interval x
    genus-g surface.
    """
    sp = _validated_strata(spec, skip_validation)
    if spec.half_dim != 2 or sp.polytope.dim != 1 or sp.complexity != 1:
        raise SpecError("the trichotomy needs half_dim 2, effective rank 1, complexity 1")
    surfaces = [c for c in spec.components if c.is_surface]
    if len(surfaces) == 0:
        return TopologyReport(Sphere(3), "four-manifold-trichotomy: finite fixed set", sp)
    if len(surfaces) == 1:
        _require_sphere_cap(spec)
        return TopologyReport(Disk(3), "four-manifold-trichotomy: one fixed sphere", sp)
    if len(surfaces) == 2:
        g0, g1 = surfaces[0].genus, surfaces[1].genus
        if g0 != g1:
            raise SpecError("invalid spec: the two fixed surfaces must share a genus")
        return TopologyReport(
            ProductPolytopeSurface(g0), "four-manifold-trichotomy: two fixed surfaces", sp
        )
    raise SpecError("invalid spec: more than two fixed surfaces in a four-manifold")


def join_presentation(report: TopologyReport) -> JoinPresentation:
    """The sphere verdict as a join: polytope boundary times a collapsing
    two-sphere.  Only available when every proper face is short."""
    if not (isinstance(report.verdict, Sphere) and report.join_presentation):
        raise ValueError("join presentation requires a boundary-short sphere verdict")
    sp = report.stratification
    boundary = tuple(sorted(f.id for f in sp.lattice.proper_faces()))
    return JoinPresentation(boundary, "S2")
