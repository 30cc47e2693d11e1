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

`classify` is the one caller of `validate`: it validates the spec
(unless told to skip), stratifies it, decides the verdict, and keeps
the validation report on the TopologyReport, so the CLI renders the
checks that ran instead of running them again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from tquot.hamspace import (
    HamSpec,
    SpecError,
    StratifiedPolytope,
    ValidationReport,
    malformed_vectors,
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
class CollapsedProduct:
    short_face_ids: tuple[int, ...]
    fiber: SphereFiber


@dataclass(frozen=True)
class StratificationOnly:
    pass


Verdict = Union[Sphere, Disk, ProductPolytopeSurface, CollapsedProduct, StratificationOnly]


@dataclass(frozen=True)
class TopologyReport:
    verdict: Verdict
    provenance: str
    stratification: StratifiedPolytope
    validation: Optional[ValidationReport] = None  # None when skipped

    @property
    def join_presentation(self) -> bool:
        """Whether the verdict is a sphere presented as the join of the
        polytope boundary with a two-sphere: every proper face is short."""
        return self.provenance == "boundary-short-sphere"


def classify(spec: HamSpec, skip_validation: bool = False) -> TopologyReport:
    """Validate the spec (unless skipped), stratify it, and decide the
    verdict on its quotient and the provenance of that verdict."""
    validation = None
    # vectors of the wrong length are refused even when validation is skipped
    if not skip_validation or malformed_vectors(spec):
        validation = validate(spec)
        if not validation.ok:
            raise ValidationFailure(validation)
    sp = stratify(spec)
    return TopologyReport(*_decide(spec, sp), sp, validation)


def _decide(spec: HamSpec, sp: StratifiedPolytope) -> tuple[Verdict, str]:
    n = spec.half_dim
    k = sp.complexity
    short = set(sp.short_faces)
    proper = {f.id for f in sp.lattice.proper_faces()}

    if k == 0:
        return Disk(n), "toric-disk"
    if k >= 2:
        return StratificationOnly(), "stratification-only"
    if proper and short >= proper:
        return Sphere(n + 1), "boundary-short-sphere"
    if not short:
        genera = sorted({c.genus for c in spec.components if c.is_surface})
        if not genera:
            raise SpecError("invalid spec: nothing short yet no fixed surface in sight")
        # V1 and V7 refuse these first when validation runs
        if len(genera) > 1 or genera[0] < 0:
            raise SpecError(f"invalid spec: the fixed surfaces need one genus >= 0, got {genera}")
        return ProductPolytopeSurface(genera[0]), "no-short-product"

    # partial collapse
    if n == 2 and sp.polytope.dim == 1 and len(short) == 1:
        only = sp.lattice.face(next(iter(short)))
        if only.dim == 0:
            # a compact four-manifold with one fixed surface forces genus zero
            if any(c.genus != 0 for c in spec.components if c.is_surface):
                raise SpecError(
                    "invalid spec: a single fixed surface in a four-manifold must be a sphere"
                )
            return Disk(3), "four-manifold-endpoint-disk"
    return CollapsedProduct(tuple(sorted(short)), SphereFiber()), "partial-collapse"
