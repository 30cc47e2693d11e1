"""Topology of the quotient from the stratified momentum polytope.

The decision tree for a validated spec, with the type of the `Verdict`
record it gives:

* complexity 0: the quotient is a disk of dimension n (orbital momentum
  map is a homeomorphism onto the polytope): "disk".
* complexity 1 with every proper face short: the quotient is the
  (n+1)-sphere, presentable as the join of the polytope boundary with a
  two-sphere: "sphere".
* complexity 1 with nothing short: the quotient is polytope x surface;
  the genus is read from the fixed surfaces (they all agree, and every
  vertex carries one, since an isolated fixed point at a vertex would
  force a short vertex): "product-polytope-surface".
* complexity 1 otherwise: the collapsed product (polytope x S^2 with
  the fibers over the short faces crushed), left unnamed except for the
  four-manifold special case of a single short endpoint, which is a
  three-disk: "collapsed-product", or "disk".
* complexity >= 2: stratification only: "stratification-only".

`classify` is the one caller of `validate`: it validates the spec
(unless told to skip), stratifies it, decides the verdict, and keeps
the validation report on the TopologyReport, so the CLI renders the
checks that ran instead of running them again.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

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


class Verdict(NamedTuple):
    """The topology of the quotient.  Each type sets only its own fields:
    "sphere" and "disk" their dim, "product-polytope-surface" its genus,
    "collapsed-product" its short_face_ids and the fiber "S2", and
    "stratification-only" none.  The fields that are set are the
    verdict's JSON; type comes first, so verdicts of different types
    never compare equal."""

    type: str
    dim: Optional[int] = None
    genus: Optional[int] = None
    short_face_ids: Optional[tuple[int, ...]] = None
    fiber: Optional[str] = None


class TopologyReport(NamedTuple):
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
        return Verdict("disk", dim=n), "toric-disk"
    if k >= 2:
        return Verdict("stratification-only"), "stratification-only"
    if proper and short >= proper:
        return Verdict("sphere", dim=n + 1), "boundary-short-sphere"
    if not short:
        genera = sorted({c.genus for c in spec.components if c.is_surface})
        if not genera:
            raise SpecError("invalid spec: nothing short yet no fixed surface in sight")
        # V1 and V7 refuse these first when validation runs
        if len(genera) > 1 or genera[0] < 0:
            raise SpecError(f"invalid spec: the fixed surfaces need one genus >= 0, got {genera}")
        return Verdict("product-polytope-surface", genus=genera[0]), "no-short-product"

    # partial collapse
    if n == 2 and sp.polytope.dim == 1 and len(short) == 1:
        only = sp.lattice.face(next(iter(short)))
        if only.dim == 0:
            # a compact four-manifold with one fixed surface forces genus zero
            if any(c.genus != 0 for c in spec.components if c.is_surface):
                raise SpecError(
                    "invalid spec: a single fixed surface in a four-manifold must be a sphere"
                )
            return Verdict("disk", dim=3), "four-manifold-endpoint-disk"
    verdict = Verdict("collapsed-product", short_face_ids=tuple(sorted(short)), fiber="S2")
    return verdict, "partial-collapse"
