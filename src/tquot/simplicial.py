"""Finite ordered simplicial complexes and exact integral homology.

Products use the staircase triangulation, whose simplices are the
monotone chains in the product of the vertex orders; both projections
are then simplicial, which is what makes the fiber collapse below a
genuine quotient.

Fiber collapse realizes the coequalizer of sub x fiber moving into
base x fiber and projecting onto sub.  On the level of complexes this
is the vertex identification (v, w) -> v for v in the collapsed part,
which realizes the topological quotient provided the collapsed part is
a full subcomplex of the base; when it is not, one barycentric
subdivision of the pair makes it so (a subdivided subcomplex is always
full), and the identification is performed there.  Skipping that step
over-collapses: an interval with both endpoints short would flatten to
an edge instead of suspending the fiber.

The homology a verification expects comes from one rule for every
verdict.  The polytope is contractible, so the collapsed product is
homotopy equivalent to the join of the short locus Q with the fiber:
the fiber itself when Q is empty, the triple suspension of Q when the
fiber is the two-sphere (Milnor's join, Ann. Math. 63, 1956).  Only the
small complex Q is ever put through homology for it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Optional

from tquot.classify import (
    ProductPolytopeSurface,
    Sphere,
    StratificationOnly,
    TopologyReport,
)
from tquot.exactq import sparse_rank_and_factors
from tquot.hamspace import StratifiedPolytope


class SizeCapExceeded(RuntimeError):
    def __init__(self, estimate: int, cap: int):
        super().__init__(f"model needs more than {cap} simplices (at least {estimate})")
        self.estimate = estimate
        self.cap = cap


@dataclass(frozen=True)
class OrderedComplex:
    simplices: frozenset
    labels: Optional[tuple] = field(default=None, compare=False)

    @staticmethod
    def from_simplices(simplices: Iterable[tuple], labels=None) -> "OrderedComplex":
        """Close the given simplices downward and validate them."""
        closed = set()
        for s in simplices:
            s = tuple(s)
            if any(a >= b for a, b in zip(s, s[1:])):
                raise ValueError(f"simplex {s} is not strictly increasing")
            for k in range(1, len(s) + 1):
                closed.update(combinations(s, k))
        return OrderedComplex(frozenset(closed), labels)

    @property
    def vertices(self) -> tuple:
        return tuple(sorted({v for s in self.simplices for v in s}))

    @property
    def dim(self) -> int:
        return max((len(s) for s in self.simplices), default=0) - 1

    @property
    def simplex_count(self) -> int:
        return len(self.simplices)

    @property
    def euler_characteristic(self) -> int:
        return sum((-1) ** (len(s) - 1) for s in self.simplices)

    def maximal_simplices(self) -> tuple:
        by_size: dict[int, set] = {}
        for s in self.simplices:
            by_size.setdefault(len(s), set()).add(s)
        non_maximal = set()
        for size, group in by_size.items():
            for s in group:
                for f in combinations(s, size - 1):
                    non_maximal.add(f)
        return tuple(sorted(s for s in self.simplices if s not in non_maximal))


@dataclass(frozen=True)
class HomologyProfile:
    betti: tuple[int, ...]
    torsion: tuple[tuple[int, ...], ...]

    @property
    def reduced_trivial(self) -> bool:
        return (
            len(self.betti) >= 1
            and self.betti[0] == 1
            and all(b == 0 for b in self.betti[1:])
            and all(not t for t in self.torsion)
        )

    def betti_padded(self, length: int) -> tuple[int, ...]:
        return self.betti + (0,) * (length - len(self.betti))

    def trimmed(self) -> "HomologyProfile":
        """The same groups without trailing zero degrees (degree 0 kept)."""
        n = len(self.betti)
        while n > 1 and not self.betti[n - 1] and not self.torsion[n - 1]:
            n -= 1
        return HomologyProfile(self.betti[:n], self.torsion[:n])


def simplex_boundary_sphere(m: int) -> OrderedComplex:
    """All proper faces of the m-simplex; a model of the (m-1)-sphere."""
    if m < 1:
        raise ValueError("need m >= 1")
    verts = tuple(range(m + 1))
    return OrderedComplex.from_simplices(combinations(verts, m))


_TORUS_TRIANGLES = tuple(
    tuple(sorted(t))
    for i in range(7)
    for t in ((i, (i + 1) % 7, (i + 3) % 7), (i, (i + 2) % 7, (i + 3) % 7))
)


def _connected_sum(a: OrderedComplex, b: OrderedComplex) -> OrderedComplex:
    """Glue two closed triangulated surfaces along a removed triangle."""
    ta = max(a.maximal_simplices())
    tb = max(b.maximal_simplices())
    fresh = max(a.vertices) + 1
    mapping = dict(zip(tb, ta))
    for v in b.vertices:
        if v not in mapping:
            mapping[v] = fresh
            fresh += 1
    relabeled = {tuple(sorted(mapping[v] for v in s)) for s in b.simplices}
    merged = (set(a.simplices) - {ta}) | (relabeled - {ta})
    return OrderedComplex(frozenset(merged))


def surface_complex(g: int) -> OrderedComplex:
    """A triangulated closed oriented surface of genus g.

    Genus zero is the tetrahedron boundary; genus one the seven-vertex
    torus; higher genus an iterated connected sum of tori.
    """
    if g < 0:
        raise ValueError("genus must be nonnegative")
    if g == 0:
        return simplex_boundary_sphere(3)
    torus = OrderedComplex.from_simplices(_TORUS_TRIANGLES)
    acc = torus
    for _ in range(g - 1):
        acc = _connected_sum(acc, torus)
    return acc


def _staircases(sigma: tuple, tau: tuple):
    """Monotone lattice paths through the grid sigma x tau."""
    last_i, last_j = len(sigma) - 1, len(tau) - 1
    out = []

    def rec(i, j, acc):
        if i == last_i and j == last_j:
            out.append(tuple(acc))
            return
        if i < last_i:
            rec(i + 1, j, acc + [(sigma[i + 1], tau[j])])
        if j < last_j:
            rec(i, j + 1, acc + [(sigma[i], tau[j + 1])])

    rec(0, 0, [(sigma[0], tau[0])])
    return out


def _product_closure(k: OrderedComplex, l: OrderedComplex, cap: Optional[int] = None):
    """Staircase product; returns (simplices, pair label per vertex id)."""
    vk, vl = k.vertices, l.vertices
    pos_k = {v: i for i, v in enumerate(vk)}
    pos_l = {w: j for j, w in enumerate(vl)}
    width = len(vl)

    def pid(v, w):
        return pos_k[v] * width + pos_l[w]

    closed: set = set()
    for sigma in k.maximal_simplices():
        for tau in l.maximal_simplices():
            for path in _staircases(sigma, tau):
                top = tuple(pid(v, w) for v, w in path)
                for size in range(1, len(top) + 1):
                    closed.update(combinations(top, size))
            if cap is not None and len(closed) > cap:
                raise SizeCapExceeded(len(closed), cap)
    labels = tuple((v, w) for v in vk for w in vl)
    return closed, labels


def product(k: OrderedComplex, l: OrderedComplex, cap: Optional[int] = None) -> OrderedComplex:
    """Staircase triangulation of the product; vertex labels are the
    pairs, in lexicographic order."""
    if not k.simplices or not l.simplices:
        raise ValueError("product of an empty complex")
    closed, labels = _product_closure(k, l, cap)
    return OrderedComplex(frozenset(closed), labels)


def join(k: OrderedComplex, l: OrderedComplex) -> OrderedComplex:
    """Simplicial join, with every vertex of k before every vertex of l."""
    vk, vl = k.vertices, l.vertices
    pos_k = {v: i for i, v in enumerate(vk)}
    shift = len(vk)
    pos_l = {w: shift + j for j, w in enumerate(vl)}
    ks = [tuple(pos_k[v] for v in s) for s in k.simplices]
    ls = [tuple(pos_l[w] for w in s) for s in l.simplices]
    out = set(ks) | set(ls)
    for s in ks:
        for t in ls:
            out.add(s + t)
    labels = tuple(("left", v) for v in vk) + tuple(("right", w) for w in vl)
    return OrderedComplex(frozenset(out), labels)


def is_full_subcomplex(base: OrderedComplex, sub: OrderedComplex) -> bool:
    """Does every base simplex meet the sub vertices in a sub simplex?"""
    subv = set(sub.vertices)
    if not subv:
        return True
    sub_simplices = sub.simplices
    for s in base.simplices:
        t = tuple(v for v in s if v in subv)
        if t and t not in sub_simplices:
            return False
    return True


def barycentric_pair(base: OrderedComplex, sub: OrderedComplex):
    """Barycentric subdivision of a complex and a subcomplex.

    The subdivided subcomplex is always full in the subdivided complex:
    a chain whose barycenters all lie in the subcomplex is a chain of
    the subcomplex.
    """
    order = sorted(base.simplices, key=lambda s: (len(s), s))
    bary_id = {s: i for i, s in enumerate(order)}
    chains_ending: dict[tuple, list[tuple]] = {}
    for s in order:
        acc = [(s,)]
        for size in range(1, len(s)):
            for f in combinations(s, size):
                acc.extend(c + (s,) for c in chains_ending[f])
        chains_ending[s] = acc
    all_chains = [c for acc in chains_ending.values() for c in acc]
    sd_base = frozenset(tuple(bary_id[x] for x in chain) for chain in all_chains)
    sub_set = sub.simplices
    sd_sub = frozenset(
        tuple(bary_id[x] for x in chain)
        for chain in all_chains
        if all(x in sub_set for x in chain)
    )
    labels = tuple(order)
    return OrderedComplex(sd_base, labels), OrderedComplex(sd_sub, labels)


def collapse_fibers(
    base: OrderedComplex,
    sub: OrderedComplex,
    fiber: OrderedComplex,
    cap: Optional[int] = None,
) -> OrderedComplex:
    """Product of base and fiber with the fibers over sub crushed.

    Builds the staircase product and applies the vertex map
    (v, w) -> v for v in sub, identity elsewhere; degenerate images are
    dropped and duplicates merged.  When sub is not full in base, the
    pair is barycentrically subdivided first so that the identification
    realizes the fiberwise quotient rather than something coarser.
    """
    if not sub.simplices <= base.simplices:
        raise ValueError("sub is not a subcomplex of base")
    if sub.simplices and not is_full_subcomplex(base, sub):
        base, sub = barycentric_pair(base, sub)
    prod_simplices, pair_labels = _product_closure(base, fiber, cap)
    subv = set(sub.vertices)
    classes = []
    for v, w in pair_labels:
        classes.append(("c", v) if v in subv else ("p", v, w))
    distinct = sorted(set(classes))
    class_id = {c: i for i, c in enumerate(distinct)}
    vmap = [class_id[c] for c in classes]
    out = set()
    for s in prod_simplices:
        image = tuple(sorted({vmap[v] for v in s}))
        out.add(image)
    return OrderedComplex(frozenset(out), tuple(distinct))


def homology(k: OrderedComplex) -> HomologyProfile:
    """Integral simplicial homology, betti numbers and torsion.

    Boundary matrices are reduced exactly over the integers; torsion in
    degree d is read from the invariant factors one degree up.
    """
    if not k.simplices:
        return HomologyProfile((), ())
    by_dim: dict[int, list[tuple]] = {}
    for s in k.simplices:
        by_dim.setdefault(len(s) - 1, []).append(s)
    dim = max(by_dim)
    for d in by_dim:
        by_dim[d].sort()
    index = {d: {s: i for i, s in enumerate(by_dim[d])} for d in by_dim}

    ranks = {0: 0}
    factors = {}
    for d in range(1, dim + 1):
        entries = {}
        rows = index[d - 1]
        for col, s in enumerate(by_dim[d]):
            for i in range(len(s)):
                face = s[:i] + s[i + 1 :]
                entries[(rows[face], col)] = -1 if i % 2 else 1
        rk, inv = sparse_rank_and_factors(entries, len(by_dim[d - 1]), len(by_dim[d]))
        ranks[d] = rk
        factors[d] = inv
    ranks[dim + 1] = 0
    factors[dim + 1] = []

    betti = tuple(
        len(by_dim.get(d, ())) - ranks[d] - ranks[d + 1] for d in range(dim + 1)
    )
    torsion = tuple(
        tuple(x for x in factors[d + 1] if x > 1) for d in range(dim + 1)
    )
    return HomologyProfile(betti, torsion)


def boundary_subcomplex_of_polytope(sp: StratifiedPolytope, face_ids):
    """Triangulate the polytope with the selected faces as a subcomplex.

    Pulling triangulation in face-lattice order: each face is the cone
    from its smallest vertex over the already-triangulated facets that
    miss it.  Triangulations therefore restrict compatibly to subfaces,
    and any downward-closed selection of faces is automatically a
    subcomplex of the result.  Only polytope vertices are used.
    """
    lattice = sp.lattice
    ids = set(face_ids)
    sub_of = {f.id: set() for f in lattice.faces}
    for a, b in lattice.containment:
        sub_of[b].add(a)
    for fid in ids:
        if not sub_of[fid] <= ids:
            raise ValueError("selected faces are not downward closed")

    tri: dict[int, set] = {}
    for f in sorted(lattice.faces, key=lambda f: f.dim):
        if f.dim == 0:
            tri[f.id] = {(f.vertex_set[0],)}
            continue
        apex = min(f.vertex_set)
        cells = set()
        for gid in sub_of[f.id]:
            g = lattice.face(gid)
            if g.dim != f.dim - 1 or apex in g.vertex_set:
                continue
            for s in tri[gid]:
                cells.add(tuple(sorted(set(s) | {apex})))
        tri[f.id] = cells
    full = OrderedComplex.from_simplices(tri[lattice.top.id])
    selected = set()
    for fid in ids:
        selected.update(tri[fid])
    sub = (
        OrderedComplex.from_simplices(selected)
        if selected
        else OrderedComplex(frozenset())
    )
    return full, sub


def expected_homology(sub: OrderedComplex, genus: int) -> HomologyProfile:
    """Integral homology of the polytope times a fiber with the fibers
    over sub crushed, by the join rule.

    The polytope P is contractible, so the quotient is the homotopy
    pushout of sub <- sub x F -> F: the join sub * F.  For an empty sub
    nothing is crushed and the quotient has the homology of the fiber,
    the genus-g surface.  A nonempty sub comes with the two-sphere fiber
    (genus 0), and sub * S^2 is the triple suspension of sub, so
    H_m = H~_{m-3}(sub), torsion included, above degree 0.  Trailing
    zero degrees are dropped.
    """
    if not sub.simplices:
        return HomologyProfile((1, 2 * genus, 1), ((),) * 3).trimmed()
    q = homology(sub)
    return HomologyProfile(
        (1, 0, 0, q.betti[0] - 1) + q.betti[1:], ((),) * 3 + q.torsion
    ).trimmed()


@dataclass(frozen=True)
class VerificationCheck:
    name: str
    passed: bool
    computed: HomologyProfile
    expected: HomologyProfile


@dataclass(frozen=True)
class VerificationResult:
    passed: bool
    checks: tuple[VerificationCheck, ...]


def _check(name: str, computed: HomologyProfile, expected: HomologyProfile) -> VerificationCheck:
    """Betti numbers and torsion must agree, up to trailing zero degrees."""
    return VerificationCheck(name, computed.trimmed() == expected.trimmed(), computed, expected)


def verify_report(report: TopologyReport, max_simplices: int = 200000) -> VerificationResult:
    """Homology check of the classifier's claim on an explicit model.

    Builds the collapsed-product model of the quotient and compares its
    integral homology, torsion included, with the profile the join rule
    (`expected_homology`) derives from the short locus; the same rule
    covers every verdict.  For boundary-short sphere verdicts the
    independent join model is computed as well and both must agree.
    Homology equality is a necessary condition only, and a mismatch
    signals a bug in the models, not a refutation.
    """
    if isinstance(report.verdict, StratificationOnly):
        raise ValueError("nothing to verify: the verdict is stratification-only")
    sp = report.stratification
    full, sub = boundary_subcomplex_of_polytope(sp, sp.short_faces)
    verdict = report.verdict
    genus = verdict.genus if isinstance(verdict, ProductPolytopeSurface) else 0
    fiber = surface_complex(genus)
    computed = homology(collapse_fibers(full, sub, fiber, cap=max_simplices))
    expected = expected_homology(sub, genus)

    checks = [_check("quotient-homology", computed, expected)]
    if isinstance(verdict, Sphere) and report.join_presentation:
        join_h = homology(join(sub, fiber))
        checks.append(_check("join-homology", join_h, expected))
        checks.append(_check("models-agree", computed, join_h))

    return VerificationResult(all(c.passed for c in checks), tuple(checks))
