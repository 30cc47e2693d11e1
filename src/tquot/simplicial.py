"""Finite ordered simplicial complexes and exact integral homology.

Products use the staircase triangulation, whose simplices are the
monotone chains in the product of the vertex orders; both projections
are then simplicial, which is what makes the fiber collapse below a
genuine quotient.

Fiber collapse realizes the coequalizer of sub x fiber moving into
base x fiber and projecting onto sub.  On the level of complexes this
is the vertex identification (v, w) -> v for v in the collapsed part,
which realizes the topological quotient provided the collapsed part is
a full subcomplex of the base.  The polytope is triangulated so that
the short locus is full: faces whose vertices are all short are coned
from new vertices.  For a pair where the part is not full, one
barycentric subdivision makes it so (a subdivided subcomplex is always
full), and the identification is performed there.  Skipping that step
over-collapses: an interval with both endpoints short would flatten to
an edge instead of suspending the fiber.  The product is never built:
the model's top simplices are the crushed part of a base top joined
with a staircase path over its other vertices, and the product is only
counted, from face numbers, for the size cap.

The homology a verification expects comes from one rule for every
verdict.  The polytope is contractible, so the collapsed product is
homotopy equivalent to the join of the short locus Q with the fiber:
the fiber itself when Q is empty, the triple suspension of Q when the
fiber is the two-sphere (Milnor's join, Ann. Math. 63, 1956).  Only the
small complex Q is ever put through homology for it.

Integral homology runs in three stages.  Coreduction first: after one
seed vertex is removed, a cell with a single face left in its boundary
is removed together with that face, which changes no homology group
(Mrozek & Batko, "Coreduction homology algorithm", DCG 42, 2009); the
closed verification models shrink to a cell or a few hundred.  The
boundary matrices restricted to the surviving cells then go through
the unit-pivot sweep of `exactq.sparse_rank_and_factors`, and whatever
that leaves through the dense Smith normal form.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Iterable

from tquot.classify import ProductPolytopeSurface, StratificationOnly, TopologyReport
from tquot.exactq import sparse_rank_and_factors
from tquot.hamspace import StratifiedPolytope


# default cap of `verify_report` and `tquot verify --max-simplices`
MAX_SIMPLICES = 200000


class SizeCapExceeded(RuntimeError):
    """The staircase product a verification model is collapsed from has
    more simplices than the cap.  `estimate` is its exact size, counted
    from the face numbers before anything is built."""

    def __init__(self, estimate: int, cap: int):
        super().__init__(f"the product to collapse has {estimate} simplices, over the cap {cap}")
        self.estimate = estimate
        self.cap = cap


@dataclass(frozen=True)
class OrderedComplex:
    simplices: frozenset

    @staticmethod
    def from_simplices(simplices: Iterable[tuple]) -> "OrderedComplex":
        """Close the given simplices downward and validate them."""
        closed = set()
        for s in simplices:
            s = tuple(s)
            if any(a >= b for a, b in zip(s, s[1:])):
                raise ValueError(f"simplex {s} is not strictly increasing")
            for k in range(1, len(s) + 1):
                closed.update(combinations(s, k))
        return OrderedComplex(frozenset(closed))

    @property
    def vertices(self) -> tuple:
        return tuple(sorted({v for s in self.simplices for v in s}))

    @property
    def simplex_count(self) -> int:
        return len(self.simplices)

    @property
    def face_numbers(self) -> Counter:
        """The number of simplices of each dimension."""
        return Counter(len(s) - 1 for s in self.simplices)

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


def surface_face_numbers(g: int) -> Counter:
    """The face numbers of `surface_complex(g)`, without building it:
    each torus summed on adds (7, 21, 14) less the glued triangle's
    vertices, edges and the two triangles removed, (4, 18, 12)."""
    if g == 0:
        return Counter({0: 4, 1: 6, 2: 4})
    return Counter({0: 4 * g + 3, 1: 18 * g + 3, 2: 12 * g + 2})


def _paths(rows: list, cols: list):
    """The staircase paths through rows x cols: the monotone lattice
    paths from the first pair to the last, each pair as row + col."""
    steps = len(rows) + len(cols) - 2
    for up in combinations(range(steps), len(rows) - 1):
        i, path = 0, []
        for s in range(steps + 1):
            path.append(rows[i] + cols[s - i])
            i += s in up
        yield path


def product_size(fk: Counter, fl: Counter) -> int:
    """Number of simplices of the staircase product of two complexes,
    from their face numbers fk and fl (dimension -> count).

    Each product simplex projects onto an i-simplex of one and a
    j-simplex of the other, and over each such pair lie D(i, j) of them,
    the Delannoy number sum_t C(i, t) C(j, t) 2^t.
    """
    return sum(
        a * b * comb(i, t) * comb(j, t) * 2**t
        for i, a in fk.items()
        for j, b in fl.items()
        for t in range(min(i, j) + 1)
    )


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
    return OrderedComplex(frozenset(out))


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
    return OrderedComplex(sd_base), OrderedComplex(sd_sub)


def collapse_fibers(
    base: OrderedComplex, sub: OrderedComplex, fiber: OrderedComplex
) -> OrderedComplex:
    """Product of base and fiber with the fibers over sub crushed.

    The image of the staircase product under (v, w) -> v for v in sub,
    the identity elsewhere, built from its top simplices alone.  Sub is
    full, so a top sigma of base meets it in a simplex S; let N be the
    rest.  Each staircase path through sigma x tau maps into S joined
    with a staircase path through N x tau, the image of the path taking
    all its tau-steps in N rows (S alone when N is empty).  Vertices are
    numbered as the sorted classes: sub's vertices, then the pairs
    (v, w) over the rest of base, lexicographically.  When sub is not
    full in base, the pair is barycentrically subdivided first so that
    the identification realizes the fiberwise quotient rather than
    something coarser; the short locus is full in
    `boundary_subcomplex_of_polytope`, so verification never subdivides.
    """
    if not sub.simplices <= base.simplices:
        raise ValueError("sub is not a subcomplex of base")
    if sub.simplices and not is_full_subcomplex(base, sub):
        base, sub = barycentric_pair(base, sub)
    crushed = {v: i for i, v in enumerate(sub.vertices)}
    col = {w: j for j, w in enumerate(fiber.vertices)}
    others = (v for v in base.vertices if v not in crushed)
    row = {v: len(crushed) + i * len(col) for i, v in enumerate(others)}
    taus = [[col[w] for w in tau] for tau in fiber.maximal_simplices()]
    tops = []
    for sigma in base.maximal_simplices() if taus else ():
        head = [crushed[v] for v in sigma if v in crushed]
        rows = [row[v] for v in sigma if v not in crushed]
        paths = (path for cols in taus for path in _paths(rows, cols)) if rows else [[]]
        tops.extend(head + path for path in paths)
    return OrderedComplex.from_simplices(tops)


def _coreduce(cells: list) -> tuple[list, list]:
    """Boundary lists of the sorted cells, and which cells survive
    coreduction.

    faces[c][i] is cell c with its vertex i deleted.  The seed, cell 0
    (the smallest vertex), is removed first; a FIFO queue then removes
    each live cell that has exactly one live face together with that
    face.  In a simplicial boundary that coefficient is +-1, so the pair
    carries no homology, and the boundary restricted to the live cells
    is that of a chain complex with the homology of the complex
    relative to the seed (Mrozek & Batko, DCG 42, 2009).
    """
    face_id = {s: c for c, s in enumerate(cells)}.__getitem__
    # combinations deletes the last vertex first
    faces = [
        tuple(map(face_id, combinations(s, len(s) - 1)))[::-1] if len(s) > 1 else ()
        for s in cells
    ]
    cofaces = [[] for _ in cells]
    for c, fs in enumerate(faces):
        for f in fs:
            cofaces[f].append(c)
    live = [True] * len(cells)
    live_faces = [len(fs) for fs in faces]
    queue = deque()

    def remove(c):
        live[c] = False
        for u in cofaces[c]:
            if live[u]:
                live_faces[u] -= 1
                queue.append(u)

    remove(0)
    while queue:
        c = queue.popleft()
        if live[c] and live_faces[c] == 1:
            t = next(f for f in faces[c] if live[f])
            remove(c)
            remove(t)
    return faces, live


def homology(k: OrderedComplex) -> HomologyProfile:
    """Integral simplicial homology, betti numbers and torsion.

    Coreduction (`_coreduce`) first, then elimination: the boundary
    restricted to the surviving cells goes, degree by degree, to
    `sparse_rank_and_factors` (a unit-pivot sweep, then the Smith
    residue).  Torsion in degree d is read from the invariant factors
    one degree up, and the removed seed is added back to H_0.
    """
    if not k.simplices:
        return HomologyProfile((), ())
    cells = sorted(k.simplices)  # cell 0 is the smallest vertex, the seed
    faces, live = _coreduce(cells)
    dim = max(map(len, cells)) - 1
    survivors: list[list[int]] = [[] for _ in range(dim + 1)]
    position = [0] * len(cells)
    for c, s in enumerate(cells):
        if live[c]:
            group = survivors[len(s) - 1]
            position[c] = len(group)
            group.append(c)
    ranks = [0] * (dim + 2)
    factors = [[] for _ in range(dim + 2)]
    for d in range(1, dim + 1):
        entries = {
            (position[f], col): -1 if i % 2 else 1
            for col, c in enumerate(survivors[d])
            for i, f in enumerate(faces[c])
            if live[f]
        }
        nrows, ncols = len(survivors[d - 1]), len(survivors[d])
        ranks[d], factors[d] = sparse_rank_and_factors(entries, nrows, ncols)

    betti = [len(survivors[d]) - ranks[d] - ranks[d + 1] for d in range(dim + 1)]
    betti[0] += 1  # the seed
    torsion = tuple(
        tuple(x for x in factors[d + 1] if x > 1) for d in range(dim + 1)
    )
    return HomologyProfile(tuple(betti), torsion)


def boundary_subcomplex_of_polytope(sp: StratifiedPolytope, face_ids):
    """Triangulate the polytope with the selected faces as a full subcomplex.

    In face-lattice order, each face is the cone from an apex over the
    already-triangulated facets that miss it, among the faces it covers:
    a selected face is pulled from its smallest vertex, any other face
    from its smallest unselected vertex, or, when it has none, coned
    from a new vertex, id len(polytope vertices) + face id.  So any
    downward-closed selection (checked along covers) is a subcomplex,
    and since no apex of an unselected face is a selected vertex, the
    selected vertices of every simplex span a selected simplex: the
    selection is full.  With nothing selected no new vertex is used.
    """
    lattice = sp.lattice
    ids = set(face_ids)
    sub_of = {f.id: set() for f in lattice.faces}
    for a, b in lattice.covers:
        sub_of[b].add(a)
    for fid in ids:
        if not sub_of[fid] <= ids:
            raise ValueError("selected faces are not downward closed")
    selected_vertices = {f.vertex_set[0] for f in map(lattice.face, ids) if f.dim == 0}

    tri: dict[int, set] = {}
    for f in sorted(lattice.faces, key=lambda f: f.dim):
        if f.dim == 0:
            tri[f.id] = {(f.vertex_set[0],)}
            continue
        if f.id in ids:
            apex = min(f.vertex_set)
        else:
            free = (v for v in f.vertex_set if v not in selected_vertices)
            apex = min(free, default=len(sp.polytope.vertices) + f.id)
        cells = set()
        for gid in sub_of[f.id]:
            if apex in lattice.face(gid).vertex_set:
                continue
            for s in tri[gid]:
                cells.add(tuple(sorted(set(s) | {apex})))
        tri[f.id] = cells
    full = OrderedComplex.from_simplices(tri[lattice.top.id])
    sub = OrderedComplex.from_simplices(s for fid in ids for s in tri[fid])
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


def verify_report(report: TopologyReport, max_simplices: int = MAX_SIMPLICES) -> VerificationResult:
    """Homology check of the classifier's claim on an explicit model.

    Builds the collapsed-product model of the quotient and compares its
    integral homology, torsion included, with the profile the join rule
    (`expected_homology`) derives from the short locus; the same rule
    covers every verdict.  For boundary-short sphere verdicts the join
    model must agree as well; there the coned model is that join,
    simplex for simplex, so its homology is computed only when the two
    complexes differ, and otherwise the model's profile is reused: the
    check gives no independent evidence.
    Homology equality is a necessary condition only, and a mismatch
    signals a bug in the models, not a refutation.  A staircase product
    (`product_size`) over max_simplices raises SizeCapExceeded before
    the fiber or the model is built.
    """
    if isinstance(report.verdict, StratificationOnly):
        raise ValueError("nothing to verify: the verdict is stratification-only")
    sp = report.stratification
    full, sub = boundary_subcomplex_of_polytope(sp, sp.short_faces)
    verdict = report.verdict
    genus = verdict.genus if isinstance(verdict, ProductPolytopeSurface) else 0
    if (size := product_size(full.face_numbers, surface_face_numbers(genus))) > max_simplices:
        raise SizeCapExceeded(size, max_simplices)
    fiber = surface_complex(genus)
    model = collapse_fibers(full, sub, fiber)
    computed = homology(model)
    expected = expected_homology(sub, genus)

    checks = [_check("quotient-homology", computed, expected)]
    if report.join_presentation:
        presented = join(sub, fiber)
        join_h = computed if presented.simplices == model.simplices else homology(presented)
        checks.append(_check("join-homology", join_h, expected))
        checks.append(_check("models-agree", computed, join_h))

    return VerificationResult(all(c.passed for c in checks), tuple(checks))
