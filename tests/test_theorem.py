"""The paper's theorem as a seeded property, beyond the gallery.

Complexity-one specs come from two gallery builders with random integer
weights: (S^2)^(d+1) under T^d for d <= 2, and CP^n under T^(n-1) for
n <= 3.  Each is also put under a C8 transform: a random unimodular map
of weights and moments, then a positive rational scale and a rational
shift of the moments.  General position of the weights at every fixed
point holds exactly when every proper face is short (C3's equivalence),
and then the quotient is the sphere S^(n+1).  A draw that is not generic
collapses part of the product, or is a four-manifold whose one fixed
sphere makes the quotient a three-disk.  Every draw passes `verify`, and
the face complexities, the verdict and the homology do not move under
the transform.
"""

import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction

from tquot.classify import Verdict, classify
from tquot.gallery import GalleryError, projective_space, sphere_product
from tquot.hamspace import general_position
from tquot.simplicial import verify_report

DRAWS = 40


def _weights(rng, count, rank):
    return [tuple(rng.randint(-2, 2) for _ in range(rank)) for _ in range(count)]


def _draw(rng):
    """(family, spec): a random complexity-one sphere product or
    projective space."""
    while True:
        try:
            if rng.random() < 0.5:
                d = rng.randint(1, 2)
                family, spec = "sphere-product", sphere_product(_weights(rng, d + 1, d), d)
            else:
                n = rng.randint(2, 3)
                family, spec = "projective-space", projective_space(_weights(rng, n + 1, n - 1))
        except GalleryError:
            continue  # a zero factor weight, or three coordinates sharing a weight
        if spec.polytope.dim == spec.half_dim - 1:
            return family, spec


def _unimodular(rng, r):
    """A signed identity under a few elementary row operations."""
    m = [[rng.choice((-1, 1)) if i == j else 0 for j in range(r)] for i in range(r)]
    for _ in range(4):
        a, b = rng.randrange(r), rng.randrange(r)
        if a != b:
            q = rng.randint(-2, 2)
            m[a] = [x + q * y for x, y in zip(m[a], m[b])]
    return m


def _transform(rng, spec):
    r = spec.torus_rank
    u = _unimodular(rng, r)
    scale = Fraction(rng.randint(1, 6), rng.randint(1, 4))
    shift = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(r)]

    def apply(v):
        return tuple(sum(a * x for a, x in zip(row, v)) for row in u)

    comps = tuple(
        replace(
            c,
            moment=tuple(scale * x + s for x, s in zip(apply(c.moment), shift)),
            weights=tuple(apply(w) for w in c.weights),
        )
        for c in spec.components
    )
    return replace(spec, components=comps)


def _checked(spec):
    """Classify and verify one spec, assert the theorem on it, and
    return what a C8 transform must leave unchanged."""
    report = classify(spec)
    sp = report.stratification
    assert report.validation.ok and sp.complexity == 1
    generic = general_position(spec).overall
    proper = {f.id for f in sp.lattice.proper_faces()}
    assert generic == (set(sp.short_faces) == proper)
    if generic:
        assert report.verdict == Verdict("sphere", dim=spec.half_dim + 1)
        assert report.provenance == "boundary-short-sphere"
    else:
        assert report.provenance in ("partial-collapse", "four-manifold-endpoint-disk")
    result = verify_report(report)
    assert result.passed
    verdict = report.verdict
    if verdict.type == "collapsed-product":
        verdict = len(verdict.short_face_ids)  # face ids follow the vertex order
    faces = sorted((f.dim, sp.face_complexity[f.id]) for f in sp.lattice.faces)
    homology = [(c.name, c.computed) for c in result.checks]
    return generic, report.provenance, verdict, faces, homology


def test_general_position_decides_the_sphere_on_random_weights():
    rng = random.Random(20180417)
    seen = Counter()
    for _ in range(DRAWS):
        family, spec = _draw(rng)
        invariants = _checked(spec)
        assert _checked(_transform(rng, spec)) == invariants, spec
        seen[family, invariants[0]] += 1
    # both families, generic and not
    assert min(seen.values()) >= 3 and len(seen) == 4, seen
