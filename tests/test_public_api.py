"""The package's public names, pinned.

A name added to or dropped from `tquot.__all__` has to change this list
too, so API that was trimmed because only tests used it cannot come back
unnoticed.
"""

import tquot

PUBLIC = [
    "FixedComponent",
    "HamSpec",
    "HomologyProfile",
    "OrderedComplex",
    "RationalPolytope",
    "SpecError",
    "StratifiedPolytope",
    "TopologyReport",
    "classify",
    "convex_hull",
    "face_lattice",
    "general_position",
    "homology",
    "point_component",
    "stratify",
    "surface_component",
    "validate",
    "verify_report",
]


def test_all_is_pinned():
    assert sorted(tquot.__all__) == PUBLIC


def test_every_public_name_resolves():
    missing = [name for name in tquot.__all__ if getattr(tquot, name, None) is None]
    assert not missing
