"""Which types of the package are dataclasses, and what its records keep.

A frozen dataclass generates and execs six methods when its class is
built, 0.6-0.75 ms a class on CPython 3.11, and every import of the
program pays for it; a `typing.NamedTuple` takes about a quarter of that.
So the plain immutable records are NamedTuples, and a type stays a
dataclass only for a reason a tuple cannot meet, given in DATACLASSES.
The test fails when a dataclass is added without a reason, and when a
listed one is no longer a dataclass or no longer exists, so that the
list stays true.

A record is immutable, copied with `_replace` and compares as a tuple:
equal to any tuple with the same items.  The tests below pin what the
program relies on: a record refuses assignment, records of one type
compare field for field, and a verdict never equals a verdict of
another type, since its type is its first field.
"""

import dataclasses
import importlib
import pkgutil

import pytest

import tquot
from tquot import gallery
from tquot.classify import Verdict, classify
from tquot.hamspace import CheckResult, general_position
from tquot.polytope import Face
from tquot.simplicial import HomologyProfile, homology, simplex_boundary_sphere, verify_report

# the dataclasses of the package, by module and name, each with its reason
DATACLASSES = {
    "hamspace.FixedComponent": "perfbench/workloads.py and the tests copy it with"
    " dataclasses.replace",
    "hamspace.HamSpec": "caches its polytope, weight table and face readings with cached_property,"
    " which needs an instance __dict__; perfbench/workloads.py and the tests copy it with"
    " dataclasses.replace",
    "polytope.RationalPolytope": "caches its face lattice with cached_property, which needs an"
    " instance __dict__; test_hamspace writes that cache",
}


def package_types() -> dict:
    """"module.name" -> every class defined in a module of the package."""
    found = {}
    for info in pkgutil.iter_modules(tquot.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"tquot.{info.name}")
        for name, value in vars(module).items():
            if isinstance(value, type) and value.__module__ == module.__name__:
                found[f"{info.name}.{name}"] = value
    return found


def test_dataclasses_are_exactly_the_listed_ones():
    found = {name for name, cls in package_types().items() if dataclasses.is_dataclass(cls)}
    assert found == set(DATACLASSES)


def record_instances() -> list:
    """One instance of each record type, from a classified and verified
    gallery specimen."""
    spec = gallery.build("gr2c4")
    report = classify(spec)
    sp = report.stratification
    verification = verify_report(report)
    return [
        report,
        report.verdict,
        sp,
        sp.lattice,
        sp.lattice.top,
        report.validation,
        report.validation.checks[0],
        spec.face_readings[sp.lattice.top.id][0],
        next(iter(spec.weight_table.values())),
        general_position(spec),
        verification,
        verification.checks[0],
        simplex_boundary_sphere(2),
        homology(simplex_boundary_sphere(2)),
        gallery.root_system("A", 2),
        gallery.CATALOG["gr2c4"],
    ]


RECORDS = record_instances()


def test_every_record_type_has_an_instance_here():
    records = {name for name, cls in package_types().items() if issubclass(cls, tuple)}
    assert {f"{type(r).__module__.split('.')[1]}.{type(r).__name__}" for r in RECORDS} == records


@pytest.mark.parametrize("record", RECORDS, ids=[type(r).__name__ for r in RECORDS])
def test_records_refuse_assignment(record):
    field = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.extra = None


def test_verdicts_of_different_types_never_compare_equal():
    assert Verdict("sphere", dim=3) != Verdict("disk", dim=3)
    assert Verdict("product-polytope-surface", genus=0) != Verdict("sphere", dim=0)
    assert Verdict("collapsed-product", short_face_ids=(1,), fiber="S2") != ((1,), "S2")
    assert Verdict("sphere", dim=3) == Verdict("sphere", dim=3)
    assert Verdict("sphere", dim=3) != Verdict("sphere", dim=4)


def test_records_compare_field_for_field():
    assert HomologyProfile((1, 0, 1), ((), (), ())) == HomologyProfile((1, 0, 1), ((), (), ()))
    assert HomologyProfile((1, 0, 1), ((), (), ())) != HomologyProfile((1, 0, 1), ((), (2,), ()))
    assert CheckResult("V1-structural", True) == CheckResult("V1-structural", True, "")
    assert CheckResult("V1-structural", True) != CheckResult("V1-structural", False)
    face, same = Face(0, 0, (0,), 0b110), Face(0, 0, (0,), 1 << 2 | 1 << 1)
    assert face == same and hash(face) == hash(same)
    assert face != face._replace(facets=0b10)
