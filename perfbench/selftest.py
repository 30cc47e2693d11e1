"""Self-test of the benchmark: seeding, span wrapper and traced rounds.

    python3 perfbench/selftest.py        (about a minute)

It checks that one seed gives byte-identical spec files and another
seed different moments; that span self times add up; that the wrapper
reaches every namespace holding a wrapped function and leaves it as it
found it; and, on every workload, that traced and untraced rounds print
byte-identical JSON, that two traced rounds give identical per-op
counts, and that each span gets a call on the workload meant to
exercise it.
"""

from __future__ import annotations

import itertools
import os
import shutil
import sys
import tempfile
import unittest
from pathlib import Path

import run
import spans
import workloads

sys.path.insert(0, str(run.SRC))

# the workload on which each span must be called at least once
EXERCISED_BY = {
    "cli.main": "reject",
    "cli.load_spec": "reject",
    "gallery.build": "gallery",
    "gallery.coadjoint_orbit": "hull-heavy",
    "gallery.sphere_product": "verify-heavy",
    "gallery.projective_space": "verify-heavy",
    "classify.classify": "gallery",
    "hamspace.validate": "hull-heavy",
    "hamspace.stratify": "hull-heavy",
    "polytope.convex_hull": "hull-heavy",
    "polytope.face_lattice": "hull-heavy",
    "polytope.in_cone": "hull-heavy",
    "exactq.rank": "hull-heavy",
    "exactq.sparse_rank_and_factors": "verify-heavy",
    # Unit pivots clear every boundary matrix of every workload today, so
    # no residual block reaches the dense Smith routine; InstallTest calls
    # this wrapper directly instead.
    "exactq.smith_normal_form": None,
    "simplicial.verify_report": "verify-heavy",
    "simplicial.collapse_fibers": "verify-heavy",
    "simplicial.barycentric_pair": "verify-heavy",
    "simplicial.homology": "verify-heavy",
    "simplicial.join": "verify-heavy",
}


def _files(directory):
    return {p.name: p.read_bytes() for p in sorted(Path(directory).iterdir())}


class Scratch(unittest.TestCase):
    def setUp(self):
        run.WORK.mkdir(exist_ok=True)
        self.tmp = tempfile.mkdtemp(dir=run.WORK)

    def tearDown(self):
        shutil.rmtree(self.tmp, ignore_errors=True)
        try:
            run.WORK.rmdir()
        except OSError:
            pass

    def subdir(self, name):
        path = os.path.join(self.tmp, name)
        os.mkdir(path)
        return path


class SeedTest(Scratch):
    def test_same_seed_same_files_other_seed_other_specs(self):
        for workload in workloads.WORKLOADS:
            dirs = [self.subdir(f"{workload}-{i}") for i in range(3)]
            defects = []
            for d, seed in zip(dirs, (7, 7, 8)):
                cases = run.set_up(workload, seed, d)[2]
                defects.append({c.label: c.known_defect for c in cases})
            # the cases that hit a known defect, hence `failed` per round,
            # do not depend on the seed
            self.assertEqual(defects[0], defects[2], workload)
            first, again, other = (_files(d) for d in dirs)
            self.assertEqual(first, again, workload)
            self.assertEqual(first.keys(), other.keys(), workload)
            self.assertTrue(all(first[k] != other[k] for k in first if workload != "reject"), workload)
            self.assertNotEqual(first, other, workload)


class TracerTest(unittest.TestCase):
    def test_self_time_is_duration_minus_children(self):
        ticks = itertools.count()
        tracer = spans.Tracer(clock=lambda: float(next(ticks)))
        inner = tracer.wrap("t.inner", lambda: None)

        def body():
            inner()
            inner()

        outer = tracer.wrap("t.outer", body)
        outer()  # outer 0..5, inner 1..2 and 3..4
        trace = tracer.take()
        self.assertEqual(trace.calls, {"t.outer": 1, "t.inner": 2})
        self.assertEqual(trace.total, {"t.outer": 5.0, "t.inner": 2.0})
        self.assertEqual(trace.own, {"t.outer": 3.0, "t.inner": 2.0})
        self.assertEqual(tracer.take().calls, {})

    def test_span_closes_when_the_call_raises(self):
        tracer = spans.Tracer()

        def fail():
            raise ValueError("boom")

        wrapped = tracer.wrap("t.fail", fail)
        with self.assertRaises(ValueError):
            wrapped()
        self.assertEqual(tracer.take().calls, {"t.fail": 1})


class InstallTest(Scratch):
    def test_install_reaches_every_namespace_and_uninstall_restores(self):
        run.set_up("gallery", 1, self.tmp)
        tq = sys.modules
        before = {name: dict(vars(tq[name])) for name in tq if name.split(".")[0] == "tquot"}
        tracer = spans.Tracer()
        installed = spans.install(tracer)
        self.assertEqual(spans.unwrapped_references(), [])
        # names imported by value are wrapped where they were imported
        for ns, attr in [
            ("tquot.simplicial", "sparse_rank_and_factors"),
            ("tquot.hamspace", "convex_hull"),
            ("tquot.hamspace", "rank"),
            ("tquot.classify", "stratify"),
            ("tquot.classify", "validate"),
            ("tquot.cli", "validate"),
            ("tquot.cli", "verify_report"),
            ("tquot", "classify"),
        ]:
            self.assertTrue(hasattr(getattr(tq[ns], attr), "__wrapped_by_perfbench__"), (ns, attr))
        # the tquot.classify module, not the function the package rebinds
        self.assertIs(tq["tquot.classify"].classify, tq["tquot"].classify)
        snf = tq["tquot.exactq"].smith_normal_form
        snf([[2, 0], [0, 3]])
        trace = tracer.take()
        self.assertEqual(trace.calls["exactq.smith_normal_form"], 1)
        self.assertEqual(trace.sizes["snf_residual_cells"], 4)
        spans.uninstall(installed)
        after = {name: dict(vars(tq[name])) for name in before}
        self.assertEqual(after, before)


class WorkloadTraceTest(Scratch):
    """One untraced and two traced rounds of each workload."""

    def check_workload(self, workload):
        tracer = spans.Tracer()
        _, cli, cases, installed, built = run.set_up(workload, 3, self.tmp, tracer)
        spans.uninstall(installed)
        tally = run.Tally()
        outputs, counts = {}, {}
        run.run_round(cli, cases, tally, outputs=outputs)
        installed = spans.install(tracer)
        total = spans.OpTrace()
        total.add(built)
        try:
            for _ in range(2):
                trace, problems = run.run_round(cli, cases, tally, tracer, outputs, counts)
                self.assertEqual(problems, [], workload)
                total.add(trace)
        finally:
            spans.uninstall(installed)
        self.assertEqual(len(counts), len(cases) * len(workloads.OPS))
        self.assertEqual(tally.unexpected(), [], workload)
        if workload != "reject":
            self.assertEqual(tally.failures, [], workload)
        for name, meant_for in EXERCISED_BY.items():
            if meant_for == workload:
                self.assertGreater(total.calls[name], 0, f"{name} on {workload}")

    def test_gallery(self):
        self.check_workload("gallery")

    def test_verify_heavy(self):
        self.check_workload("verify-heavy")

    def test_hull_heavy(self):
        self.check_workload("hull-heavy")

    def test_reject(self):
        self.check_workload("reject")

    def test_every_span_is_meant_for_a_workload(self):
        named = {f"{layer}.{fn}" for layer, fns in spans.SPANS.items() for fn in fns}
        self.assertEqual(named, set(EXERCISED_BY))


if __name__ == "__main__":
    unittest.main(verbosity=2)
