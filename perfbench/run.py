"""Closed-loop benchmark of `tquot classify` and `tquot verify`.

One client, one process: the benchmark calls
`tquot.cli.main([op, spec, "--format", "json"])` in-process and sends
the next op only when the previous one has returned.  The loop runs
whole rounds (every case of the workload through `classify`, then
`verify`) until --seconds have passed, so each case carries the same
weight whatever the run length.  Every op's exit code and JSON are
checked against the oracle in workloads.py.

    python3 perfbench/run.py --workload gallery --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 25 --trace 0

--trace 0 reports the end-to-end metrics, with times rescaled to a
nominal machine speed (speed.py).  --trace 1 alternates untraced and traced rounds and
reports the per-layer metrics (spans.py).  The last line of stdout is
the JSON result; the lines above it are the human-readable report.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import spans
import speed
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 5
P90_MIN_SAMPLES = 100


def _purge_tquot():
    for name in [n for n in sys.modules if n == "tquot" or n.startswith("tquot.")]:
        del sys.modules[name]


def set_up(workload, seed, workdir, tracer=None):
    """Import the program afresh, generate the specs and export them.
    Returns ((start, end), cli module, cases, wrappers installed,
    gallery trace)."""
    _purge_tquot()
    start = time.perf_counter()
    cli = importlib.import_module("tquot.cli")
    installed = spans.install(tracer) if tracer else []
    cases = workloads.generate(workload, seed, workdir)
    end = time.perf_counter()
    built = tracer.take() if tracer else None
    return (start, end), cli, cases, installed, built


def run_op(cli, op, case):
    """One op through the CLI; returns (exit code or error, stdout, start, end)."""
    out, err = io.StringIO(), io.StringIO()
    # a fresh `tquot` process starts with nothing for the cyclic
    # collector to scan; without this an op pays for its predecessor's
    # garbage
    gc.collect()
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main([op, case.path, "--format", "json"])
    except SystemExit as exc:
        rc = f"SystemExit({exc.code})"
    except Exception as exc:  # an op that raises counts as failed; the loop goes on
        rc = f"raised {type(exc).__name__}: {exc}"
    return rc, out.getvalue(), start, time.perf_counter()


class Tally:
    """Op outcomes and timings of the measured rounds."""

    def __init__(self):
        self.ops = []  # (case label, op, start, end)
        self.attempted = 0
        self.failures = []  # (case, op, reason)
        self.round_seconds = []

    def record(self, case, op, rc, stdout, start, end):
        self.attempted += 1
        self.ops.append((case.label, op, start, end))
        try:
            reason = workloads.check(case, op, rc, stdout)
        except (KeyError, TypeError, AttributeError, ValueError) as exc:
            reason = f"malformed output: {exc!r}"
        if reason is not None:
            self.failures.append((case, op, reason))

    def unexpected(self):
        return [f for f in self.failures if f[0].known_defect is None]


def run_round(cli, cases, tally, tracer=None, outputs=None, counts=None):
    """Every case through classify then verify.  Untraced, it stores each
    op's exit code and stdout in `outputs`; traced, it checks them
    against `outputs` byte for byte, and each op's counts against
    `counts` from an earlier traced round.  Returns (trace, problems)."""
    start = time.perf_counter()
    total = spans.OpTrace()
    problems = []
    for case in cases:
        for op in workloads.OPS:
            rc, stdout, op_start, op_end = run_op(cli, op, case)
            tally.record(case, op, rc, stdout, op_start, op_end)
            key = (case.label, op)
            if tracer is None:
                if outputs is not None:
                    outputs[key] = (rc, stdout)
                continue
            trace = tracer.take()
            total.add(trace)
            if outputs is not None and outputs.get(key) != (rc, stdout):
                problems.append(f"{case.label} {op}: traced output differs from untraced")
            if counts is not None:
                if key in counts and counts[key] != trace.counts():
                    problems.append(f"{case.label} {op}: counts differ between traced rounds")
                counts.setdefault(key, trace.counts())
    tally.round_seconds.append(time.perf_counter() - start)
    return total, problems


def _quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _src_lines():
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in (SRC / "tquot").glob("*.py"))


def _commit():
    """HEAD of the checkout when it is a git work tree, read without git."""
    try:
        ref = (ROOT / ".git" / "HEAD").read_text().strip()
        if ref.startswith("ref: "):
            ref = (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref[:12]
    except OSError:
        return "unknown"


def measure(workload, seed, seconds, traced):
    """One benchmark run; returns (report lines, result dict)."""
    workdir = WORK / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        if traced:
            return _measure_traced(workload, seed, seconds, str(workdir))
        with speed.Sampler() as sampler:
            setups, cases, tally = _measure_untraced(workload, seed, seconds, str(workdir))
        lines = [_header(workload, seed, seconds, False, cases)]
        metrics = _end_to_end(sampler, setups, tally, lines)
        return lines, _result(tally, [], lines, metrics)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it


def _header(workload, seed, seconds, traced, cases):
    return (
        f"workload {workload}  seed {seed}  seconds {seconds}  trace {int(traced)}  "
        f"cases {len(cases)}  python {platform.python_version()}  nproc {os.cpu_count()}  "
        f"commit {_commit()}"
    )


def _result(tally, problems, lines, metrics):
    lines += _failure_report(tally)
    lines += [f"problem: {p}" for p in problems[:20]]
    return {
        "correct": not tally.unexpected() and not problems,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": metrics,
    }


def _measure_untraced(workload, seed, seconds, workdir):
    setups = []
    for _ in range(SETUP_REPEATS):
        interval, cli, cases, _, _ = set_up(workload, seed, workdir)
        setups.append(interval)
    tally = Tally()
    deadline = time.perf_counter() + seconds
    while not tally.round_seconds or time.perf_counter() < deadline:
        run_round(cli, cases, tally)
    return setups, cases, tally


def _measure_traced(workload, seed, seconds, workdir):
    tracer = spans.Tracer()
    built_ms, installed = [], []
    for _ in range(SETUP_REPEATS):
        spans.uninstall(installed)
        _, cli, cases, installed, built = set_up(workload, seed, workdir, tracer)
        built_ms.append(spans.gallery_ms(built))
    spans.uninstall(installed)
    # untraced and traced rounds alternate, so both see the same
    # warm-up; the first untraced round gives the reference outputs
    tally = Tally()
    problems = []
    outputs, counts, total = {}, {}, spans.OpTrace()
    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        if len(untraced) <= len(traced):
            run_round(cli, cases, tally, outputs=None if untraced else outputs)
            untraced.append(tally.round_seconds[-1])
            continue
        installed = spans.install(tracer)
        problems += [f"unwrapped: {leak}" for leak in spans.unwrapped_references()]
        try:
            trace, found = run_round(cli, cases, tally, tracer, outputs, counts)
        finally:
            spans.uninstall(installed)
        traced.append(tally.round_seconds[-1])
        total.add(trace)
        problems += found
    traced_ops = len(cases) * len(workloads.OPS) * len(traced)
    lines = [_header(workload, seed, seconds, True, cases)]
    lines.append(f"rounds: {len(untraced)} untraced, {len(traced)} traced ({traced_ops} traced ops)")
    metrics = {
        name: {"value": value, "unit": unit}
        for name, (value, unit) in spans.per_layer_metrics(total, traced_ops).items()
    }
    metrics["gallery.build_ms"] = {"value": statistics.median(built_ms), "unit": "ms"}
    metrics["src.lines"] = {"value": _src_lines(), "unit": "count"}
    overhead = statistics.median(traced) / statistics.median(untraced)
    metrics["trace_overhead_ratio"] = {"value": overhead, "unit": "ratio"}
    for name, m in metrics.items():
        lines.append(f"{name:42s} {m['value']:14.6g} {m['unit']}")
    return lines, _result(tally, problems, lines, metrics)


def _end_to_end(sampler, setups, tally, lines):
    """Times at the nominal speed.  A case's time is its median over the
    rounds, which resists an op during which the machine changed speed;
    p50 is the median over cases, and throughput is one round's ops over
    the sum of the case times."""
    nominal = {}
    for label, op, start, end in tally.ops:
        nominal.setdefault((label, op), []).append(sampler.nominal(start, end))
    case_time = {key: statistics.median(v) for key, v in nominal.items()}
    metrics = {}
    for op in workloads.OPS:
        p50 = 1000.0 * statistics.median(t for (_, o), t in case_time.items() if o == op)
        metrics[f"{op}_p50_ms"] = {"value": p50, "unit": "ms"}
        pooled = [1000.0 * x for (_, o), v in nominal.items() if o == op for x in v]
        wall = [1000.0 * (end - start) for _, o, start, end in tally.ops if o == op]
        lines.append(f"{op}_p50_ms {p50:.4f} ms (median over {len(case_time) // len(workloads.OPS)} cases)")
        lines.append(f"{op}_p50_ms {statistics.median(wall):.4f} ms wall (n={len(wall)})")
        for values, kind in ((pooled, ""), (wall, " wall")):
            if len(values) >= P90_MIN_SAMPLES:
                lines.append(f"{op}_p90_ms {_quantile(values, 90):.4f} ms{kind} (n={len(values)})")
            else:
                lines.append(f"{op}_p90_ms{kind} not reported: n={len(values)} < {P90_MIN_SAMPLES}")
    throughput = len(case_time) / sum(case_time.values())
    wall = sum(end - start for _, _, start, end in tally.ops)
    setup = statistics.median(sampler.nominal(a, b) for a, b in setups)
    metrics["ops_per_s"] = {"value": throughput, "unit": "1/s"}
    metrics["setup_s"] = {"value": setup, "unit": "s"}
    metrics["peak_rss_mb"] = {"value": _rss_mb(), "unit": "MB"}
    refs = sampler.seconds
    lines += [
        f"ops_per_s {throughput:.4f} 1/s ({tally.attempted} ops, {len(tally.round_seconds)} rounds)",
        f"ops_per_s {tally.attempted / wall:.4f} 1/s wall ({tally.attempted} ops in {wall:.3f} s)",
        f"setup_s {setup:.4f} s; wall " + ", ".join(f"{b - a:.4f}" for a, b in setups) + " s",
        f"peak_rss_mb {_rss_mb():.1f} MB",
        f"reference loop {1000.0 * statistics.median(refs):.4f} ms median, "
        f"{1000.0 * min(refs):.4f} to {1000.0 * max(refs):.4f} ms (n={len(refs)}); "
        f"nominal {1000.0 * speed.NOMINAL:.4f} ms",
    ]
    return metrics


def _failure_report(tally):
    n = len(tally.failures)
    lines = [f"fail_ratio {n / tally.attempted:.4f} ratio ({n} of {tally.attempted} ops)"]
    by_kind = {}
    for case, op, reason in tally.failures:
        by_kind.setdefault((case.kind, op), []).append((case, reason))
    for (kind, op), hits in sorted(by_kind.items()):
        known = sorted({c.known_defect for c, _ in hits if c.known_defect})
        tag = "; ".join(workloads.KNOWN_DEFECTS[k] for k in known) if known else "UNEXPECTED"
        lines.append(f"  failing {kind} {op}: {len(hits)} ops ({tag})")
        for case, reason in hits[:3]:
            lines.append(f"    {case.label}: {reason}")
    return lines


def run_all(seed, seconds, trace):
    """Every workload in a fresh interpreter, one after the other."""
    summary, ok = {}, True
    for workload in workloads.WORKLOADS:
        argv = [sys.executable, str(Path(__file__)), "--workload", workload, "--seed", str(seed)]
        argv += ["--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
        out = proc.stdout.strip().splitlines()
        print("\n".join(out[:-1]) + "\n")
        if proc.returncode != 0 or not out:
            print(proc.stderr, file=sys.stderr)
            ok = False
            continue
        summary[workload] = json.loads(out[-1])
        ok = ok and summary[workload]["correct"]
    units = {n: m["unit"] for r in summary.values() for n, m in r["metrics"].items()}
    print(f"{'metric':42s}" + "".join(f"{w:>14s}" for w in summary))
    for name in sorted(units):
        cells = "".join(
            f"{r['metrics'][name]['value']:14.5g}" if name in r["metrics"] else f"{'-':>14s}"
            for r in summary.values()
        )
        print(f"{name + ' [' + units[name] + ']':42s}" + cells)
    ratios = "".join(f"{r['failed'] / r['attempted']:14.5g}" for r in summary.values())
    print(f"{'fail_ratio [ratio]':42s}" + ratios)
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--all", action="store_true", help="run every workload in its own interpreter")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "tquot" / "__init__.py").is_file():
        print(f"error: no tquot sources under {SRC}", file=sys.stderr)
        return 2
    if args.all:
        return run_all(args.seed, args.seconds, args.trace)
    if args.workload is None:
        parser.error("give --workload or --all")
    sys.path.insert(0, str(SRC))
    lines, result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
