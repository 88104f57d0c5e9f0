"""Benchmark driver for ultrafree.

    python3 bench/run.py --workload {transport,pipeline,cli} --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  It imports ``ultrafree`` from ``src/`` of
that checkout, builds the workload's inputs from the seed and runs it closed
loop, one caller in one thread, for S seconds, checking every result against
the benchmark's own reference.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The line before it records the seed, ``nproc``, the Python
version, the git SHA and the sample counts.  See bench/README.md for every
name.
"""

from __future__ import annotations

import argparse
import gzip
import importlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import reference  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 3
THROUGHPUT_SLICES = 5
PROBE_SIZES = (8, 12, 21, 30)
PROBE_SOLVES = 3
MAX_LOGGED_ERRORS = 5


def import_package():
    """Import ultrafree afresh from this checkout's src/, dropping any earlier import."""
    for name in tracer.package_modules("ultrafree"):
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    package = importlib.import_module("ultrafree")
    importlib.import_module("ultrafree.cli")
    if Path(package.__file__).resolve().parent != SRC / "ultrafree":
        raise ImportError(f"ultrafree was imported from {package.__file__}, not from {SRC}")
    return package


class Tally:
    """Latency of every operation, and how many were attempted and failed."""

    def __init__(self):
        self.starts: list[float] = []
        self.latencies: list[float] = []
        self.verified: list[bool] = []
        self.attempted = 0
        self.failed = 0

    def op(self, workload, i: int) -> None:
        start = perf_counter()
        self.starts.append(start)
        try:
            result = workload.run(i)
        except Exception:
            elapsed = perf_counter() - start
            error = traceback.format_exc(limit=3)
        else:
            elapsed = perf_counter() - start
            try:
                error = workload.check(i, result)
            except Exception:
                error = "check raised: " + traceback.format_exc(limit=3)
        self.latencies.append(elapsed)
        self.verified.append(error is None)
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if self.failed <= MAX_LOGGED_ERRORS:
                print(f"{workload.name} op {i}: {error}", file=sys.stderr)

    def add(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed


def setup(name: str, seed: int, workdir: Path, **options):
    """Import the package, build the inputs and run one warm-up operation."""
    start = perf_counter()
    package = import_package()
    workload = WORKLOADS[name](package, seed, workdir, **options)
    warm = Tally()
    warm.op(workload, 0)
    return package, workload, perf_counter() - start, warm


def measure(workload, seconds: float, tally: Tally) -> float:
    """Closed loop over the workload's operations; returns the end time."""
    start = perf_counter()
    i = 0
    while True:
        tally.op(workload, i)
        i += 1
        end = perf_counter()
        if end - start >= seconds:
            return end


def throughput(tally: Tally, end: float) -> float:
    """Verified operations per second: the median over consecutive slices of equally many operations.

    A burst of load from outside the process slows one slice, not the median.
    """
    count = len(tally.starts)
    bounds = [count * k // THROUGHPUT_SLICES for k in range(THROUGHPUT_SLICES + 1)]
    rates = [
        sum(tally.verified[a:b]) / ((tally.starts[b] if b < count else end) - tally.starts[a])
        for a, b in zip(bounds, bounds[1:])
        if b > a
    ]
    return statistics.median(rates)


def untraced_run(name: str, seed: int, seconds: float, workdir: Path, **options):
    total = Tally()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        _, workload, elapsed, warm = setup(name, seed, workdir, **options)
        setup_times.append(elapsed)
        total.add(warm)
    tally = Tally()
    end = measure(workload, seconds, tally)
    total.add(tally)
    lat = tally.latencies
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "throughput_ops_per_s": (throughput(tally, end), "1/s"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "latency_p90_ms": (statistics.quantiles(lat, n=10)[8] * 1e3 if len(lat) > 1 else lat[0] * 1e3, "ms"),
        "verified_share": ((total.attempted - total.failed) / total.attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return total, metrics, {"measured_ops": tally.attempted, "setup_repeats": SETUP_REPEATS}


def probe_solve_ms(package, seed: int, tally: Tally) -> dict:
    """Median certified-norm time at fixed sizes, untraced, on quarter-height spaces."""
    freespace = package.freespace
    out = {}
    for n in PROBE_SIZES:
        tree = gen.merge_tree(n, f"probe:{seed}", "quarters")
        space = package.metric.FiniteMetricSpace(gen.labels(n), tree.matrix())
        rng = random.Random(f"probe:{seed}/{n}")
        times = []
        for _ in range(PROBE_SOLVES):
            coeffs = gen.random_vector(rng, n - 1)
            start = perf_counter()
            cert = freespace.free_norm_certificate(space, freespace.FreeVector(coeffs))
            times.append(perf_counter() - start)
            tally.attempted += 1
            if reference.check_transport(tree, coeffs, cert.value, cert.flow, cert.potential.values):
                tally.failed += 1
        out[f"freespace.solve_ms.n{n}"] = (statistics.median(times) * 1e3, "ms")
    return out


def layer_metrics(rec: tracer.Recorder, ops: int) -> dict:
    """Per-layer counts and self times, per traced operation."""
    self_s, inclusive = rec.layer_times()
    calls, extra = rec.calls, rec.extra

    def layer_calls(layer):
        return sum(v for k, v in calls.items() if k.startswith(layer + "."))

    truncations = extra["chain.truncations"]
    solved = rec.count_children(("freespace.free_norm", "freespace.free_norm_certificate"), "chain.basis_constant")
    per_op = {
        "simplex.calls": calls["simplex.solve_lp"],
        "simplex.tableau_cells": extra["simplex.tableau_cells"],
        "linalg.calls": layer_calls("linalg"),
        "freespace.norm_calls": calls["freespace.free_norm_certificate"],
        "freespace.opnorm_calls": calls["freespace.operator_norm_of_extension"],
        "rational.parse_calls": calls["rational.parse_rational"],
        "metric.validate_calls": calls["metric.validate"],
        "rtree.dendrogram_calls": calls["rtree.dendrogram"],
        "rtree.tree_nodes": extra["rtree.tree_nodes"],
        "ell1.orthant_lps": rec.count_under("simplex.solve_lp", "ell1.l1_equivalence_constants"),
        "ell1.oracle_vectors": extra["ell1.oracle_vectors"],
        "campaign.instances": extra["campaign.instances"],
        "serialize.bytes_in": extra["serialize.bytes_in"],
        "serialize.bytes_out": extra["serialize.bytes_out"],
        "cli.calls": calls["cli.main"],
    }
    units = {"serialize.bytes_in": "B/op", "serialize.bytes_out": "B/op"}
    metrics = {name: (value / ops, units.get(name, "count/op")) for name, value in per_op.items()}
    for layer in tracer.LAYERS:
        metrics[f"{layer}.errors"] = (rec.errors[layer] / ops, "count/op")
        if layer not in tracer.COUNT_ONLY:
            metrics[f"{layer}.self_s"] = (self_s[layer] / ops, "s/op")
    metrics["ell1.l1_constants_s"] = (inclusive["ell1.l1_equivalence_constants"] / ops, "s/op")
    metrics["ell1.oracle_s"] = (inclusive["ell1.oracle_vs_lp"] / ops, "s/op")
    metrics["chain.closed_form_ratio"] = ((truncations - solved) / truncations if truncations else 0.0, "ratio")
    return metrics


def traced_run(name: str, seed: int, seconds: float, workdir: Path, **options):
    """Run the workload's fixed trace list in whole passes, each untraced and then traced.

    Alternating the two keeps the machine's drift out of the overhead ratio.
    """
    package, workload, _, total = setup(name, seed, workdir, **options)
    plain, traced = Tally(), Tally()
    rec = tracer.Recorder()
    passes = 0
    start = perf_counter()
    while passes == 0 or perf_counter() - start < seconds / 2:
        for i in range(workload.trace_ops):
            plain.op(workload, i)
        with rec:
            for i in range(workload.trace_ops):
                rec.op = passes * workload.trace_ops + i
                traced.op(workload, i)
        passes += 1
    ops = passes * workload.trace_ops
    for tally in (plain, traced):
        total.add(tally)
    metrics = layer_metrics(rec, ops)
    metrics["trace.overhead_ratio"] = (sum(traced.latencies) / sum(plain.latencies), "ratio")
    metrics["trace.wall_s"] = (sum(traced.latencies) / ops, "s/op")
    metrics.update(probe_solve_ms(package, seed, total))
    spans_path = OUT / f"spans-{name}-s{seed}.jsonl.gz"
    with gzip.open(spans_path, "wt") as handle:
        for span in rec.spans:
            handle.write(json.dumps(span) + "\n")
    return total, metrics, {"traced_ops": ops, "passes": passes, "spans": len(rec.spans),
                            "spans_file": str(spans_path.relative_to(ROOT))}


def machine_probe_ms() -> float:
    """Median time of a fixed Fraction loop: a gauge of how fast the machine runs right now."""
    times = []
    for _ in range(5):
        start = perf_counter()
        total = Fraction(0)
        for k in range(1, 4000):
            total += Fraction(k % 97, k % 89 + 1)
        times.append(perf_counter() - start)
    return statistics.median(times) * 1e3


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ultrafree" / "__init__.py").is_file():
        print(f"error: no ultrafree package under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    probe_before = machine_probe_ms()
    try:
        run = traced_run if args.trace else untraced_run
        total, metrics, samples = run(args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    probe_after = machine_probe_ms()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "fail_share": total.failed / total.attempted,
        "machine_probe_ms": [probe_before, probe_after],
        **samples,
    }
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": total.failed == 0,
        "attempted": total.attempted,
        "failed": total.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
