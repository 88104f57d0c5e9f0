"""Self-tests of the benchmark harness at tiny sizes.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import inspect
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import reference  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

TINY = {
    "transport": {"n": 5, "spaces": 3},
    "pipeline": {"n": 4, "nodes": 6, "spaces": 2},
    "cli": {"sizes": range(3, 5)},
}


def _ops(workload, count, rec=None):
    """Run ops 0..count-1, check each, and return what they produced.

    For the CLI that is the exit code and the report without its timestamp.
    """
    seen = []
    for i in range(count):
        if rec is not None:
            rec.op = i
        result = workload.run(i)
        assert workload.check(i, result) is None
        if workload.name == "cli":
            report = json.loads(workload._out(workload.inputs[i % len(workload.inputs)][1]).read_text())
            report.pop("generated_at", None)
            result = result, report
        seen.append(result)
    return seen


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_run_gives_the_same_results(name, tmp_path):
    _, workload, _, _ = run.setup(name, 3, tmp_path, **TINY[name])
    expected = _ops(workload, workload.trace_ops)
    with tracer.Recorder() as rec:
        got = _ops(workload, workload.trace_ops, rec)
    assert got == expected
    assert rec.spans and all(end >= start for _, start, end, _, _ in rec.spans)


@pytest.mark.parametrize("name", sorted(TINY))
def test_no_wrapper_survives_a_traced_run(name, tmp_path):
    _, workload, _, _ = run.setup(name, 4, tmp_path, **TINY[name])
    modules = tracer.package_modules("ultrafree")
    before = {(m, attr): obj for m, mod in modules.items() for attr, obj in vars(mod).items() if inspect.isfunction(obj)}
    with tracer.Recorder() as rec:
        _ops(workload, workload.trace_ops, rec)
        assert any(hasattr(getattr(modules[m], attr), tracer.MARK) for m, attr in before)
    after = {(m, attr): obj for m, mod in modules.items() for attr, obj in vars(mod).items() if inspect.isfunction(obj)}
    assert after == before
    assert not any(hasattr(obj, tracer.MARK) for obj in after.values())


def test_layer_metrics_follow_the_workload_design(tmp_path):
    found = {}
    for name in sorted(TINY):
        _, workload, _, _ = run.setup(name, 5, tmp_path, **TINY[name])
        with tracer.Recorder() as rec:
            _ops(workload, workload.trace_ops, rec)
        found[name] = {k: v for k, (v, _) in run.layer_metrics(rec, workload.trace_ops).items()}
    assert found["transport"]["simplex.calls"] == 1
    assert found["cli"]["simplex.calls"] == 0
    assert found["pipeline"]["ell1.orthant_lps"] > 0
    assert found["transport"]["ell1.orthant_lps"] == found["cli"]["ell1.orthant_lps"] == 0
    assert found["cli"]["cli.calls"] == 1
    assert found["cli"]["serialize.bytes_in"] > 0 and found["cli"]["serialize.bytes_out"] > 0


@pytest.mark.parametrize("name, target", [("transport", "tree_norm"), ("pipeline", "l1_lower"), ("cli", "chain_norms")])
def test_a_wrong_reference_counts_as_failed(name, target, tmp_path, monkeypatch):
    original = getattr(reference, target)
    if target == "chain_norms":
        monkeypatch.setattr(reference, target, lambda tree: [2 * x for x in original(tree)])
    else:
        monkeypatch.setattr(reference, target, lambda *args: original(*args) + 1)
    total, metrics, _ = run.untraced_run(name, 6, 0.05, tmp_path, **TINY[name])
    assert total.failed > 0
    assert metrics["verified_share"][0] == (total.attempted - total.failed) / total.attempted < 1
