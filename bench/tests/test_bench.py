"""Tests for the benchmark's own code.

    PYTHONPATH=src python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import importlib
import json
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

from ramcirc import golden  # noqa: E402
from ramcirc.errors import BudgetExceededError  # noqa: E402
from ramcirc.numtheory import factorize  # noqa: E402

K = 1 << 20
SMALL = {
    "census": [[3, 199], [1_000_001, 1_000_399]],
    "deep": [K * K + 5 * K + 1],
    "oracle": [["hat_l", 15], ["hat_l", 21], ["crosscheck", 15]],
    "abelian": [[9], [3, 3], [5, 5]],
}


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_same_seed_same_inputs(name):
    first = workloads.generate(name, 7)
    assert first == workloads.generate(name, 7)
    assert first != workloads.generate(name, 8)


def test_generated_inputs_stay_in_their_bands():
    for lo, hi in workloads.generate("census", 3)[1:]:
        assert lo % 2 == 1 and 1 << 20 <= lo and hi < 1 << 40
    for m in workloads.generate("deep", 3)[:500]:
        assert 1 << 40 <= m < 1 << 64
        k = (math.isqrt(4 * m + 45) - 5) // 2
        assert m - (k * k + 5 * k) in workloads.C_OFFSETS


def test_oracle_crosscheck_orders_are_the_semiprime_exceptionals():
    expected = tuple(m for m in workloads.ORACLE_ORDERS
                     if m in golden.EXCEPTIONAL_ORDERS_100
                     and factorize(m).distinct_semiprime is not None)
    assert workloads.ORACLE_CROSSCHECK == expected


def test_oracle_lists_once_only_the_full_scans_above_a_million_sets():
    expected = tuple(m for m in workloads.ORACLE_ORDERS
                     if m in golden.EXCEPTIONAL_ORDERS_100
                     and workloads._l0_class_size(m) > 10 ** 6)
    assert workloads.ORACLE_ONCE == expected


def _is_wrapper(value) -> bool:
    return getattr(value, "__qualname__", "").startswith("Tracer._wrap")


def _patched_names():
    """Every (owner, attribute) currently bound to a trace wrapper."""
    found = []
    for key, mod in list(sys.modules.items()):
        if key == "ramcirc" or key.startswith("ramcirc."):
            found += [(key, attr) for attr, value in vars(mod).items()
                      if _is_wrapper(value)]
    if _is_wrapper(importlib.import_module("ramcirc.abelian").AbelianGroup.spans):
        found.append(("ramcirc.abelian", "AbelianGroup.spans"))
    return found


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_trace_leaves_results_unchanged_and_restores(name):
    workload = workloads.WORKLOADS[name]
    items = SMALL[name]
    ctx = workload.prepare(items)
    before = [workload.run(item) for item in items]
    originals = {key: dict(vars(mod)) for key, mod in sys.modules.items()
                 if key == "ramcirc" or key.startswith("ramcirc.")}
    with tracing.Tracer() as tracer:
        assert _patched_names()
        tally = worker.Tally()
        worker.run_pass(workload, items, ctx, tally, tracer)
        tracer.active = True
        traced = [workload.run(item) for item in items]
        tracer.active = False
    assert traced == before
    assert tally.failed == 0
    assert len(tracer.start) > 0
    assert _patched_names() == []
    for key, names in originals.items():
        current = vars(sys.modules[key])
        assert all(current[attr] is value for attr, value in names.items())
    metrics = tracing.layer_metrics(tracer)
    for target in tracing.TARGETS:
        assert f"{target.name}.calls" in metrics


def test_benchmark_json_lists_every_metric_the_runs_print():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    with tracing.Tracer() as tracer:
        pass
    printed = set(tracing.layer_metrics(tracer))
    printed |= {f"import.{mod}.self_ms" for mod in run.IMPORTED}
    printed.add("trace.overhead_s")
    assert sorted(m["name"] for m in spec["per_layer"]) == sorted(printed)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_trace_counts_calls_and_self_time():
    items = SMALL["census"]
    with tracing.Tracer() as tracer:
        worker.run_pass(workloads.WORKLOADS["census"], items, golden,
                        worker.Tally(), tracer)
    metrics = tracing.layer_metrics(tracer)
    orders = sum((hi - lo) // 2 + 1 for lo, hi in items)
    assert metrics["classify.scan_range.calls"][0] == len(items)
    assert metrics["classify.classify.calls"][0] == orders
    kinds = sum(metrics[f"classify.kind.{k}.count"][0] for k in tracing.KINDS)
    assert kinds == orders
    assert 0 < metrics["bounds.j_member_ratio"][0] < 1
    assert all(metrics[f"{t.name}.self_s"][0] >= 0 for t in tracing.TARGETS)


def test_wrong_answer_raises_error_rate(monkeypatch):
    oracle = importlib.import_module("ramcirc.oracle")
    real = oracle.hat_l_exhaustive
    monkeypatch.setattr(oracle, "hat_l_exhaustive", lambda m: real(m) - 2)
    workload = workloads.WORKLOADS["oracle"]
    items = SMALL["oracle"]
    tally = worker.Tally()
    times = worker.run_pass(workload, items, workload.prepare(items), tally)
    assert len(times) == len(items)
    assert (tally.attempted, tally.failed) == (3, 2)


def test_raising_item_counts_as_failed(monkeypatch):
    classify = importlib.import_module("ramcirc.classify")

    def over_budget(m):
        raise BudgetExceededError(10, 1)

    monkeypatch.setattr(classify, "classify", over_budget)
    workload = workloads.WORKLOADS["deep"]
    items = SMALL["deep"] * 3
    tally = worker.Tally()
    worker.run_pass(workload, items, workload.prepare(items), tally)
    assert (tally.attempted, tally.failed) == (3, 3)
    assert "BudgetExceededError" in tally.messages[0]


def test_tail_has_ten_samples_above():
    samples = list(range(1000))
    value, pct = run.tail(samples)
    assert pct == 99 and sum(1 for s in samples if s > value) >= 10
    value, pct = run.tail(list(range(30)))
    assert pct == 66 and value == 19


def test_repeated_items_share_their_least_timing():
    out = worker.measure("abelian", [[3], [5], [3]], 0, False)
    assert len(out["pass_times"]) == 1 and out["references"] >= 1
    three, five = out["item_times"]
    assert out["best_pass"] == pytest.approx(2 * three + five)
    assert out["speed"] > 0 and out["failed"] == 0
