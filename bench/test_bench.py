"""Tests of the benchmark itself: its oracles, percentiles and span arithmetic.

    python3 -m pytest bench
"""

import dataclasses
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import expsampling as es  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NUDGE = 1.0 + 1e-9


def one_op(cls, tmp_path, seed=3):
    workload = cls(seed, workloads.Hooks(), str(tmp_path))
    inputs = workload.inputs(1)
    result = workload.run(inputs)
    return workload, inputs, result


def nudge_row(rows, i):
    rows = list(rows)
    rows[i] = dataclasses.replace(rows[i], value=rows[i].value * NUDGE)
    return rows


# --------------------------------------------------------------------------
# oracles reject outputs nudged by 1e-9 relative
# --------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 11])
def test_reconstruct_wide_oracles(tmp_path, seed):
    workload, inputs, result = one_op(workloads.ReconstructWide, tmp_path, seed)
    assert workload.check(inputs, result) == []
    checked = int(inputs["points"][0])
    for call in range(len(result)):
        nudged = list(result)
        nudged[call] = nudge_row(result[call], checked)
        problems = workload.check(inputs, nudged)
        assert len(problems) == 1, (workload.calls()[call][0], problems)


@pytest.mark.parametrize("seed", [0, 11])
def test_small_calls_oracles(tmp_path, seed):
    workload, inputs, result = one_op(workloads.SmallCalls, tmp_path, seed)
    assert workload.check(inputs, result) == []

    def rejected(mutate):
        nudged = {k: [dict(v) if isinstance(v, dict) else v for v in vals]
                  for k, vals in result.items()}
        mutate(nudged)
        return workload.check(inputs, nudged) != []

    for kernel in range(len(workload.kernels)):
        for key in inputs["vectors"]:
            assert rejected(lambda r: r["interval"][kernel].__setitem__(key, r["interval"][kernel][key] * NUDGE))
        for which in range(3):  # max_product_series, generalized_series, kantorovich_series
            def nudge_point(r, which=which):
                row = list(r["point"][kernel][0])
                row[which] *= NUDGE
                r["point"][kernel] = [tuple(row)] + r["point"][kernel][1:]
            assert rejected(nudge_point)
    assert rejected(lambda r: r["classical"].__setitem__(0, r["classical"][0] * NUDGE))
    checked = int(inputs["points"][0])
    for call in range(len(result["grid"])):
        assert rejected(lambda r: r["grid"].__setitem__(call, nudge_row(r["grid"][call], checked)))


def test_max_plus_laws_reject_nudges():
    f = np.array([0.5, 0.25, 1.0])
    g = np.array([0.25, 0.5, 0.75])
    joins = {"f": f, "g": g, "max": np.maximum(f, g), "sum": f + g, "scaled": 3.0 * f}
    assert workloads.max_plus_law_problems("k", joins, 3.0) == []
    for key, value, law in (
        ("max", joins["max"] / NUDGE, "monotone"),
        ("sum", joins["sum"] * NUDGE, "subadditive"),
        ("scaled", joins["scaled"] * NUDGE, "homogeneous"),
    ):
        problems = workloads.max_plus_law_problems("k", dict(joins, **{key: value}), 3.0)
        assert len(problems) == 1 and law in problems[0]


def test_theory_oracles(tmp_path):
    workload, inputs, result = one_op(workloads.TheoryChecks, tmp_path)
    try:
        assert workload.check(inputs, result) == []
        parsed, _ = workload.artifacts(result)
    finally:
        workload.close()
    a = inputs["a"]
    assert workloads.theory_problems(parsed, a) == []
    for artifact in ("kernel-check-bspline3.json", "kernel-check-gauss.json"):
        for path in (("eta",), ("absolute_moments", "0")):
            nudged = json.loads(json.dumps(parsed))
            target = nudged[artifact]
            for key in path[:-1]:
                target = target[key]
            target[path[-1]] *= NUDGE
            assert workloads.theory_problems(nudged, a) != []
    for key in ("eta", "m0"):
        nudged = json.loads(json.dumps(parsed))
        nudged["rate.json"][0]["details"][key] *= NUDGE
        assert workloads.theory_problems(nudged, a) != []
    nudged = json.loads(json.dumps(parsed))
    nudged["suite.json"]["checks"][0]["holds"] = False
    assert workloads.theory_problems(nudged, a) != []


def test_interval_index_set_is_exact():
    assert workloads.oracles.interval_index_set(8, 0, 1) == range(0, 9)
    assert workloads.oracles.interval_index_set(5, -2, 3, 5) == range(-2, 4)
    assert workloads.oracles.interval_index_set(10, 1, 2, 10) == range(1, 3)


# --------------------------------------------------------------------------
# percentiles
# --------------------------------------------------------------------------


def test_p90_withheld_without_ten_samples_beyond():
    assert stats.p90(list(range(1, 100))) is None
    assert stats.p90([]) is None
    assert stats.p90(list(range(1, 101))) == 90
    samples = list(range(1, 201))
    beyond = [s for s in samples if s > stats.p90(samples)]
    assert len(beyond) == 20


def test_spread_of_constant_values():
    s = stats.spread([2.0] * 10)
    assert s["median"] == 2.0 and s["iqr_share"] == 0.0


# --------------------------------------------------------------------------
# tracing
# --------------------------------------------------------------------------


def test_self_times_on_a_synthetic_tree():
    spans = [
        ("root", 0, 100, -1),
        ("a", 10, 40, 0),
        ("b", 30, 60, 0),  # overlaps a: the covered part is 10..60
        ("a.child", 15, 20, 1),
        ("late", 90, 120, 0),  # clipped to the root's end
        ("other root", 200, 210, -1),
    ]
    assert tracing.self_times(spans) == [100 - 50 - 10, 25, 30, 5, 30, 10]


def test_traced_run_restores_the_library(tmp_path):
    original = es.evaluate_on_grid
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert es.evaluate_on_grid is not original
        assert es.analysis.evaluate_on_grid is es.evaluate_on_grid
        workload = workloads.SmallCalls(1, tracer, str(tmp_path))
        inputs = workload.inputs(1)
        tracer.clear()
        tracer.new_op()
        assert workload.check(inputs, workload.run(inputs)) == []
    finally:
        tracer.uninstall()
    assert es.evaluate_on_grid is original and es.analysis.evaluate_on_grid is original
    metrics = tracer.metrics(1)
    assert metrics["operators.evaluate_on_grid.calls"]["value"] == 7
    assert metrics["operators.point_eval.calls"]["value"] == 4 * (3 * 2 + 1)
    assert 0.0 < metrics["kernels.log_profile.nonzero_ratio"]["value"] < 1.0


def test_missing_entry_point_is_reported_absent(monkeypatch):
    monkeypatch.setitem(tracing.ENTRY_POINTS, "operators.gone", ("operators", ("no_such_entry",)))
    monkeypatch.setattr(
        tracing, "PER_LAYER", tracing.PER_LAYER + (("operators.gone.self_ms", "ms", "lower", "operators.gone"),)
    )
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    metrics = tracer.metrics(1)
    assert "operators.gone.self_ms" not in metrics
    assert "operators.evaluate_on_grid.self_ms" in metrics


def test_repeated_moment_scans_are_counted():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        kernel = tracer.kernel(es.mellin_bspline(3))
        tracer.new_op()
        es.check_kernel_conditions(kernel, 2.0, 0)
        es.check_kernel_conditions(kernel, 2.0, 0)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics(1)
    # orders 0, 1, 2 and the order-0 algebraic profile, each twice
    assert metrics["kernels.moment_scan.calls"]["value"] == 8
    assert metrics["kernels.moment_scan.repeat_calls"]["value"] == 4
    assert metrics["kernels.check_conditions.calls"]["value"] == 2


def test_traced_names_are_public():
    banned = re.compile(r"\b_lattice\b|\bdefault_half_width\b|\w+_with_diagnostics\b")
    for path in BENCH.glob("*.py"):
        if path.name != Path(__file__).name:
            assert not banned.search(path.read_text()), path


def test_benchmark_json_matches_the_reports():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == [m[0] for m in tracing.PER_LAYER]
    assert [(m["unit"], m["better"]) for m in spec["per_layer"]] == [m[1:3] for m in tracing.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "ops_per_s", "op_p50_ms", "op_p90_ms", "peak_mb"
    }
    assert spec["paths"] == ["bench"]
    assert all(m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert math.isfinite(spec["run_seconds"])


def test_run_fails_without_the_library(tmp_path):
    """A checkout that holds only the benchmark exits non-zero and prints no result."""
    (tmp_path / "bench").mkdir()
    for path in BENCH.glob("*.py"):
        (tmp_path / "bench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((BENCH.parent / "BENCHMARK.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "small_calls", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
