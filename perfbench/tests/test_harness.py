"""Tests of the benchmark harness itself (not of ccrlab)."""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_job_list(workload):
    assert workloads.job_list(workload, 7) == workloads.job_list(workload, 7)
    configs = {json.dumps(j.config, sort_keys=True)
               for seed in range(20) for j in workloads.job_list(workload, seed)}
    assert len(configs) > len(workloads.job_list(workload, 0))


def test_job_names_unique_across_workloads():
    names = workloads.all_job_names()
    assert len(names) == len(set(names))


def test_self_time_on_synthetic_tree():
    # job [0, 10] has children a [1, 4] and b [5, 9]; a has child c [2, 3].
    spans = [
        Span("scenarios.infinity", 0.0, 10.0, None, "0:infinity"),
        Span("linalg.kron", 1.0, 4.0, 0, "0:infinity"),
        Span("linalg.hermitian_eig", 2.0, 3.0, 1, "0:infinity"),
        Span("linalg.kron", 5.0, 9.0, 0, "0:infinity"),
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    stats = tracing.pass_stats(spans)
    assert stats["linalg.kron.calls"] == 2
    assert stats["linalg.kron.busy_s"] == 7.0
    assert stats["linalg.hermitian_eig.busy_s"] == 1.0
    assert stats["scenarios.infinity.busy_s"] == 10.0
    assert stats["scenarios.infinity.self_s"] == 3.0


def test_busy_time_counts_nested_same_name_once():
    spans = [
        Span("linalg.kron", 0.0, 4.0, None, "0:j"),
        Span("linalg.kron", 1.0, 2.0, 0, "0:j"),
    ]
    stats = tracing.pass_stats(spans)
    assert stats["linalg.kron.calls"] == 2
    assert stats["linalg.kron.busy_s"] == 4.0


def test_metric_names_match_pattern_and_benchmark_json():
    layer = tracing.layer_metric_units()
    names = list(layer) + list(run.END_TO_END_UNITS)
    assert all(re.fullmatch(r"[A-Za-z0-9_.-]+", n) for n in names)
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layer
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_exercised_names_cover_every_traced_function():
    exercised = {n for names in tracing.EXERCISED.values() for n in names}
    assert exercised == set(tracing.TRACED)


def test_install_wraps_every_binding_and_restores():
    cli = pytest.importorskip("ccrlab.cli")
    import ccrlab.dynamics as dyn
    import ccrlab.linalg as linalg
    import ccrlab.representations as reps

    original = linalg.kron
    tracer = tracing.Tracer()
    patched, absent = tracing.install(tracer)
    try:
        assert absent == []
        for mod in (linalg, reps, dyn, sys.modules["ccrlab.scenarios"]):
            assert mod.kron is not original
            assert mod.kron.__wrapped__ is original
        reps.build_reducible(1, reps.VacuumProfile.uniform(2))
    finally:
        tracing.restore(patched)
    for mod in (linalg, reps, dyn, sys.modules["ccrlab.scenarios"]):
        assert mod.kron is original
    assert cli.run_scenario is sys.modules["ccrlab.scenarios"].run_scenario
    stats = tracing.pass_stats(tracer.spans)
    assert stats["representations.build_reducible.calls"] == 1
    assert stats["representations.build_reducible.dim_max"] == 4
    assert stats["linalg.embed_operator.calls"] == 5
    # kron is reached both through linalg's own global (from embed_operator)
    # and through the copy bound in representations.
    parents = [tracer.spans[s.parent].name for s in tracer.spans
               if s.name == "linalg.kron"]
    assert parents.count("linalg.embed_operator") == 5
    assert parents.count("representations.build_reducible") > 0
