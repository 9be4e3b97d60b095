"""Every traced function a benchmark workload must call is still reached.

The benchmark's traced run (``perfbench/run.py --trace 1``) fails when a
function in ``tracing.EXERCISED[workload]`` records no call, for example
after a refactor stops reaching it through its module-level bindings.
This test runs one pass of each workload's jobs under the same tracer, so
the suite catches that without a benchmark run. The same pass compares
each job's records with ``perfbench/reference.json``, as the benchmark's
correctness gate does, so record drift or a changed record field set
fails here too. The harness modules are only imported, never modified.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_one_traced_pass_calls_every_exercised_function(workload):
    import ccrlab.cli as cli

    reference = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))
    tracer = tracing.Tracer()
    patched, absent = tracing.install(tracer)
    try:
        for job in workloads.job_list(workload, 0):
            tracer.job = job.name
            report = workloads.call_entry(cli, job)
            assert report.passed, job.name
            if job.ref_key is not None:
                records = json.loads(report.json_bytes())["records"]
                assert workloads.compare_records(
                    records, reference.get(job.ref_key, {})) == [], job.name
    finally:
        tracing.restore(patched)
    for mod, key, original in patched:
        assert getattr(mod, key) is original
    stats = tracing.pass_stats(tracer.spans)
    missing = [name for name in tracing.EXERCISED[workload]
               if name not in absent and stats[f"{name}.calls"] == 0]
    assert missing == []
