"""Regenerate ``reference.json``: the records every benchmark job must
reproduce, for every seed-selectable input.

Run from the root of a checkout whose outputs are trusted::

    OPENBLAS_NUM_THREADS=1 python3 perfbench/make_reference.py

It runs each job of every workload once per candidate interior time and
plateau rate (a few minutes, most of it the N = 1e6 sweep points) and
stores the report records keyed by job and by (kind, n, t).
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import ccrlab.cli as cli  # noqa: E402

from workloads import (  # noqa: E402
    INTERIOR_TIMES, PLATEAU_RATES, WORKLOADS, Params, call_entry, jobs_for,
    record_key,
)


def main() -> int:
    reference: dict[str, dict] = {}
    done = set()
    for workload, t, rate in itertools.product(WORKLOADS, INTERIOR_TIMES, PLATEAU_RATES):
        for job in jobs_for(workload, Params(t, rate, 0)):
            key = json.dumps([job.ref_key, job.config], sort_keys=True)
            if job.ref_key is None or key in done:
                continue
            done.add(key)
            report = call_entry(cli, job)
            if not report.passed:
                raise SystemExit(f"{job.name} at t={t}, rate={rate} does not pass")
            records = json.loads(report.json_bytes())["records"]
            store = reference.setdefault(job.ref_key, {})
            for rec in records:
                store[record_key(rec)] = rec
            print(f"{job.ref_key}: t={t:.4f} {len(records)} records", flush=True)
    path = HERE / "reference.json"
    path.write_text(json.dumps(reference, sort_keys=True, indent=1) + "\n",
                    encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
