"""One benchmark worker process: a cold pass, then warm passes.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src`` and BLAS pinned to one thread. The first pass in the fresh
process is the cold pass; warm passes follow until the time budget is
spent, and there is always at least one. With ``--trace 1`` warm passes alternate untraced and traced, so
both see the same conditions and their difference is the tracing
overhead. Prints one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def blas_info() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"name": blas.get("name"), "version": blas.get("version"),
            "threads": None}
    # The loaded OpenBLAS reports its own thread count; its symbol prefix
    # differs between builds.
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                return info
    return info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--budget", type=float, required=True,
                        help="seconds of passes after the cold pass starts")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True, help="directory for reports")
    args = parser.parse_args(argv)

    import ccrlab.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: imported ccrlab from {cli.__file__}, not from the "
              f"checkout's src", file=sys.stderr)
        return 2

    import numpy as np
    import scipy

    import tracing
    from workloads import call_entry, compare_records, job_list, report_digest

    jobs = job_list(args.workload, args.seed)
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    out = Path(args.out)
    instances = []  # one per job run: [job, digest, problems]

    def run_pass(tracer=None) -> float:
        total = 0.0
        pass_no = len(instances) // len(jobs)
        span = tracer.span if tracer else lambda name: contextlib.nullcontext()
        for job in jobs:
            problems, digest = [], None
            if tracer:
                tracer.job = f"{pass_no}:{job.name}"
            t0 = time.perf_counter()
            try:
                with span(f"scenarios.{job.name}"):
                    report = call_entry(cli, job)
                    with span(tracing.REPORT_WRITE) as write:
                        paths = report.write(out / job.name)
            except Exception:
                total += time.perf_counter() - t0
                problems.append(traceback.format_exc(limit=3))
            else:
                total += time.perf_counter() - t0
                if write is not None:
                    write.counts = {"bytes": sum(p.stat().st_size for p in paths.values())}
                if not report.passed:
                    problems.append("report.passed is false")
                digest = report_digest(paths)
                if job.ref_key is not None:
                    records = json.loads(paths["json"].read_bytes())["records"]
                    problems += compare_records(records, reference.get(job.ref_key, {}))
            instances.append([job.name, digest, problems])
        return total

    start = time.perf_counter()
    cold = last = run_pass()
    warm, traced, layer, spans = [], [], [], []
    absent: list[str] = []
    while True:
        # Start another pass only if it would end less than half a pass
        # past the budget, so workers neither stop well short of their
        # budget nor overrun it by more than half a pass.
        enough = warm and (traced or not args.trace)
        if enough and time.perf_counter() - start + last / 2 > args.budget:
            break
        if args.trace and warm and len(traced) < len(warm):
            tracer = tracing.Tracer()
            patched, absent = tracing.install(tracer)
            try:
                last = run_pass(tracer)
            finally:
                tracing.restore(patched)
            traced.append(last)
            layer.append(tracing.pass_stats(tracer.spans))
            spans.append(tracer.rows())
        else:
            last = run_pass()
            warm.append(last)

    if spans:
        (out / "spans.json").write_text(json.dumps(spans), encoding="utf-8")
    print(json.dumps({
        "cold_s": cold,
        "warm_s": warm,
        "traced_s": traced,
        "layer": layer,
        "absent": absent,
        "instances": instances,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "meta": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": blas_info(),
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
