"""ccrlab benchmark: closed-loop passes over the CLI's entry points.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload ensemble-sweep --seed 1 --seconds 32 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 32

``--trace 0`` prints the end-to-end metrics (setup_s, cold_pass_s, pass_s,
peak_rss_mb); ``--trace 1`` the per-layer metrics from a traced run.
``--workload all`` runs every workload both ways. The last line of
stdout is one JSON object; details go to
``perfbench/out/<workload>-seed<seed>-trace<t>/summary.json``. See
``perfbench/README.md`` for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import EXERCISED, TRACED, layer_metric_units  # noqa: E402
from workloads import WORKLOADS, params_from_seed  # noqa: E402

#: Each worker process gets this share of --seconds. Workers run one
#: after another until their combined time reaches --seconds, so a
#: workload with short passes gets more fresh processes and hence more
#: cold-pass samples; cold_pass_s is the median over the workers.
WORKER_SHARE = 1 / 5
MIN_WORKERS = 3
#: Fresh interpreters timed importing ccrlab.cli: one before each worker,
#: then more after the last until there are this many. setup_s is their
#: median. Spreading them over the run keeps one slow spell of the
#: machine from setting every sample.
SETUP_SAMPLES = 6
WORKER_TIMEOUT_S = 55
END_TO_END_UNITS = {"setup_s": "s", "cold_pass_s": "s", "pass_s": "s",
                    "peak_rss_mb": "MB"}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # One BLAS thread, so pass times do not depend on whether the other
    # core happens to be free.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    # Every import compiles from source, so no run finds a cache that an
    # earlier one left.
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def time_import(env: dict) -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import ccrlab.cli"], env=env,
                   cwd=ROOT, check=True, timeout=60)
    return time.perf_counter() - t0


def run_workers(workload: str, seed: int, seconds: float, trace: int,
                run_dir: Path, env: dict) -> tuple[list[dict], list[float]]:
    """Worker results, and the setup samples taken between workers."""
    results, setup = [], []
    spent = last = 0.0
    # As for passes: start another worker only if it would end less than
    # half a worker's time past the budget.
    while len(results) < MIN_WORKERS or spent + last / 2 < seconds:
        if not trace:
            setup.append(time_import(env))
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
               "--seed", str(seed), "--budget", str(seconds * WORKER_SHARE),
               "--trace", str(trace), "--out", str(run_dir / f"w{len(results)}")]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=WORKER_TIMEOUT_S)
        last = time.perf_counter() - t0
        spent += last
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError(f"worker {len(results)} exited with {proc.returncode}")
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    while not trace and len(setup) < SETUP_SAMPLES:
        setup.append(time_import(env))
    return results, setup


def count_failures(workers: list[dict]) -> tuple[int, int, list[str]]:
    """Attempted and failed job runs, and the first problems seen.

    A run fails if it raised, its report did not pass, its records left
    the reference, or its report bytes differ from the first run of the
    same job (the determinism contract).
    """
    first: dict[str, str] = {}
    attempted = failed = 0
    problems = []
    for w in workers:
        for job, digest, issues in w["instances"]:
            attempted += 1
            if digest is not None:
                first.setdefault(job, digest)
                if digest != first[job]:
                    issues = issues + ["report bytes differ from the first run"]
            if issues or digest is None:
                failed += 1
                problems.extend(f"{job}: {msg}" for msg in issues[:2])
    return attempted, failed, problems[:10]


def percentile_note(samples: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n <= 20:
        return f"n={n}; no percentile above the median has ten samples beyond it"
    q = 100.0 * (n - 10) / n
    return f"n={n}; p{q:.0f}={sorted(samples)[n - 11]:.6g} s"


def src_line_count() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((ROOT / "src" / "ccrlab").glob("*.py")))


def git_sha() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                              capture_output=True, text=True)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    env = child_env()
    run_dir = HERE / "out" / f"{workload}-seed{seed}-trace{trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    workers, setup = run_workers(workload, seed, seconds, trace, run_dir, env)
    attempted, failed, problems = count_failures(workers)
    cold = [w["cold_s"] for w in workers]
    warm = [t for w in workers for t in w["warm_s"]]
    notes = {"pass_s": percentile_note(warm), "cold_pass_s": f"n={len(cold)}",
             "setup_s": f"n={len(setup)}"}
    absent = sorted({a for w in workers for a in w["absent"]})

    if trace:
        layer = [p for w in workers for p in w["layer"]]
        traced = [t for w in workers for t in w["traced_s"]]
        metrics = {k: statistics.median(p[k] for p in layer) for k in layer[0]}
        metrics["trace.pass_s"] = statistics.median(traced)
        metrics["trace.untraced_pass_s"] = statistics.median(warm)
        metrics["trace.overhead_s"] = metrics["trace.pass_s"] - metrics["trace.untraced_pass_s"]
        units = layer_metric_units()
        uncalled = [name for name in EXERCISED[workload]
                    if name not in absent and metrics[f"{name}.calls"] == 0]
        if uncalled:
            raise RuntimeError(f"traced functions recorded no call on {workload}: "
                               f"{uncalled}; a binding was not wrapped")
        notes["trace"] = f"n={len(traced)} traced, {len(warm)} untraced passes"
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "cold_pass_s": statistics.median(cold),
            "pass_s": statistics.median(warm),
            "peak_rss_mb": statistics.median(w["rss_mb"] for w in workers),
        }
        units = END_TO_END_UNITS

    meta = {
        "workload": workload, "seed": seed, "params": vars(params_from_seed(seed)),
        "seconds": seconds, "trace": trace, "git_sha": git_sha(),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "blas_threads_env": env["OPENBLAS_NUM_THREADS"],
        "src_ccrlab_lines": src_line_count(), "absent": absent,
        **workers[0]["meta"],
    }
    summary = {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    detail = {"meta": meta, "notes": notes, "problems": problems,
              "samples": {"setup_s": setup, "cold_pass_s": cold, "pass_s": warm,
                          "rss_mb": [w["rss_mb"] for w in workers]},
              "fail_frac": failed / attempted, **summary}
    for job_dir in run_dir.glob("w*/*"):
        if job_dir.is_dir():
            shutil.rmtree(job_dir)
    (run_dir / "summary.json").write_text(json.dumps(detail, indent=1), encoding="utf-8")
    return {"summary": summary, "detail": detail}


def print_result(result: dict) -> None:
    detail = result["detail"]
    print(f"meta: {json.dumps(detail['meta'], sort_keys=True)}")
    print(f"fail_frac = {detail['fail_frac']:.6g} "
          f"({detail['failed']} of {detail['attempted']} job runs failed)")
    for msg in detail["problems"]:
        print(f"problem: {msg}", file=sys.stderr)
    for name, m in detail["metrics"].items():
        note = detail["notes"].get(name, "")
        print(f"{name} = {m['value']:.6g} {m['unit']}" + (f"  ({note})" if note else ""))
    if "trace" in detail["notes"]:
        print(f"trace: {detail['notes']['trace']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ccrlab" / "__init__.py").is_file():
        print(f"error: no ccrlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
        print_result(result)
        print(json.dumps(result["summary"]))
        return 0

    combined = {}
    called, absent = set(), set()
    for workload in WORKLOADS:
        for trace in (0, 1):
            print(f"== {workload} trace={trace}")
            result = run_workload(workload, args.seed, args.seconds, trace)
            print_result(result)
            combined[f"{workload}/trace{trace}"] = result["summary"]
            metrics = result["summary"]["metrics"]
            called |= {name for name in TRACED
                       if metrics.get(f"{name}.calls", {}).get("value")}
            absent |= set(result["detail"]["meta"].get("absent", ()))
    never = sorted(set(TRACED) - called - absent)
    if never:
        print(f"error: traced functions with no call on any workload: {never}",
              file=sys.stderr)
        return 1
    print(json.dumps({"correct": all(r["correct"] for r in combined.values()),
                      "runs": combined}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
