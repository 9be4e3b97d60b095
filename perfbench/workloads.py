"""Benchmark workloads: the seed -> job list mapping and the job runner.

A job is one call of a CLI entry point (``run_scenario``,
``convergence_sweep`` or ``validate``) followed by ``ScenarioReport.write``,
exactly what one ``ccrlab run/sweep/validate --out`` command does after
parsing its arguments. A pass runs a workload's jobs in order; jobs are
closed-loop, one client, each starting when the previous one ends.

The seed draws the interior time point and the plateau rolloff rate from
fixed candidate lists, and the ``validate`` seed freely. The candidate
lists keep the reference store (``reference.json``) finite: it holds the
records of every candidate, so any seed can be checked against it.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("ensemble-sweep", "brute-force", "default-session")

#: Interior time points the seed chooses from; 0 and pi/2 are always run.
INTERIOR_TIMES = tuple(k * math.pi / 12 for k in range(1, 6))
#: Plateau rolloff rates the seed chooses from. The rate sets z2, and the
#: cost of the N = 1e6 sweep point grows with sqrt(z2); this narrow range
#: keeps that cost within a few percent across seeds.
PLATEAU_RATES = (0.65, 0.7, 0.75)
#: Ensemble sizes of the ensemble-sweep workload; they are fixed so that
#: cost barely depends on the seed.
ENSEMBLE_GRID = (10, 1000, 4000, 10_000, 100_000, 1_000_000)

#: Records agree with the stored reference when every number is within
#: this tolerance (absolute, and relative for entries above 1). It admits
#: the ~1e-9 relative change of the ensemble coherence that a more precise
#: joint-weight sum makes at large N, and rejects any real error.
REF_TOL = 1e-8

#: Fields that identify a record within a job's report.
RECORD_KEY_FIELDS = ("kind", "n", "t")


@dataclass(frozen=True)
class Params:
    """The seeded inputs of a workload."""

    t_interior: float
    plateau_rate: float
    validate_seed: int


@dataclass(frozen=True)
class Job:
    """One closed-loop job: an entry point, its config and reference key."""

    name: str
    entry: str  # "run_scenario" | "convergence_sweep" | "validate"
    config: dict
    ref_key: str | None  # None: no stored reference (validate's records)


def params_from_seed(seed: int) -> Params:
    rng = random.Random(int(seed))
    return Params(
        t_interior=rng.choice(INTERIOR_TIMES),
        plateau_rate=rng.choice(PLATEAU_RATES),
        validate_seed=rng.randrange(2**32),
    )


def _scenario(name: str, entry: str, ref_key: str | None = None, **config) -> Job:
    config.setdefault("scenario", name)
    return Job(name, entry, config, name if ref_key is None else ref_key)


def jobs_for(workload: str, p: Params) -> list[Job]:
    """The job list of one pass of ``workload`` with inputs ``p``."""
    times = [0.0, p.t_interior, math.pi / 2]
    rate = f"@rate={p.plateau_rate}"
    if workload == "ensemble-sweep":
        # Uniform 2-mode (z1 + z2 = 1, the degenerate case) over the time
        # grid; asymmetric plateau (z1 != z2) over the whole N grid, at the
        # interior time only, because N = 4000 and N = 1e6 cost seconds a
        # call and would otherwise make a pass too long for steady medians.
        plateau = {"kind": "plateau", "modes": 8, "window": [0, 3],
                   "rate": p.plateau_rate, "selected": [0, 5]}
        return [
            _scenario("sweep-uniform", "convergence_sweep",
                      scenario="reducible-limit", N=[10, 1000, 10_000, 100_000],
                      profile={"kind": "uniform", "modes": 2}, times=times),
            _scenario("sweep-plateau", "convergence_sweep", "sweep-plateau" + rate,
                      scenario="reducible-limit", N=list(ENSEMBLE_GRID),
                      profile=plateau, times=[p.t_interior]),
        ]
    if workload == "brute-force":
        plateau = {"kind": "plateau", "modes": 3, "window": [0, 0],
                   "rate": p.plateau_rate, "selected": [0, 1]}
        return [
            _scenario("brute-uniform", "run_scenario", scenario="reducible-brute",
                      N=[1, 2, 3], profile={"kind": "uniform", "modes": 2},
                      times=times),
            _scenario("brute-plateau", "run_scenario", "brute-plateau" + rate,
                      scenario="reducible-brute", N=[1, 2, 3], profile=plateau,
                      times=times),
            _scenario("brute-single-mode", "run_scenario", scenario="single-mode",
                      N=[1, 2, 3, 4, 5]),
        ]
    if workload == "default-session":
        jobs = [_scenario(name, "run_scenario") for name in
                ("infinity", "berezin", "reducible-brute", "reducible-limit",
                 "single-mode")]
        jobs.append(Job("validate", "validate", {"seed": p.validate_seed}, None))
        return jobs
    raise ValueError(f"unknown workload {workload!r}; known: {WORKLOADS}")


def job_list(workload: str, seed: int) -> list[Job]:
    return jobs_for(workload, params_from_seed(seed))


def all_job_names() -> list[str]:
    """Every job name of every workload, in workload order."""
    p = params_from_seed(0)
    return [job.name for w in WORKLOADS for job in jobs_for(w, p)]


def call_entry(cli, job: Job):
    """Run the job's entry point from the CLI module; return the report."""
    if job.entry == "validate":
        return cli.validate(seed=job.config["seed"])
    cfg = cli.ScenarioConfig.from_dict(job.config)
    if job.entry == "convergence_sweep":
        return cli.convergence_sweep(cfg)
    return cli.run_scenario(cfg)


def report_digest(paths: dict) -> str:
    """SHA-256 over the files a report wrote, in kind order."""
    h = hashlib.sha256()
    for kind in sorted(paths):
        h.update(kind.encode())
        h.update(Path(paths[kind]).read_bytes())
    return h.hexdigest()


def record_key(record: dict) -> str:
    return "|".join(f"{f}={record[f]!r}" for f in RECORD_KEY_FIELDS if f in record)


def _close(x, ref) -> bool:
    if isinstance(ref, list):
        return (isinstance(x, list) and len(x) == len(ref)
                and all(_close(a, b) for a, b in zip(x, ref)))
    if isinstance(ref, float) and isinstance(x, (int, float)):
        return math.isclose(x, ref, rel_tol=REF_TOL, abs_tol=REF_TOL)
    return x == ref


def compare_records(records: list[dict], reference: dict) -> list[str]:
    """Differences between a job's records and its reference records."""
    problems = []
    for rec in records:
        key = record_key(rec)
        ref = reference.get(key)
        if ref is None:
            problems.append(f"record {key} has no reference")
            continue
        for field in sorted(set(rec) | set(ref)):
            if not _close(rec.get(field), ref.get(field)):
                problems.append(f"record {key} field {field!r} differs from "
                                f"the reference by more than {REF_TOL:g}")
    return problems
