"""Spans around calls into ccrlab's public functions, and the per-layer
metrics computed from them.

The traced run wraps each function in ``TRACED`` at every module-level
binding (``from .linalg import kron`` makes ``representations.kron`` a
second binding of ``linalg.kron``; patching only the defining module would
record nothing from callers that use the copy). Spans are kept in memory
and written out when the run ends. Spans inside ``src/`` are not recorded:
this layer only wraps what the package exposes at module level.
"""

from __future__ import annotations

import inspect
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

import numpy as np

from workloads import ENSEMBLE_GRID, all_job_names

def _joint_cells(a) -> dict:
    s = np.asarray(a["s"])
    sp = np.sort(np.asarray(a["s_prime"]))
    useful = np.searchsorted(sp, a["n"] - s, side="right").sum()
    return {"cells": s.size * sp.size, "useful": int(useful)}


def _dim(a) -> dict:
    d = int(np.shape(a["h"])[0])
    return {"dim": d, "n3": d**3}


#: Traced functions (``module.function``), the stats reported for each,
#: and how to count work from a call's bound arguments and result.
TRACED = {
    "representations.log_joint_weights": (
        ("calls", "busy_s", "cells", "useful_frac"), lambda a, r: _joint_cells(a)),
    "representations.log_binomial_weights": (
        ("calls", "busy_s", "entries"), lambda a, r: {"entries": np.size(a["s"])}),
    "dynamics.rho_atoms_reducible": (
        ("calls", "busy_s", "self_s"), lambda a, r: {"n": int(a["n"])}),
    "linalg.expm_generator": (
        ("calls", "busy_s", "dim_max", "n3_sum"), lambda a, r: _dim(a)),
    "linalg.hermitian_eig": (("calls", "busy_s"), None),
    "linalg.kron": (("calls", "busy_s"), None),
    "linalg.embed_operator": (("calls", "busy_s"), None),
    "representations.build_reducible": (
        ("calls", "busy_s", "dim_max"), lambda a, r: {"dim": r.dim}),
    "dynamics.jc_hamiltonian": (("calls", "busy_s"), None),
    "dynamics.evolve": (("calls", "busy_s", "self_s"), None),
    "representations.central_spectral_projectors": (("calls", "busy_s"), None),
    "representations.ccr_check": (("calls", "busy_s"), None),
    "dynamics.closed_form_evolution": (("calls", "busy_s"), None),
    "entanglement.partial_trace": (("calls", "busy_s"), None),
    "entanglement.trace_distance": (("calls", "busy_s"), None),
    "entanglement.concurrence": (("calls", "busy_s"), None),
    "entanglement.schmidt_coefficients": (("calls", "busy_s"), None),
}

#: Traced functions each workload must call. A traced run fails if one of
#: its names that the package still defines records no call: that is how
#: a binding the patching missed shows up. Together they cover ``TRACED``.
EXERCISED = {
    "ensemble-sweep": (
        "dynamics.rho_atoms_reducible", "representations.log_binomial_weights",
        "representations.log_joint_weights"),
    "brute-force": (
        "linalg.expm_generator", "linalg.hermitian_eig", "linalg.kron",
        "linalg.embed_operator", "representations.build_reducible",
        "dynamics.jc_hamiltonian", "dynamics.evolve"),
    "default-session": (
        "representations.central_spectral_projectors",
        "representations.ccr_check", "dynamics.closed_form_evolution",
        "entanglement.partial_trace", "entanglement.trace_distance",
        "entanglement.concurrence", "entanglement.schmidt_coefficients"),
}

#: Span name of the benchmark's own call of ``ScenarioReport.write``.
REPORT_WRITE = "scenarios.report_write"

UNITS = {
    "calls": "count", "busy_s": "s", "self_s": "s", "cells": "count",
    "useful_frac": "ratio", "entries": "count", "dim_max": "dim",
    "n3_sum": "dim3", "bytes": "B",
}


def layer_metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    out = {}
    for name, (stats, _) in TRACED.items():
        for stat in stats:
            out[f"{name}.{stat}"] = UNITS[stat]
    for n in ENSEMBLE_GRID:
        out[f"dynamics.rho_atoms_reducible.ms_per_call.N{n}"] = "ms"
    for job in all_job_names():
        out[f"scenarios.{job}.busy_s"] = "s"
        out[f"scenarios.{job}.self_s"] = "s"
    for stat in ("calls", "busy_s", "bytes"):
        out[f"{REPORT_WRITE}.{stat}"] = UNITS[stat]
    out["trace.pass_s"] = "s"
    out["trace.untraced_pass_s"] = "s"
    out["trace.overhead_s"] = "s"
    return out


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    job: str
    counts: dict = field(default_factory=dict)


class Tracer:
    """Records spans in memory; ``job`` tags every span opened under it."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.job = ""

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.job))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int) -> Span:
        span = self.spans[idx]
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {span.name} closed out of order")
        return span

    def wrap(self, name: str, fn, count=None):
        sig = inspect.signature(fn)

        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                span = self.close(idx)
            if count is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span.counts = count(bound.arguments, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield self.spans[idx]
        finally:
            self.close(idx)

    def rows(self) -> list[dict]:
        return [{"id": i, **asdict(s)} for i, s in enumerate(self.spans)]


def install(tracer: Tracer) -> tuple[list, list]:
    """Wrap every binding of every ``TRACED`` function in the package.

    Bindings are found by identity in every loaded module of the package,
    so aliases are wrapped too. Returns the ``(module, attribute,
    original)`` triples that ``restore`` puts back, and the traced names
    the package no longer defines.
    """
    modules = {name: mod for name, mod in sys.modules.items()
               if mod is not None and (name == "ccrlab" or name.startswith("ccrlab."))}
    patched, absent = [], []
    for qualname, (_, count) in TRACED.items():
        modname, attr = qualname.rsplit(".", 1)
        original = getattr(modules[f"ccrlab.{modname}"], attr, None)
        if original is None:
            absent.append(qualname)
            continue
        wrapper = tracer.wrap(qualname, original, count)
        for mod in modules.values():
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    patched.append((mod, key, original))
    return patched, absent


def restore(patched: list[tuple]) -> None:
    for mod, key, original in reversed(patched):
        setattr(mod, key, original)
    for mod, key, original in patched:
        if getattr(mod, key) is not original:
            raise RuntimeError(f"could not restore {mod.__name__}.{key}")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cursor = s.start
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, cursor), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((s.end - s.start) - covered)
    return out


def _outermost(spans: list[Span], idx: int) -> bool:
    """False if the span is nested inside another span of the same name."""
    name = spans[idx].name
    parent = spans[idx].parent
    while parent is not None:
        if spans[parent].name == name:
            return False
        parent = spans[parent].parent
    return True


def pass_stats(spans: list[Span]) -> dict[str, float]:
    """Per-layer metric values of one pass, from that pass's spans."""
    selfs = self_times(spans)
    acc: dict[str, dict] = {}
    per_n: dict[int, list[float]] = {}
    for i, s in enumerate(spans):
        a = acc.setdefault(s.name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0,
                                    "max": {}, "sum": {}})
        dur = s.end - s.start
        a["calls"] += 1
        if _outermost(spans, i):
            a["busy_s"] += dur
        a["self_s"] += selfs[i]
        for key, value in s.counts.items():
            a["sum"][key] = a["sum"].get(key, 0) + value
            a["max"][key] = max(a["max"].get(key, 0), value)
        if s.name == "dynamics.rho_atoms_reducible":
            per_n.setdefault(s.counts.get("n"), []).append(dur)

    def get(name, key="calls"):
        return acc.get(name, {}).get(key, 0)

    def total(name, key):
        return acc.get(name, {}).get("sum", {}).get(key, 0)

    def peak(name, key):
        return acc.get(name, {}).get("max", {}).get(key, 0)

    out = {}
    for metric in layer_metric_units():
        name, stat = metric.rsplit(".", 1)
        if metric.startswith("trace."):
            continue
        if ".ms_per_call.N" in metric:
            durs = per_n.get(int(stat[1:]), [])
            out[metric] = 1e3 * sum(durs) / len(durs) if durs else 0.0
        elif stat in ("calls", "busy_s", "self_s"):
            out[metric] = get(name, stat)
        elif stat in ("cells", "entries", "bytes"):
            out[metric] = total(name, stat)
        elif stat == "useful_frac":
            cells = total(name, "cells")
            out[metric] = total(name, "useful") / cells if cells else 0.0
        elif stat == "dim_max":
            out[metric] = peak(name, "dim")
        elif stat == "n3_sum":
            out[metric] = total(name, "n3")
    return out
