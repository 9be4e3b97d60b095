"""Named end-to-end experiments binding representations, dynamics and measures.

Each scenario builds its representations, runs the dynamics, evaluates the
relevant entanglement accounting, and returns a :class:`ScenarioReport`
whose assertions each carry the tolerance they were judged against.
An assertion measured over a grid {argument: value} (times, ensemble
sizes, sectors) is judged by its largest value, and a failing one names
the argument of that value in its detail. :func:`validate` runs the
invariant suite that :func:`invariants` yields, one check at a time.
Reports serialize to JSON and CSV deterministically: identical
configuration and seed give byte-identical files (numbers are written
with round-trip-safe precision and no timestamps are recorded), with one
BLAS thread or two, since no reported value is a BLAS reduction whose
summation order depends on the thread count.

Sweep points are independent pure evaluations; they are executed here in
deterministic key order, which is also the required merge order for any
parallel driver.
"""

from __future__ import annotations

import copy
import json
import math
import random
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import __version__
from . import dynamics as dyn
from . import entanglement as ent
from . import fock
from . import representations as reps
from .exceptions import ConfigError, SizeLimitError
from .linalg import (
    StateVector,
    expm_generator,
    kron,
    matricize,
)

DEFAULT_TIMES = (0.0, math.pi / 8, math.pi / 4, 3 * math.pi / 8, math.pi / 2)

#: Default ensemble sizes per scenario that sweeps over N.
DEFAULT_N_VALUES = {
    "reducible-brute": (1, 2, 3),
    "reducible-limit": (100, 1000, 10000),
    "single-mode": (1, 2, 3, 4),
}

#: Largest ``profile.modes``: each mode costs a label and a probability,
#: so a larger profile spends memory (~200 MB at 1e6) before any scenario
#: starts.
MAX_PROFILE_MODES = 10**6

_CUT_FIELDS = ("entropy", "schmidt_1", "schmidt_2")

#: Acceptance bound of each scenario check. No config overrides them, so
#: a verdict depends only on the representation and physics a config states.
TOLERANCES = {
    "entropy": 1e-12,
    "schmidt_rank": 1e-12,
    "commutator": 1e-12,
    "locality": 1e-10,
    "rho_match": 1e-10,
    "rep_agreement": 1e-10,
    "concurrence": 1e-10,
    "bell_vacuum": 1e-10,
    "nonproduct_min": 1e-2,
    "brute_match": 1e-8,
    "coherence": 1e-10,
    "limit_match": 1e-12,
    "zero_time": 1e-12,
    "entangled_min": 0.1,
}


def _coerce(convert, value, key: str):
    """``convert(value)``; a value it cannot take is a ConfigError naming ``key``.

    So are an empty list and a boolean, alone or in a list: Python would
    take JSON ``true`` as the number 1. Integer keys refuse a float with a
    fractional part (:func:`_integer`).
    """
    items = value if isinstance(value, (list, tuple)) else (value,)
    if not items:
        raise ConfigError(f"config key {key!r} needs at least one value, got {value!r}")
    if any(isinstance(v, bool) for v in items):
        raise ConfigError(f"config key {key!r} takes numbers, not booleans, got {value!r}")
    try:
        return convert(value)
    except (TypeError, ValueError):
        raise ConfigError(f"config key {key!r} has an invalid value {value!r}") from None


def _integer(value) -> int:
    """``int(value)``, refusing a float with a fractional part, which int() truncates."""
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


def _seed(value) -> int:
    """:func:`validate`'s seed: an integer in [0, 2**64), not a boolean, else a ConfigError."""
    try:
        if not isinstance(value, bool) and 0 <= (seed := _integer(value)) < 2**64:
            return seed
    except (TypeError, ValueError):
        pass
    raise ConfigError(f"seed must be an unsigned 64-bit integer, got {value!r}")


def _tuple_of(convert):
    return lambda values: tuple(convert(v) for v in values)


@dataclass(frozen=True)
class ScenarioConfig:
    """Configuration of one scenario run: the scenario and its physics only.

    The acceptance bounds are fixed in :data:`TOLERANCES` and the output
    directory is the command line's ``--out``, so a config naming
    ``tolerances`` or ``out`` is a :class:`ConfigError` that says so, and
    the same config gives the same report wherever it is written.
    ``n_values`` covers the ensemble sizes of the reducible scenarios (the
    config file key is ``N``, scalar or list); ``profile`` is a vacuum
    profile spec with keys ``kind`` (uniform | plateau), ``modes``,
    optional ``window``/``rate`` for the plateau shape, and ``selected``
    (two 0-based label indices, default the first two). Values are
    coerced to their field types on construction; one that cannot be, an
    empty ``N`` or ``times`` list, one with a repeated entry, an ``N``
    below 1, a JSON boolean, or a non-integral float for an integer key
    is a :class:`ConfigError` naming its config key. The profile is
    parsed on construction too, whichever scenario is named, into
    ``parsed_profile`` (:func:`profile_from_spec`'s profile and labels),
    which is neither written by :meth:`to_dict` nor compared.
    """

    scenario: str
    n_max: int = 1
    d: int = 2
    cutoff: int = 1
    n_values: tuple[int, ...] | None = None
    profile: dict = field(default_factory=lambda: {"kind": "uniform", "modes": 2})
    times: tuple[float, ...] = DEFAULT_TIMES
    parsed_profile: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.scenario, str):
            raise ConfigError(f"config key 'scenario' takes a name, got {self.scenario!r}")
        coerced = {
            "n_max": _coerce(_integer, self.n_max, "n_max"),
            "d": _coerce(_integer, self.d, "d"),
            "cutoff": _coerce(_integer, self.cutoff, "cutoff"),
            "times": _coerce(_tuple_of(float), self.times, "times"),
        }
        if np.isscalar(self.n_values):
            coerced["n_values"] = (_coerce(_integer, self.n_values, "N"),)
        elif self.n_values is not None:
            coerced["n_values"] = _coerce(_tuple_of(_integer), self.n_values, "N")
        for name, value in coerced.items():
            object.__setattr__(self, name, value)
        for key, values in (("N", self.n_values or ()), ("times", self.times)):
            if len(set(values)) != len(values):
                raise ConfigError(f"config key {key!r} repeats an entry: {list(values)}")
        if min(self.n_values or (1,)) < 1:
            raise ConfigError(f"config key 'N' takes ensemble sizes >= 1, "
                              f"got {list(self.n_values)}")
        for t in self.times:
            if not 0.0 <= t <= 2 * math.pi + 1e-12:
                raise ConfigError(f"times must lie in [0, 2*pi], got {t}")
        object.__setattr__(self, "parsed_profile", profile_from_spec(self.profile))

    _KEY_MAP = {
        "scenario": "scenario",
        "n_max": "n_max",
        "d": "d",
        "cutoff": "cutoff",
        "N": "n_values",
        "profile": "profile",
        "times": "times",
    }
    #: Removed keys, with what replaces each.
    _REPLACED_KEYS = {
        "tolerances": "the acceptance bounds are fixed in scenarios.TOLERANCES",
        "out": "give the output directory with --out",
    }

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        kwargs = {}
        for key, value in data.items():
            if key not in cls._KEY_MAP:
                hint = cls._REPLACED_KEYS.get(key, f"known keys: {sorted(cls._KEY_MAP)}")
                raise ConfigError(f"unknown config key {key!r}; {hint}")
            kwargs[cls._KEY_MAP[key]] = value
        if "scenario" not in kwargs:
            raise ConfigError("config must name a scenario")
        return cls(**kwargs)

    @classmethod
    def from_file(cls, path, scenario: str | None = None) -> "ScenarioConfig":
        """The config in the JSON file ``path``; ``scenario``, if given, replaces
        the file's ``scenario`` key or stands in for a missing one."""
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
        except (OSError, UnicodeDecodeError) as exc:
            reason = getattr(exc, "strerror", None) or exc
            raise ConfigError(f"cannot read config file {path}: {reason}") from None
        if not isinstance(data, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
        return cls.from_dict({**data, "scenario": scenario} if scenario else data)

    def to_dict(self) -> dict:
        out = {f.name: copy.deepcopy(getattr(self, f.name)) for f in fields(self) if f.init}
        out["times"] = list(self.times)
        if self.n_values is not None:
            out["n_values"] = list(self.n_values)
        return out

    def resolved_n_values(self) -> tuple[int, ...]:
        if self.n_values is not None:
            return self.n_values
        return DEFAULT_N_VALUES.get(self.scenario, (1, 2, 3))


@dataclass(frozen=True)
class Check:
    """One assertion, with the tolerance it was judged against."""

    name: str
    measured: float
    tolerance: float
    comparison: str  # "<=", ">=", or "<"
    passed: bool
    detail: str = ""


def _check(name: str, measured: float | dict, tolerance: float, comparison: str = "<=",
           detail: str = "") -> Check:
    """Judge ``measured`` against ``tolerance``; the one place a grid is reduced.

    ``measured`` is a number or a grid {argument: value}, judged by its
    largest value (NaN counts as largest). A failing grid check appends
    ``largest at <argument>`` to ``detail``; a passing one is unchanged.
    """
    where = ""
    if isinstance(measured, dict):
        worst, measured = max(measured.items(),
                              key=lambda item: (math.isnan(item[1]), item[1]))
        where = f"largest at {worst}"
    measured = float(measured)
    tolerance = float(tolerance)
    if comparison == "<=":
        ok = measured <= tolerance
    elif comparison == ">=":
        ok = measured >= tolerance
    elif comparison == "<":
        ok = measured < tolerance
    else:
        raise ConfigError(f"unknown comparison {comparison!r}")
    if not ok and where:
        detail = "; ".join(filter(None, (detail, where)))
    return Check(name, measured, tolerance, comparison, ok, detail)


@dataclass
class ScenarioReport:
    """Outcome of one scenario: data records, assertions, provenance."""

    scenario: str
    records: list[dict]
    checks: list[Check]
    skipped: list[dict]
    provenance: dict

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "passed": self.passed,
            "checks": [asdict(c) for c in self.checks],
            "records": self.records,
            "skipped": self.skipped,
            "provenance": self.provenance,
        }

    def json_bytes(self) -> bytes:
        return (json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n").encode()

    def csv_bytes(self) -> bytes:
        return _csv_bytes(self.records)

    def rho_csv_bytes(self) -> bytes:
        return _rho_csv_bytes(self.records)

    def write(self, out_dir) -> dict[str, Path]:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        paths = {}
        stem = self.scenario
        paths["json"] = out / f"{stem}.json"
        paths["json"].write_bytes(self.json_bytes())
        paths["csv"] = out / f"{stem}.csv"
        paths["csv"].write_bytes(self.csv_bytes())
        rho = self.rho_csv_bytes()
        if rho:
            paths["rho_csv"] = out / f"{stem}_rho.csv"
            paths["rho_csv"].write_bytes(rho)
        return paths


def _fmt_csv(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


def _csv_bytes(rows: list[dict]) -> bytes:
    if not rows:
        return b""
    cols = [k for k in rows[0] if k != "rho"]
    lines = [",".join(cols)]
    for row in rows:
        lines.append(",".join(_fmt_csv(row.get(c)) for c in cols))
    return ("\n".join(lines) + "\n").encode()


def _rho_csv_bytes(rows: list[dict]) -> bytes:
    with_rho = [r for r in rows if "rho" in r]
    if not with_rho:
        return b""
    context = [k for k in with_rho[0] if k != "rho" and not isinstance(
        with_rho[0][k], (list, dict))]
    cols = context + ["row", "col", "re", "im"]
    lines = [",".join(cols)]
    for row in with_rho:
        prefix = [_fmt_csv(row.get(c)) for c in context]
        for i, rho_row in enumerate(row["rho"]):
            for j, (re, im) in enumerate(rho_row):
                lines.append(",".join(prefix + [str(i), str(j),
                                                _fmt_csv(re), _fmt_csv(im)]))
    return ("\n".join(lines) + "\n").encode()


def _rho_entry(rho: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in rho]


def _provenance(config_echo: dict) -> dict:
    return {
        "config": config_echo,
        "versions": {
            "ccrlab": __version__,
            "numpy": np.__version__,
        },
    }


def _index_pair(value, key: str) -> tuple[int, int]:
    pair = _coerce(_tuple_of(_integer), value, key)
    if len(pair) != 2:
        raise ConfigError(f"config key {key!r} needs two indices, got {value!r}")
    return pair


def profile_from_spec(spec: dict) -> tuple[reps.VacuumProfile, tuple[str, str]]:
    """Build a vacuum profile and pick the two coupled mode labels.

    A value the profile cannot take is a :class:`ConfigError` naming its
    config key: ``profile.modes``, ``profile.window``, ``profile.rate`` or
    ``profile.selected``, raised before any profile array is built.
    """
    if not isinstance(spec, dict):
        raise ConfigError(f"profile spec must be a mapping, got {type(spec).__name__}")
    known = {"kind", "modes", "window", "rate", "selected"}
    for key in spec:
        if key not in known:
            raise ConfigError(f"unknown profile key {key!r}; known: {sorted(known)}")
    kind = spec.get("kind", "uniform")
    if kind not in ("uniform", "plateau"):
        raise ConfigError(f"unknown profile kind {kind!r} (uniform | plateau)")
    modes = _coerce(_integer, spec.get("modes", 2), "profile.modes")
    if not 1 <= modes <= MAX_PROFILE_MODES:
        raise ConfigError(f"config key 'profile.modes' is {modes}, outside the "
                          f"supported 1..{MAX_PROFILE_MODES}")
    selected = _index_pair(spec.get("selected", (0, 1)), "profile.selected")
    if not all(0 <= i < modes for i in selected):
        raise ConfigError(f"config key 'profile.selected' is {list(selected)}, out of "
                          f"range for {modes} modes")
    if selected[0] == selected[1]:
        raise ConfigError(f"config key 'profile.selected' repeats a mode: {list(selected)}")
    if kind == "uniform":
        profile = reps.VacuumProfile.uniform(modes)
    else:
        window = _index_pair(spec.get("window", (0, min(1, modes - 1))), "profile.window")
        if not 0 <= window[0] <= window[1] < modes:
            raise ConfigError(f"config key 'profile.window' is {list(window)}, out of "
                              f"range for {modes} modes (need 0 <= lo <= hi < modes)")
        rate = _coerce(float, spec.get("rate", 1.0), "profile.rate")
        if not (math.isfinite(rate) and rate >= 0):
            raise ConfigError(f"rolloff rate must be finite and >= 0, got {rate} "
                              "(config key 'profile.rate')")
        profile = reps.VacuumProfile.plateau(modes, window, rate)
    return profile, tuple(profile.labels[i] for i in selected)


def simulated_atomic_density(
    rep: reps.Representation,
    t: float | np.ndarray,
    modes: tuple[str, str],
) -> np.ndarray:
    """Brute-force two-atom density: evolve and trace out the field.

    Both atoms start in the ground state with one photon shared between
    the two modes; atom slot 0 couples to ``modes[0]``, slot 1 to
    ``modes[1]``. :func:`~ccrlab.dynamics.evolve` runs exactly on the
    initial state's one-excitation sector (no 4 d_field x 4 d_field
    matrix is formed), on the generator the representation implies:
    H / sqrt(Z) for the reducible ensemble, H for the irreducible ones.
    It propagates on the state's Krylov space, of dimension 2N for the
    N-oscillator ensemble and 2 for the irreducible representations,
    with one diagonalization of that size for all times and no stack of
    sector propagators. The atoms' density is the
    partial trace of the evolved pure states, one batched product for
    the whole grid. ``t`` is a scalar (returns a 4x4 matrix) or a 1-D
    array of T times (returns a (T, 4, 4) stack); the result is
    ``complex`` for every grid, the empty one included.
    """
    psi0 = dyn.single_photon_initial_state(rep, modes)
    states = dyn.evolve(rep, [(modes[0], 0), (modes[1], 1)], psi0, t)
    return ent.partial_trace(states, ent.Bipartition(("atom1", "atom2")))


def closed_form_atomic_density(rep: reps.Representation, t: float | np.ndarray,
                               modes: tuple[str, str]) -> np.ndarray:
    """Closed-form twin of :func:`simulated_atomic_density` for the same ``rep``.

    :func:`~ccrlab.dynamics.rho_atoms` of the representation's central
    measure over ``modes`` (:func:`~ccrlab.dynamics.central_measure`) at
    the Z of the generator that :func:`~ccrlab.dynamics.evolve` runs on.
    """
    return dyn.rho_atoms(t, dyn.central_measure(rep, modes), dyn._generator_scale(rep))


def _dense_mode_cut(rep: reps.Representation, modes: tuple[str, ...],
                    factor: str) -> tuple[float, float, float]:
    """Entropy and first two Schmidt coefficients of a mode excitation, factor | rest.

    The state is :func:`~ccrlab.representations.mode_excitation_state` of
    ``modes``: a_k^dag |vacuum> for one mode, the shared photon for several.
    The entropy is :func:`~ccrlab.entanglement.marginal_entropy`'s
    -sum p ln p of the squared coefficients, from the one decomposition.
    """
    psi = reps.mode_excitation_state(rep, *modes)
    sv = ent.schmidt_coefficients(psi, ent.Bipartition((factor,)))
    return ent._entropy(sv**2), float(sv[0]), _second(sv)


def _second(sv: np.ndarray) -> float:
    """The second of a nonincreasing coefficient list, 0 if there is none."""
    return float(sv[1]) if sv.size > 1 else 0.0


#: Skip reason of the checks that need a time after the start.
_NO_LATER_TIME = "no t > 0 in the time grid"

#: Berezin's nonproduct checks are judged only where kappa t reaches this
#: multiple of nonproduct_min at some t of the grid. Over every admissible
#: (d, cutoff) and t in (0, 2 pi], coefficient #2 is below nonproduct_min
#: only where kappa t < 1.0099 nonproduct_min (largest at d = 255, cutoff 1).
_NONPRODUCT_ONSET = 1.1


def _half_pi_index(times, check: str, skipped: list[dict]) -> int | None:
    """Index of pi/2 in ``times``; if it is absent, ``check`` is recorded as skipped."""
    hits = np.flatnonzero(np.abs(np.subtract(times, math.pi / 2)) < 1e-12)
    if hits.size:
        return int(hits[-1])
    skipped.append({"check": check, "reason": "pi/2 not in the time grid"})
    return None


def _scenario_infinity(cfg: ScenarioConfig) -> ScenarioReport:
    rep = reps.build_infinity_two_mode(cfg.n_max)
    modes = ("mode1", "mode2")
    checks: list[Check] = []
    skipped: list[dict] = []

    checks.append(_check(
        "initial_mode_entropy_ln2",
        abs(_dense_mode_cut(rep, modes, "mode1")[0] - math.log(2.0)),
        TOLERANCES["entropy"],
        detail="mode-bipartition entropy of the shared single photon vs ln 2",
    ))
    checks.append(_check(
        "single_mode_product_state",
        abs(_dense_mode_cut(rep, ("mode1",), "mode1")[0]),
        TOLERANCES["entropy"],
        detail="one-mode excitation is a product state across the modes",
    ))

    # the two pairs fill disjoint atom blocks, so their sum is the joint H
    h1 = dyn.jc_hamiltonian(rep, [("mode1", 0)])
    h2 = dyn.jc_hamiltonian(rep, [("mode2", 1)])
    h = h1 + h2
    checks.append(_check(
        "mode_hamiltonians_commute",
        float(np.max(np.abs(h1 @ h2 - h2 @ h1))),
        TOLERANCES["commutator"],
    ))

    psi0 = dyn.single_photon_initial_state(rep, modes)
    m = cfg.n_max + 1
    a_single = fock.annihilation(cfg.n_max)
    half = _half_pi_index(cfg.times, "concurrence_at_half_pi", skipped)
    propagators = expm_generator(h, cfg.times)
    local_propagators = dyn.closed_form_evolution(a_single, cfg.times)
    locality = np.array([np.max(np.abs(u - matricize(
        kron(u_local, u_local), (2, m, 2, m) * 2, (0, 2, 1, 3), (4, 6, 5, 7))))
        for u, u_local in zip(propagators, local_propagators)])
    atoms = ent.partial_trace(StateVector(propagators @ psi0.amplitudes, psi0.factorization),
                              ent.Bipartition(("atom1", "atom2")))
    dist = ent.trace_distance(atoms, closed_form_atomic_density(rep, cfg.times, modes))
    conc = ent.concurrence(atoms)
    records = [
        {"t": t, "locality_deviation": loc, "trace_distance_closed_form": d,
         "concurrence": c, "atoms_entropy": e, "rho": _rho_entry(rho)}
        for t, loc, d, c, e, rho in zip(
            cfg.times, locality.tolist(), dist.tolist(), conc.tolist(),
            ent.von_neumann_entropy(atoms).tolist(), atoms)
    ]

    checks.append(_check(
        "propagator_local_product", np.max(locality), TOLERANCES["locality"],
        detail="full propagator vs product of (atom, mode)-local propagators",
    ))
    checks.append(_check(
        "atomic_density_closed_form", np.max(dist), TOLERANCES["rho_match"],
    ))
    if half is not None:
        checks.append(_check(
            "concurrence_at_half_pi", abs(conc[half] - 1.0),
            TOLERANCES["concurrence"],
        ))
    return ScenarioReport("infinity", records, checks, skipped,
                          _provenance(cfg.to_dict()))


def _scenario_berezin(cfg: ScenarioConfig) -> ScenarioReport:
    rep_b = reps.build_berezin(cfg.d, cfg.cutoff, [1, 2])
    rep_i = reps.build_infinity_two_mode(cfg.n_max)
    modes_b = ("f1", "f2")
    checks: list[Check] = []
    skipped: list[dict] = []

    psi0 = dyn.single_photon_initial_state(rep_b, modes_b)
    atoms = ent.Bipartition(("atom1", "atom2"))
    sv = ent.schmidt_coefficients(psi0, atoms)
    checks.append(_check(
        "initial_atoms_field_product", _second(sv), TOLERANCES["schmidt_rank"],
        detail="second Schmidt coefficient of the initial atoms|field cut",
    ))

    h_b = dyn.jc_hamiltonian(rep_b, [("f1", 0), ("f2", 1)])
    fact_full = dyn.coupled_factorization(rep_b)
    half = _half_pi_index(cfg.times, "bell_times_unique_vacuum", skipped)
    propagators = expm_generator(h_b, cfg.times)
    splits = {keep: np.array([_second(ent.operator_schmidt_coefficients(
        u, fact_full, ent.Bipartition(keep))) for u in propagators])
        for keep in (("atom1",), ("atom1", "field"))}
    states = StateVector(propagators @ psi0.amplitudes, psi0.factorization)
    atoms_b = ent.partial_trace(states, atoms)
    atoms_i = simulated_atomic_density(rep_i, cfg.times, ("mode1", "mode2"))
    dist_closed = ent.trace_distance(
        atoms_b, closed_form_atomic_density(rep_b, cfg.times, modes_b))
    dist_cross = ent.trace_distance(atoms_b, atoms_i)
    records = [
        {"t": t, "op_schmidt2_atom1": a, "op_schmidt2_atom1_field": af,
         "trace_distance_closed_form": dc, "trace_distance_vs_infinity": dx,
         "concurrence": c, "rho": _rho_entry(rho)}
        for t, a, af, dc, dx, c, rho in zip(
            cfg.times, *(v.tolist() for v in splits.values()), dist_closed.tolist(),
            dist_cross.tolist(), ent.concurrence(atoms_b).tolist(), atoms_b)
    ]

    t_max, floor = max(cfg.times), TOLERANCES["nonproduct_min"]
    # to first order in t, coefficient #2 is kappa t, with kappa =
    # |a_k|_HS / sqrt(2 d_field) for the mode a_k coupled across the cut
    for (keep, seconds), mode in zip(splits.items(), modes_b):
        name = f"propagator_nonproduct_{'_'.join(keep)}"
        kappa = float(np.linalg.norm(rep_b.lowering[mode])) / math.sqrt(2 * rep_b.dim)
        if t_max == 0.0:
            skipped.append({"check": name, "reason": _NO_LATER_TIME})
        elif kappa * t_max < _NONPRODUCT_ONSET * floor:
            skipped.append({"check": name, "reason": (
                f"kappa t = {kappa * t_max:.4g} at the largest t is below "
                f"{_NONPRODUCT_ONSET} nonproduct_min: coefficient #2 grows as kappa t "
                f"(kappa = |a_{mode}|_HS / sqrt(2 d_field) = {kappa:.4g}), so the grid "
                "ends before the propagator must be nonproduct")})
        else:
            checks.append(_check(
                name, np.max(seconds), floor, comparison=">=",
                detail="operator Schmidt coefficient #2 must stay away from zero",
            ))
    checks.append(_check(
        "atomic_density_closed_form", np.max(dist_closed), TOLERANCES["rho_match"]))
    checks.append(_check(
        "agrees_with_infinity_rep", np.max(dist_cross), TOLERANCES["rep_agreement"],
        detail="irreducible representations share the same atomic dynamics",
    ))
    if half is not None:
        bell = np.zeros(4)
        bell[dyn.IDX_PM] = 1.0 / math.sqrt(2.0)
        bell[dyn.IDX_MP] = 1.0 / math.sqrt(2.0)
        target = kron(bell, rep_b.vacuum.amplitudes)
        checks.append(_check(
            "bell_times_unique_vacuum", 1.0 - abs(np.vdot(target, states.amplitudes[half])),
            TOLERANCES["bell_vacuum"],
            detail="final state overlap with (|+-> + |-+>)/sqrt(2) (x) vacuum",
        ))
    return ScenarioReport("berezin", records, checks, skipped,
                          _provenance(cfg.to_dict()))


def _coherence(rho: np.ndarray) -> np.ndarray:
    """|rho[+-, -+]| over a (T, 4, 4) stack, by hypot as Python's abs(complex)."""
    cross = rho[:, dyn.IDX_PM, dyn.IDX_MP]
    return np.hypot(cross.real, cross.imag)


def _scenario_reducible_brute(cfg: ScenarioConfig) -> ScenarioReport:
    profile, selected = cfg.parsed_profile
    checks: list[Check] = []
    skipped: list[dict] = []
    records: list[dict] = []

    n1 = None  # at N = 1: closed-form and brute-force coherence, concurrence by t
    for n in cfg.resolved_n_values():
        try:
            rep = reps.build_reducible(n, profile, cfg.n_max, list(selected))
        except SizeLimitError as exc:
            skipped.append({"check": f"brute_force_N{n}", "reason": str(exc)})
            continue
        closed = closed_form_atomic_density(rep, cfg.times, selected)
        brute = simulated_atomic_density(rep, cfg.times, selected)
        coh = _coherence(brute)
        conc = ent.concurrence(closed)
        if n == 1:
            n1 = [dict(zip(cfg.times, v)) for v in (_coherence(closed), coh, conc)]
        records += [
            {"n": n, "t": t, "trace_distance": d, "coherence_abs": c_abs,
             "concurrence_closed_form": c, "rho": _rho_entry(rho)}
            for t, d, c_abs, c, rho in zip(
                cfg.times, ent.trace_distance(brute, closed).tolist(),
                coh.tolist(), conc.tolist(), brute)
        ]
    if not records:
        raise SizeLimitError(
            "every configured ensemble size exceeds the brute-force ceiling"
        )
    checks.append(_check(
        "brute_force_matches_closed_form",
        {(r["n"], r["t"]): r["trace_distance"] for r in records},
        TOLERANCES["brute_match"]))
    # N = 1 has the smallest field, so it ran if configured and any N ran
    if n1 is not None:
        checks.append(_check(
            "coherence_extinct_n1_closed_form", n1[0], 0.0,
            detail="cross coherence weight vanishes identically at N = 1",
        ))
        checks.append(_check(
            "coherence_extinct_n1_brute", n1[1], TOLERANCES["coherence"]))
        checks.append(_check(
            "concurrence_zero_n1", n1[2], TOLERANCES["concurrence"]))
    else:
        skipped.append({"check": "coherence_extinct_n1",
                        "reason": "N = 1 not in the configured ensemble sizes"})
    return ScenarioReport("reducible-brute", records, checks, skipped,
                          _provenance(cfg.to_dict()))


def convergence_sweep(cfg: ScenarioConfig) -> ScenarioReport:
    """Distance between the finite-ensemble and limiting atomic densities.

    Tabulates D(N, t) = trace distance between the N-oscillator closed
    form and its large-N limit over the configured ensemble sizes and time
    grid; asserts that D shrinks from the smallest to the largest N at
    every t > 0 with N_min z_min >= t^2 (1 - z_min), z_min = min(Z1, Z2),
    and records every other t > 0 as skipped (later, the spread of Rabi
    frequencies sqrt(s / (N Z)) dephases the finite ensemble and D is an
    O(1) oscillation in N and t), and that D is zero at t = 0. This is
    the ``reducible-limit`` scenario; a config naming any other is a
    :class:`ConfigError`.
    """
    if cfg.scenario != "reducible-limit":
        raise ConfigError("the convergence sweep runs only 'reducible-limit', "
                          f"got {cfg.scenario!r}")
    profile, selected = cfg.parsed_profile
    z1 = profile.probability(selected[0])
    z2 = profile.probability(selected[1])
    z = profile.z_max
    n_values = sorted(cfg.resolved_n_values())
    checks: list[Check] = []
    skipped: list[dict] = []

    limits = dyn.rho_atoms_limit(cfg.times, z1, z2, z)
    closed = np.array([dyn.rho_atoms_reducible(cfg.times, n, z1, z2, z)
                       for n in n_values])
    # distance[i, j]: D(N = n_values[i], t = times[j])
    distance = ent.trace_distance(closed, np.broadcast_to(limits, closed.shape))
    records = [
        {"n": n, "t": t, "z1": z1, "z2": z2, "z": z, "trace_distance": d}
        for n, row in zip(n_values, distance.tolist())
        for t, d in zip(cfg.times, row)
    ]

    if len(n_values) < 2:
        skipped.append({"check": "d_decreasing",
                        "reason": "need at least two ensemble sizes"})
    elif max(cfg.times) == 0.0:
        skipped.append({"check": "d_decreasing", "reason": _NO_LATER_TIME})
    else:
        n_lo, n_hi = n_values[0], n_values[-1]
        z_min = min(z1, z2)
        for t, d_lo, d_hi in zip(cfg.times, distance[0], distance[-1]):
            if t == 0.0:
                continue
            name, spread = f"d_decreasing_t_{t:.6f}", t * t * (1.0 - z_min)
            if n_lo * z_min < spread:
                skipped.append({"check": name, "reason": (
                    f"N_min z_min = {n_lo * z_min:.6g} < t^2 (1 - z_min) = {spread:.6g}; "
                    "the ordering is asserted only where N_min z_min >= t^2 (1 - z_min): "
                    "later the spread of Rabi frequencies dephases the ensemble and "
                    "D(N, t) need not fall with N")})
            else:
                checks.append(_check(name, d_hi - d_lo, 0.0, comparison="<",
                                     detail=f"D(N={n_hi}) < D(N={n_lo})"))
    if 0.0 in cfg.times:
        checks.append(_check(
            "zero_time_distance",
            np.max(distance[:, cfg.times.index(0.0)]),
            TOLERANCES["zero_time"],
            detail="no dynamics at t = 0, both forms give the ground projector",
        ))
    if abs(z1 - z2) < 1e-15 and abs(z1 - z) < 1e-15:
        worst = np.max(ent.trace_distance(limits, dyn.rho_atoms_irreducible(cfg.times)))
        checks.append(_check(
            "limit_matches_irreducible", worst, TOLERANCES["limit_match"],
            detail="with both modes on the plateau the limit is the "
                   "irreducible density",
        ))
    return ScenarioReport("reducible-limit", records, checks, skipped,
                          _provenance(cfg.to_dict()))


def _scenario_single_mode(cfg: ScenarioConfig) -> ScenarioReport:
    profile, selected = cfg.parsed_profile
    checks: list[Check] = []
    skipped: list[dict] = []
    records: list[dict] = []

    for n in cfg.resolved_n_values():
        if n > dyn.MAX_ENSEMBLE:
            skipped.append({"check": f"single_mode_N{n}", "reason": f"ensemble size "
                            f"{n} exceeds the supported {dyn.MAX_ENSEMBLE}"})
            continue
        entropy, *_ = cut = reps.single_mode_cut(n, profile, selected[0], cfg.n_max)
        records.append({"kind": "reducible", "n": n, **dict(zip(_CUT_FIELDS, cut))})
        if n == 1:
            checks.append(_check(
                "degenerate_single_oscillator", abs(entropy),
                TOLERANCES["entropy"],
                detail="one oscillator admits no bipartition entanglement",
            ))
        elif reps.fits_brute_force(n, profile, cfg.n_max):
            checks.append(_check(
                f"entangled_with_vacuum_N{n}", entropy,
                TOLERANCES["entangled_min"], comparison=">=",
                detail="1|(N-1) oscillator bipartition entropy in nats; "
                       "cross-representation comparisons of the degree of "
                       "entanglement are measure-dependent",
            ))
        else:
            factor_dim = len(profile.labels) * (cfg.n_max + 1)
            skipped.append({"check": f"entangled_with_vacuum_N{n}", "reason": (
                f"h(1/N) = {entropy:.4e} nats falls like ln N / N; the fixed "
                "entangled_min threshold is checked only where the dense "
                "route is admitted (brute-force ceiling): here the factor "
                f"dimension {factor_dim} to the power N = {n} exceeds the "
                f"ceiling {reps.BRUTE_FORCE_CEILING}")})

    try:
        rep_i = reps.build_infinity_two_mode(cfg.n_max)
    except SizeLimitError as exc:
        skipped.append({"check": "infinity_analogue_product", "reason": str(exc)})
    else:
        cut = _dense_mode_cut(rep_i, ("mode1",), "mode1")
        records.append({"kind": "infinity", "n": None, **dict(zip(_CUT_FIELDS, cut))})
        checks.append(_check(
            "infinity_analogue_product", abs(cut[0]), TOLERANCES["entropy"],
            detail="the same excitation is a product state in the two-mode "
                   "irreducible representation",
        ))
    return ScenarioReport("single-mode", records, checks, skipped,
                          _provenance(cfg.to_dict()))


_SCENARIOS = {
    "infinity": _scenario_infinity,
    "berezin": _scenario_berezin,
    "reducible-brute": _scenario_reducible_brute,
    "reducible-limit": convergence_sweep,
    "single-mode": _scenario_single_mode,
}

SCENARIO_NAMES = tuple(_SCENARIOS)


def run_scenario(cfg: ScenarioConfig) -> ScenarioReport:
    """Run one named scenario; see SCENARIO_NAMES for the choices."""
    try:
        runner = _SCENARIOS[cfg.scenario]
    except KeyError:
        raise ConfigError(
            f"unknown scenario {cfg.scenario!r}; known: {sorted(_SCENARIOS)}"
        ) from None
    return runner(cfg)


def _complex_normal(rng: random.Random, *shape: int) -> np.ndarray:
    """Array of complex draws with standard normal real and imaginary parts."""
    size = math.prod(shape)
    draws = np.array([rng.gauss(0.0, 1.0) for _ in range(2 * size)])
    return (draws[:size] + 1j * draws[size:]).reshape(shape)


def _random_hermitian(rng: random.Random, dim: int) -> np.ndarray:
    m = _complex_normal(rng, dim, dim)
    return (m + m.conj().T) / 2.0


def _random_unitary(rng: random.Random, dim: int) -> np.ndarray:
    q, r = np.linalg.qr(_complex_normal(rng, dim, dim))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def validate(seed: int = 0) -> ScenarioReport:
    """Run the full invariant suite (:func:`invariants`) with a fixed seed.

    Covers the linear-algebra contracts, the closed-form propagator against
    the matrix-exponential oracle, commutation-relation reports for all
    three representations, excitation conservation, the brute-force
    reproduction of the closed-form atomic densities, vacuum weight
    identities and the central-element spectral machinery. Assertion
    verdicts are seed-robust; the seed only varies the random test points.
    A check measured over a grid (of (N, z), t, sectors (s, s'), ...) is
    judged by its largest value, and a failing one names the argument
    where that value occurred.

    The seed, an integer in [0, 2**64) (else :class:`ConfigError`), feeds
    Python's ``random.Random``, so a fresh process never loads
    ``numpy.random``. Reports written while numpy's ``default_rng`` drew
    the points hold other measured values for the same seed.
    """
    seed = _seed(seed)
    checks = [_check(*args) for args in invariants(random.Random(seed))]
    return ScenarioReport("validate", [asdict(c) for c in checks], checks, [],
                          _provenance({"scenario": "validate", "seed": seed}))


def invariants(rng: random.Random):
    """:func:`validate`'s checks in report order, each as :func:`_check` arguments.

    Yields (name, measured, tolerance[, comparison, detail]) tuples, with
    ``measured`` a number or a grid {argument: value}. The checks share
    the representations built here, and each check is computed just
    before it is yielded, so timing each step of the iteration times one
    check.
    """
    # Linear-algebra contracts.
    h8 = _random_hermitian(rng, 8)
    w, v = np.linalg.eigh(h8)
    yield "eig_reconstruction", np.max(np.abs(h8 - (v * w) @ v.conj().T)), 1e-10
    yield "eig_unitarity", np.max(np.abs(v.conj().T @ v - np.eye(8))), 1e-10

    h6 = _random_hermitian(rng, 6)
    u_st, u_s, u_t = expm_generator(h6, (1.1, 0.4, 0.7))
    yield "expm_group_property", np.max(np.abs(u_st - u_s @ u_t)), 1e-10

    u3, u4 = _random_unitary(rng, 3), _random_unitary(rng, 4)
    u34 = kron(u3, u4)
    yield "kron_unitarity", np.max(np.abs(u34 @ u34.conj().T - np.eye(12))), 1e-10
    trip = [_complex_normal(rng, 2, 2) for _ in range(3)]
    yield "kron_associativity", np.max(np.abs(kron(trip[0], kron(trip[1], trip[2]))
                                              - kron(kron(trip[0], trip[1]), trip[2]))), 1e-12

    # Closed-form propagator against the exponential oracle.
    grid = (0.3, 0.9, math.pi / 2)
    deviation = {}
    for dim in (2, 3, 4, 5, 6):
        a = _complex_normal(rng, dim, dim)
        h = np.kron(dyn.ATOM_LOWERING.conj().T, a) + np.kron(
            dyn.ATOM_LOWERING, a.conj().T)
        deviation[dim] = np.max(np.abs(
            dyn.closed_form_evolution(a, grid) - expm_generator(h, grid)))
    yield ("propagator_closed_form", deviation, 1e-10, "<=",
           "SVD block form vs exp(-iHt) on random couplings")

    # Representations: algebra, vacua, conservation, reductions.
    profile = reps.VacuumProfile.uniform(2)
    built = {
        "infinity": reps.build_infinity_two_mode(1),
        "berezin": reps.build_berezin(2, 2, [1, 2]),
        "reducible": reps.build_reducible(2, profile, 1),
    }
    for kind, rep in built.items():
        yield f"ccr_{kind}", reps.ccr_check(rep), 1e-12
        pairs = [(rep.mode_labels[0], 0), (rep.mode_labels[1], 1)]
        h = dyn.jc_hamiltonian(rep, pairs)
        n_exc = dyn.excitation_numbers(rep)
        yield (f"excitation_conserved_{kind}",
               np.max(np.abs(h * (n_exc - n_exc[:, None]))), 1e-12)

    times = DEFAULT_TIMES
    simulated = {}
    for kind in ("infinity", "berezin"):
        rep = built[kind]
        simulated[kind] = simulated_atomic_density(rep, times, rep.mode_labels)
        yield f"irreducible_reduction_{kind}", dict(zip(times, ent.trace_distance(
            simulated[kind], closed_form_atomic_density(rep, times, rep.mode_labels)))), 1e-10
    yield "irreducible_reps_agree", dict(zip(times, ent.trace_distance(
        simulated["infinity"], simulated["berezin"]))), 1e-10

    spectrum, reduction = {}, {}
    cut_reps = []
    for n in (1, 2, 3):
        rep = built["reducible"] if n == 2 else reps.build_reducible(n, profile, 1)
        cut_reps.append(rep)
        reduction.update(zip([(n, t) for t in times], ent.trace_distance(
            simulated_atomic_density(rep, times, ("k1", "k2")),
            closed_form_atomic_density(rep, times, ("k1", "k2")))))
        # evolve's generator H / sqrt(Z) has eigenvalues +-sqrt(s / (N Z)) on
        # the one-excitation sector: N Z lambda^2 = N eig(H)^2 is s in 0..N
        h = dyn.jc_hamiltonian(rep, [("k1", 0), ("k2", 1)], excitations=(1,))
        x = n * np.linalg.eigvalsh(h) ** 2
        spectrum[n] = np.max(np.abs(x - np.clip(np.round(x), 0, n)))
    yield "ensemble_reduction_brute_force", reduction, 1e-8
    yield ("sector_spectrum_integers", spectrum, 1e-12, "<=",
           "N Z lambda^2 of the sector generator H / sqrt(Z) vs 0..N, N = 1, 2, 3")

    unit_sum, float64_error = {}, {}
    marginals = {}  # N = 1000 weights by z, reused by joint_sum_marginals
    for n in (1, 10, 1000, 10**6):
        for z in (0.1, 0.25, 0.5):
            support = reps.binomial_support(n, z)
            # the closed form's float64 table, whose weights are checked here
            table64 = reps._log_binomial_table(n, z)
            weights = np.exp(table64)
            unit_sum[n, z] = abs(float(weights.sum()) - 1.0)
            if n == 1000:
                marginals[z] = weights
            if n == 1 or z == 0.25:
                continue
            # window edges, the table's anchor floor(n z) and two interior
            # cells, each against the per-cell formula
            anchor = min(max(math.floor(n * z), support[0]), support[-1]) - support[0]
            picks = np.array([0, anchor // 2, anchor, (anchor + support.size) // 2,
                              support.size - 1])
            per_cell = reps.log_binomial_weights(n, support[picks], z)
            float64_error[n, z] = np.max(np.abs(np.expm1(table64[picks] - per_cell)))
    yield "weights_unit_sum", unit_sum, 1e-12
    yield ("float64_tables_vs_per_cell", float64_error, 1e-13, "<=",
           "relative weight error of the closed form's float64 tables, N up to 1e6")

    unit_sum = {(n, z1, z2): abs(float(reps.joint_sector_sum(n, z1, z2, *(
        np.ones(reps.binomial_support(n, zk).size) for zk in (z1, z2)))) - 1.0)
        for n in (10, 1000, 10**6) for z1, z2 in ((0.2, 0.05), (0.5, 0.5))}
    yield ("joint_weights_unit_sum", unit_sum, 1e-12, "<=",
           "multinomial sector weights, N up to 1e6, incl. z1 + z2 = 1")

    # With one table set to 1 the joint sum is the other mode's binomial
    # marginal, built above for weights_unit_sum.
    z_pair = (0.25, 0.1)
    w = [marginals[z] for z in z_pair]
    f = [np.array([rng.uniform(-1.0, 1.0) for _ in range(wk.size)]) for wk in w]
    ones = [np.ones(wk.size) for wk in w]
    # row 0 sums f over mode 1, row 1 over mode 2
    sums = reps.joint_sector_sum(1000, *z_pair, np.stack([f[0], ones[0]]),
                                 np.stack([ones[1], f[1]]))
    yield ("joint_sum_marginals",
           {f"mode {k + 1}": abs(float(sums[k]) - float(w[k] @ f[k])) for k in (0, 1)},
           1e-12, "<=", "joint sum over one mode vs the binomial marginal, N = 1e3")

    wide = reps.VacuumProfile.uniform(4)
    # Only k1's operators are read; k2's projectors need just the basis.
    rep3 = reps.build_reducible(3, wide, 1, ["k1"])
    spec1 = reps.central_spectral_projectors(rep3, "k1")
    spec2 = reps.central_spectral_projectors(rep3, "k2")
    vac = rep3.vacuum.amplitudes
    # mu's joint weights W[s, s'], its joint sum over unit tables
    _, joint = dyn.central_measure(rep3, ("k1", "k2"))
    eye = np.eye(4)
    weights = joint(eye[:, None], eye[None])
    sectors = [(s, sp) for s in range(4) for sp in range(4)]
    yield "joint_weights_vs_projectors", {(s, sp): abs(float(np.vdot(
        vac, spec1.projectors[s] * spec2.projectors[sp] * vac).real) - weights[s, sp])
        for s, sp in sectors}, 1e-12
    yield ("central_spectrum_completeness",
           np.max(np.abs(sum(spec1.projectors) - 1.0)), 1e-12)
    # the diagonal I_k1 against sum_s (s/N) E(s)
    recon = sum(float(ev) * d for ev, d in zip(spec1.eigenvalues, spec1.projectors))
    yield ("central_spectrum_reconstruction",
           np.max(np.abs(rep3.central["k1"] - recon)), 1e-10)
    yield "central_spectrum_orthogonality", {(s, sp): np.max(np.abs(
        spec1.projectors[s] * spec1.projectors[sp]
        - (spec1.projectors[s] if s == sp else 0.0))) for s, sp in sectors}, 1e-10

    # by (N, number of profile modes)
    yield "single_mode_entropy_closed_form", {
        (rep.n_oscillators, len(rep.profile.labels)): np.max(np.abs(np.subtract(
            _dense_mode_cut(rep, ("k1",), "osc1"),
            reps.single_mode_cut(rep.n_oscillators, rep.profile, "k1", rep.n_max))))
        for rep in cut_reps + [rep3]}, 1e-12

    rep2 = built["reducible"]
    vac2 = rep2.vacuum.amplitudes
    yield "vacuum_expectations", {
        (label, name): abs(float(np.vdot(vac2, op_vac).real) - profile.probability(label))
        for label, a_k in rep2.lowering.items()
        for name, op_vac in (("I", rep2.central[label] * vac2),
                             ("a a^dag", a_k @ a_k.conj().T @ vac2))}, 1e-12

    yield "limit_matches_irreducible", dict(zip(times, ent.trace_distance(
        dyn.rho_atoms_limit(times, 0.5, 0.5, 0.5), dyn.rho_atoms_irreducible(times)))), 1e-12
