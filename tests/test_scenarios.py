import json
import math
import os
import random
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ccrlab import cli
from ccrlab import dynamics as dyn
from ccrlab import entanglement as ent
from ccrlab import representations as reps
from ccrlab import scenarios
from ccrlab.exceptions import ConfigError, DomainError, SizeLimitError, ValidationError
from ccrlab.linalg import expm_generator
from ccrlab.scenarios import (
    DEFAULT_TIMES,
    MAX_PROFILE_MODES,
    SCENARIO_NAMES,
    ScenarioConfig,
    _check,
    closed_form_atomic_density,
    convergence_sweep,
    invariants,
    profile_from_spec,
    run_scenario,
    simulated_atomic_density,
    validate,
)


def binary_entropy(n: int) -> float:
    """h(1/n) in nats from a 40-digit mpmath evaluation."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        p = mpmath.mpf(1) / n
        return float(-p * mpmath.log(p) - (1 - p) * mpmath.log(1 - p)) if n > 1 else 0.0


def all_numbers_finite(obj):
    if isinstance(obj, dict):
        return all(all_numbers_finite(v) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return all(all_numbers_finite(v) for v in obj)
    if isinstance(obj, float):
        return math.isfinite(obj)
    return True


class TestConfig:
    def test_defaults(self):
        cfg = ScenarioConfig(scenario="infinity")
        assert cfg.times[-1] == pytest.approx(math.pi / 2)
        assert cfg.resolved_n_values() == (1, 2, 3)

    def test_from_dict_scalar_n(self):
        cfg = ScenarioConfig.from_dict({"scenario": "reducible-brute", "N": 2})
        assert cfg.n_values == (2,)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            ScenarioConfig.from_dict({"scenario": "infinity", "bogus": 1})

    def test_times_domain(self):
        with pytest.raises(ConfigError, match="0, 2"):
            ScenarioConfig(scenario="infinity", times=(7.0,))

    def test_profile_parsed_once_and_neither_written_nor_compared(self, monkeypatch):
        spec = {"kind": "uniform", "modes": 3}
        configs = [ScenarioConfig(scenario=name, n_values=(1, 100), profile=spec)
                   for name in ("reducible-brute", "reducible-limit", "single-mode")]
        profile, selected = configs[0].parsed_profile
        assert len(profile.labels) == 3 and selected == ("k1", "k2")
        assert "parsed_profile" not in configs[0].to_dict()
        assert configs[0] == ScenarioConfig(
            scenario="reducible-brute", n_values=(1, 100), profile=dict(spec))

        def refuse(spec):
            raise AssertionError("the profile was parsed again")

        monkeypatch.setattr("ccrlab.scenarios.profile_from_spec", refuse)
        for cfg in configs:
            run_scenario(cfg)

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "scenario": "reducible-limit",
            "N": [100, 1000],
            "profile": {"kind": "uniform", "modes": 4},
        }))
        cfg = ScenarioConfig.from_file(path)
        assert cfg.scenario == "reducible-limit"
        assert cfg.n_values == (100, 1000)

    def test_unknown_scenario(self):
        with pytest.raises(ConfigError, match="unknown scenario"):
            run_scenario(ScenarioConfig(scenario="mystery"))


class TestProfileSpec:
    def test_uniform(self):
        profile, selected = profile_from_spec({"kind": "uniform", "modes": 4})
        assert selected == ("k1", "k2")
        assert profile.z_max == pytest.approx(0.25)

    def test_plateau_with_selection(self):
        spec = {"kind": "plateau", "modes": 6, "window": [0, 2], "rate": 1.5,
                "selected": [0, 4]}
        profile, selected = profile_from_spec(spec)
        assert selected == ("k1", "k5")
        z = profile.probabilities
        assert z[0] == pytest.approx(z[2])
        assert z[4] < z[2]

    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="profile kind"):
            profile_from_spec({"kind": "gaussian"})

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="profile key"):
            profile_from_spec({"kind": "uniform", "shape": 1})

    def test_selection_out_of_range(self):
        with pytest.raises(ConfigError, match="out of range"):
            profile_from_spec({"kind": "uniform", "modes": 2, "selected": [0, 5]})


@pytest.mark.parametrize("name", sorted(SCENARIO_NAMES))
class TestScenariosPass:
    def test_runs_green(self, name):
        cfg = ScenarioConfig(scenario=name)
        if name == "reducible-limit":
            cfg = ScenarioConfig(
                scenario=name, n_values=(100, 1000),
                profile={"kind": "uniform", "modes": 4},
            )
        report = run_scenario(cfg)
        assert report.passed, [c for c in report.checks if not c.passed]
        assert report.records
        assert all_numbers_finite(report.to_dict())
        for check in report.checks:
            assert check.tolerance >= 0.0


class TestScenarioContent:
    def test_infinity_concurrence_unity_at_half_pi(self):
        report = run_scenario(ScenarioConfig(scenario="infinity"))
        by_name = {c.name: c for c in report.checks}
        assert by_name["concurrence_at_half_pi"].measured <= 1e-10
        assert by_name["initial_mode_entropy_ln2"].passed

    def test_infinity_skips_when_half_pi_absent(self):
        report = run_scenario(ScenarioConfig(
            scenario="infinity", times=(0.0, 0.5)))
        assert any(s["check"] == "concurrence_at_half_pi" for s in report.skipped)

    def test_berezin_nonproduct_and_agreement(self):
        report = run_scenario(ScenarioConfig(scenario="berezin"))
        by_name = {c.name: c for c in report.checks}
        assert by_name["propagator_nonproduct_atom1"].measured >= 1e-2
        assert by_name["propagator_nonproduct_atom1_field"].measured >= 1e-2
        assert by_name["agrees_with_infinity_rep"].measured <= 1e-10
        assert by_name["bell_times_unique_vacuum"].measured <= 1e-10

    def test_berezin_skips_nonproduct_without_a_later_time(self):
        report = run_scenario(ScenarioConfig(scenario="berezin", times=[0.0]))
        assert report.passed
        assert not any(c.name.startswith("propagator_nonproduct") for c in report.checks)
        for name in ("propagator_nonproduct_atom1", "propagator_nonproduct_atom1_field"):
            assert {"check": name, "reason": "no t > 0 in the time grid"} in report.skipped

    NONPRODUCT = ("propagator_nonproduct_atom1", "propagator_nonproduct_atom1_field")

    def test_berezin_skips_nonproduct_on_short_grids(self, tmp_path):
        # at (d, cutoff) = (2, 1) coefficient #2 is ~kappa t, kappa = 1/sqrt(6):
        # 8.2e-3 at t = 0.02, so on these valid grids it is below nonproduct_min
        for t in (0.02, 0.01):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"scenario": "berezin", "times": [0.0, t]}))
            assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 0
            payload = json.loads((tmp_path / "berezin.json").read_text())
            skipped = {s["check"]: s["reason"] for s in payload["skipped"]}
            assert not any(c["name"] in self.NONPRODUCT for c in payload["checks"])
            for name in self.NONPRODUCT:
                assert "below 1.1 nonproduct_min" in skipped[name]

    @pytest.mark.parametrize("d, t, judged", [
        (2, 0.026, False), (2, 0.027, True), (20, 0.071, False), (20, 0.072, True)])
    def test_berezin_judges_nonproduct_from_kappa_t_onset(self, d, t, judged):
        # kappa t = 1.1e-2 at t = 0.02694 for d = 2 and t = 0.07129 for d = 20
        report = run_scenario(ScenarioConfig(scenario="berezin", d=d, times=(0.0, t)))
        assert report.passed
        checks = {c.name: c for c in report.checks}
        skipped = {s["check"] for s in report.skipped}
        for name in self.NONPRODUCT:
            assert (name in checks, name in skipped) == (judged, not judged)
            assert not judged or checks[name].measured >= 1e-2

    def test_reducible_brute_coherence_extinction(self):
        report = run_scenario(ScenarioConfig(scenario="reducible-brute"))
        by_name = {c.name: c for c in report.checks}
        assert by_name["coherence_extinct_n1_closed_form"].measured == 0.0
        assert by_name["coherence_extinct_n1_brute"].measured <= 1e-10
        assert by_name["brute_force_matches_closed_form"].measured <= 1e-8

    def test_reducible_brute_size_ceiling_raises_when_nothing_runs(self):
        with pytest.raises(SizeLimitError):
            run_scenario(ScenarioConfig(scenario="reducible-brute", n_values=(9,)))

    def test_reducible_brute_partial_skip(self):
        report = run_scenario(ScenarioConfig(
            scenario="reducible-brute", n_values=(1, 9)))
        assert report.passed
        assert any("brute_force_N9" == s["check"] for s in report.skipped)

    def test_single_mode_entropies(self):
        report = run_scenario(ScenarioConfig(scenario="single-mode"))
        rows = {r["n"]: r for r in report.records if r["kind"] == "reducible"}
        assert rows[1]["entropy"] == pytest.approx(0.0, abs=1e-12)
        assert rows[2]["entropy"] == pytest.approx(math.log(2.0), abs=1e-12)
        inf_rows = [r for r in report.records if r["kind"] == "infinity"]
        assert inf_rows[0]["entropy"] == pytest.approx(0.0, abs=1e-12)

    def test_sweep_distances_decrease(self):
        cfg = ScenarioConfig(
            scenario="reducible-limit", n_values=(100, 400),
            profile={"kind": "uniform", "modes": 4},
            times=(0.0, math.pi / 2),
        )
        report = convergence_sweep(cfg)
        assert report.passed
        rows = {(r["n"], r["t"]): r["trace_distance"] for r in report.records}
        assert rows[(400, math.pi / 2)] < rows[(100, math.pi / 2)]
        assert rows[(100, 0.0)] == pytest.approx(0.0, abs=1e-12)

    def test_sweep_skips_d_decreasing_without_a_later_time(self):
        report = convergence_sweep(ScenarioConfig(
            scenario="reducible-limit", n_values=(10, 100), times=[0.0]))
        assert report.passed
        assert not any(c.name.startswith("d_decreasing") for c in report.checks)
        assert report.skipped == [
            {"check": "d_decreasing", "reason": "no t > 0 in the time grid"}]

    def test_sweep_asymmetric_profile(self):
        cfg = ScenarioConfig(
            scenario="reducible-limit", n_values=(50, 200),
            profile={"kind": "plateau", "modes": 5, "window": [0, 1],
                     "rate": 1.0, "selected": [0, 3]},
            times=(math.pi / 4,),
        )
        report = convergence_sweep(cfg)
        assert report.passed
        # asymmetric profile: no plateau-match check emitted
        assert not any("limit_matches" in c.name for c in report.checks)

    @pytest.mark.parametrize("n_values, t", [((1, 3), 0.574), ((10, 30), 6.283)])
    def test_sweep_skips_d_decreasing_once_the_ensemble_dephases(
            self, tmp_path, n_values, t):
        # D(N, t) rises with N at these points, so asserting the ordering
        # there failed valid configs
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "scenario": "reducible-limit", "N": list(n_values), "times": [0.0, t],
            "profile": {"kind": "uniform", "modes": 20}}))
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "reducible-limit.json").read_text())
        d = {(r["n"], r["t"]): r["trace_distance"] for r in payload["records"]}
        assert d[n_values[1], t] > d[n_values[0], t]
        assert not any(c["name"].startswith("d_decreasing") for c in payload["checks"])
        [skip] = payload["skipped"]
        assert skip["check"] == f"d_decreasing_t_{t:.6f}"
        assert "N_min z_min >= t^2 (1 - z_min)" in skip["reason"]

    def test_plateau_sweep_up_to_a_million(self):
        # the asymmetric plateau sweep that CI writes under two hash seeds
        report = convergence_sweep(ScenarioConfig.from_dict({
            "scenario": "reducible-limit", "N": [10, 1000, 10000, 100000, 1000000],
            "profile": {"kind": "plateau", "modes": 8, "window": [0, 3], "rate": 0.7,
                        "selected": [0, 5]}}))
        assert report.passed, [c for c in report.checks if not c.passed]
        checked = {c.name for c in report.checks}
        skipped = {s["check"]: s["reason"] for s in report.skipped}
        assert "zero_time_distance" in checked
        for t in DEFAULT_TIMES[1:]:
            name = f"d_decreasing_t_{t:.6f}"
            assert (name in checked) != (name in skipped)
            assert name in checked or skipped[name]

    def test_sweep_asserts_d_decreasing_where_the_criterion_holds(self):
        # uniform(2): N_min z_min = 5 covers t = pi/12 and pi/2 (t^2 / 2 <= 1.24)
        # but not t = 2 pi (19.7)
        times = (math.pi / 12, math.pi / 2, 2 * math.pi)
        report = convergence_sweep(ScenarioConfig(
            scenario="reducible-limit", n_values=(10, 100), times=times))
        assert report.passed
        assert [c.name for c in report.checks if c.name.startswith("d_")] == [
            f"d_decreasing_t_{t:.6f}" for t in times[:2]]
        assert [s["check"] for s in report.skipped] == [f"d_decreasing_t_{times[2]:.6f}"]


def traced_atomic_density(rep, times, modes):
    """Atoms' density by full-space propagators, |psi><psi| and an einsum trace.

    The reducible ensemble runs on H / sqrt(Z), the irreducible ones on H.
    The atoms are the two leading factors, so the field is traced as one
    index of the (4, d_field, 4, d_field) joint density.
    """
    h = dyn.jc_hamiltonian(rep, [(modes[0], 0), (modes[1], 1)])
    if rep.profile is not None:
        h = h / math.sqrt(rep.profile.z_max)
    psi0 = dyn.single_photon_initial_state(rep, modes)
    rhos = []
    for u in expm_generator(h, np.asarray(times)):
        amp = u @ psi0.amplitudes
        amp = amp / np.linalg.norm(amp)
        joint = np.outer(amp, amp.conj()).reshape(4, rep.dim, 4, rep.dim)
        rhos.append(np.einsum("iaja->ij", joint))
    return np.array(rhos)


DENSITY_CASES = [
    pytest.param(lambda: reps.build_infinity_two_mode(2), ("mode1", "mode2"),
                 id="infinity"),
    pytest.param(lambda: reps.build_berezin(2, 2, [1, 2]), ("f1", "f2"), id="berezin"),
] + [
    pytest.param(lambda n=n, prof=prof: reps.build_reducible(n, prof, 1, ["k1", "k2"]),
                 ("k1", "k2"), id=f"{kind}-N{n}-renorm")
    for kind, prof in (("uniform", reps.VacuumProfile.uniform(2)),
                       ("plateau", reps.VacuumProfile.plateau(3, (0, 0), 0.7)))
    for n in (1, 2, 3)
]


class TestSimulatedDensity:
    @pytest.mark.parametrize("build, modes", DENSITY_CASES)
    def test_matches_partial_trace_of_full_density(self, build, modes):
        rep = build()
        times = np.array([0.0, 0.3, 0.8, math.pi / 2, 2.9])
        block = simulated_atomic_density(rep, times, modes)
        traced = traced_atomic_density(rep, times, modes)
        assert block.shape == (5, 4, 4)
        assert np.max(np.abs(block - traced)) <= 1e-14

    def test_empty_time_grid(self):
        rep = reps.build_infinity_two_mode(1)
        rho = simulated_atomic_density(rep, np.array([]), ("mode1", "mode2"))
        assert rho.shape == (0, 4, 4)
        assert rho.dtype == dyn.rho_atoms_irreducible(np.array([])).dtype == complex

    def test_matches_closed_form_row(self):
        from ccrlab.representations import VacuumProfile, build_reducible

        prof = VacuumProfile.uniform(2)
        rep = build_reducible(3, prof, n_max=1)
        brute = simulated_atomic_density(rep, 0.8, ("k1", "k2"))
        closed = dyn.rho_atoms_reducible(0.8, 3, 0.5, 0.5, 0.5)
        assert np.max(np.abs(brute - closed)) <= 1e-8


#: Plateau over k1 only, so that Z1 != Z2 (and Z2 < Z_max).
ASYMMETRIC_PLATEAU = {"kind": "plateau", "modes": 3, "window": [0, 0], "rate": 0.7}


class TestClosedFormTwin:
    """closed_form_atomic_density(rep) is the closed form that each
    brute-force check compares with simulated_atomic_density(rep); it
    equals the parameter-level closed forms bit for bit."""

    TIMES = np.array(DEFAULT_TIMES)

    @pytest.mark.parametrize("rep", [
        reps.build_infinity_two_mode(1), reps.build_berezin(2, 2)],
        ids=["infinity", "berezin"])
    def test_irreducible_is_the_point_mass_form(self, rep):
        got = closed_form_atomic_density(rep, self.TIMES, rep.mode_labels[:2])
        assert np.array_equal(got, dyn.rho_atoms_irreducible(self.TIMES))

    @pytest.mark.parametrize("spec", [{"kind": "uniform", "modes": 2}, ASYMMETRIC_PLATEAU],
                             ids=["uniform2", "plateau3"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_reducible_is_the_multinomial_form(self, spec, n):
        profile, modes = profile_from_spec(spec)
        rep = reps.build_reducible(n, profile, 1, list(modes))
        z1, z2 = (profile.probability(k) for k in modes)
        assert np.array_equal(
            closed_form_atomic_density(rep, self.TIMES, modes),
            dyn.rho_atoms_reducible(self.TIMES, n, z1, z2, profile.z_max))

    def test_swapped_modes_fail_the_brute_force_check(self, monkeypatch):
        cfg = ScenarioConfig(scenario="reducible-brute", profile=ASYMMETRIC_PLATEAU)

        def verdict():
            return next(c.passed for c in run_scenario(cfg).checks
                        if c.name == "brute_force_matches_closed_form")

        assert verdict()
        measure = dyn.central_measure
        monkeypatch.setattr(dyn, "central_measure",
                            lambda rep, modes: measure(rep, modes[::-1]))
        assert not verdict()


class TestDenseModeCut:
    """``_dense_mode_cut`` takes its entropy from its one Schmidt decomposition."""

    @pytest.mark.parametrize("rep, modes, factor", [
        (reps.build_infinity_two_mode(3), ("mode1", "mode2"), "mode1"),
        (reps.build_infinity_two_mode(3), ("mode1",), "mode1"),
        (reps.build_reducible(3, reps.VacuumProfile.plateau(3, (0, 0), 0.7), 1, ["k1"]),
         ("k1",), "osc1"),
    ], ids=["infinity-shared", "infinity-one-mode", "reducible-osc1"])
    def test_one_decomposition_per_cut(self, rep, modes, factor, monkeypatch):
        calls = []
        schmidt = ent.schmidt_coefficients

        def counting(psi, cut):
            calls.append(cut)
            return schmidt(psi, cut)

        monkeypatch.setattr(ent, "schmidt_coefficients", counting)
        entropy, s1, s2 = scenarios._dense_mode_cut(rep, modes, factor)
        assert len(calls) == 1
        monkeypatch.undo()
        psi = reps.mode_excitation_state(rep, *modes)
        cut = ent.Bipartition((factor,))
        sv = ent.schmidt_coefficients(psi, cut)
        assert entropy == ent.marginal_entropy(psi, cut)
        assert (s1, s2) == (sv[0], sv[1])


class TestSingleModeClosedForm:
    """``single_mode_cut`` against the dense tensor route and a 40-digit oracle."""

    @staticmethod
    def dense_cut(rep, mode):
        psi = reps.mode_excitation_state(rep, mode)
        cut = ent.Bipartition(("osc1",))
        sv = np.append(ent.schmidt_coefficients(psi, cut), 0.0)
        return ent.marginal_entropy(psi, cut), sv[0], sv[1]

    @pytest.mark.parametrize("profile, n", [
        *[(reps.VacuumProfile.uniform(2), n) for n in (1, 2, 3, 4)],
        *[(reps.VacuumProfile.uniform(3), n) for n in (1, 2, 3)],
        *[(reps.VacuumProfile.plateau(3, (0, 0), 0.7), n) for n in (1, 2, 3)],
    ])
    @pytest.mark.parametrize("n_max", [1, 2])
    def test_matches_dense_route(self, profile, n, n_max):
        rep = reps.build_reducible(n, profile, n_max, ["k1", "k2"])
        for mode in ("k1", "k2"):
            closed = reps.single_mode_cut(n, profile, mode, n_max)
            deviation = np.subtract(closed, self.dense_cut(rep, mode))
            assert np.max(np.abs(deviation)) <= 1e-12
            assert closed[1] >= closed[2]

    @pytest.mark.parametrize("n", [2, 49, 10**5, 10**6])
    def test_matches_extended_precision_entropy(self, n):
        entropy, s1, s2 = reps.single_mode_cut(n, reps.VacuumProfile.uniform(2), "k1")
        assert entropy == pytest.approx(binary_entropy(n), rel=1e-14, abs=0)
        assert s1**2 + s2**2 == pytest.approx(1.0, abs=1e-15)

    def test_degenerate_single_oscillator_is_exact(self):
        assert reps.single_mode_cut(1, reps.VacuumProfile.uniform(2), "k1") == (
            0.0, 1.0, 0.0)

    def test_entropy_falls_below_threshold_at_49(self):
        prof = reps.VacuumProfile.uniform(2)
        assert reps.single_mode_cut(48, prof, "k1")[0] >= 0.1
        assert 0.0996 < reps.single_mode_cut(49, prof, "k1")[0] < 0.1

    FAILURES = [
        ({"N": [0]}, ConfigError),
        ({"N": [2], "n_max": -1}, ConfigError),
        ({"N": [2], "n_max": 0}, ValidationError),
    ]

    @pytest.mark.parametrize("config, error", FAILURES)
    def test_failure_modes_match_dense_route(self, tmp_path, config, error):
        profile, selected = profile_from_spec({"kind": "uniform", "modes": 2})
        n, n_max = config["N"][0], config.get("n_max", 1)
        with pytest.raises(error):
            reps.mode_excitation_state(
                reps.build_reducible(n, profile, n_max, list(selected)),
                selected[0])
        with pytest.raises(error):
            reps.single_mode_cut(n, profile, selected[0], n_max)
        with pytest.raises(error):
            # N = 0 is refused when the config is constructed
            run_scenario(ScenarioConfig.from_dict({"scenario": "single-mode", **config}))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"scenario": "single-mode", **config}))
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path)]) == 2

    # z_k2 = exp(-75) / (1 + exp(-75)), about 2.7e-33: tiny but normal
    TINY_K2 = {"kind": "plateau", "modes": 2, "window": [0, 0], "rate": 75,
               "selected": [1, 0]}

    def test_tiny_normal_probability_runs_and_matches_dense_route(self, tmp_path):
        profile, _ = profile_from_spec(self.TINY_K2)
        assert 0.0 < profile.probability("k2") < 1e-30
        rep = reps.build_reducible(2, profile, 1, ["k2"])
        deviation = np.subtract(reps.single_mode_cut(2, profile, "k2"),
                                self.dense_cut(rep, "k2"))
        assert np.max(np.abs(deviation)) <= 1e-12
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(
            {"scenario": "single-mode", "N": [1, 2], "profile": self.TINY_K2}))
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "single-mode.json").read_text())
        assert payload["checks"] and all(c["passed"] for c in payload["checks"])

    # exp(-rate) is subnormal at 720 and 0 at 800
    @pytest.mark.parametrize("rate", [720, 800])
    def test_underflowing_probability_is_a_domain_error(self, tmp_path, capsys, rate):
        spec = {**self.TINY_K2, "rate": rate}
        profile, _ = profile_from_spec(spec)
        with pytest.raises(DomainError, match=(
                r"'k2'.* smallest normal float 2\.2250738585072014e-308.*'profile'")):
            reps.single_mode_cut(2, profile, "k2")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"scenario": "single-mode", "N": [2], "profile": spec}))
        assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "smallest normal float" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_entangled_check_only_where_dense_build_is_admitted(self):
        # uniform(2) with n_max = 1 has factor dimension 4: 4^6 = 4096 is
        # admitted, 4^7 is not
        report = run_scenario(ScenarioConfig(
            scenario="single-mode", n_values=tuple(range(1, 9))))
        assert report.passed
        names = [c.name for c in report.checks]
        assert [n for n in range(2, 9) if f"entangled_with_vacuum_N{n}" in names] == [
            2, 3, 4, 5, 6]
        assert [s["check"] for s in report.skipped] == [
            "entangled_with_vacuum_N7", "entangled_with_vacuum_N8"]
        assert "ln N / N" in report.skipped[0]["reason"]
        assert [r["n"] for r in report.records] == [*range(1, 9), None]

    def test_skip_reason_names_the_ceiling_it_applied(self):
        # h(1/2) = ln 2 is far above entangled_min; (2 * 41)^2 = 6724 > 4096
        report = run_scenario(ScenarioConfig(scenario="single-mode", n_values=(2,),
                                             n_max=40))
        reason = {s["check"]: s["reason"] for s in report.skipped}[
            "entangled_with_vacuum_N2"]
        assert reason.endswith("factor dimension 82 to the power N = 2 exceeds "
                               f"the ceiling {reps.BRUTE_FORCE_CEILING}")

    def test_never_builds_the_dense_representation(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("single-mode must not build the dense ensemble")

        monkeypatch.setattr(reps, "build_reducible", refuse)
        cfg = ScenarioConfig(scenario="single-mode",
                             n_values=(1, 2, 3, 4, 5, 1000000))
        start = time.perf_counter()
        report = run_scenario(cfg)
        elapsed = time.perf_counter() - start
        assert report.passed
        assert elapsed < 0.05
        assert [r["n"] for r in report.records] == [1, 2, 3, 4, 5, 1000000, None]

    def test_validate_check_detects_a_wrong_closed_form(self, monkeypatch):
        check = {c.name: c for c in validate(seed=0).checks}[
            "single_mode_entropy_closed_form"]
        assert check.passed and check.measured <= 1e-12
        original = reps.single_mode_cut
        monkeypatch.setattr(reps, "single_mode_cut",
                            lambda *a: (original(*a)[0] * (1 + 1e-9), *original(*a)[1:]))
        check = {c.name: c for c in validate(seed=0).checks}[
            "single_mode_entropy_closed_form"]
        assert not check.passed


class TestCheck:
    def test_grid_is_judged_by_its_largest_value(self):
        check = _check("c", {(1, 0.1): 1e-14, (2, 0.5): 3e-13}, 1e-12, detail="why")
        assert check.passed and check.measured == 3e-13 and check.detail == "why"

    def test_failing_grid_names_its_largest_argument(self):
        grid = {(1, 0.1): 1e-14, (2, 0.5): 3e-12, (3, 0.5): 2e-12}
        check = _check("c", grid, 1e-12, detail="why")
        assert not check.passed and check.measured == 3e-12
        assert check.detail == "why; largest at (2, 0.5)"
        assert _check("c", {"k1": 1.0}, 0.5).detail == "largest at k1"
        assert _check("c", {"k1": 1.0}, 2.0, ">=").detail == "largest at k1"

    def test_failing_number_keeps_its_detail(self):
        check = _check("c", 1.0, 0.5, detail="why")
        assert not check.passed and check.detail == "why"

    def test_nan_counts_as_the_largest_value(self):
        check = _check("c", {1: 5.0, 2: float("nan"), 3: 1.0}, 10.0)
        assert not check.passed and math.isnan(check.measured)
        assert check.detail == "largest at 2"


class TestReports:
    def test_write_outputs(self, tmp_path):
        report = run_scenario(ScenarioConfig(scenario="infinity"))
        paths = report.write(tmp_path)
        assert paths["json"].exists()
        assert paths["csv"].exists()
        assert paths["rho_csv"].exists()
        payload = json.loads(paths["json"].read_text())
        assert payload["passed"] is True
        assert payload["checks"][0]["tolerance"] > 0

    def test_csv_round_trip_precision(self, tmp_path):
        report = run_scenario(ScenarioConfig(scenario="infinity"))
        paths = report.write(tmp_path)
        lines = paths["csv"].read_text().strip().splitlines()
        header = lines[0].split(",")
        t_col = header.index("t")
        conc_col = header.index("concurrence")
        values = [float(line.split(",")[conc_col]) for line in lines[1:]]
        times = [float(line.split(",")[t_col]) for line in lines[1:]]
        for t, v in zip(times, values):
            assert v == pytest.approx(report.records[times.index(t)]["concurrence"],
                                      abs=0.0)

    def test_byte_identical_reruns(self):
        cfg = ScenarioConfig(scenario="reducible-brute")
        a = run_scenario(cfg)
        b = run_scenario(cfg)
        assert a.json_bytes() == b.json_bytes()
        assert a.csv_bytes() == b.csv_bytes()
        assert a.rho_csv_bytes() == b.rho_csv_bytes()


class TestValidate:
    def test_green_and_deterministic(self):
        a = validate(seed=0)
        b = validate(seed=0)
        assert a.passed
        assert a.json_bytes() == b.json_bytes()
        assert a.csv_bytes() == b.csv_bytes()

    @pytest.mark.parametrize("seed", [1, 17, 123456789])
    def test_verdicts_seed_robust(self, seed):
        report = validate(seed=seed)
        assert report.passed
        assert {c.name for c in report.checks} == {
            c.name for c in validate(seed=0).checks
        }

    def test_injected_sign_flip_detected(self, monkeypatch):
        original = dyn.closed_form_evolution

        def flipped(a, t):
            u = original(a, t)
            d = a.shape[0]
            u = u.copy()
            u[:d, d:] *= -1.0  # wrong sign on one sinc block
            u[d:, :d] *= -1.0
            return u

        monkeypatch.setattr(dyn, "closed_form_evolution", flipped)
        report = validate(seed=0)
        by_name = {c.name: c for c in report.checks}
        assert not by_name["propagator_closed_form"].passed
        assert by_name["propagator_closed_form"].measured > 0.1
        assert not report.passed

    def test_float64_table_check_detects_a_shifted_table(self, monkeypatch):
        check = {c.name: c for c in validate(seed=0).checks}[
            "float64_tables_vs_per_cell"]
        assert check.passed and check.measured <= 1e-13
        original = reps._log_binomial_table
        monkeypatch.setattr(reps, "_log_binomial_table",
                            lambda n, z: original(n, z) + 1e-12)
        check = {c.name: c for c in validate(seed=0).checks}[
            "float64_tables_vs_per_cell"]
        assert not check.passed

    def test_marginal_check_detects_a_wrong_joint_sum(self, monkeypatch):
        check = {c.name: c for c in validate(seed=0).checks}["joint_sum_marginals"]
        assert check.passed and check.measured <= 1e-15
        original = reps.joint_sector_sum
        monkeypatch.setattr(reps, "joint_sector_sum",
                            lambda *args: original(*args) + 1e-10)
        check = {c.name: c for c in validate(seed=0).checks}["joint_sum_marginals"]
        assert not check.passed

    def test_failing_check_names_its_worst_argument(self, monkeypatch, capsys):
        original = reps._log_binomial_table

        def shifted(n, z):
            # one cell of one table: the anchor cell at (N, z) = (1e6, 0.5)
            table = original(n, z).copy()
            if (n, z) == (10**6, 0.5):
                table[math.floor(n * z) - reps.binomial_support(n, z)[0]] += 1e-12
            return table

        monkeypatch.setattr(reps, "_log_binomial_table", shifted)
        failed = [c for c in validate(seed=0).checks if not c.passed]
        assert [c.name for c in failed] == ["float64_tables_vs_per_cell"]
        assert failed[0].detail.endswith("N up to 1e6; largest at (1000000, 0.5)")
        # the command line prints it too, without writing a report
        assert cli.main(["validate"]) == cli.EXIT_ASSERTION
        out = capsys.readouterr().out.splitlines()
        (line,) = [x for x in out if x.startswith("[FAIL]")]
        assert line.startswith("[FAIL] float64_tables_vs_per_cell: measured ")
        assert line.endswith("largest at (1000000, 0.5)")

    def test_invariants_yield_the_checks_in_report_order(self):
        names = [args[0] for args in invariants(random.Random(0))]
        assert names == [c.name for c in validate(seed=0).checks]

    @pytest.mark.parametrize("seed", [-1, 2**64, True])
    def test_seed_out_of_range_is_config_error(self, seed):
        with pytest.raises(ConfigError, match="seed"):
            validate(seed=seed)

    @pytest.mark.parametrize("seed", [True, 3.5, "x"])
    def test_bad_seed_message_names_the_seed_not_a_config_key(self, seed):
        with pytest.raises(ConfigError) as info:
            validate(seed=seed)
        message = str(info.value)
        assert message.startswith("seed must be an unsigned 64-bit integer")
        assert repr(seed) in message
        assert "config key" not in message

    def test_sector_spectrum_check_detects_a_scaled_mode(self, monkeypatch):
        check = {c.name: c for c in validate(seed=0).checks}[
            "sector_spectrum_integers"]
        assert check.passed and check.measured <= 1e-14
        original = reps.build_reducible

        def scaled(*args, **kwargs):
            rep = original(*args, **kwargs)
            rep.lowering["k1"] = rep.lowering["k1"] * (1.0 + 1e-6)
            return rep

        monkeypatch.setattr(reps, "build_reducible", scaled)
        report = validate(seed=0)
        check = {c.name: c for c in report.checks}["sector_spectrum_integers"]
        assert not check.passed and check.measured > 1e-6
        assert not report.passed

    def test_builds_each_reducible_representation_once(self, monkeypatch):
        calls = []
        original = reps.build_reducible

        def counted(n, profile, *args, **kwargs):
            calls.append((n, profile.labels))
            return original(n, profile, *args, **kwargs)

        monkeypatch.setattr(reps, "build_reducible", counted)
        assert validate(seed=0).passed
        assert sorted(calls) == [(1, ("k1", "k2")), (2, ("k1", "k2")),
                                 (3, ("k1", "k2")), (3, ("k1", "k2", "k3", "k4"))]

    def test_peak_memory_below_6_mb(self):
        # The N = 3 uniform(4) ensemble has a 512-dimensional field, 2.1 MB
        # per dense real operator: validate may build only the operators its
        # checks read (a_k1 is the one dense one; I_k1 and N are diagonals),
        # and no dense temporaries beside the build's one (a complex copy
        # of a_k1, 4.2 MB, breaks the bound).
        validate(seed=0)
        tracemalloc.start()
        try:
            validate(seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6e6

    def test_report_bytes_independent_of_blas_threads(self, tmp_path):
        # A BLAS reduction may split its sum by thread, so validate's report
        # must come out the same from one and from two BLAS threads.
        src = str(Path(cli.__file__).resolve().parents[1])
        script = ("import sys\nfrom ccrlab import cli\n"
                  "sys.exit(cli.main(['validate', '--seed', '0', '--out', sys.argv[1]]))\n")
        reports = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads-{threads}"
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": os.pathsep.join(
                [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
            run = subprocess.run([sys.executable, "-c", script, str(out)],
                                 capture_output=True, text=True, env=env, timeout=120)
            assert run.returncode == 0, run.stderr
            reports.append([(out / name).read_bytes() for name in ("validate.json", "validate.csv")])
        assert reports[0] == reports[1]

class TestCli:
    def test_run_writes_and_exits_zero(self, tmp_path, capsys):
        code = cli.main(["run", "--scenario", "infinity", "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "infinity.json").exists()
        out = capsys.readouterr().out
        assert "[PASS]" in out

    def test_run_with_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scenario": "single-mode", "N": [1, 2]}))
        code = cli.main(["run", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "single-mode.csv").exists()

    def test_sweep(self, tmp_path):
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({
            "scenario": "reducible-limit",
            "N": [100, 300],
            "profile": {"kind": "uniform", "modes": 4},
            "times": [0.0, 1.5707963267948966],
        }))
        code = cli.main(["sweep", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 0
        header = (tmp_path / "reducible-limit.csv").read_text().splitlines()[0]
        assert header == "n,t,z1,z2,z,trace_distance"

    def test_validate_deterministic_files(self, tmp_path):
        assert cli.main(["validate", "--seed", "3",
                         "--out", str(tmp_path / "a")]) == 0
        assert cli.main(["validate", "--seed", "3",
                         "--out", str(tmp_path / "b")]) == 0
        a = (tmp_path / "a" / "validate.json").read_bytes()
        b = (tmp_path / "b" / "validate.json").read_bytes()
        assert a == b

    def test_scenario_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scenario": "infinity", "times": [0.0, 0.5]}))
        code = cli.main(["run", "--scenario", "berezin", "--config", str(cfg),
                         "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "berezin.json").exists()
        config = json.loads((tmp_path / "berezin.json").read_text())["provenance"]["config"]
        assert config["scenario"] == "berezin" and config["times"] == [0.0, 0.5]

    def test_scenario_flag_parses_the_profile_once(self, tmp_path, monkeypatch):
        calls = []
        parse = profile_from_spec

        def counting(spec):
            calls.append(spec)
            return parse(spec)

        monkeypatch.setattr("ccrlab.scenarios.profile_from_spec", counting)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scenario": "infinity", "times": [0.0]}))
        assert cli.main(["run", "--scenario", "single-mode", "--config", str(cfg),
                         "--out", str(tmp_path)]) == 0
        assert len(calls) == 1

    def test_scenario_flag_names_the_scenario_of_a_keyless_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"times": [0.0, 0.5]}))
        assert cli.main(["run", "--scenario", "infinity", "--config", str(cfg),
                         "--out", str(tmp_path)]) == 0
        config = json.loads((tmp_path / "infinity.json").read_text())["provenance"]["config"]
        assert config["scenario"] == "infinity" and config["times"] == [0.0, 0.5]

    @pytest.mark.parametrize("profile, key", [
        ({"modes": 0}, "'profile.modes'"),
        ({"kind": "plateau", "modes": 3, "window": [0, 5]}, "'profile.window'"),
        ({"kind": "plateau", "modes": 3, "window": [2, 1]}, "'profile.window'"),
        ({"kind": "plateau", "modes": 3, "rate": "inf"}, "'profile.rate'"),
        ({"kind": "plateau", "modes": 3, "rate": -1}, "'profile.rate'"),
        ({"modes": 3, "selected": [0, 3]}, "'profile.selected'"),
        ({"modes": 3, "selected": [1, 1]}, "'profile.selected'"),
        ({"kind": "plateau", "modes": 10**6, "selected": [0, 0]}, "'profile.selected'"),
    ])
    def test_profile_refusal_names_its_config_key(self, tmp_path, capsys, monkeypatch,
                                                  profile, key):
        def unreachable(*args):
            raise AssertionError("a profile was built for a refused config")

        monkeypatch.setattr(reps, "VacuumProfile", unreachable)
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"scenario": "reducible-brute", "profile": profile}))
        code = cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2 and key in err, err
        assert not (tmp_path / "out").exists()

    def test_seed_is_not_a_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scenario": "infinity", "seed": 2}))
        code = cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: unknown config key 'seed'")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, config", [
        ("run", {"scenario": "single-mode", "N": [1, 2]}),
        ("sweep", {"scenario": "reducible-limit", "N": [10]}),
    ])
    @pytest.mark.parametrize("flag, expected", [
        ("from_flag", "from_flag"),
        (None, "results"),
    ])
    def test_out_precedence(self, tmp_path, monkeypatch, command, config, flag, expected):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv = [command, "--config", str(cfg)] + (["--out", flag] if flag else [])
        assert cli.main(argv) == 0
        written = sorted(p.parent.name for p in tmp_path.glob("*/*.json"))
        assert written == [expected]

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"scenario": "mystery"}))
        assert cli.main(["run", "--config", str(bad)]) == 2

    def test_size_error_exit_code(self, tmp_path):
        big = tmp_path / "big.json"
        big.write_text(json.dumps({"scenario": "reducible-brute", "N": [9]}))
        assert cli.main(["run", "--config", str(big), "--out", str(tmp_path)]) == 3

    def test_missing_scenario_is_config_error(self):
        assert cli.main(["run"]) == 2

    @pytest.mark.parametrize("bad", [
        {"profile": {"selected": 3}},
        {"N": "abc"},
        {"times": ["x"]},
        {"n_max": "two"},
        {"profile": {"kind": "plateau", "modes": "many"}},
        {"cutoff": [1, 2]},
    ])
    def test_malformed_value_is_config_error(self, tmp_path, capsys, bad):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"scenario": "reducible-brute", **bad}))
        assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("case", ["missing", "directory", "not-utf8", "list-scenario"])
    def test_unreadable_config_exits_2(self, tmp_path, capsys, case):
        cfg = tmp_path / "cfg.json"
        if case == "directory":
            cfg.mkdir()
        elif case == "not-utf8":
            cfg.write_bytes(b'{"scenario": "infinity\xff"}')
        elif case == "list-scenario":
            cfg.write_text(json.dumps({"scenario": ["infinity"]}))
        assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert ("'scenario'" if case == "list-scenario" else str(cfg)) in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, scenario", [
        ("run", "infinity"), ("run", "berezin"), ("run", "reducible-brute"),
        ("run", "reducible-limit"), ("run", "single-mode"),
        ("sweep", "reducible-limit"),
    ])
    def test_empty_list_and_boolean_are_config_errors(
            self, tmp_path, capsys, command, scenario):
        for key, value in (("times", []), ("N", []), ("N", True), ("N", [2, True]),
                           ("times", [0.0, True])):
            cfg = tmp_path / "bad.json"
            cfg.write_text(json.dumps({"scenario": scenario, key: value}))
            code = cli.main([command, "--config", str(cfg),
                              "--out", str(tmp_path / "out")])
            err = capsys.readouterr().err
            assert code == 2, (key, value, err)
            assert err.startswith(f"error: config key {key!r}")
            assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, config", [
        ("sweep", {"scenario": "reducible-limit", "N": [100, 100]}),
        ("run", {"scenario": "reducible-brute", "N": [2, 1, 2]}),
        ("sweep", {"scenario": "reducible-limit", "times": [0.3, 0.3]}),
        ("run", {"scenario": "infinity", "times": [0.0, 0.5, 0.5]}),
    ])
    def test_duplicate_entries_are_config_errors(self, tmp_path, capsys, command, config):
        cfg = tmp_path / "dup.json"
        cfg.write_text(json.dumps(config))
        code = cli.main([command, "--config", str(cfg), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        key = "N" if "N" in config else "times"
        assert code == 2, err
        assert err.startswith(f"error: config key {key!r} repeats an entry")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("scenario", ["infinity", "single-mode", "reducible-limt"])
    def test_sweep_refuses_other_scenarios(self, tmp_path, capsys, scenario):
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({"scenario": scenario}))
        code = cli.main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2, err
        assert "'reducible-limit'" in err and repr(scenario) in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, value, shape", [
        ("N", 10.7, "scalar"), ("n_max", 1.5, "scalar"), ("d", 2.5, "scalar"),
        ("cutoff", 1.25, "scalar"),
        ("profile.modes", 3.5, "scalar"),
        ("N", [10.7, 100], "list"),
        ("profile.window", [0, 1.5], "pair"), ("profile.selected", [0, 1.5], "pair"),
    ])
    def test_non_integral_float_for_integer_key_is_config_error(
            self, tmp_path, capsys, key, value, shape):
        config = {"scenario": "reducible-limit", "N": [10, 100]}
        if key.startswith("profile."):
            config["profile"] = {"kind": "plateau", "modes": 4, key[8:]: value}
        else:
            config[key] = value
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(config))
        code = cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2, (shape, err)
        assert err.startswith(f"error: config key {key!r}")
        assert not (tmp_path / "out").exists()

    def test_integral_floats_are_integers(self):
        cfg = ScenarioConfig.from_dict(
            {"scenario": "reducible-limit", "N": [1e3, 1e6], "n_max": 2.0})
        assert cfg.n_values == (1000, 10**6) and cfg.n_max == 2
        assert all(type(v) is int for v in (*cfg.n_values, cfg.n_max))
        profile, selected = profile_from_spec(
            {"kind": "plateau", "modes": 4.0, "window": [0.0, 1.0], "selected": [0.0, 3.0]})
        assert len(profile.labels) == 4 and selected == ("k1", "k4")

    @pytest.mark.parametrize("scenario, rate", [
        ("reducible-limit", float("nan")), ("reducible-limit", float("inf")),
        ("reducible-brute", float("nan")), ("reducible-brute", float("inf")),
    ])
    def test_non_finite_plateau_rate_is_rejected_at_profile_construction(
            self, tmp_path, capsys, scenario, rate):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({
            "scenario": scenario,
            "profile": {"kind": "plateau", "modes": 3, "rate": rate},
        }))
        code = cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: rolloff rate must be finite")
        assert not (tmp_path / "out").exists()

    def test_both_selected_probabilities_tiny_but_normal_runs(self, tmp_path):
        # z_k2 ~ 2.7e-33 and z_k3 ~ 7.2e-66 share the photon: the raised
        # vacuum has norm ~5e-17 and normalizes exactly
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scenario": "reducible-brute", "N": [1, 2], "profile": {
            "kind": "plateau", "modes": 3, "window": [0, 0], "rate": 75,
            "selected": [1, 2]}}))
        assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "reducible-brute.json").read_text())
        assert payload["checks"] and all(c["passed"] for c in payload["checks"])

    @pytest.mark.parametrize("scenario", ["reducible-brute", "reducible-limit"])
    @pytest.mark.parametrize("modes, rate", [(3, 800), (2, 745), (2, 740)])
    def test_underflowing_vacuum_probability_exits_2(
            self, tmp_path, capsys, scenario, modes, rate):
        # exp(-rate) is 0 at 800 and subnormal at 745 and 740
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "scenario": scenario,
            "profile": {"kind": "plateau", "modes": modes, "window": [0, 0], "rate": rate},
        }))
        code = cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: a selected mode's vacuum probability underflows, "
                              "for example because the plateau rate is too steep")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("config, skipped", [
        ({"scenario": "reducible-brute", "N": [1, 10000]}, "brute_force_N10000"),
        ({"scenario": "single-mode", "N": [1, 2, 100000]},
         "entangled_with_vacuum_N100000"),
        ({"scenario": "single-mode", "N": [1, 2, 10**7]}, "single_mode_N10000000"),
    ])
    def test_huge_ensemble_size_is_skipped(self, tmp_path, config, skipped):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / f"{config['scenario']}.json").read_text())
        assert [s["check"] for s in payload["skipped"]] == [skipped]
        if config["scenario"] == "single-mode":
            # every N up to the closed form's 1e6 is recorded, exactly h(1/N)
            rows = {r["n"]: r["entropy"] for r in payload["records"]
                    if r["kind"] == "reducible"}
            assert sorted(rows) == [n for n in config["N"] if n <= 10**6]
            for n, entropy in rows.items():
                assert entropy == pytest.approx(binary_entropy(n), rel=1e-14, abs=0)

    @pytest.mark.parametrize("config", [
        {"scenario": "infinity", "times": [0.0, float("nan")]},
        {"scenario": "reducible-brute",
         "profile": {"kind": "uniform", "modes": 4, "selected": [-1, 0]}},
    ])
    def test_nan_time_and_negative_index_are_config_errors(
            self, tmp_path, capsys, config):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(config))
        assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("command, scenario", [
        ("run", "single-mode"), ("run", "berezin"), ("sweep", "reducible-limit")])
    @pytest.mark.parametrize("key, value, replacement", [
        # bounds that passed every single-mode check when a config could set them
        ("tolerances", {"entangled_min": 1e-300, "entropy": 1e300}, "scenarios.TOLERANCES"),
        ("out", "somewhere", "--out"),
    ])
    def test_removed_key_exits_2_and_writes_nothing(
            self, tmp_path, monkeypatch, capsys, command, scenario, key, value, replacement):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text(json.dumps({"scenario": scenario, key: value}))
        assert cli.main([command, "--config", "cfg.json"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: unknown config key {key!r}; ")
        assert replacement in err and err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    @pytest.mark.parametrize("scenario", SCENARIO_NAMES)
    def test_report_config_holds_only_the_physics(self, tmp_path, scenario):
        assert cli.main(["run", "--scenario", scenario, "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / f"{scenario}.json").read_text())
        assert sorted(payload["provenance"]["config"]) == [
            "cutoff", "d", "n_max", "n_values", "profile", "scenario", "times"]

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_validate_seed_out_of_range_exits_2(self, tmp_path, capsys, seed):
        assert cli.main(["validate", "--seed", seed, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: seed must be an unsigned 64-bit integer")
        assert not (tmp_path / "validate.json").exists()

    def test_unwritable_out_exits_2(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = blocker / "reports"
        assert cli.main(["run", "--scenario", "single-mode", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write reports to {out}: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("config", [
        {"scenario": "infinity", "n_max": 16},
        {"scenario": "infinity", "n_max": 32},
        {"scenario": "berezin", "d": 2, "cutoff": 22},
        {"scenario": "berezin", "d": 2, "cutoff": 60},
    ])
    def test_irreducible_size_ceiling_exits_3_fast(self, tmp_path, capsys, config):
        cfg = tmp_path / "big.json"
        cfg.write_text(json.dumps(config))
        start = time.perf_counter()
        code = cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert time.perf_counter() - start < 0.05
        assert code == 3
        assert "exceeds the brute-force ceiling" in capsys.readouterr().err

    def test_single_mode_skips_its_infinity_analogue_above_the_ceiling(self, tmp_path):
        cfg = tmp_path / "big.json"
        cfg.write_text(json.dumps({"scenario": "single-mode", "n_max": 16}))
        assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "single-mode.json").read_text())
        assert [r["n"] for r in report["records"]] == [1, 2, 3, 4]
        assert all(r["kind"] == "reducible" for r in report["records"])
        skipped = {s["check"]: s["reason"] for s in report["skipped"]}
        assert "exceeds the brute-force ceiling" in skipped["infinity_analogue_product"]

    @pytest.mark.parametrize("scenario", ["reducible-brute", "reducible-limit", "single-mode"])
    def test_profile_modes_above_the_ceiling_exit_2_fast(self, tmp_path, capsys, scenario):
        cfg = tmp_path / "big.json"
        cfg.write_text(json.dumps({"scenario": scenario,
                                   "profile": {"kind": "uniform", "modes": 10**12}}))
        start = time.perf_counter()
        code = cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert time.perf_counter() - start < 0.05
        assert code == 2
        err = capsys.readouterr().err
        assert "'profile.modes'" in err and str(MAX_PROFILE_MODES) in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("config, key", [
        ({"scenario": "infinity", "profile": {"modes": 3.5}}, "'profile.modes'"),
        ({"scenario": "infinity", "profile": {"kind": "bogus", "modes": -3}},
         "profile kind"),
        ({"scenario": "berezin", "profile": {"modes": 2000000}}, "'profile.modes'"),
        ({"scenario": "infinity", "N": [0, -5]}, "'N'"),
    ])
    def test_every_scenario_refuses_a_malformed_profile_or_n(self, tmp_path, capsys,
                                                             config, key):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(config))
        assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_berezin_forty_modes_runs_fast(self, tmp_path):
        start = time.perf_counter()
        report = run_scenario(ScenarioConfig(scenario="berezin", d=40))
        assert time.perf_counter() - start < 1.0
        assert report.passed

    def test_fresh_command_keeps_lazy_numpy_modules_unloaded(self, tmp_path):
        src = str(Path(cli.__file__).resolve().parents[1])
        script = (
            "import sys\n"
            "from ccrlab import cli\n"
            f"names = {list(SCENARIO_NAMES)!r}\n"
            "codes = [cli.main(['run', '--scenario', n, '--out', sys.argv[1]]) for n in names]\n"
            "codes.append(cli.main(['sweep', '--out', sys.argv[1]]))\n"
            "codes.append(cli.main(['validate', '--out', sys.argv[1]]))\n"
            "loaded = [m for m in ('numpy.ma', 'numpy.random', 'scipy') if m in sys.modules]\n"
            "print(codes, loaded)\n"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
        run = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                             capture_output=True, text=True, env=env, timeout=120)
        assert run.returncode == 0, run.stderr
        assert run.stdout.splitlines()[-1] == f"{[0] * 7} []"
