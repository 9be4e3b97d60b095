"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the pytest verdicts. Tolerances are pinned here and are
not configurable.
"""

import math
import time

import numpy as np

from ccrlab import dynamics as dyn
from ccrlab import entanglement as ent
from ccrlab import representations as reps
from ccrlab.linalg import expm_generator
from ccrlab.scenarios import simulated_atomic_density, validate

TIME_GRID = (0.0, math.pi / 8, math.pi / 4, 3 * math.pi / 8, math.pi / 2)

#: 1|(N-1) bipartition entropy of the normalized one-quantum collective
#: excitation at N = 2, frozen from the Schmidt oracle at build time.
SINGLE_MODE_ENTROPY_N2 = 0.6931471805599453


def _verdict(num: int, description: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {description} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_1_master_propagator_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    dims = [2 + (i % 7) for i in range(100)]  # cycles 2..8
    worst = 0.0
    for dim in dims:
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        h = np.kron(dyn.ATOM_LOWERING.conj().T, a) + np.kron(
            dyn.ATOM_LOWERING, a.conj().T
        )
        for t in (0.3, 0.9, math.pi / 2):
            dev = np.max(np.abs(
                dyn.closed_form_evolution(a, t) - expm_generator(h, t)))
            worst = max(worst, float(dev))
    elapsed = time.perf_counter() - start
    _verdict(
        1, "closed-form propagator vs matrix-exponential oracle",
        worst <= 1e-10 and elapsed < 5.0,
        f"max deviation {worst:.3e} <= 1e-10 over 100 couplings, "
        f"{elapsed:.2f}s < 5s",
    )


def test_criterion_2_irreducible_reduction():
    start = time.perf_counter()
    rep_inf = reps.build_infinity_two_mode(1)
    rep_ber = reps.build_berezin(2, 1)
    worst_closed = 0.0
    worst_cross = 0.0
    for t in TIME_GRID:
        atoms_inf = simulated_atomic_density(rep_inf, t, ("mode1", "mode2"))
        atoms_ber = simulated_atomic_density(rep_ber, t, ("f1", "f2"))
        closed = dyn.rho_atoms_irreducible(t)
        worst_closed = max(
            worst_closed,
            ent.trace_distance(atoms_inf, closed),
            ent.trace_distance(atoms_ber, closed),
        )
        worst_cross = max(worst_cross, ent.trace_distance(atoms_inf, atoms_ber))
    elapsed = time.perf_counter() - start
    _verdict(
        2, "both irreducible representations reproduce the closed-form density",
        worst_closed <= 1e-10 and worst_cross <= 1e-10 and elapsed < 1.0,
        f"max closed-form distance {worst_closed:.3e}, "
        f"cross distance {worst_cross:.3e} <= 1e-10, {elapsed:.2f}s < 1s",
    )


def test_criterion_3_entanglement_accounting():
    rep = reps.build_infinity_two_mode(1)
    shared = (rep.raising("mode1") + rep.raising("mode2")) @ rep.vacuum.amplitudes
    from ccrlab.linalg import StateVector

    shared_state = StateVector(shared, rep.factorization).normalized()
    entropy_dev = abs(
        ent.marginal_entropy(shared_state, ent.Bipartition(("mode1",)))
        - math.log(2.0)
    )

    rep_ber = reps.build_berezin(2, 1)
    psi0 = dyn.single_photon_initial_state(rep_ber, ("f1", "f2"))
    second = float(ent.schmidt_coefficients(
        psi0, ent.Bipartition(("atom1", "atom2")))[1])

    conc_dev_half_pi = abs(
        ent.concurrence(dyn.rho_atoms_irreducible(math.pi / 2)) - 1.0)
    conc_dev_grid = max(
        abs(ent.concurrence(dyn.rho_atoms_irreducible(t)) - math.sin(t) ** 2)
        for t in TIME_GRID
    )
    _verdict(
        3, "two-mode entanglement is ln 2, Schmidt rank 1, sin^2 concurrence",
        entropy_dev <= 1e-12 and second <= 1e-12
        and conc_dev_half_pi <= 1e-10 and conc_dev_grid <= 1e-8,
        f"entropy dev {entropy_dev:.3e} <= 1e-12, schmidt#2 {second:.3e} "
        f"<= 1e-12, concurrence dev {conc_dev_half_pi:.3e} <= 1e-10, "
        f"sin^2 dev {conc_dev_grid:.3e} <= 1e-8",
    )


def test_criterion_4_finite_ensemble_vs_brute_force():
    start = time.perf_counter()
    profile = reps.VacuumProfile.uniform(2)
    worst = 0.0
    for n in (1, 2, 3):
        rep = reps.build_reducible(n, profile, n_max=1)
        for t in TIME_GRID:
            brute = simulated_atomic_density(rep, t, ("k1", "k2"))
            closed = dyn.rho_atoms_reducible(t, n, 0.5, 0.5, 0.5)
            worst = max(worst, ent.trace_distance(brute, closed))
    elapsed = time.perf_counter() - start
    _verdict(
        4, "ensemble closed form matches brute force at N = 1, 2, 3",
        worst <= 1e-8 and elapsed < 10.0,
        f"max trace distance {worst:.3e} <= 1e-8, {elapsed:.2f}s < 10s",
    )


def test_criterion_5_coherence_extinction_n1():
    profile = reps.VacuumProfile.uniform(2)
    rep = reps.build_reducible(1, profile, n_max=1)
    closed_coh = 0.0
    brute_coh = 0.0
    worst_conc = 0.0
    for t in TIME_GRID:
        closed = dyn.rho_atoms_reducible(t, 1, 0.5, 0.5, 0.5)
        closed_coh = max(closed_coh, abs(complex(
            closed[dyn.IDX_PM, dyn.IDX_MP])))
        brute = simulated_atomic_density(rep, t, ("k1", "k2"))
        brute_coh = max(brute_coh, abs(complex(brute[dyn.IDX_PM, dyn.IDX_MP])))
        worst_conc = max(worst_conc, ent.concurrence(closed))
    _verdict(
        5, "atom-atom coherence is extinct at N = 1",
        closed_coh == 0.0 and brute_coh <= 1e-10 and worst_conc <= 1e-10,
        f"closed-form coherence {closed_coh!r} == 0, brute {brute_coh:.3e} "
        f"<= 1e-10, concurrence {worst_conc:.3e} <= 1e-10",
    )


def test_criterion_6_large_ensemble_limit():
    start = time.perf_counter()
    worst_plateau = 0.0
    for z in (0.5, 0.25):
        for t in TIME_GRID:
            worst_plateau = max(worst_plateau, ent.trace_distance(
                dyn.rho_atoms_limit(t, z, z, z), dyn.rho_atoms_irreducible(t)))

    t = math.pi / 2
    z = 0.25
    limit = dyn.rho_atoms_limit(t, z, z, z)
    d = {
        n: ent.trace_distance(dyn.rho_atoms_reducible(t, n, z, z, z), limit)
        for n in (100, 1000, 10000)
    }
    elapsed = time.perf_counter() - start
    monotone = d[10000] < d[1000] < d[100]
    _verdict(
        6, "finite-ensemble density converges to its limit",
        worst_plateau <= 1e-12 and monotone and d[10000] <= 0.02
        and elapsed < 30.0,
        f"plateau match {worst_plateau:.3e} <= 1e-12; "
        f"D(1e2)={d[100]:.3e} > D(1e3)={d[1000]:.3e} > D(1e4)={d[10000]:.3e} "
        f"<= 0.02; {elapsed:.2f}s < 30s",
    )


def test_criterion_7_weight_identities():
    worst_sum = 0.0
    for n in (1, 10, 10**3, 10**6):
        for z in (0.1, 0.25, 0.5):
            support = reps.binomial_support(n, z)
            total = float(np.exp(reps.log_binomial_weights(n, support, z)).sum())
            worst_sum = max(worst_sum, abs(total - 1.0))

    worst_joint = 0.0
    for z, modes in ((0.5, 2), (0.25, 4)):
        profile = reps.VacuumProfile.uniform(modes)
        for n in (1, 2, 3):
            rep = reps.build_reducible(n, profile, n_max=1,
                                       selected_modes=["k1", "k2"])
            spec1 = reps.central_spectral_projectors(rep, "k1")
            spec2 = reps.central_spectral_projectors(rep, "k2")
            vac = rep.vacuum.amplitudes
            for s in range(n + 1):
                for sp in range(n + 1):
                    brute = float(np.vdot(
                        vac,
                        spec1.projectors[s] * spec2.projectors[sp] * vac).real)
                    closed = reps.vacuum_weight(n, s, z, sp, z)
                    worst_joint = max(worst_joint, abs(brute - closed))
    _verdict(
        7, "binomial weights sum to one and joint weights match projectors",
        worst_sum <= 1e-12 and worst_joint <= 1e-12,
        f"max |sum - 1| = {worst_sum:.3e} <= 1e-12 up to N = 1e6, "
        f"max joint deviation {worst_joint:.3e} <= 1e-12",
    )


def test_criterion_8_single_mode_entanglement_with_vacuum():
    profile = reps.VacuumProfile.uniform(2)

    def entropy_at(n):
        rep = reps.build_reducible(n, profile, n_max=1)
        psi = reps.mode_excitation_state(rep, "k1")
        return ent.marginal_entropy(psi, ent.Bipartition(("osc1",)))

    s1 = entropy_at(1)
    s2 = entropy_at(2)
    rep_inf = reps.build_infinity_two_mode(1)
    psi_inf = reps.mode_excitation_state(rep_inf, "mode1")
    s_inf = ent.marginal_entropy(psi_inf, ent.Bipartition(("mode1",)))
    _verdict(
        8, "single-mode excitation entangles with vacuum only for N > 1",
        abs(s1) <= 1e-12 and s2 > 0.1
        and abs(s2 - SINGLE_MODE_ENTROPY_N2) <= 1e-12 and abs(s_inf) <= 1e-12,
        f"S(N=1) = {s1:.3e} (0 +- 1e-12), S(N=2) = {s2!r} > 0.1 nats and "
        f"matches the frozen constant, two-oscillator analogue {s_inf:.3e}",
    )


def test_criterion_9_validate_determinism():
    first = validate(seed=42)
    second = validate(seed=42)
    same_json = first.json_bytes() == second.json_bytes()
    same_csv = first.csv_bytes() == second.csv_bytes()
    _verdict(
        9, "validate is byte-deterministic for a fixed seed",
        first.passed and same_json and same_csv,
        f"all checks passed = {first.passed}, json identical = {same_json}, "
        f"csv identical = {same_csv}",
    )
