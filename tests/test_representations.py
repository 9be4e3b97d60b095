import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from ccrlab import fock, representations
from ccrlab.exceptions import ConfigError, DomainError, SizeLimitError, ValidationError
from ccrlab.linalg import embed_operator
from ccrlab.representations import (
    VacuumProfile,
    binomial_support,
    build_berezin,
    build_infinity_two_mode,
    build_reducible,
    ccr_check,
    central_spectral_projectors,
    joint_sector_sum,
    log_binomial_weights,
    log_joint_weights,
    mode_excitation_state,
    occupation_basis,
    vacuum_weight,
)

SQRT_HALF = 1.0 / math.sqrt(2.0)


class TestVacuumProfile:
    def test_uniform(self):
        prof = VacuumProfile.uniform(4)
        assert np.allclose(prof.probabilities, 0.25)
        assert prof.z_max == pytest.approx(0.25)
        assert prof.labels == ("k1", "k2", "k3", "k4")

    def test_unit_sum_enforced(self):
        with pytest.raises(ValidationError, match="sum to 1"):
            VacuumProfile(("k1", "k2"), np.array([1.0, 1.0]))

    def test_plateau_shape(self):
        prof = VacuumProfile.plateau(7, window=(2, 3), rate=0.8)
        z = prof.probabilities
        assert z[2] == pytest.approx(z[3])
        # exponential rolloff on both sides of the window
        assert z[1] / z[2] == pytest.approx(math.exp(-0.8))
        assert z[5] / z[4] == pytest.approx(math.exp(-0.8))
        assert z.sum() == pytest.approx(1.0, abs=1e-12)
        assert prof.z_max == pytest.approx(z[2])

    def test_nan_probability_rejected(self):
        with pytest.raises(ValidationError, match="sum to 1"):
            VacuumProfile.from_probabilities(("a", "b"), (math.nan, 0.5))

    @pytest.mark.parametrize("rate", [math.nan, math.inf, -0.5])
    def test_plateau_rejects_non_finite_or_negative_rate(self, rate):
        with pytest.raises(ValidationError, match="rolloff rate"):
            VacuumProfile.plateau(3, rate=rate)

    def test_from_probabilities_defaults_to_real_amplitudes(self):
        prof = VacuumProfile.from_probabilities(("a", "b"), (0.25, 0.75))
        assert np.allclose(prof.amplitudes.imag, 0.0)
        assert prof.probability("b") == pytest.approx(0.75)


class TestInfinityRepresentation:
    def test_shared_photon_is_mode_superposition(self):
        rep = build_infinity_two_mode(1)
        shared = (
            (rep.raising("mode1") + rep.raising("mode2"))
            @ rep.vacuum.amplitudes
            * SQRT_HALF
        )
        # basis (n1, n2) row-major over dims (2, 2)
        assert np.allclose(shared, [0.0, SQRT_HALF, SQRT_HALF, 0.0])

    def test_single_mode_excitation(self):
        rep = build_infinity_two_mode(1)
        out = rep.raising("mode1") @ rep.vacuum.amplitudes
        assert np.allclose(out, [0.0, 0.0, 1.0, 0.0])

    def test_independent_modes_commute(self):
        rep = build_infinity_two_mode(2)
        a1 = rep.lowering["mode1"]
        a2d = rep.raising("mode2")
        assert np.count_nonzero(a1 @ a2d - a2d @ a1) == 0

    def test_central_elements_are_identities(self):
        rep = build_infinity_two_mode(1)
        assert np.array_equal(rep.central["mode1"], np.eye(4))

    def test_needs_at_least_one_quantum(self):
        with pytest.raises(ConfigError):
            build_infinity_two_mode(0)


class TestBerezinRepresentation:
    def test_dimension_counts_admissible_tuples(self):
        rep = build_berezin(2, 1)
        assert rep.dim == 3
        assert len(occupation_basis(3, 2)) == 10

    def test_shared_photon_single_factor(self):
        rep = build_berezin(2, 1)
        shared = (
            (rep.raising("f1") + rep.raising("f2")) @ rep.vacuum.amplitudes
        ) * SQRT_HALF
        assert np.linalg.norm(shared) == pytest.approx(1.0, abs=1e-14)
        assert sorted(np.abs(shared)) == pytest.approx([0.0, SQRT_HALF, SQRT_HALF])
        assert rep.factorization.labels == ("field",)

    def test_vacuum_unique_all_zero_tuple(self):
        rep = build_berezin(3, 2)
        vac = rep.vacuum.amplitudes
        assert vac[0] == 1.0
        assert np.count_nonzero(vac) == 1

    def test_commutator_identity_below_cutoff(self):
        rep = build_berezin(2, 2)
        a1 = rep.lowering["f1"]
        comm = a1 @ a1.conj().T - a1.conj().T @ a1
        # restrict to the zero- and one-photon sector
        mask = rep.below_cutoff_mask
        q = np.diag(mask.astype(float))
        assert np.max(np.abs((comm - np.eye(rep.dim)) @ q)) <= 1e-12

    def test_selected_mode_out_of_range(self):
        with pytest.raises(ConfigError, match="out of range"):
            build_berezin(2, 1, [3])

    def test_creation_matrix_element(self):
        rep = build_berezin(1, 3)
        ad = rep.raising("f1")
        # |2> -> sqrt(3)|3> in the single-mode chain
        amp = ad[3, 2]
        assert amp == pytest.approx(math.sqrt(3.0))

    @pytest.mark.parametrize("d", [0, 1, 2, 3, 5])
    @pytest.mark.parametrize("cutoff", [0, 1, 2, 4])
    def test_basis_matches_filtered_product(self, d, cutoff):
        expected = [tup for tup in itertools.product(range(cutoff + 1), repeat=d)
                    if sum(tup) <= cutoff]
        assert occupation_basis(d, cutoff) == expected

    @pytest.mark.parametrize("build, admitted, refused", [
        # coupled dimension 4 (n_max + 1)^2: 4096 at n_max = 31, 4356 at 32
        (build_infinity_two_mode, (31,), (32,)),
        # 4 C(d + cutoff, d): 3960 at (2, 43), 4140 at (2, 44)
        (build_berezin, (2, 43), (2, 44)),
    ])
    def test_coupled_dimension_ceiling(self, build, admitted, refused):
        assert 4 * build(*admitted).dim <= representations.BRUTE_FORCE_CEILING
        with pytest.raises(SizeLimitError, match="ceiling 4096"):
            build(*refused)

    @pytest.mark.parametrize("args", [(10**9, 10**9), (2, 10**12), (10**12, 1)])
    def test_huge_berezin_refused_without_enumerating(self, args):
        start = time.perf_counter()
        with pytest.raises(SizeLimitError, match="at least"):
            build_berezin(*args)
        assert time.perf_counter() - start < 0.05

    @pytest.mark.parametrize("n", range(0, 40, 3))
    def test_capped_comb_is_exact_up_to_the_cap(self, n):
        for k in range(n + 1):
            value = representations._capped_comb(n, k, 1024)
            exact = math.comb(n, k)
            assert value == exact if exact <= 1024 else value > 1024


class TestReducibleRepresentation:
    def test_vacuum_central_expectation(self):
        prof = VacuumProfile.uniform(2)
        rep = build_reducible(1, prof, n_max=1)
        vac = rep.vacuum.amplitudes
        value = np.vdot(vac, rep.central["k1"] @ vac).real
        assert value == pytest.approx(0.5, abs=1e-12)

    def test_collective_cross_commutator_vanishes(self):
        prof = VacuumProfile.uniform(2)
        rep = build_reducible(2, prof, n_max=1)
        a1 = rep.lowering["k1"]
        a2d = rep.raising("k2")
        assert np.max(np.abs(a1 @ a2d - a2d @ a1)) <= 1e-12

    def test_central_element_spectrum(self):
        prof = VacuumProfile.uniform(2)
        rep = build_reducible(2, prof, n_max=1)
        eigs = np.linalg.eigvalsh(rep.central["k1"])
        assert np.allclose(np.unique(np.round(eigs, 12)), [0.0, 0.5, 1.0])

    def test_vacuum_mode_norm_equals_probability(self):
        prof = VacuumProfile.from_probabilities(("k1", "k2"), (0.3, 0.7))
        rep = build_reducible(3, prof, n_max=1)
        vac = rep.vacuum.amplitudes
        for label, z in (("k1", 0.3), ("k2", 0.7)):
            a = rep.lowering[label]
            assert np.vdot(vac, a @ a.conj().T @ vac).real == pytest.approx(
                z, abs=1e-12
            )

    def test_vacuum_annihilated(self):
        prof = VacuumProfile.uniform(3)
        rep = build_reducible(2, prof, n_max=1)
        for label in rep.mode_labels:
            assert np.linalg.norm(rep.lowering[label] @ rep.vacuum.amplitudes) <= 1e-12

    def test_size_ceiling(self):
        prof = VacuumProfile.uniform(2)
        with pytest.raises(SizeLimitError, match="ceiling"):
            build_reducible(9, prof, n_max=1)

    def test_unknown_selected_mode(self):
        prof = VacuumProfile.uniform(2)
        with pytest.raises(ConfigError, match="not in profile"):
            build_reducible(1, prof, n_max=1, selected_modes=["k9"])

    def test_mode_excitation_state_normalized(self):
        prof = VacuumProfile.from_probabilities(("k1", "k2"), (0.2, 0.8))
        rep = build_reducible(2, prof, n_max=1)
        psi = mode_excitation_state(rep, "k1")
        assert psi.norm == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("build, modes", [
        (lambda: build_infinity_two_mode(2), ("mode1", "mode2")),
        (lambda: build_berezin(2, 2, [1, 2]), ("f1", "f2")),
        (lambda: build_reducible(
            3, VacuumProfile.plateau(3, (0, 0), 0.7), 1, ["k1", "k2"]), ("k1", "k2")),
    ], ids=["infinity", "berezin", "reducible"])
    def test_two_mode_excitation_matches_dense_raising(self, build, modes):
        rep = build()
        dense = (rep.raising(modes[0]) + rep.raising(modes[1])) @ rep.vacuum.amplitudes
        psi = mode_excitation_state(rep, *modes)
        assert np.max(np.abs(psi.amplitudes - dense / np.linalg.norm(dense))) <= 1e-15


def kron_sum_projectors(profile, n_osc, n_max, mode):
    """E_k(s) summed over s-subsets of oscillators as kron products of P_k, 1 - P_k."""
    one_mode = np.diag(np.array(profile.labels) == mode).astype(float)
    pk = np.kron(one_mode, np.eye(n_max + 1))
    qk = np.eye(pk.shape[0]) - pk
    out = []
    for s in range(n_osc + 1):
        total = np.zeros((pk.shape[0] ** n_osc,) * 2)
        for subset in itertools.combinations(range(n_osc), s):
            term = np.ones((1, 1))
            for slot in range(n_osc):
                term = np.kron(term, pk if slot in subset else qk)
            total += term
        out.append(total)
    return out


ORACLE_PROFILES = {
    "uniform": VacuumProfile.uniform(2),
    "plateau": VacuumProfile.plateau(3, (0, 0), 0.7),
}


def per_slot_sum(op, n_osc):
    """sum_n op^(n), one full-space embedding per oscillator slot."""
    dims = [op.shape[0]] * n_osc
    total = np.zeros((op.shape[0] ** n_osc,) * 2, dtype=complex)
    for slot in range(n_osc):
        total += embed_operator(op, dims, slot)
    return total


RECURRENCE_CASES = [
    (n_osc, n_max, kind, selected)
    for n_osc in (1, 2, 3, 4)
    for n_max in (0, 1, 2)
    for kind, selected in (("uniform", None), ("plateau", None),
                           ("plateau", ["k3", "k1"]))
    # the 3-mode plateau at N = 4, n_max = 2 has dimension 9^4 > 4096
    if not (n_osc == 4 and n_max == 2 and kind == "plateau")
]


class TestReducibleRecurrence:
    @pytest.mark.parametrize("n_osc, n_max, kind, selected", RECURRENCE_CASES)
    def test_matches_per_slot_sum_oracle(self, n_osc, n_max, kind, selected):
        prof = ORACLE_PROFILES[kind]
        rep = build_reducible(n_osc, prof, n_max=n_max, selected_modes=selected)
        m = len(prof.labels)
        eye_ladder = np.eye(n_max + 1)
        number = per_slot_sum(
            np.kron(np.eye(m), fock.number_operator(n_max)), n_osc)
        assert np.array_equal(rep.number_op, number)
        for mode in rep.mode_labels:
            pk = np.diag(np.array(prof.labels) == mode).astype(complex)
            a = per_slot_sum(np.kron(pk, fock.annihilation(n_max)), n_osc)
            i = per_slot_sum(np.kron(pk, eye_ladder), n_osc)
            assert np.array_equal(rep.lowering[mode], a / math.sqrt(n_osc))
            assert np.array_equal(rep.central[mode], i / n_osc)

    @pytest.mark.parametrize("n_osc", [10**4, 10**6])
    def test_huge_ensemble_refused_fast(self, n_osc):
        prof = VacuumProfile.uniform(2)
        start = time.perf_counter()
        with pytest.raises(SizeLimitError, match=rf"4\^N with N = {n_osc} .*ceiling 4096"):
            build_reducible(n_osc, prof, n_max=1)
        assert time.perf_counter() - start < 0.05

    @pytest.mark.parametrize("n_modes, n_max, ceiling, n_fits", [
        (2, 1, 64, 3),
        (2, 1, 63, 2),
        (1, 1, 8, 3),
        (1, 1, 2, 1),
        (3, 0, 9, 2),
    ])
    def test_ceiling_boundary_is_exact(self, n_modes, n_max, ceiling, n_fits):
        prof = VacuumProfile.uniform(n_modes)
        rep = build_reducible(n_fits, prof, n_max=n_max, ceiling=ceiling)
        assert rep.dim <= ceiling
        with pytest.raises(SizeLimitError, match="ceiling"):
            build_reducible(n_fits + 1, prof, n_max=n_max, ceiling=ceiling)

    def test_default_ceiling_admits_4_to_the_6(self, monkeypatch):
        class Admitted(Exception):
            pass

        def stop(*args):
            raise Admitted

        # a dense 4096-dimensional build is too large for a unit test, so
        # stop right after the ceiling check
        monkeypatch.setattr(representations, "_single_oscillator_mode_ops", stop)
        prof = VacuumProfile.uniform(2)
        with pytest.raises(Admitted):
            build_reducible(6, prof, n_max=1)
        with pytest.raises(SizeLimitError, match="N = 7"):
            build_reducible(7, prof, n_max=1)


class TestCentralSpectrum:
    @pytest.mark.parametrize("kind, selected", [
        ("uniform", None), ("plateau", None), ("plateau", ["k3", "k1"]),
    ])
    @pytest.mark.parametrize("n_osc, n_max", [
        (1, 1), (2, 1), (3, 1), (1, 2), (2, 2), (3, 2), (4, 1),
    ])
    def test_matches_kron_sum_oracle(self, n_osc, n_max, kind, selected):
        prof = ORACLE_PROFILES[kind]
        rep = build_reducible(n_osc, prof, n_max=n_max, selected_modes=selected)
        for mode in rep.mode_labels:
            spec = central_spectral_projectors(rep, mode)
            oracle = kron_sum_projectors(prof, n_osc, n_max, mode)
            assert len(spec.projectors) == len(oracle)
            for d, e in zip(spec.projectors, oracle):
                assert np.array_equal(np.diag(d), e)

    def test_single_oscillator_projectors(self):
        prof = VacuumProfile.uniform(2)
        rep = build_reducible(1, prof, n_max=1)
        spec = central_spectral_projectors(rep, "k1")
        p1 = rep.central["k1"]
        assert np.allclose(np.diag(spec.projectors[1]), p1)
        assert np.allclose(np.diag(spec.projectors[0]), np.eye(rep.dim) - p1)

    def test_vacuum_expectation_matches_binomial(self):
        prof = VacuumProfile.uniform(4)
        rep = build_reducible(3, prof, n_max=1, selected_modes=["k1"])
        spec = central_spectral_projectors(rep, "k1")
        vac = rep.vacuum.amplitudes
        value = np.vdot(vac, spec.projectors[1] * vac).real
        assert value == pytest.approx(0.421875, abs=1e-12)  # C(3,1) 0.25 0.75^2

    def test_resolution_of_identity_and_orthogonality(self):
        prof = VacuumProfile.uniform(2)
        rep = build_reducible(3, prof, n_max=1)
        spec = central_spectral_projectors(rep, "k1")
        assert np.max(np.abs(sum(spec.projectors) - np.ones(rep.dim))) <= 1e-12
        for s, p_s in enumerate(spec.projectors):
            for sp, p_sp in enumerate(spec.projectors):
                expected = p_s if s == sp else np.zeros_like(p_s)
                assert np.max(np.abs(p_s * p_sp - expected)) <= 1e-10

    def test_reconstructs_central_element(self):
        prof = VacuumProfile.from_probabilities(("k1", "k2"), (0.4, 0.6))
        rep = build_reducible(3, prof, n_max=1)
        spec = central_spectral_projectors(rep, "k2")
        recon = sum(float(e) * p for e, p in zip(spec.eigenvalues, spec.projectors))
        assert np.max(np.abs(np.diag(recon) - rep.central["k2"])) <= 1e-10

    @pytest.mark.parametrize("n_osc", [1, 2, 3])
    def test_joint_vacuum_weights_match_brute_force(self, n_osc):
        prof = VacuumProfile.uniform(4)
        rep = build_reducible(n_osc, prof, n_max=1, selected_modes=["k1", "k2"])
        spec1 = central_spectral_projectors(rep, "k1")
        spec2 = central_spectral_projectors(rep, "k2")
        vac = rep.vacuum.amplitudes
        for s in range(n_osc + 1):
            for sp in range(n_osc + 1):
                brute = np.vdot(
                    vac, spec1.projectors[s] * spec2.projectors[sp] * vac
                ).real
                closed = vacuum_weight(n_osc, s, 0.25, s_prime=sp, z2=0.25)
                assert brute == pytest.approx(closed, abs=1e-12)

    def test_any_profile_label_without_its_operators(self):
        prof = VacuumProfile.uniform(4)
        lean = build_reducible(3, prof, n_max=1, selected_modes=["k1"])
        full = build_reducible(3, prof, n_max=1, selected_modes=["k1", "k2"])
        assert "k2" not in lean.lowering and "k2" not in lean.central
        lean_spec = central_spectral_projectors(lean, "k2")
        full_spec = central_spectral_projectors(full, "k2")
        assert np.array_equal(lean_spec.eigenvalues, full_spec.eigenvalues)
        assert len(lean_spec.projectors) == len(full_spec.projectors)
        for p_lean, p_full in zip(lean_spec.projectors, full_spec.projectors):
            assert np.array_equal(p_lean, p_full)

    def test_label_outside_profile_rejected(self):
        rep = build_reducible(2, VacuumProfile.uniform(2), n_max=1,
                              selected_modes=["k1"])
        with pytest.raises(ConfigError, match="unknown mode 'k3'"):
            central_spectral_projectors(rep, "k3")

    def test_requires_reducible_kind(self):
        with pytest.raises(ConfigError, match="reducible"):
            central_spectral_projectors(build_infinity_two_mode(1), "mode1")


class TestVacuumWeight:
    def test_single_trial(self):
        assert vacuum_weight(1, 1, 0.3) == pytest.approx(0.3, abs=1e-15)
        assert vacuum_weight(1, 0, 0.3) == pytest.approx(0.7, abs=1e-15)

    def test_impossible_partition_is_exact_zero(self):
        assert vacuum_weight(1, 1, 0.3, s_prime=1, z2=0.3) == 0.0

    def test_matches_exact_combinatorics(self):
        for n in (5, 30):
            for z in (0.2, 0.5, 0.9):
                for s in range(n + 1):
                    exact = math.comb(n, s) * z**s * (1 - z) ** (n - s)
                    assert vacuum_weight(n, s, z) == pytest.approx(exact, rel=1e-13)

    def test_normalization_large_n(self):
        support = binomial_support(1000, 0.25)
        total = float(np.exp(log_binomial_weights(1000, support, 0.25)).sum())
        assert abs(total - 1.0) <= 1e-12

    def test_joint_sums_to_one(self):
        n = 6
        total = sum(
            vacuum_weight(n, s, 0.3, s_prime=sp, z2=0.2)
            for s in range(n + 1)
            for sp in range(n + 1)
        )
        assert total == pytest.approx(1.0, abs=1e-13)

    @pytest.mark.parametrize(
        "z1, z2", [(0.3, 0.2), (0.1, 0.05), (0.25, 0.75), (0.6, 0.4)])
    def test_joint_matches_exact_multinomial(self, z1, z2):
        f1, f2 = Fraction(z1), Fraction(z2)
        f0 = 1 - f1 - f2
        for n in (5, 30):
            for s in range(n + 1):
                for sp in range(n + 1):
                    closed = vacuum_weight(n, s, z1, s_prime=sp, z2=z2)
                    if s + sp > n:
                        assert closed == 0.0
                        continue
                    exact = (math.comb(n, s) * math.comb(n - s, sp)
                             * f1**s * f2**sp * f0 ** (n - s - sp))
                    assert closed == pytest.approx(float(exact), rel=1e-13)

    def test_joint_all_mass_in_first_mode(self):
        assert vacuum_weight(4, 4, 1.0, s_prime=0, z2=0.0) == 1.0
        assert vacuum_weight(4, 3, 1.0, s_prime=1, z2=0.0) == 0.0
        assert vacuum_weight(4, 2, 1.0, s_prime=0, z2=0.0) == 0.0

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            vacuum_weight(3, 4, 0.5)
        with pytest.raises(DomainError):
            vacuum_weight(3, 1, 1.5)
        with pytest.raises(DomainError):
            vacuum_weight(3, 1, 0.7, s_prime=1, z2=0.5)
        with pytest.raises(DomainError):
            vacuum_weight(3, 1, 0.5, s_prime=1)

    def test_degenerate_probabilities(self):
        assert np.exp(log_binomial_weights(3, np.arange(4), 0.0)) == pytest.approx(
            [1.0, 0.0, 0.0, 0.0]
        )
        assert np.exp(log_binomial_weights(3, np.arange(4), 1.0)) == pytest.approx(
            [0.0, 0.0, 0.0, 1.0]
        )


def direct(n, s, z):
    return representations._log_binomial_direct(n, np.asarray(s), z)


def rel_weight_error(log_a, log_b) -> float:
    """max |w_a / w_b - 1| over two arrays of log weights."""
    diff = (np.asarray(log_a) - np.asarray(log_b)).astype(float)
    return float(np.max(np.abs(np.expm1(diff)), initial=0.0))


class TestBinomialRecurrence:
    """The anchored cumulative-log recurrence against the direct per-cell formula."""

    @pytest.mark.parametrize("n", [1, 2, 10, 24, 25, 49, 1000, 10**5, 10**6])
    @pytest.mark.parametrize("z", [1e-3, 0.05, 0.2, 0.5, 0.95, 1 - 1e-3])
    def test_full_window_matches_direct(self, n, z):
        # every sector below 50, the sectors that matter above
        s = np.arange(n + 1) if n < 50 else binomial_support(n, z)
        got = log_binomial_weights(n, s, z)
        assert got.dtype == np.longdouble and got.shape == s.shape
        assert rel_weight_error(got, direct(n, s, z)) <= 1e-13
        assert abs(float(np.exp(got.astype(float)).sum()) - 1.0) <= 1e-12

    def test_unsorted_input_reads_the_same_table(self):
        n, z = 10**5, 0.3
        s = binomial_support(n, z)
        perm = np.random.default_rng(5).permutation(s.size)
        assert np.array_equal(log_binomial_weights(n, s[perm], z),
                              log_binomial_weights(n, s, z)[perm])

    @pytest.mark.parametrize("lo, hi", [(0, 30), (480_000, 490_000),
                                        (503_000, 503_100), (496_000, 504_000)])
    def test_sub_windows_on_either_side_of_the_mean(self, lo, hi):
        n, z = 10**6, 0.5
        s = np.arange(lo, hi + 1)
        assert rel_weight_error(log_binomial_weights(n, s, z), direct(n, s, z)) <= 1e-13

    @pytest.mark.parametrize("n, z1, z2", [(30, 0.3, 0.2), (1000, 0.45, 0.5),
                                           (4000, 0.2, 0.05)])
    def test_joint_rows_take_the_fitting_sub_window(self, n, z1, z2):
        # log_joint_weights passes s_prime[fits] with n - s and z2 / (1 - z1)
        s = binomial_support(n, z1)[::7]
        s_prime = binomial_support(n, z2)
        got = log_joint_weights(n, s, s_prime, z1, z2)
        q = np.longdouble(z2) / (1 - np.longdouble(z1))
        for i, s_i in enumerate(s):
            fits = s_prime <= n - s_i
            assert np.all(np.isneginf(got[i, ~fits]))
            expected = direct(n, [s_i], z1)[0] + direct(n - s_i, s_prime[fits], q)
            assert rel_weight_error(got[i, fits], expected) <= 1e-13

    @pytest.mark.parametrize("n, s, z", [(1, 0, 0.3), (1, 1, 0.3), (49, 25, 0.95),
                                         (10**6, 0, 0.2), (10**6, 10**6, 0.2),
                                         (10**6, 200_123, 0.2)])
    def test_single_cell_is_the_direct_formula(self, n, s, z):
        assert log_binomial_weights(n, np.array([s]), z)[0] == direct(n, [s], z)[0]
        assert vacuum_weight(n, s, z) == float(np.exp(direct(n, [s], z)[0]))

    @pytest.mark.parametrize("n", [1, 25, 10**6])
    def test_point_masses(self, n):
        s = np.arange(max(0, n - 40), n + 1)
        at_zero = np.exp(log_binomial_weights(n, np.arange(min(n, 40) + 1), 0.0))
        at_one = np.exp(log_binomial_weights(n, s, 1.0))
        assert at_zero[0] == 1.0 and np.all(at_zero[1:] == 0.0)
        assert at_one[-1] == 1.0 and np.all(at_one[:-1] == 0.0)

    @pytest.mark.parametrize("z", [1e-3, 0.2, 0.5, 0.95])
    def test_matches_mpmath_at_edges_and_anchor(self, z):
        mpmath = pytest.importorskip("mpmath")
        n = 10**6
        s = binomial_support(n, z)
        got = log_binomial_weights(n, s, z)
        with mpmath.workdps(40):
            zm = mpmath.mpf(z)
            for i in (0, math.floor(n * z) - s[0], s.size - 1):
                k = int(s[i])
                exact = (mpmath.log(mpmath.binomial(n, k)) + k * mpmath.log(zm)
                         + (n - k) * mpmath.log(1 - zm))
                assert abs(mpmath.expm1(mpmath.mpf(str(got[i])) - exact)) <= 1e-13


class TestBinomialSupport:
    def test_small_n_is_exact(self):
        assert np.array_equal(binomial_support(100, 0.5), np.arange(101))

    def test_large_n_window_contains_bulk(self):
        support = binomial_support(10**6, 0.1)
        assert support[0] >= 0 and support[-1] <= 10**6
        mean = 10**5
        assert support[0] < mean < support[-1]
        total = float(np.exp(log_binomial_weights(10**6, support, 0.1)).sum())
        assert abs(total - 1.0) <= 1e-12


class TestJointSectorSum:
    @pytest.mark.parametrize("z1, z2", [(0.3, 0.2), (0.25, 0.75), (0.7, 0.3)])
    def test_matches_double_sum_of_vacuum_weights(self, z1, z2):
        n = 30
        s1, s2 = binomial_support(n, z1), binomial_support(n, z2)
        rng = np.random.default_rng(3)
        f1 = rng.uniform(size=(2, s1.size))
        f2 = rng.uniform(size=(2, s2.size))
        total = joint_sector_sum(n, z1, z2, f1, f2)
        for row in range(2):
            direct = sum(
                vacuum_weight(n, s, z1, s_prime=sp, z2=z2) * f1[row, i] * f2[row, j]
                for i, s in enumerate(s1)
                for j, sp in enumerate(s2)
            )
            assert total[row] == pytest.approx(direct, rel=1e-13)

    @pytest.mark.parametrize("n", [1, 10, 4000, 10**6])
    @pytest.mark.parametrize("z1, z2", [(0.2, 0.05), (0.5, 0.5), (0.45, 0.55 - 1e-9)])
    def test_unit_sum(self, n, z1, z2):
        ones1 = np.ones(binomial_support(n, z1).size)
        ones2 = np.ones(binomial_support(n, z2).size)
        assert abs(float(joint_sector_sum(n, z1, z2, ones1, ones2)) - 1.0) <= 1e-12

    def test_rejects_mismatched_tables(self):
        with pytest.raises(ValidationError):
            joint_sector_sum(10, 0.2, 0.3, np.ones(3), np.ones(11))


class TestCcrCheck:
    def test_infinity_exact_below_truncation(self):
        report = ccr_check(build_infinity_two_mode(1))
        assert report.max_deviation <= 1e-12

    def test_berezin_below_cutoff(self):
        report = ccr_check(build_berezin(2, 2))
        assert report.max_deviation <= 1e-12

    def test_reducible_collective_algebra(self):
        prof = VacuumProfile.uniform(2)
        report = ccr_check(build_reducible(2, prof, n_max=1))
        assert report.max_deviation <= 1e-12
        # the restricted commutator defect for the diagonal pair is reported
        assert report.commutator[("k1", "k1")] <= 1e-12
        assert report.centrality[("k1", "k2")] <= 1e-12
        assert report.vacuum_annihilation["k2"] <= 1e-12
