import dataclasses
import itertools
import math
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from ccrlab import fock, representations
from ccrlab.exceptions import ConfigError, SizeLimitError, ValidationError
from ccrlab.entanglement import Bipartition, marginal_entropy
from ccrlab.linalg import embed_operator, kron
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
)
from ccrlab.scenarios import _check

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
            VacuumProfile(("a", "b"), (math.nan, 0.5))

    @pytest.mark.parametrize("probabilities, message", [
        ((0.5 + 0j, 0.5), "real"),
        ((0.5, 0.5j), "real"),
        ((-0.5, 1.5), "nonnegative"),
        ((math.nan, 1.0), "sum to 1"),
    ], ids=["complex", "imaginary", "negative", "nan"])
    def test_refuses_complex_negative_or_nan_probabilities(self, probabilities, message):
        with pytest.raises(ValidationError, match=message):
            VacuumProfile(("a", "b"), probabilities)

    @pytest.mark.parametrize("rate", [math.nan, math.inf, -0.5])
    def test_plateau_rejects_non_finite_or_negative_rate(self, rate):
        with pytest.raises(ValidationError, match="rolloff rate"):
            VacuumProfile.plateau(3, rate=rate)

    def test_stores_the_given_probabilities_as_float64(self):
        prof = VacuumProfile(("a", "b"), (0.25, 0.75))
        assert prof.probabilities.dtype == np.float64
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
        assert np.array_equal(rep.central["mode1"], np.ones(4))

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

    def test_repeated_selected_mode_rejected_before_building(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("basis built for a rejected selection")

        monkeypatch.setattr(representations, "occupation_basis", unreachable)
        with pytest.raises(ConfigError, match="repeat"):
            build_berezin(2, 1, [1, 1])

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
        # coupled dimension 4 (n_max + 1)^2: 1024 at n_max = 15, 1156 at 16
        (build_infinity_two_mode, (15,), (16,)),
        # 4 C(d + cutoff, d): 1012 at (2, 21), 1104 at (2, 22)
        (build_berezin, (2, 21), (2, 22)),
    ])
    def test_coupled_dimension_ceiling(self, build, admitted, refused):
        assert 4 * build(*admitted).dim <= representations._COUPLED_CEILING
        with pytest.raises(SizeLimitError, match="ceiling 1024"):
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


def kron_infinity_fields(n_max):
    """Two-mode fields assembled from kron products of one-oscillator matrices."""
    a = fock.annihilation(n_max)
    eye = np.eye(n_max + 1)
    number = np.diag(fock.number_operator(n_max))
    occ = np.indices((n_max + 1, n_max + 1)).reshape(2, -1)
    vac = np.zeros((n_max + 1) ** 2, dtype=complex)
    vac[0] = 1.0
    return {
        "labels": ("mode1", "mode2"),
        "lowering": [kron(a, eye), kron(eye, a)],
        "number": kron(number, eye) + kron(eye, number),
        "vacuum": vac,
        "mask": np.all(occ <= n_max - 1, axis=0),
        "factors": (("mode1", n_max + 1), ("mode2", n_max + 1)),
    }


def raised_berezin_fields(d, cutoff, selected):
    """Berezin fields from creation operators built tuple by tuple, then transposed."""
    basis = list(itertools.product(range(cutoff + 1), repeat=d))
    basis = [tup for tup in basis if sum(tup) <= cutoff]
    index = {tup: i for i, tup in enumerate(basis)}
    lowering = []
    for n in selected:
        raising = np.zeros((len(basis),) * 2)
        for tup, col in index.items():
            if sum(tup) < cutoff:
                bumped = tup[:n - 1] + (tup[n - 1] + 1,) + tup[n:]
                raising[index[bumped], col] = math.sqrt(tup[n - 1] + 1)
        lowering.append(raising.T)
    totals = np.array([sum(tup) for tup in basis])
    vac = np.zeros(len(basis), dtype=complex)
    vac[index[(0,) * d]] = 1.0
    return {
        "labels": tuple(f"f{n}" for n in selected),
        "lowering": lowering,
        "number": np.diag(totals.astype(float)),
        "vacuum": vac,
        "mask": totals <= cutoff - 1,
        "factors": (("field", len(basis)),),
    }


class TestOneOccupationConstruction:
    """The two irreducible representations differ only in their factorization."""

    @pytest.mark.parametrize("c", [1, 2, 5])
    def test_infinity_restricted_to_the_simplex_is_berezin(self, c):
        inf, ber = build_infinity_two_mode(c), build_berezin(2, c)
        keep = [i for i, (n1, n2) in enumerate(itertools.product(range(c + 1), repeat=2))
                if n1 + n2 <= c]
        cut = np.ix_(keep, keep)
        for mode, field in (("mode1", "f1"), ("mode2", "f2")):
            assert np.array_equal(inf.lowering[mode][cut], ber.lowering[field])
        assert np.array_equal(inf.number_op[keep], ber.number_op)
        assert np.array_equal(inf.vacuum.amplitudes[keep], ber.vacuum.amplitudes)

    def test_shared_photon_entangled_only_across_declared_mode_factors(self):
        inf = build_infinity_two_mode(1)
        psi = mode_excitation_state(inf, "mode1", "mode2")
        assert marginal_entropy(psi, Bipartition(("mode1",))) == pytest.approx(
            math.log(2.0), abs=1e-14)
        ber = build_berezin(2, 1)
        with pytest.raises(ValidationError, match="unknown factor label 'f1'"):
            marginal_entropy(mode_excitation_state(ber, "f1", "f2"), Bipartition(("f1",)))

    @pytest.mark.parametrize("n_max", [1, 2, 3, 7, 15])
    def test_infinity_fields_equal_the_kron_construction(self, n_max):
        assert_fields_equal(build_infinity_two_mode(n_max), kron_infinity_fields(n_max))

    @pytest.mark.parametrize("d, cutoff, selected", [
        (1, 1, [1]), (2, 1, [1, 2]), (2, 2, [1, 2]), (3, 2, [1, 2, 3]),
        (2, 21, [1, 2]), (5, 3, [1, 2, 3, 4, 5]), (1, 5, [1]), (3, 2, [3, 1]),
    ])
    def test_berezin_fields_equal_the_raised_construction(self, d, cutoff, selected):
        assert_fields_equal(build_berezin(d, cutoff, selected),
                            raised_berezin_fields(d, cutoff, selected))


def assert_fields_equal(rep, want):
    assert rep.mode_labels == want["labels"]
    for label, a in zip(want["labels"], want["lowering"]):
        assert rep.lowering[label].dtype == a.dtype
        assert np.array_equal(rep.lowering[label], a)
        assert np.array_equal(rep.central[label], np.ones(rep.dim))
    assert rep.number_op.dtype == want["number"].dtype
    assert np.array_equal(rep.number_op, np.diagonal(want["number"]))
    assert np.array_equal(rep.vacuum.amplitudes, want["vacuum"])
    assert np.array_equal(rep.below_cutoff_mask, want["mask"])
    assert rep.factorization.factors == want["factors"]


class TestRealFieldOperators:
    """a_k, I_k and N have real matrix elements in every builder's basis, so
    they are stored as float64, and so is the vacuum, of amplitudes sqrt(Z_k)."""

    @pytest.mark.parametrize("build", [
        lambda: build_infinity_two_mode(3),
        lambda: build_berezin(3, 2, [3, 1]),
        lambda: build_reducible(2, VacuumProfile.plateau(3, (0, 0), 0.7), n_max=2),
    ], ids=["infinity", "berezin", "reducible"])
    def test_builders_return_float64_operators(self, build):
        rep = build()
        for label in rep.mode_labels:
            assert rep.lowering[label].dtype == np.float64
            assert rep.central[label].dtype == np.float64
        assert rep.number_op.dtype == np.float64
        assert rep.vacuum.amplitudes.dtype == np.float64

    @pytest.mark.parametrize("build", [
        lambda: build_infinity_two_mode(3),
        lambda: build_berezin(3, 2, [3, 1]),
        lambda: build_reducible(2, VacuumProfile.plateau(3, (0, 0), 0.7), n_max=2),
        lambda: build_reducible(3, VacuumProfile.uniform(4), 1, ["k1"]),
    ], ids=["infinity", "berezin", "reducible", "reducible-lean"])
    def test_diagonal_operators_are_stored_as_vectors(self, build):
        rep = build()
        for op in (*(rep.central[label] for label in rep.mode_labels), rep.number_op):
            assert op.dtype == np.float64 and op.shape == (rep.dim,)
        for label in rep.mode_labels:
            assert rep.lowering[label].shape == (rep.dim, rep.dim)

    def test_lean_build_peak_holds_one_dense_operator(self):
        # field 512: 2.1 MB per dense float64 operator. The bound allows the
        # one dense a_k1, one dense temporary of the recurrence and the
        # vectors; dense I_k1 and N would take about four operators.
        prof = VacuumProfile.uniform(4)
        build_reducible(3, prof, 1, ["k1"])
        tracemalloc.start()
        try:
            build_reducible(3, prof, 1, ["k1"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * 512**2 * 8


class TestReducibleRepresentation:
    def test_vacuum_central_expectation(self):
        prof = VacuumProfile.uniform(2)
        rep = build_reducible(1, prof, n_max=1)
        vac = rep.vacuum.amplitudes
        value = np.vdot(vac, rep.central["k1"] * vac).real
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
        assert np.array_equal(np.unique(rep.central["k1"]), [0.0, 0.5, 1.0])

    @pytest.mark.parametrize("n_osc, modes, n_max", [
        case for case in itertools.product([1, 2, 3, 4], [2, 3], [0, 1, 2])
        if representations.fits_brute_force(case[0], VacuumProfile.uniform(case[1]), case[2])])
    def test_below_cutoff_mask_is_the_product_of_factor_masks(self, n_osc, modes, n_max):
        prof = VacuumProfile.uniform(modes)
        factor = np.arange(modes * (n_max + 1)) % (n_max + 1) < n_max
        want = np.array([True])
        for _ in range(n_osc):
            want = np.kron(want, factor)
        mask = build_reducible(n_osc, prof, n_max).below_cutoff_mask
        assert mask.dtype == bool and np.array_equal(mask, want)

    def test_vacuum_mode_norm_equals_probability(self):
        prof = VacuumProfile(("k1", "k2"), (0.3, 0.7))
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

    def test_repeated_selected_mode_rejected_before_building(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("operators built for a rejected selection")

        monkeypatch.setattr(representations, "_single_oscillator_mode_ops", unreachable)
        with pytest.raises(ConfigError, match="repeat"):
            build_reducible(1, VacuumProfile.uniform(2), 1, ["k1", "k1"])

    def test_mode_excitation_state_normalized(self):
        prof = VacuumProfile(("k1", "k2"), (0.2, 0.8))
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
            np.kron(np.eye(m), np.diag(fock.number_operator(n_max))), n_osc)
        assert np.array_equal(rep.number_op, np.diagonal(number))
        for mode in rep.mode_labels:
            pk = np.diag(np.array(prof.labels) == mode).astype(complex)
            a = per_slot_sum(np.kron(pk, fock.annihilation(n_max)), n_osc)
            i = per_slot_sum(np.kron(pk, eye_ladder), n_osc)
            assert np.array_equal(rep.lowering[mode], a / math.sqrt(n_osc))
            assert np.array_equal(rep.central[mode], np.diagonal(i) / n_osc)

    @pytest.mark.parametrize("n_osc", [10**4, 10**6])
    def test_huge_ensemble_refused_fast(self, n_osc):
        prof = VacuumProfile.uniform(2)
        start = time.perf_counter()
        with pytest.raises(SizeLimitError, match=rf"4\^N with N = {n_osc} .*ceiling 4096"):
            build_reducible(n_osc, prof, n_max=1)
        assert time.perf_counter() - start < 0.05

    # (modes * (n_max + 1))^N: the largest N whose power is within 4096
    @pytest.mark.parametrize("n_modes, n_max, n_fits", [
        (2, 1, 6), (1, 1, 12), (4, 1, 4), (3, 0, 7), (2, 31, 2), (1, 4095, 1),
    ])
    def test_ceiling_boundary_is_exact(self, monkeypatch, n_modes, n_max, n_fits):
        class Admitted(Exception):
            pass

        def stop(*args):
            raise Admitted

        factor = n_modes * (n_max + 1)
        assert factor**n_fits <= representations.BRUTE_FORCE_CEILING < factor ** (n_fits + 1)
        prof = VacuumProfile.uniform(n_modes)
        assert representations.fits_brute_force(n_fits, prof, n_max)
        assert not representations.fits_brute_force(n_fits + 1, prof, n_max)
        start = time.perf_counter()
        with pytest.raises(SizeLimitError, match=rf"N = {n_fits + 1} .*ceiling 4096"):
            build_reducible(n_fits + 1, prof, n_max=n_max)
        assert time.perf_counter() - start < 0.05
        # a dense build at the ceiling is too large for a unit test, so
        # stop right after the ceiling check
        monkeypatch.setattr(representations, "_single_oscillator_mode_ops", stop)
        with pytest.raises(Admitted):
            build_reducible(n_fits, prof, n_max=n_max)


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
        assert np.array_equal(spec.projectors[1], p1)
        assert np.array_equal(spec.projectors[0], 1.0 - p1)

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
        prof = VacuumProfile(("k1", "k2"), (0.4, 0.6))
        rep = build_reducible(3, prof, n_max=1)
        spec = central_spectral_projectors(rep, "k2")
        recon = sum(float(e) * p for e, p in zip(spec.eigenvalues, spec.projectors))
        assert np.max(np.abs(recon - rep.central["k2"])) <= 1e-10

    @pytest.mark.parametrize("n_osc", [1, 2, 3])
    def test_joint_vacuum_weights_match_brute_force(self, n_osc):
        prof = VacuumProfile.uniform(4)
        rep = build_reducible(n_osc, prof, n_max=1, selected_modes=["k1", "k2"])
        spec1 = central_spectral_projectors(rep, "k1")
        spec2 = central_spectral_projectors(rep, "k2")
        vac = rep.vacuum.amplitudes
        closed = joint_weights(n_osc, 0.25, 0.25)
        for s in range(n_osc + 1):
            for sp in range(n_osc + 1):
                brute = np.vdot(
                    vac, spec1.projectors[s] * spec2.projectors[sp] * vac
                ).real
                assert brute == pytest.approx(closed[s, sp], abs=1e-12)

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


def binomial_cell(n, s, z):
    """C(n, s) z^s (1-z)^(n-s) from :func:`log_binomial_weights` at one cell."""
    return float(np.exp(log_binomial_weights(n, np.array([s]), z))[0])


def joint_weights(n, z1, z2):
    """Multinomial vacuum weights W[s, s'], s, s' = 0..n, from :func:`log_joint_weights`."""
    cells = np.arange(n + 1)
    return np.exp(log_joint_weights(n, cells, cells, z1, z2)).astype(float)


class TestVacuumWeight:
    def test_single_trial(self):
        assert binomial_cell(1, 1, 0.3) == pytest.approx(0.3, abs=1e-15)
        assert binomial_cell(1, 0, 0.3) == pytest.approx(0.7, abs=1e-15)

    def test_impossible_partition_is_exact_zero(self):
        assert joint_weights(1, 0.3, 0.3)[1, 1] == 0.0

    def test_matches_exact_combinatorics(self):
        for n in (5, 30):
            for z in (0.2, 0.5, 0.9):
                for s in range(n + 1):
                    exact = math.comb(n, s) * z**s * (1 - z) ** (n - s)
                    assert binomial_cell(n, s, z) == pytest.approx(exact, rel=1e-13)

    def test_normalization_large_n(self):
        support = binomial_support(1000, 0.25)
        total = float(np.exp(log_binomial_weights(1000, support, 0.25)).sum())
        assert abs(total - 1.0) <= 1e-12

    def test_joint_sums_to_one(self):
        assert joint_weights(6, 0.3, 0.2).sum() == pytest.approx(1.0, abs=1e-13)

    @pytest.mark.parametrize(
        "z1, z2", [(0.3, 0.2), (0.1, 0.05), (0.25, 0.75), (0.6, 0.4)])
    def test_joint_matches_exact_multinomial(self, z1, z2):
        f1, f2 = Fraction(z1), Fraction(z2)
        f0 = 1 - f1 - f2
        for n in (5, 30):
            weights = joint_weights(n, z1, z2)
            for s in range(n + 1):
                for sp in range(n + 1):
                    closed = weights[s, sp]
                    if s + sp > n:
                        assert closed == 0.0
                        continue
                    exact = (math.comb(n, s) * math.comb(n - s, sp)
                             * f1**s * f2**sp * f0 ** (n - s - sp))
                    assert closed == pytest.approx(float(exact), rel=1e-13)

    @pytest.mark.parametrize("z1, z2", [(0.3, 0.2), (0.1, 0.05), (0.6, 0.4)])
    def test_joint_marginal_is_binomial(self, z1, z2):
        for n in (5, 30):
            marginals = joint_weights(n, z1, z2).sum(axis=1)
            for s in range(n + 1):
                assert marginals[s] == pytest.approx(binomial_cell(n, s, z1), rel=1e-13)

    def test_joint_with_empty_second_mode_is_binomial(self):
        for n in (1, 5, 30):
            for z in (0.2, 0.5, 0.9):
                weights = joint_weights(n, z, 0.0)
                for s in range(n + 1):
                    assert weights[s, 0] == pytest.approx(
                        binomial_cell(n, s, z), rel=1e-13)

    def test_joint_is_symmetric_in_the_modes(self):
        for n in (5, 30):
            weights, swapped = joint_weights(n, 0.3, 0.2), joint_weights(n, 0.2, 0.3)
            for s in range(n + 1):
                for sp in range(n + 1 - s):
                    assert weights[s, sp] == pytest.approx(swapped[sp, s], rel=1e-13)

    def test_joint_all_mass_in_first_mode(self):
        weights = joint_weights(4, 1.0, 0.0)
        assert weights[4, 0] == 1.0
        assert weights[3, 1] == 0.0
        assert weights[2, 0] == 0.0

    def test_degenerate_probabilities(self):
        assert np.exp(log_binomial_weights(3, np.arange(4), 0.0)) == pytest.approx(
            [1.0, 0.0, 0.0, 0.0]
        )
        assert np.exp(log_binomial_weights(3, np.arange(4), 1.0)) == pytest.approx(
            [0.0, 0.0, 0.0, 1.0]
        )


def rel_weight_error(log_a, log_b) -> float:
    """max |w_a / w_b - 1| over two arrays of log weights."""
    diff = (np.asarray(log_a) - np.asarray(log_b)).astype(float)
    return float(np.max(np.abs(np.expm1(diff)), initial=0.0))


def mp_exact(mpmath, x):
    """A float as an exact mpmath number."""
    num, den = float(x).as_integer_ratio()
    return mpmath.mpf(num) / den


def mp_log_multinomial(mpmath, n, counts, probs):
    """ln of n! / prod(k!) prod(p^k), the last count and probability being
    the rest, in the working mpmath precision."""
    rest = n - sum(counts)
    probs = [mp_exact(mpmath, p) for p in probs]
    total = mpmath.loggamma(n + 1) - mpmath.loggamma(rest + 1)
    for k, p in zip(counts, probs):
        total += k * mpmath.log(p) - mpmath.loggamma(k + 1)
    return total + rest * mpmath.log(1 - mpmath.fsum(probs))


def assert_log_weights_match_mpmath(mpmath, got, exact):
    """1e-13 relative in every weight above e^-200; in the deeper tail, whose
    weights underflow, ten float64 roundings of ln w itself."""
    eps = mpmath.mpf(float(np.finfo(float).eps))
    for g, e in zip(got, exact):
        diff = mp_exact(mpmath, g) - e
        if e >= -200:
            assert abs(mpmath.expm1(diff)) <= 1e-13
        else:
            assert abs(diff) <= 10 * eps * abs(e)


ALL_Z = [1e-6, 1e-3, 0.05, 0.2, 0.5, 0.95, 1 - 1e-3, 1 - 1e-6]


class TestPerCellBinomial:
    """The float64 per-cell formula against exact combinatorics and
    40-digit mpmath."""

    @pytest.mark.parametrize("n", [1, 2, 10, 24, 25, 49, 1000, 10**5, 10**6])
    @pytest.mark.parametrize("z", ALL_Z)
    def test_window_dtype_shape_and_unit_sum(self, n, z):
        # every sector below 50, the sectors that matter above
        s = np.arange(n + 1) if n < 50 else binomial_support(n, z)
        got = log_binomial_weights(n, s, z)
        assert got.dtype == np.float64 and got.shape == s.shape
        assert abs(float(np.exp(got.astype(float)).sum()) - 1.0) <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 10, 24, 25, 26, 49])
    @pytest.mark.parametrize("z", ALL_Z)
    def test_every_cell_below_50_matches_exact_comb(self, n, z):
        got = np.exp(log_binomial_weights(n, np.arange(n + 1), z))
        zf = Fraction(z)
        for s in range(n + 1):
            exact = math.comb(n, s) * zf**s * (1 - zf) ** (n - s)
            assert abs(float(Fraction(*got[s].as_integer_ratio()) / exact - 1)) <= 1e-13

    @pytest.mark.parametrize("n", [50, 1000, 10**4, 10**5, 10**6])
    @pytest.mark.parametrize("z", ALL_Z)
    def test_sampled_cells_match_mpmath(self, n, z):
        mpmath = pytest.importorskip("mpmath")
        # window edges, the anchor floor(n z), both sides of the
        # exact-coefficient / Stirling switch, both sides of the deviance's
        # series / direct switch |v| = 1/2 (s = 3 n z and n z / 3, and the
        # same for n - s), and 40 interior cells
        support = binomial_support(n, z)
        cells = {support[0], support[-1], math.floor(n * z), 24, 25, n - 25, n - 24}
        for mean in (n * z, n * (1 - z)):
            for switch in (math.floor(3 * mean), math.floor(mean / 3)):
                cells.update((switch, switch + 1, n - switch - 1, n - switch))
        cells = {c for c in cells if 0 <= c <= n}
        cells.update(np.linspace(support[0], support[-1], 40).round().astype(int))
        s = np.array(sorted(int(c) for c in cells))
        got = log_binomial_weights(n, s, z)
        with mpmath.workdps(40):
            exact = [mp_log_multinomial(mpmath, n, [int(k)], [z]) for k in s]
            assert_log_weights_match_mpmath(mpmath, got, exact)

    def test_unsorted_input_reads_the_same_table(self):
        n, z = 10**5, 0.3
        s = binomial_support(n, z)
        perm = np.random.default_rng(5).permutation(s.size)
        assert np.array_equal(log_binomial_weights(n, s[perm], z),
                              log_binomial_weights(n, s, z)[perm])

    @pytest.mark.parametrize("lo, hi", [(0, 30), (480_000, 490_000),
                                        (503_000, 503_100), (496_000, 504_000)])
    def test_sub_windows_on_either_side_of_the_mean(self, lo, hi):
        # each cell stands alone: a sub-window reads a wider window's cells
        n, z = 10**6, 0.5
        wide = np.arange(max(0, lo - 1000), hi + 1001)
        assert np.array_equal(log_binomial_weights(n, np.arange(lo, hi + 1), z),
                              log_binomial_weights(n, wide, z)[lo - wide[0]:hi - wide[0] + 1])

    @pytest.mark.parametrize("n, z1, z2", [(30, 0.3, 0.2), (1000, 0.45, 0.5),
                                           (4000, 0.2, 0.05)])
    def test_joint_rows_take_the_fitting_sub_window(self, n, z1, z2):
        mpmath = pytest.importorskip("mpmath")
        # log_joint_weights passes s_prime[fits] with n - s and z2 / (1 - z1)
        s = binomial_support(n, z1)[::7]
        s_prime = binomial_support(n, z2)
        got = log_joint_weights(n, s, s_prime, z1, z2)
        with mpmath.workdps(40):
            for i, s_i in enumerate(s):
                fits = s_prime <= n - s_i
                assert np.all(np.isneginf(got[i, ~fits]))
                exact = [mp_log_multinomial(mpmath, n, [int(s_i), int(sp)], [z1, z2])
                         for sp in s_prime[fits][::5]]
                assert_log_weights_match_mpmath(mpmath, got[i, fits][::5], exact)

    @pytest.mark.parametrize("n, s, z", [(1, 0, 0.3), (1, 1, 0.3), (49, 25, 0.95),
                                         (10**6, 0, 0.2), (10**6, 10**6, 0.2),
                                         (10**6, 200_123, 0.2)])
    def test_single_cell_is_its_cell_in_a_window(self, n, s, z):
        window = np.arange(max(0, s - 30), min(n, s + 30) + 1)
        cell = log_binomial_weights(n, np.array([s]), z)[0]
        assert cell == log_binomial_weights(n, window, z)[s - window[0]]
        assert binomial_cell(n, s, z) == float(np.exp(cell))

    @pytest.mark.parametrize("n", [1, 25, 10**6])
    def test_point_masses(self, n):
        s = np.arange(max(0, n - 40), n + 1)
        at_zero = np.exp(log_binomial_weights(n, np.arange(min(n, 40) + 1), 0.0))
        at_one = np.exp(log_binomial_weights(n, s, 1.0))
        assert at_zero[0] == 1.0 and np.all(at_zero[1:] == 0.0)
        assert at_one[-1] == 1.0 and np.all(at_one[:-1] == 0.0)


def extended_ratio_table(lam, p, lo, hi, anchor, offset):
    """Oracle of ``_log_ratio_table``: the same steps, summed in extended
    precision and cast once (for p = 0, the former ``_log_power_table``)."""
    ld = np.longdouble
    lam, p = ld(lam[0]) + ld(lam[1]), ld(p)
    start, stop = min(lo, anchor), max(hi, anchor)
    j = np.arange(start + 1, stop + 1, dtype=ld)
    steps = np.log((lam - p * j) / ((1 - p) * j))
    cum = np.concatenate([np.zeros(1, dtype=ld), np.cumsum(steps)])
    table = (cum - cum[anchor - start])[lo - start:hi - start + 1]
    return (table + offset).astype(float)


def assert_table_close(got, expected):
    """1e-13 relative in every weight above e^-200; in the deeper tail, whose
    weights underflow or nearly, ten float64 roundings of ln w itself."""
    expected = np.asarray(expected, dtype=float)
    kept = expected >= -200.0
    assert rel_weight_error(got[kept], expected[kept]) <= 1e-13
    assert np.all(np.abs(got - expected)[~kept] <= 1.1e-15 * -expected[~kept])


def power_pair(n, z1, z2=None):
    """n z1 (or n (1 - z1 - z2)) as the exact float pair the closed form uses."""
    two_sum, two_prod = representations._two_sum, representations._two_prod
    if z2 is None:
        return two_prod(n, z1)
    rest, err1 = two_sum(1.0, -z1)
    z0, err2 = two_sum(rest, -z2)
    hi, lo = two_prod(n, z0)
    return hi, lo + n * (err1 + err2)


class TestFloat64Tables:
    """The closed form's float64 log tables: one compensated log-ratio
    recurrence, against the float64 per-cell formula, a long-double
    recurrence and mpmath."""

    @pytest.mark.parametrize("n", [1, 2, 10, 24, 25, 49, 1000, 10**5, 10**6])
    @pytest.mark.parametrize("z", [1e-3, 0.05, 0.2, 0.5, 0.95, 1 - 1e-3])
    def test_binomial_window_matches_extended(self, n, z):
        got = representations._log_binomial_table(n, z)
        s = binomial_support(n, z)
        assert got.dtype == np.float64 and got.shape == s.shape
        assert rel_weight_error(got, log_binomial_weights(n, s, z)) <= 1e-13

    @pytest.mark.parametrize("z", [1e-3, 0.2, 0.5, 0.95])
    def test_binomial_matches_mpmath_at_edges_and_anchor(self, z):
        mpmath = pytest.importorskip("mpmath")
        n = 10**6
        s = binomial_support(n, z)
        got = representations._log_binomial_table(n, z)
        with mpmath.workdps(40):
            zm = mpmath.mpf(z)
            for i in (0, math.floor(n * z) - s[0], s.size - 1):
                k = int(s[i])
                exact = (mpmath.log(mpmath.binomial(n, k)) + k * mpmath.log(zm)
                         + (n - k) * mpmath.log(1 - zm))
                assert abs(mpmath.expm1(mpmath.mpf(float(got[i])) - exact)) <= 1e-13

    @pytest.mark.parametrize("n", [1, 10, 1000, 4000, 10**6])
    @pytest.mark.parametrize("z1, z2", [(0.2, 0.05), (0.3, 0.3), (0.45, 0.55 - 1e-9)])
    def test_power_tables_match_extended(self, n, z1, z2):
        # the a, b and c windows of joint_sector_sum, anchored near the mean
        s1, s2 = binomial_support(n, z1), binomial_support(n, z2)
        k_lo, k_hi = s1[0] + s2[0], min(n, s1[-1] + s2[-1])
        r0 = min(max(n - round(n * z1) - round(n * z2), n - k_hi), n - k_lo)
        for lam, lo, hi, anchor in (
                (power_pair(n, z1), s1[0], s1[-1], round(n * z1)),
                (power_pair(n, z2), s2[0], s2[-1], round(n * z2)),
                (power_pair(n, z1, z2), n - k_hi, n - k_lo, r0)):
            got = representations._log_ratio_table(lam, 0.0, lo, hi, anchor, 0.0)
            assert_table_close(
                got, extended_ratio_table(lam, 0.0, lo, hi, anchor, 0.0))

    @pytest.mark.parametrize("lam, p, lo, hi, anchor", [
        ((1e-12, 0.0), 0.0, 0, 10**4, 0),                    # n z0 far below every cell
        (power_pair(10**6 + 1, 0.5), 0.5, 10**6 - 30, 10**6, 10**6 - 30),  # binomial tail
        (power_pair(11, 1e-3), 1e-3, 0, 10, 0)])
    def test_far_from_bulk_windows_raise_no_floating_point_error(
            self, lam, p, lo, hi, anchor):
        with np.errstate(all="raise"):
            got = representations._log_ratio_table(lam, p, lo, hi, anchor, 0.0)
        assert_table_close(got, extended_ratio_table(lam, p, lo, hi, anchor, 0.0))

    def test_binomial_sub_window_matches_extended(self):
        # anchored at the window edge, no bulk cell
        n, z = 10**6, 0.5
        s = np.arange(0, 31)
        anchor_value = log_binomial_weights(n, s[-1:], z)[0]
        with np.errstate(all="raise"):
            got = representations._log_ratio_table(
                power_pair(n + 1, z), z, 0, 30, 30, anchor_value)
        assert_table_close(got, log_binomial_weights(n, s, z))

    def test_point_masses_read_the_extended_table(self):
        for z in (0.0, 1.0):
            s = binomial_support(40, z)
            assert np.array_equal(representations._log_binomial_table(40, z),
                                  log_binomial_weights(40, s, z).astype(float))


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
        weights = joint_weights(n, z1, z2)[np.ix_(s1, s2)]
        for row in range(2):
            direct = f1[row] @ weights @ f2[row]
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

    @pytest.mark.parametrize("n", [1, 10, 10**6])
    def test_point_mass_reads_the_given_mode_1_table(self, n):
        # z1 + z2 = 1: the caller's w1 is the table built without it
        z1, z2 = 0.25, 0.75
        rng = np.random.default_rng(5)
        f1 = rng.uniform(size=binomial_support(n, z1).size)
        f2 = rng.uniform(size=binomial_support(n, z2).size)
        w1 = np.exp(representations._log_binomial_table(n, z1))
        assert joint_sector_sum(n, z1, z2, f1, f2, w1) == joint_sector_sum(n, z1, z2, f1, f2)
        assert joint_sector_sum(n, z1, z2, f1, f2, 2.0 * w1) == pytest.approx(
            2.0 * joint_sector_sum(n, z1, z2, f1, f2), rel=1e-15)


class TestCcrCheck:
    def test_infinity_exact_below_truncation(self):
        report = ccr_check(build_infinity_two_mode(1))
        assert max(report.values()) <= 1e-12

    def test_berezin_below_cutoff(self):
        report = ccr_check(build_berezin(2, 2))
        assert max(report.values()) <= 1e-12

    def test_reducible_collective_algebra(self):
        prof = VacuumProfile.uniform(2)
        report = ccr_check(build_reducible(2, prof, n_max=1))
        assert max(report.values()) <= 1e-12
        # one deviation per commutator and centrality pair and per mode's vacuum
        kinds = [("commutator", m, n) for m in ("k1", "k2") for n in ("k1", "k2")]
        kinds += [("centrality", m, n) for m in ("k1", "k2") for n in ("k1", "k2")]
        assert sorted(report) == sorted(kinds + [("vacuum", "k1"), ("vacuum", "k2")])

    def test_scaled_lowering_operator_fails_and_names_a_commutator_pair(self):
        rep = build_reducible(2, VacuumProfile.uniform(2), n_max=1)
        scaled = dataclasses.replace(
            rep, lowering={**rep.lowering, "k1": rep.lowering["k1"] * (1 + 1e-6)})
        check = _check("ccr_reducible", ccr_check(scaled), 1e-12)
        assert not check.passed and check.measured > 1e-7
        assert check.detail == "largest at ('commutator', 'k1', 'k1')"
