import math
import tracemalloc

import numpy as np
import pytest

from ccrlab import dynamics as dyn
from ccrlab import entanglement as ent
from ccrlab import fock, linalg
from ccrlab import representations as reps
from ccrlab.exceptions import ConfigError, DomainError, ValidationError
from ccrlab.linalg import (
    StateVector,
    expm_generator,
    kron,
    matricize,
)
from ccrlab.representations import (
    VacuumProfile,
    binomial_support,
    build_berezin,
    build_infinity_two_mode,
    build_reducible,
    joint_sector_sum,
    log_binomial_weights,
    log_joint_weights,
)
from ccrlab.scenarios import DEFAULT_TIMES, simulated_atomic_density

TIME_GRID = (0.0, math.pi / 8, math.pi / 4, 3 * math.pi / 8, math.pi / 2)


def coupling_hamiltonian(a):
    """Independent oracle: H = R^dag (x) A + R (x) A^dag assembled directly."""
    r = dyn.ATOM_LOWERING
    return np.kron(r.conj().T, a) + np.kron(r, a.conj().T)


def psd_function(m, f):
    """Independent oracle: f of a positive-semidefinite Hermitian matrix by
    ``np.linalg.eigh``, roundoff-negative eigenvalues read as zero."""
    w, v = np.linalg.eigh(m)
    fw = np.array([f(max(float(x), 0.0)) for x in w])
    return (v * fw) @ v.conj().T


def coupling_pairs(modes):
    """Atom slot 0 on ``modes[0]``, slot 1 on ``modes[1]``."""
    return [(modes[0], 0), (modes[1], 1)]


def effective_generator(rep, h):
    """H / sqrt(Z) for a representation with a vacuum profile, else H."""
    return h if rep.profile is None else h / math.sqrt(rep.profile.z_max)


def atoms_of(rep, t, modes):
    """Atoms' density by the full-space propagator, |psi><psi| and an einsum trace.

    The atoms are the two leading factors, so the field is traced as one
    index of the (4, d_field, 4, d_field) joint density.
    """
    h = effective_generator(rep, dyn.jc_hamiltonian(rep, coupling_pairs(modes)))
    psi0 = dyn.single_photon_initial_state(rep, modes)
    amp = expm_generator(h, t) @ psi0.amplitudes
    amp = amp / np.linalg.norm(amp)
    joint = np.outer(amp, amp.conj()).reshape(4, rep.dim, 4, rep.dim)
    return np.einsum("iaja->ij", joint)


def assert_valid_density(rho):
    assert np.max(np.abs(rho - rho.conj().T)) <= 1e-12
    assert complex(np.trace(rho)).real == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.eigvalsh(rho).min() >= -1e-10


class TestClosedFormEvolution:
    def test_zero_coupling_is_identity(self):
        assert np.allclose(dyn.closed_form_evolution(np.zeros((3, 3)), 1.7), np.eye(6))

    def test_full_rabi_transfer_scalar_mode(self):
        u = dyn.closed_form_evolution(np.eye(1), math.pi / 2)
        expected = np.array([[0.0, -1j], [-1j, 0.0]])
        assert np.max(np.abs(u - expected)) <= 1e-15

    def test_matches_exponential_oracle(self):
        rng = np.random.default_rng(55)
        a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        u = dyn.closed_form_evolution(a, 0.9)
        u_oracle = expm_generator(coupling_hamiltonian(a), 0.9)
        assert np.max(np.abs(u - u_oracle)) <= 1e-10

    def test_unitary(self):
        rng = np.random.default_rng(56)
        a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        u = dyn.closed_form_evolution(a, 2.3)
        assert np.max(np.abs(u @ u.conj().T - np.eye(12))) <= 1e-10

    def test_rejects_rectangular(self):
        with pytest.raises(ValidationError, match="square"):
            dyn.closed_form_evolution(np.zeros((2, 3)), 1.0)

    @pytest.mark.parametrize("dim", [1, 2, 6])
    def test_matches_block_cos_sinc_formula(self, dim):
        # Oracle: the cos/sinc blocks of A A^dag and A^dag A, each from its
        # own diagonalization.
        rng = np.random.default_rng(57)
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        for t in (0.0, 1e-7, 0.9, math.pi / 2):
            aad, ada = a @ a.conj().T, a.conj().T @ a
            cos_of = lambda x: math.cos(t * math.sqrt(x))  # noqa: E731

            def sinc_of(x):
                u = t * math.sqrt(x)
                return math.sin(u) / u if u else 1.0

            oracle = np.block([
                [psd_function(aad, cos_of),
                 -1j * t * (psd_function(aad, sinc_of) @ a)],
                [-1j * t * (psd_function(ada, sinc_of) @ a.conj().T),
                 psd_function(ada, cos_of)],
            ])
            assert np.max(np.abs(dyn.closed_form_evolution(a, t) - oracle)) <= 1e-12

    def test_time_grid_equals_stacked_single_times(self, monkeypatch):
        rng = np.random.default_rng(58)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        times = np.array([0.0, 1e-9, 0.3, math.pi / 2, 2 * math.pi])
        svd_calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda m: svd_calls.append(1) or svd(m))
        grid = dyn.closed_form_evolution(a, times)
        assert grid.shape == (5, 8, 8)
        assert len(svd_calls) == 1  # one decomposition for the whole grid
        stacked = np.stack([dyn.closed_form_evolution(a, t) for t in times])
        assert np.array_equal(grid, stacked)

    @pytest.mark.parametrize("a", [
        np.zeros((3, 3)),
        np.eye(2),
        np.diag([1.0, 1.0, 0.0]),
        1j * fock.annihilation(1),
        1j * fock.annihilation(4),
    ], ids=["zero", "identity", "rank-deficient", "fock-1", "fock-4"])
    def test_degenerate_couplings_match_oracle(self, a):
        times = np.array([0.0, 1e-9, 2 * math.pi])
        u = dyn.closed_form_evolution(a, times)
        u_oracle = expm_generator(coupling_hamiltonian(a), times)
        assert np.max(np.abs(u - u_oracle)) <= 1e-10

    def test_rejects_two_dimensional_times(self):
        with pytest.raises(ValidationError, match="1-D"):
            dyn.closed_form_evolution(np.eye(2), np.zeros((2, 2)))


class TestJcHamiltonian:
    @pytest.fixture()
    def reps_all(self):
        prof = VacuumProfile.uniform(2)
        return {
            "infinity": build_infinity_two_mode(1),
            "berezin": build_berezin(2, 1),
            "reducible": build_reducible(2, prof, n_max=1),
        }

    def test_hermitian(self, reps_all):
        for rep in reps_all.values():
            pairs = [(rep.mode_labels[0], 0), (rep.mode_labels[1], 1)]
            h = dyn.jc_hamiltonian(rep, pairs)
            assert np.max(np.abs(h - h.conj().T)) <= 1e-14

    def test_excitation_conserved(self, reps_all):
        for rep in reps_all.values():
            pairs = [(rep.mode_labels[0], 0), (rep.mode_labels[1], 1)]
            h = dyn.jc_hamiltonian(rep, pairs)
            n_exc = np.diag(dyn.excitation_numbers(rep))
            assert np.max(np.abs(h @ n_exc - n_exc @ h)) <= 1e-12

    def test_mode_terms_commute_for_independent_oscillators(self):
        rep = build_infinity_two_mode(1)
        h1 = dyn.jc_hamiltonian(rep, [("mode1", 0)])
        h2 = dyn.jc_hamiltonian(rep, [("mode2", 1)])
        assert np.max(np.abs(h1 @ h2 - h2 @ h1)) <= 1e-12
        h = dyn.jc_hamiltonian(rep, [("mode1", 0), ("mode2", 1)])
        t = 0.6
        split = expm_generator(h1, t) @ expm_generator(h2, t)
        assert np.max(np.abs(expm_generator(h, t) - split)) <= 1e-10

    def test_propagator_is_product_of_locals(self):
        n_max = 1
        rep = build_infinity_two_mode(n_max)
        h = dyn.jc_hamiltonian(rep, [("mode1", 0), ("mode2", 1)])
        m = n_max + 1
        a = fock.annihilation(n_max)
        for t in (0.3, math.pi / 2):
            u_local = dyn.closed_form_evolution(a, t)
            u_product = matricize(
                kron(u_local, u_local), (2, m, 2, m) * 2, (0, 2, 1, 3), (4, 6, 5, 7)
            )
            assert np.max(np.abs(expm_generator(h, t) - u_product)) <= 1e-10

    def test_duplicate_atom_rejected(self):
        rep = build_infinity_two_mode(1)
        with pytest.raises(ConfigError, match="more than one"):
            dyn.jc_hamiltonian(rep, [("mode1", 0), ("mode2", 0)])

    def test_unknown_mode_rejected(self):
        rep = build_infinity_two_mode(1)
        with pytest.raises(ConfigError, match="no mode"):
            dyn.jc_hamiltonian(rep, [("nope", 0)])

    @pytest.mark.parametrize("slot", [2, -1])
    def test_atom_slot_outside_the_two_atoms_rejected(self, slot):
        rep = build_infinity_two_mode(1)
        with pytest.raises(ConfigError, match=f"atom slot must be 0 or 1, got {slot}"):
            dyn.jc_hamiltonian(rep, [("mode1", slot)])


def kron_jc_hamiltonian(rep, pairs):
    """sum over pairs of kron(R, a_k)^T + kron(R, a_k) on the full space, real."""
    eye = np.eye(2)
    h = np.zeros((4 * rep.dim,) * 2)
    for mode, atom in pairs:
        a_k = rep.lowering[mode]
        r = kron(dyn.ATOM_LOWERING, eye) if atom == 0 else kron(eye, dyn.ATOM_LOWERING)
        h += kron(r.T, a_k) + kron(r, a_k.T)
    return h


class TestJcHamiltonianBlocks:
    @pytest.mark.parametrize("build", [
        lambda: build_infinity_two_mode(1),
        lambda: build_infinity_two_mode(2),
        lambda: build_berezin(2, 1),
        lambda: build_berezin(3, 2, [3, 1]),
        lambda: build_reducible(2, VacuumProfile.uniform(2), n_max=1),
        lambda: build_reducible(3, VacuumProfile.plateau(3, (0, 0), 0.7), 1,
                                ["k1", "k2"]),
    ])
    def test_matches_kron_assembly(self, build):
        rep = build()
        m1, m2 = rep.mode_labels[:2]
        for pairs in (
            [(m1, 0), (m2, 1)],
            [(m2, 0), (m1, 1)],
            [(m1, 0)],
            [(m1, 1)],
            [(m2, 0)],
            [(m2, 1)],
            [],
        ):
            h = dyn.jc_hamiltonian(rep, pairs)
            assert h.dtype == np.float64
            assert np.array_equal(h, kron_jc_hamiltonian(rep, pairs))


class TestEvolve:
    def test_zero_time_identity(self):
        rep = build_infinity_two_mode(1)
        pairs = [("mode1", 0), ("mode2", 1)]
        psi0 = dyn.single_photon_initial_state(rep, ("mode1", "mode2"))
        psi = dyn.evolve(rep, pairs, psi0, 0.0)
        assert np.max(np.abs(psi.amplitudes - psi0.amplitudes)) <= 1e-14

    def test_norm_preserved(self):
        rep = build_infinity_two_mode(1)
        pairs = [("mode1", 0), ("mode2", 1)]
        psi0 = dyn.single_photon_initial_state(rep, ("mode1", "mode2"))
        for t in TIME_GRID:
            assert dyn.evolve(rep, pairs, psi0, t).norm == pytest.approx(1.0, abs=1e-10)

    def test_half_pi_reaches_bell_times_vacuum(self):
        rep = build_infinity_two_mode(1)
        pairs = [("mode1", 0), ("mode2", 1)]
        psi0 = dyn.single_photon_initial_state(rep, ("mode1", "mode2"))
        psi = dyn.evolve(rep, pairs, psi0, math.pi / 2)
        bell = np.zeros(4, dtype=complex)
        bell[dyn.IDX_PM] = bell[dyn.IDX_MP] = 1.0 / math.sqrt(2.0)
        # the real coupling R^dag (x) a + h.c. reaches the Bell state with phase -i
        target = -1j * np.kron(bell, rep.vacuum.amplitudes)
        assert np.max(np.abs(psi.amplitudes - target)) <= 1e-10

    def test_excitation_expectation_constant(self):
        rep = build_berezin(2, 1)
        pairs = [("f1", 0), ("f2", 1)]
        psi0 = dyn.single_photon_initial_state(rep, ("f1", "f2"))
        n_exc = np.diag(dyn.excitation_numbers(rep))
        initial = np.vdot(psi0.amplitudes, n_exc @ psi0.amplitudes).real
        for t in TIME_GRID:
            psi = dyn.evolve(rep, pairs, psi0, t)
            value = np.vdot(psi.amplitudes, n_exc @ psi.amplitudes).real
            assert value == pytest.approx(initial, abs=1e-10)

    def test_reducible_runs_on_h_over_sqrt_z(self):
        rep, modes, h, psi0 = coupled_setup("reducible", 2, "plateau")
        psi = dyn.evolve(rep, coupling_pairs(modes), psi0, 0.9).amplitudes
        renormalized = expm_generator(h / math.sqrt(rep.profile.z_max), 0.9) @ psi0.amplitudes
        plain = expm_generator(h, 0.9) @ psi0.amplitudes
        assert np.max(np.abs(psi - renormalized)) <= 1e-12
        assert np.max(np.abs(psi - plain)) > 1e-2

    @pytest.mark.parametrize("kind", ["infinity", "berezin"])
    def test_irreducible_runs_on_h(self, kind):
        rep, modes, h, psi0 = coupled_setup(kind)
        assert rep.profile is None
        psi = dyn.evolve(rep, coupling_pairs(modes), psi0, 0.9).amplitudes
        plain = expm_generator(h, 0.9) @ psi0.amplitudes
        assert np.max(np.abs(psi - plain)) <= 1e-12

    def test_dimension_mismatch(self):
        rep = build_infinity_two_mode(1)
        pairs = [("mode1", 0), ("mode2", 1)]
        wider = dyn.single_photon_initial_state(build_infinity_two_mode(2),
                                                ("mode1", "mode2"))
        field_only = rep.vacuum
        for psi0 in (wider, field_only):
            with pytest.raises(ValidationError, match="dimension mismatch"):
                dyn.evolve(rep, pairs, psi0, 1.0)

    def test_stacked_psi0_refused(self):
        rep = build_infinity_two_mode(1)
        pairs = [("mode1", 0), ("mode2", 1)]
        psi0 = dyn.single_photon_initial_state(rep, ("mode1", "mode2"))
        stack = dyn.evolve(rep, pairs, psi0, [0.0, 0.5])
        with pytest.raises(ValidationError, match="one state"):
            dyn.evolve(rep, pairs, stack, 1.0)

    @pytest.mark.parametrize("t, shape", [(0.7, (16,)), ([0.7], (1, 16)), ([], (0, 16))])
    def test_returns_one_state_vector(self, t, shape):
        rep = build_infinity_two_mode(1)
        psi0 = dyn.single_photon_initial_state(rep, ("mode1", "mode2"))
        psi = dyn.evolve(rep, [("mode1", 0), ("mode2", 1)], psi0, t)
        assert isinstance(psi, StateVector)
        assert psi.amplitudes.shape == shape
        assert psi.factorization == psi0.factorization


def coupled_setup(kind, n=2, profile="uniform"):
    """Representation, coupled modes, H and single-photon psi0 of one case."""
    if kind == "infinity":
        rep, modes = build_infinity_two_mode(1), ("mode1", "mode2")
    elif kind == "berezin":
        rep, modes = build_berezin(2, 1), ("f1", "f2")
    else:
        prof = (VacuumProfile.uniform(2) if profile == "uniform"
                else VacuumProfile.plateau(3, (0, 0), 0.7))
        rep, modes = build_reducible(n, prof, n_max=1, selected_modes=["k1", "k2"]), ("k1", "k2")
    h = dyn.jc_hamiltonian(rep, coupling_pairs(modes))
    return rep, modes, h, dyn.single_photon_initial_state(rep, modes)


class TestSectorEvolve:
    @pytest.mark.parametrize("profile", ["uniform", "plateau"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_reducible_matches_full_space_oracle(self, n, profile):
        rep, modes, h, psi0 = coupled_setup("reducible", n, profile)
        # Two times keep the full-space products (up to 864 x 864) cheap.
        times = (0.7, math.pi / 2)
        expected = expm_generator(effective_generator(rep, h), times) @ psi0.amplitudes
        states = dyn.evolve(rep, coupling_pairs(modes), psi0, times).amplitudes
        for psi, exact in zip(states, expected):
            assert np.max(np.abs(psi - exact)) <= 1e-12

    @pytest.mark.parametrize("kind", ["infinity", "berezin"])
    def test_irreducible_matches_full_space_oracle(self, kind):
        rep, modes, h, psi0 = coupled_setup(kind)
        for t in TIME_GRID:
            exact = expm_generator(h, t) @ psi0.amplitudes
            psi = dyn.evolve(rep, coupling_pairs(modes), psi0, t)
            assert np.max(np.abs(psi.amplitudes - exact)) <= 1e-12

    @pytest.mark.parametrize("kind", ["infinity", "berezin", "reducible"])
    def test_array_times_match_scalar_times(self, kind):
        rep, modes, _, psi0 = coupled_setup(kind)
        times = np.array([0.0, 0.4, math.pi / 2, 2.9])
        states = dyn.evolve(rep, coupling_pairs(modes), psi0, times).amplitudes
        assert states.shape == (times.size, psi0.dim)
        rhos = simulated_atomic_density(rep, times, modes)
        assert rhos.shape == (times.size, 4, 4)
        for t, psi, rho in zip(times, states, rhos):
            single = dyn.evolve(rep, coupling_pairs(modes), psi0, t)
            assert np.max(np.abs(psi - single.amplitudes)) <= 1e-14
            single_rho = simulated_atomic_density(rep, t, modes)
            assert single_rho.shape == (4, 4)
            assert np.max(np.abs(rho - single_rho)) <= 1e-14

    @pytest.mark.parametrize("kind", ["infinity", "berezin", "reducible"])
    def test_two_sector_state_matches_full_space_oracle(self, kind):
        rep, modes, h, psi0 = coupled_setup(kind)
        # (|--> (x) vacuum + single photon) / sqrt(2): excitation sectors 0 and 1
        ground = np.kron(np.kron(dyn.KET_GROUND, dyn.KET_GROUND), rep.vacuum.amplitudes)
        psi = StateVector((ground + psi0.amplitudes) / math.sqrt(2.0), psi0.factorization)
        assert set(dyn.excitation_numbers(rep)[psi.amplitudes != 0]) == {0.0, 1.0}
        expected = expm_generator(effective_generator(rep, h), TIME_GRID) @ psi.amplitudes
        states = dyn.evolve(rep, coupling_pairs(modes), psi, TIME_GRID).amplitudes
        for state, exact in zip(states, expected):
            assert np.max(np.abs(state - exact)) <= 1e-12

    @pytest.mark.parametrize("kind", ["infinity", "berezin", "reducible"])
    def test_sector_mask_matches_isin(self, kind):
        rep = coupled_setup(kind)[0]
        exc = dyn.excitation_numbers(rep)
        top = int(exc.max())
        for excitations in ((0,), (1,), (0, 2), (top,), (1, top + 3), (-1, 2), (),
                            range(top + 1)):
            mask = dyn.excitation_sector_mask(rep, excitations)
            assert mask.dtype == bool
            assert np.array_equal(mask, np.isin(exc, excitations))
        assert dyn.excitation_sector_mask(rep).all()
        assert dyn.excitation_sector_mask(rep).shape == exc.shape

    @pytest.mark.parametrize("kind", ["infinity", "berezin", "reducible"])
    def test_excitation_numbers_match_operator(self, kind):
        rep = coupled_setup(kind)[0]
        numbers = dyn.excitation_numbers(rep)
        # Independent assembly: atomic populations plus the photon number.
        r_up = dyn.ATOM_LOWERING.conj().T @ dyn.ATOM_LOWERING
        eye_f = np.eye(rep.dim)
        oracle = (np.kron(np.kron(r_up, np.eye(2)), eye_f)
                  + np.kron(np.kron(np.eye(2), r_up), eye_f)
                  + np.kron(np.eye(4), np.diag(rep.number_op)))
        assert np.array_equal(np.diag(numbers), oracle)


SECTOR_CASES = [("infinity", 2, "uniform"), ("berezin", 2, "uniform")] + [
    ("reducible", n, profile) for profile in ("uniform", "plateau") for n in (1, 2, 3)
]


class TestSectorHamiltonian:
    @pytest.mark.parametrize("kind,n,profile", SECTOR_CASES)
    def test_sector_block_equals_restricted_full_hamiltonian(self, kind, n, profile):
        rep, modes, _, psi0 = coupled_setup(kind, n, profile)
        pairs = coupling_pairs(modes)
        full = kron_jc_hamiltonian(rep, pairs)
        exc = dyn.excitation_numbers(rep)
        for excitations in (np.unique(exc[psi0.amplitudes != 0]), (0, 1), None):
            block = dyn.jc_hamiltonian(rep, pairs, excitations)
            kept = np.ones(exc.size, dtype=bool) if excitations is None else np.isin(
                exc, excitations)
            assert block.dtype == np.float64
            assert np.array_equal(block, full[np.ix_(kept, kept)])

    @pytest.mark.parametrize("kind,n,profile", SECTOR_CASES)
    def test_evolve_on_sector_block_matches_full_hamiltonian(self, kind, n, profile):
        rep, modes, h, psi0 = coupled_setup(kind, n, profile)
        full = expm_generator(effective_generator(rep, h), TIME_GRID) @ psi0.amplitudes
        sector = dyn.evolve(rep, coupling_pairs(modes), psi0, TIME_GRID).amplitudes
        for a, b in zip(full, sector):
            assert np.max(np.abs(a - b)) <= 1e-14

    def test_brute_force_peak_below_one_coupled_matrix(self):
        # At the N = 3 plateau the coupled space has 4 * 216 = 864 states;
        # the brute-force route must never hold a matrix of that size.
        rep, modes, _, _ = coupled_setup("reducible", 3, "plateau")
        coupled_bytes = np.dtype(complex).itemsize * (4 * rep.dim) ** 2
        times = np.array([0.0, 0.7, math.pi / 2])
        simulated_atomic_density(rep, times, modes)
        tracemalloc.start()
        try:
            simulated_atomic_density(rep, times, modes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < coupled_bytes

    def test_initial_state_peak_below_one_field_matrix(self):
        # At the N = 3 plateau the field has 216 states; raising the vacuum
        # must not copy a field operator, nor cast it to complex.
        rep, modes, _, _ = coupled_setup("reducible", 3, "plateau")
        field_bytes = rep.lowering_of(modes[0]).nbytes
        dyn.single_photon_initial_state(rep, modes)
        tracemalloc.start()
        try:
            dyn.single_photon_initial_state(rep, modes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < field_bytes


def i_coupling_atoms(rep, times, modes):
    """Atoms' density under the coupling i a_k: H = sum kron(R^dag, i a_k) + h.c.

    Built on the full coupled space and propagated by ``expm_generator``,
    independently of ``jc_hamiltonian`` and ``evolve``.
    """
    eye = np.eye(2)
    h = np.zeros((4 * rep.dim,) * 2, dtype=complex)
    for mode, atom in coupling_pairs(modes):
        a_k = rep.lowering[mode]
        r = kron(dyn.ATOM_LOWERING, eye) if atom == 0 else kron(eye, dyn.ATOM_LOWERING)
        h += kron(r.T, 1j * a_k) + kron(r, -1j * a_k.T)
    psi0 = dyn.single_photon_initial_state(rep, modes)
    states = expm_generator(effective_generator(rep, h), times) @ psi0.amplitudes
    return ent.partial_trace(StateVector(states, psi0.factorization),
                             ent.Bipartition(("atom1", "atom2")))


class TestRealCoupling:
    """H = sum_k R_k^dag (x) a_k + h.c. is real; the atoms do not see its phase."""

    @pytest.mark.parametrize("kind,n,profile", [
        ("infinity", 2, "uniform"), ("berezin", 2, "uniform"), ("reducible", 2, "plateau"),
    ])
    def test_atom_density_is_gauge_invariant(self, kind, n, profile):
        rep, modes, _, _ = coupled_setup(kind, n, profile)
        simulated = simulated_atomic_density(rep, DEFAULT_TIMES, modes)
        assert np.max(np.abs(simulated - i_coupling_atoms(rep, DEFAULT_TIMES, modes))) <= 1e-14

    @pytest.mark.parametrize("kind", ["infinity", "berezin", "reducible"])
    def test_evolve_diagonalizes_a_float64_matrix(self, kind, monkeypatch):
        rep, modes, _, psi0 = coupled_setup(kind, 2, "plateau")
        seen = []
        eig = linalg.hermitian_eig

        def spy(m):
            seen.append(np.asarray(m).dtype)
            return eig(m)

        monkeypatch.setattr(linalg, "hermitian_eig", spy)
        assert psi0.amplitudes.dtype == np.float64
        psi = dyn.evolve(rep, coupling_pairs(modes), psi0, DEFAULT_TIMES)
        assert seen == [np.float64]
        assert psi.amplitudes.dtype == np.complex128


class TestIrreducibleDensity:
    def test_zero_time_ground_projector(self):
        rho = dyn.rho_atoms_irreducible(0.0)
        expected = np.zeros((4, 4))
        expected[dyn.IDX_MM, dyn.IDX_MM] = 1.0
        assert np.array_equal(rho, expected)

    def test_half_pi_bell_projector(self):
        rho = dyn.rho_atoms_irreducible(math.pi / 2)
        bell = np.zeros(4, dtype=complex)
        bell[dyn.IDX_PM] = bell[dyn.IDX_MP] = 1.0 / math.sqrt(2.0)
        assert np.max(np.abs(rho - np.outer(bell, bell.conj()))) <= 1e-15

    def test_quarter_pi_weights(self):
        rho = dyn.rho_atoms_irreducible(math.pi / 4)
        assert rho[dyn.IDX_MM, dyn.IDX_MM].real == pytest.approx(0.5, abs=1e-15)
        assert rho[dyn.IDX_PM, dyn.IDX_PM].real == pytest.approx(0.25, abs=1e-15)
        assert rho[dyn.IDX_PM, dyn.IDX_MP].real == pytest.approx(0.25, abs=1e-15)

    @pytest.mark.parametrize("t", TIME_GRID)
    def test_valid_density(self, t):
        assert_valid_density(dyn.rho_atoms_irreducible(t))

    @pytest.mark.parametrize("kind", ["infinity", "berezin"])
    def test_brute_force_reduction_matches(self, kind):
        if kind == "infinity":
            rep = build_infinity_two_mode(1)
            modes = ("mode1", "mode2")
        else:
            rep = build_berezin(2, 1)
            modes = ("f1", "f2")
        for t in TIME_GRID:
            dist = ent.trace_distance(
                atoms_of(rep, t, modes), dyn.rho_atoms_irreducible(t)
            )
            assert dist <= 1e-10


class TestReducibleDensity:
    def test_zero_time_ground_projector(self):
        for n in (1, 7, 120):
            rho = dyn.rho_atoms_reducible(0.0, n, 0.3, 0.2, 0.4)
            assert rho[dyn.IDX_MM, dyn.IDX_MM].real == pytest.approx(1.0, abs=1e-12)
            assert np.sum(np.abs(rho)) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("t", TIME_GRID)
    def test_single_oscillator_coherence_exactly_zero(self, t):
        rho = dyn.rho_atoms_reducible(t, 1, 0.5, 0.5, 0.5)
        assert rho[dyn.IDX_PM, dyn.IDX_MP] == 0.0
        assert rho[dyn.IDX_MP, dyn.IDX_PM] == 0.0

    def test_matches_brute_force_n2_half_pi(self):
        prof = VacuumProfile.uniform(2)
        rep = build_reducible(2, prof, n_max=1)
        brute = atoms_of(rep, math.pi / 2, ("k1", "k2"))
        closed = dyn.rho_atoms_reducible(math.pi / 2, 2, 0.5, 0.5, 0.5)
        assert ent.trace_distance(brute, closed) <= 1e-8

    @pytest.mark.parametrize("n", [1, 10, 500, 10**4])
    def test_valid_density_across_sizes(self, n):
        assert_valid_density(dyn.rho_atoms_reducible(1.1, n, 0.25, 0.25, 0.25))

    def test_asymmetric_modes_valid(self):
        assert_valid_density(dyn.rho_atoms_reducible(0.9, 50, 0.5, 0.125, 0.5))

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            dyn.rho_atoms_reducible(1.0, 0, 0.5, 0.5, 0.5)
        with pytest.raises(DomainError):
            dyn.rho_atoms_reducible(1.0, 2, 0.7, 0.6, 0.7)
        with pytest.raises(DomainError):
            dyn.rho_atoms_reducible(1.0, 2, 0.5, 0.5, 0.2)
        with pytest.raises(DomainError):
            dyn.rho_atoms_reducible(1.0, 10**6 + 1, 0.25, 0.25, 0.25)
        with pytest.raises(DomainError):
            dyn.rho_atoms_reducible(1.0, 2, -0.1, 0.5, 0.5)

    @pytest.mark.parametrize("z2", [0.0, 5e-324, 1e-310])
    def test_underflowing_probability_is_refused(self, z2):
        # a subnormal probability has lost precision, and at 5e-324 the far
        # steps of the sector-weight recurrence round to 0 and its sums turn NaN
        for closed_form in (lambda: dyn.rho_atoms_reducible(1.0, 2, 1.0 - z2, z2, 1.0),
                            lambda: dyn.rho_atoms_limit(1.0, 1.0 - z2, z2, 1.0)):
            with pytest.raises(DomainError, match="vacuum probability underflows"):
                closed_form()
        with pytest.raises(DomainError, match="vacuum probability must be positive"):
            dyn.rho_atoms_reducible(1.0, 2, -1e-320, 0.5, 0.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("arg", ["z1", "z2", "z"])
    @pytest.mark.parametrize("closed_form", [
        lambda z1, z2, z: dyn.rho_atoms_reducible(1.0, 2, z1, z2, z),
        lambda z1, z2, z: dyn.rho_atoms_limit(1.0, z1, z2, z)], ids=["reducible", "limit"])
    def test_non_finite_probability_is_refused(self, closed_form, arg, bad):
        # every comparison with NaN is false, so no range check refuses it
        params = {"z1": 0.5, "z2": 0.5, "z": 0.5, arg: bad}
        with pytest.raises(DomainError, match=f"{arg} must be finite, got {bad}"):
            closed_form(**params)


def coherence_oracle(times, n, z1, z2, z):
    """|+-><-+| entry by the direct multinomial double sum at 40 digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        z1m, z2m, zm = mpmath.mpf(z1), mpmath.mpf(z2), mpmath.mpf(z)
        z0 = 1 - z1m - z2m
        fact = [mpmath.factorial(k) for k in range(n + 1)]
        g1, g2, g0 = ([zk**k / fact[k] for k in range(n + 1)] for zk in (z1m, z2m, z0))
        out = []
        for t in times:
            f = [mpmath.sin(mpmath.mpf(t) * mpmath.sqrt(mpmath.mpf(s) / (n * zm)))
                 * mpmath.sqrt(mpmath.mpf(s) / n) for s in range(n + 1)]
            h2 = [g2[sp] * f[sp] for sp in range(n + 1)]
            total = fact[n] * mpmath.fsum(
                g1[s] * f[s] * mpmath.fsum(h2[sp] * g0[n - s - sp]
                                           for sp in range(n + 1 - s))
                for s in range(n + 1))
            out.append(float(total / (z1m + z2m)))
    return out


class TestReducibleCoherence:
    TIMES = (0.7, 1.3)

    @pytest.mark.parametrize("n", [7, 300])
    @pytest.mark.parametrize(
        "z1, z2, z", [(0.3, 0.2, 0.4), (0.25, 0.75, 0.75)],
        ids=["asymmetric", "z0-zero"],
    )
    def test_matches_extended_precision_oracle(self, n, z1, z2, z):
        expected = coherence_oracle(self.TIMES, n, z1, z2, z)
        rhos = dyn.rho_atoms_reducible(self.TIMES, n, z1, z2, z)
        for rho, exact in zip(rhos, expected):
            assert rho[dyn.IDX_PM, dyn.IDX_MP].real == pytest.approx(exact, rel=1e-13)

    @pytest.mark.parametrize("n", [1, 10, 4000, 10**5])
    @pytest.mark.parametrize("z1, z2, z", [(0.2, 0.05, 0.2), (0.5, 0.5, 0.5)])
    def test_array_times_match_scalar_times(self, n, z1, z2, z):
        times = np.array([0.0, 0.4, math.pi / 2, 2.9])
        stacked = dyn.rho_atoms_reducible(times, n, z1, z2, z)
        assert stacked.shape == (times.size, 4, 4)
        for t, rho in zip(times, stacked):
            single = dyn.rho_atoms_reducible(t, n, z1, z2, z)
            assert single.shape == (4, 4)
            assert np.max(np.abs(rho - single)) <= 1e-15

    def test_rejects_two_dimensional_times(self):
        with pytest.raises(ValidationError, match="1-D"):
            dyn.rho_atoms_reducible(np.zeros((2, 2)), 3, 0.5, 0.5, 0.5)

    @pytest.mark.parametrize("z1, z2, z", [
        (0.3, 0.2, 0.4), (0.6, 0.1, 0.6), (0.45, 0.55 - 1e-9, 0.6)])
    def test_single_oscillator_coherence_exactly_zero_asymmetric(self, z1, z2, z):
        rhos = dyn.rho_atoms_reducible(TIME_GRID, 1, z1, z2, z)
        assert np.all(rhos[:, dyn.IDX_PM, dyn.IDX_MP] == 0.0)
        assert np.all(rhos[:, dyn.IDX_MP, dyn.IDX_PM] == 0.0)

    def test_support_size_monotone_in_n(self):
        for z in (0.05, 0.2, 0.5):
            sizes = [binomial_support(n, z).size
                     for n in (10, 1000, 4000, 4001, 10**4, 10**6)]
            assert sizes == sorted(sizes)


class TestFloat64Exponentials:
    """Sector sums with float64 exponentials of the per-cell logs against
    the same sums with extended-precision exponentials of those logs."""

    TIMES = np.array([0.3, 1.1, math.pi / 2])

    @classmethod
    def sector_tables(cls, n, z_k, z):
        support = binomial_support(n, z_k)
        ratio = support.astype(np.longdouble) / n
        theta = cls.TIMES[:, None] * np.sqrt(support / n / z)
        weights = np.exp(log_binomial_weights(n, support, z_k).astype(np.longdouble))
        return ratio, weights, theta

    @pytest.mark.parametrize("n", [10, 1000, 10**5, 10**6])
    @pytest.mark.parametrize("z1, z2, z", [(0.2, 0.05, 0.2), (0.5, 0.5, 0.5)])
    def test_diagonal_of_rho_atoms_reducible(self, n, z1, z2, z):
        ratio1, w1, theta1 = self.sector_tables(n, z1, z)
        ratio2, w2, theta2 = self.sector_tables(n, z2, z)
        norm = 1 / (np.longdouble(z1) + np.longdouble(z2))
        expected = {
            dyn.IDX_PM: norm * np.sum(np.sin(theta1) ** 2 * ratio1 * w1, axis=-1),
            dyn.IDX_MP: norm * np.sum(np.sin(theta2) ** 2 * ratio2 * w2, axis=-1),
            dyn.IDX_MM: norm * (np.sum(np.cos(theta1) ** 2 * ratio1 * w1, axis=-1)
                                + np.sum(np.cos(theta2) ** 2 * ratio2 * w2, axis=-1)),
        }
        rhos = dyn.rho_atoms_reducible(self.TIMES, n, z1, z2, z)
        for idx, values in expected.items():
            assert np.max(np.abs(rhos[:, idx, idx].real - values)) <= 1e-14

    @staticmethod
    def joint_sum_oracle(n, z1, z2, f1, f2):
        """The joint sector sum over extended-precision weights, row by row in s.

        Row s of the multinomial weight is Bin(n, s; z1) Bin(n - s, s'; p),
        p = z2 / (1 - z1): one per-cell anchor from :func:`log_joint_weights`
        at the conditional mean of s', then a long-double recurrence along
        s' of the ratio (n - s - s') / (s' + 1) z2 / z0, with z0 = 1 - z1 - z2
        exact in long double. Shares nothing with ``_log_ratio_table`` or
        the FFT, and takes one per-cell call per row, not per cell.
        """
        ld = np.longdouble
        s1, s2 = binomial_support(n, z1), binomial_support(n, z2)
        left = (n - s1)[:, None]
        z0 = (1 - ld(z1)) - ld(z2)
        k0 = np.clip(np.minimum(np.round(left[:, 0] * (z2 / (1 - z1))), left[:, 0]),
                     s2[0], s2[-1]).astype(int)
        anchor = np.array([log_joint_weights(n, s1[i:i + 1], k0[i:i + 1], z1, z2)[0, 0]
                           for i in range(s1.size)], dtype=ld)[:, None]
        if z0 == 0:
            # the point mass s' = n - s: each row's one cell is its anchor
            rel = np.where(s2 == k0[:, None], ld(0), ld(-np.inf))
        else:
            # ln j for every integer j the steps divide or multiply by;
            # a step past s' = n - s (clipped to ln 1) only reaches
            # cells that are dropped below
            ln = np.log(np.arange(1, n + 2, dtype=ld))
            k = s2[:-1]
            steps = ln[np.maximum(left - k, 1) - 1] - ln[k] + np.log(ld(z2) / z0)
            cum = np.concatenate([np.zeros((s1.size, 1), ld), np.cumsum(steps, axis=1)],
                                 axis=1)
            rel = cum - cum[np.arange(s1.size), k0 - s2[0]][:, None]
        log_w = anchor + rel
        # cells with s + s' > n, and weights far below float64's range,
        # add nothing (and long-double exp is slow that deep)
        weights = np.exp(np.where((s2 <= left) & (log_w > -800), log_w, ld(-np.inf)))
        return np.einsum("ij,ri,rj->r", weights, f1.astype(ld), f2)

    @pytest.mark.parametrize("n", [10, 1000, 4000])
    @pytest.mark.parametrize("z1, z2", [(0.2, 0.05), (0.5, 0.5)])
    def test_joint_sector_sum(self, n, z1, z2):
        s1, s2 = binomial_support(n, z1), binomial_support(n, z2)
        rng = np.random.default_rng(11)
        f1 = rng.uniform(size=(2, s1.size))
        f2 = rng.uniform(size=(2, s2.size))
        expected = self.joint_sum_oracle(n, z1, z2, f1, f2)
        got = joint_sector_sum(n, z1, z2, f1, f2)
        assert np.max(np.abs(got - expected)) <= 1e-14

    @pytest.mark.parametrize("z1, z2", [(0.2, 0.05), (0.45, 0.55 - 1e-9)])
    def test_joint_sector_sum_signed_rows_large_n(self, z1, z2):
        n = 10**4
        s1, s2 = binomial_support(n, z1), binomial_support(n, z2)
        rng = np.random.default_rng(12)
        f1 = rng.uniform(-1.0, 1.0, size=(3, s1.size))
        f2 = rng.uniform(-1.0, 1.0, size=(3, s2.size))
        expected = self.joint_sum_oracle(n, z1, z2, f1, f2)
        got = joint_sector_sum(n, z1, z2, f1, f2)
        assert np.max(np.abs(got - expected)) <= 1e-14


class TestFloat64Tables:
    """rho_atoms_reducible on its float64 compensated tables against the same
    closed form on extended-precision tables, each cast to float64 once."""

    TIMES = np.array([0.3, 1.1, math.pi / 2])

    @staticmethod
    def extended_tables(monkeypatch):
        ld = np.longdouble

        def ratio_table(lam, p, lo, hi, anchor, offset):
            # the same steps, one extended-precision cumulative sum, cast once
            lam, p = ld(lam[0]) + ld(lam[1]), ld(p)
            start, stop = min(lo, anchor), max(hi, anchor)
            j = np.arange(start + 1, stop + 1, dtype=ld)
            steps = np.log((lam - p * j) / ((1 - p) * j))
            cum = np.concatenate([np.zeros(1, dtype=ld), np.cumsum(steps)])
            table = (cum - cum[anchor - start])[lo - start:hi - start + 1]
            return (table + offset).astype(float)

        monkeypatch.setattr(reps, "_log_ratio_table", ratio_table)
        monkeypatch.setattr(dyn, "_log_binomial_table", lambda n, z: log_binomial_weights(
            n, binomial_support(n, z), z).astype(float))

    @pytest.mark.parametrize("n", [1, 2, 3, 10, 1000, 10**5, 10**6])
    @pytest.mark.parametrize("z1, z2, z", [(0.2, 0.05, 0.2), (0.5, 0.5, 0.5)])
    def test_matches_extended_precision_tables(self, monkeypatch, n, z1, z2, z):
        got = dyn.rho_atoms_reducible(self.TIMES, n, z1, z2, z)
        with monkeypatch.context() as patch:
            self.extended_tables(patch)
            expected = dyn.rho_atoms_reducible(self.TIMES, n, z1, z2, z)
        assert np.max(np.abs(got - expected)) <= 1e-15
        if n == 1:
            assert np.all(got[:, dyn.IDX_PM, dyn.IDX_MP] == 0.0)

    @pytest.mark.parametrize("z1, z2, z, cells", [
        (0.5, 0.5, 0.5, 1),     # one table for both modes, read by the point mass
        (0.2, 0.05, 0.2, 3)])   # two marginal anchors, the joint anchor's Bin(N, s0; z1)
    def test_per_cell_formula_only_in_the_anchor_cells(
            self, monkeypatch, z1, z2, z, cells):
        calls = []
        original = reps.log_binomial_weights

        def counted(n, s, z_k):
            calls.append(np.size(s))
            return original(n, s, z_k)

        monkeypatch.setattr(reps, "log_binomial_weights", counted)
        dyn.rho_atoms_reducible(self.TIMES, 10**5, z1, z2, z)
        assert calls == [1] * cells


class TestExplicitMeasure:
    """rho_atoms_reducible against its central spectral measure written out:
    every point (s/N, s'/N) with s + s' <= N and its multinomial weight
    from ``math.comb``, shared with none of the sector-sum machinery."""

    @staticmethod
    def explicit_density(times, n, z1, z2, z):
        points = [(s, sp) for s in range(n + 1) for sp in range(n + 1 - s)]
        w = np.array([math.comb(n, s) * math.comb(n - s, sp) * z1**s * z2**sp
                      * (1.0 - z1 - z2) ** (n - s - sp) for s, sp in points])
        r1, r2 = (np.array(p) / n for p in zip(*points))
        theta1 = times[:, None] * np.sqrt(r1 / z)
        theta2 = times[:, None] * np.sqrt(r2 / z)
        norm = 1.0 / np.sum(w * (r1 + r2))

        def mean(values):
            return norm * np.sum(w * values, axis=-1)

        rho = np.zeros((times.size, 4, 4))
        rho[:, dyn.IDX_PM, dyn.IDX_PM] = mean(r1 * np.sin(theta1) ** 2)
        rho[:, dyn.IDX_MP, dyn.IDX_MP] = mean(r2 * np.sin(theta2) ** 2)
        rho[:, dyn.IDX_MM, dyn.IDX_MM] = mean(
            r1 * np.cos(theta1) ** 2 + r2 * np.cos(theta2) ** 2)
        rho[:, dyn.IDX_PM, dyn.IDX_MP] = rho[:, dyn.IDX_MP, dyn.IDX_PM] = mean(
            np.sqrt(r1 * r2) * np.sin(theta1) * np.sin(theta2))
        return rho

    @pytest.mark.parametrize("n, z1, z2, z", [
        (1, 0.3, 0.2, 0.4), (7, 0.25, 0.1, 0.25), (12, 0.3, 0.2, 0.4)])
    def test_matches_enumerated_multinomial(self, n, z1, z2, z):
        times = np.linspace(0.0, 3.0, 7)
        expected = self.explicit_density(times, n, z1, z2, z)
        got = dyn.rho_atoms_reducible(times, n, z1, z2, z)
        assert np.max(np.abs(got - expected)) <= 1e-14


class TestCentralMeasure:
    """central_measure's mu against the dense oracle: the vacuum weight of
    each joint spectral projector E_1(s) E_2(s') of the built ensemble."""

    @pytest.mark.parametrize("profile", [
        reps.VacuumProfile.uniform(2), reps.VacuumProfile.uniform(3),
        reps.VacuumProfile.uniform(4), reps.VacuumProfile.plateau(3, (0, 0), 0.7)],
        ids=["uniform2", "uniform3", "uniform4", "plateau3"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_dense_projector_weights(self, profile, n):
        # n_max = 0 keeps N = 4 at 4^4 basis states; mu ignores the ladder
        rep = reps.build_reducible(n, profile, n_max=0, selected_modes=["k1"])
        proj = [np.array(reps.central_spectral_projectors(rep, k).projectors)
                for k in ("k1", "k2")]
        dense = (proj[0] * np.abs(rep.vacuum.amplitudes) ** 2) @ proj[1].T
        marginals, joint = dyn.central_measure(rep, ("k1", "k2"))
        eye = np.eye(n + 1)
        assert np.max(np.abs(joint(eye[:, None], eye[None]) - dense)) <= 1e-12
        for (points, weights, mean), axis in zip(marginals, (1, 0)):
            assert np.array_equal(points, np.arange(n + 1) / n)
            assert np.max(np.abs(weights - dense.sum(axis=axis))) <= 1e-12
            assert mean == pytest.approx(points @ weights, abs=1e-12)

    def test_irreducible_is_the_point_mass_at_one(self):
        marginals, joint = dyn.central_measure(reps.build_berezin(3, 1), ("f1", "f3"))
        for points, weights, mean in marginals:
            assert (points.tolist(), weights.tolist(), mean) == ([1.0], [1.0], 1.0)
        assert joint(np.array([2.0]), np.array([3.0])) == 6.0


class TestLimitDensity:
    @pytest.mark.parametrize("t", TIME_GRID)
    def test_plateau_case_equals_irreducible(self, t):
        rho = dyn.rho_atoms_limit(t, 0.25, 0.25, 0.25)
        assert ent.trace_distance(rho, dyn.rho_atoms_irreducible(t)) <= 1e-12

    def test_zero_time(self):
        rho = dyn.rho_atoms_limit(0.0, 0.3, 0.2, 0.4)
        assert rho[dyn.IDX_MM, dyn.IDX_MM].real == pytest.approx(1.0, abs=1e-15)

    def test_asymmetric_frozen_values(self):
        # Z1 = Z, Z2 = Z/4, t = pi/2: mode-2 block weighted by sin^2(pi/4)
        rho = dyn.rho_atoms_limit(math.pi / 2, 0.4, 0.1, 0.4)
        assert rho[dyn.IDX_MM, dyn.IDX_MM].real == pytest.approx(0.1, abs=1e-12)
        assert rho[dyn.IDX_PM, dyn.IDX_PM].real == pytest.approx(0.8, abs=1e-12)
        assert rho[dyn.IDX_MP, dyn.IDX_MP].real == pytest.approx(0.1, abs=1e-12)
        assert rho[dyn.IDX_PM, dyn.IDX_MP].real == pytest.approx(
            0.282842712474619, abs=1e-12
        )
        assert_valid_density(rho)

    def test_finite_ensemble_converges_pointwise(self):
        for z1, z2, z in ((0.25, 0.25, 0.25), (0.5, 0.25, 0.5)):
            for t in (math.pi / 8, math.pi / 2):
                limit = dyn.rho_atoms_limit(t, z1, z2, z)
                d_small = ent.trace_distance(
                    dyn.rho_atoms_reducible(t, 100, z1, z2, z), limit
                )
                d_large = ent.trace_distance(
                    dyn.rho_atoms_reducible(t, 10**4, z1, z2, z), limit
                )
                assert d_large < d_small

    def test_large_ensemble_approaches_limit_value(self):
        # the N = 1e5 evaluation sits close to the limiting form
        t = math.pi / 2
        d = ent.trace_distance(
            dyn.rho_atoms_reducible(t, 10**5, 0.4, 0.1, 0.4),
            dyn.rho_atoms_limit(t, 0.4, 0.1, 0.4),
        )
        assert d <= 5e-4


class TestNormalizationConstant:
    def test_matches_explicit_normalization(self):
        prof = VacuumProfile(("k1", "k2", "k3"), (0.3, 0.1, 0.6))
        rep = build_reducible(2, prof, n_max=1, selected_modes=["k1", "k2"])
        raw = (
            (rep.raising("k1") + rep.raising("k2")) @ rep.vacuum.amplitudes
        ) / math.sqrt(2.0)
        # sqrt(2 / (Z1 + Z2)) with Z1 + Z2 = 0.4
        assert 1.0 / np.linalg.norm(raw) == pytest.approx(math.sqrt(5.0), abs=1e-12)


def _grid_routines():
    """Each time-dependent routine as t -> array, on small fixed inputs."""
    rng = np.random.default_rng(59)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    h = coupling_hamiltonian(a)
    rep = build_reducible(2, VacuumProfile.uniform(2), 1)
    psi0 = dyn.single_photon_initial_state(rep, ("k1", "k2"))

    return {
        "expm_generator": lambda t: expm_generator(h, t),
        "closed_form_evolution": lambda t: dyn.closed_form_evolution(a, t),
        "evolve": lambda t: dyn.evolve(rep, coupling_pairs(("k1", "k2")), psi0, t).amplitudes,
        "simulated_atomic_density":
            lambda t: simulated_atomic_density(rep, t, ("k1", "k2")),
        "rho_atoms_reducible": lambda t: dyn.rho_atoms_reducible(t, 1000, 0.2, 0.05, 0.2),
        "rho_atoms_limit": lambda t: dyn.rho_atoms_limit(t, 0.3, 0.2, 0.4),
        "rho_atoms_irreducible": dyn.rho_atoms_irreducible,
    }


GRID_ROUTINE_NAMES = sorted(_grid_routines())


class TestTimeGridContract:
    """A 1-D t gives the stack of scalar calls; a 2-D t is a ValidationError."""

    TIMES = np.array([0.0, 0.3, math.pi / 2, 2.9])

    @pytest.mark.parametrize("name", GRID_ROUTINE_NAMES)
    def test_grid_entries_are_the_scalar_calls(self, name):
        routine = _grid_routines()[name]
        stacked = routine(self.TIMES)
        assert len(stacked) == self.TIMES.size
        for t, entry in zip(self.TIMES, stacked):
            single = routine(t)
            assert single.shape == entry.shape
            if name == "rho_atoms_reducible":
                # the joint sector sum's batched FFT moves the coherence
                # by ~1e-16 against a single-time call
                coherence = (
                    [dyn.IDX_PM, dyn.IDX_MP], [dyn.IDX_MP, dyn.IDX_PM])
                assert np.max(np.abs(entry[coherence] - single[coherence])) <= 1e-15
                entry, single = entry.copy(), single.copy()
                entry[coherence] = single[coherence] = 0.0
            assert np.array_equal(entry, single)

    @pytest.mark.parametrize("name", GRID_ROUTINE_NAMES)
    def test_two_dimensional_times_raise(self, name):
        with pytest.raises(ValidationError, match="1-D"):
            _grid_routines()[name](np.zeros((2, 2)))
