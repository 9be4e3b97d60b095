import math

import numpy as np
import pytest

from ccrlab import dynamics as dyn
from ccrlab.entanglement import (
    Bipartition,
    concurrence,
    marginal_entropy,
    operator_schmidt_coefficients,
    partial_trace,
    schmidt_coefficients,
    trace_distance,
    von_neumann_entropy,
)
from ccrlab.exceptions import ValidationError
from ccrlab.linalg import (
    HilbertFactorization,
    StateVector,
    expm_generator,
    kron,
    matricize,
)
from ccrlab.representations import build_berezin, build_infinity_two_mode
from ccrlab.scenarios import DEFAULT_TIMES

LN2 = math.log(2.0)

#: (T, 4, 4) closed-form atom densities over the default time grid; each
#: starts with the rank-1 ground projector at t = 0.
STACKS = {
    "irreducible": dyn.rho_atoms_irreducible(DEFAULT_TIMES),
    "reducible_N1": dyn.rho_atoms_reducible(DEFAULT_TIMES, 1, 0.5, 0.5, 0.5),
    "reducible_N3": dyn.rho_atoms_reducible(DEFAULT_TIMES, 3, 0.3, 0.2, 0.4),
    "limit": dyn.rho_atoms_limit(DEFAULT_TIMES, 0.3, 0.2, 0.4),
}

#: Each measure as a function of a density and a reference density of the
#: same shape, which only the trace distance reads.
MEASURES = {
    "concurrence": lambda rho, ref: concurrence(rho),
    "von_neumann_entropy": lambda rho, ref: von_neumann_entropy(rho),
    "trace_distance": trace_distance,
}


def with_bad_member(eigenvalue):
    """The irreducible stack with member 2 replaced by a trace-1 diagonal
    holding ``eigenvalue``."""
    stack = STACKS["irreducible"].copy()
    stack[2] = np.diag([1.0 - eigenvalue, eigenvalue, 0.0, 0.0])
    return stack


def bell_pair():
    fact = HilbertFactorization((("left", 2), ("right", 2)))
    amp = np.zeros(4, dtype=complex)
    amp[0] = amp[3] = 1.0 / math.sqrt(2.0)
    return StateVector(amp, fact)


def random_state(rng, fact):
    amp = rng.normal(size=fact.dim) + 1j * rng.normal(size=fact.dim)
    return StateVector(amp, fact).normalized()


def random_density(rng, dim, rank=3):
    acc = np.zeros((dim, dim), dtype=complex)
    weights = rng.random(rank)
    weights /= weights.sum()
    for w in weights:
        amp = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        amp /= np.linalg.norm(amp)
        acc += w * np.outer(amp, amp.conj())
    return acc


def traced_oracle(psi, subscripts):
    """Reduced density by an explicit |psi><psi| and an einsum trace.

    ``subscripts`` maps the joint density's row then column factor axes
    to the kept row then column axes, e.g. ``"abAb->aA"``.
    """
    amp = psi.amplitudes / np.linalg.norm(psi.amplitudes)
    dims = psi.factorization.dims
    joint = np.outer(amp, amp.conj()).reshape(dims + dims)
    reduced = np.einsum(subscripts, joint)
    d = int(math.isqrt(reduced.size))
    return reduced.reshape(d, d)


class TestStacks:
    def test_stacks_hold_rank_one_and_rank_two_members(self):
        ranks = {name: [int(np.sum(np.linalg.eigvalsh(m) > 1e-12)) for m in stack]
                 for name, stack in STACKS.items()}
        assert all(r[0] == 1 for r in ranks.values())
        assert 2 in ranks["irreducible"] and 2 in ranks["limit"]

    @pytest.mark.parametrize("stack", STACKS)
    @pytest.mark.parametrize("measure", MEASURES)
    def test_stack_gives_the_bits_of_per_matrix_calls(self, measure, stack):
        f = MEASURES[measure]
        rho = STACKS[stack]
        ref = STACKS["irreducible"][::-1]
        single = [f(a, b) for a, b in zip(rho, ref)]
        assert all(type(v) is float for v in single)
        stacked = f(rho, ref)
        assert isinstance(stacked, np.ndarray) and stacked.shape == (len(DEFAULT_TIMES),)
        assert np.array_equal(stacked, single)
        # any number of leading axes
        assert np.array_equal(f(np.stack([rho, ref]), np.stack([ref, rho])),
                              [single, [f(b, a) for a, b in zip(rho, ref)]])


#: Each reduction of a pure state, as a function of a state and a cut.
REDUCTIONS = {
    "partial_trace": partial_trace,
    "schmidt_coefficients": schmidt_coefficients,
    "marginal_entropy": marginal_entropy,
}


def evolved_stack(times):
    """The single-photon state of the two-oscillator representation over ``times``."""
    rep = build_infinity_two_mode(1)
    psi0 = dyn.single_photon_initial_state(rep, ("mode1", "mode2"))
    return dyn.evolve(rep, [("mode1", 0), ("mode2", 1)], psi0, times)


class TestStateStacks:
    @pytest.mark.parametrize("cut", [("atom1", "atom2"), ("mode2", "atom1")])
    @pytest.mark.parametrize("source", ["random", "evolve"])
    @pytest.mark.parametrize("reduction", REDUCTIONS)
    def test_stack_gives_the_bits_of_per_state_calls(self, reduction, source, cut):
        f = REDUCTIONS[reduction]
        if source == "evolve":
            stack = evolved_stack(DEFAULT_TIMES)
        else:
            rng = np.random.default_rng(61)
            fact = HilbertFactorization(
                (("atom1", 2), ("mode1", 3), ("atom2", 2), ("mode2", 2)))
            stack = StateVector(rng.normal(size=(4, 24)) + 1j * rng.normal(size=(4, 24)),
                                fact)
        bipartition = Bipartition(cut)
        single = [f(StateVector(a, stack.factorization), bipartition)
                  for a in stack.amplitudes]
        stacked = f(stack, bipartition)
        assert isinstance(stacked, np.ndarray)
        assert np.array_equal(stacked, single)

    def test_empty_time_grid(self):
        stack = evolved_stack([])
        assert stack.amplitudes.shape == (0, stack.dim)
        atoms = Bipartition(("atom1", "atom2"))
        reduced = partial_trace(stack, atoms)
        assert reduced.shape == (0, 4, 4) and reduced.dtype == complex
        assert schmidt_coefficients(stack, atoms).shape == (0, 4)
        assert marginal_entropy(stack, atoms).shape == (0,)


class TestPartialTrace:
    def test_product_state_marginal(self):
        rng = np.random.default_rng(71)
        a = rng.normal(size=3) + 1j * rng.normal(size=3)
        b = rng.normal(size=4) + 1j * rng.normal(size=4)
        fact = HilbertFactorization((("a", 3), ("b", 4)))
        psi = StateVector(np.kron(a, b), fact)
        reduced = partial_trace(psi, Bipartition(("a",)))
        expected = np.outer(a, a.conj()) / np.vdot(a, a).real
        assert np.max(np.abs(reduced - expected)) <= 1e-12
        assert np.max(np.abs(reduced - traced_oracle(psi, "abAb->aA"))) <= 1e-12

    def test_bell_marginal_maximally_mixed(self):
        reduced = partial_trace(bell_pair(), Bipartition(("left",)))
        assert np.max(np.abs(reduced - np.eye(2) / 2)) <= 1e-12

    def test_atoms_marginal_at_half_pi(self):
        rep = build_infinity_two_mode(1)
        psi0 = dyn.single_photon_initial_state(rep, ("mode1", "mode2"))
        psi = dyn.evolve(rep, [("mode1", 0), ("mode2", 1)], psi0, math.pi / 2)
        atoms = partial_trace(psi, Bipartition(("atom1", "atom2")))
        assert trace_distance(
            atoms, dyn.rho_atoms_irreducible(math.pi / 2)
        ) <= 1e-10

    def test_reordered_noncontiguous_keep_in_factorization_order(self):
        rng = np.random.default_rng(73)
        fact = HilbertFactorization((("a", 2), ("b", 3), ("c", 2), ("d", 2)))
        psi = random_state(rng, fact)
        reduced = partial_trace(psi, Bipartition(("c", "a")))
        expected = traced_oracle(psi, "abcdAbCd->acAC")
        assert np.max(np.abs(reduced - expected)) <= 1e-14

    def test_normalizes_input(self):
        rng = np.random.default_rng(75)
        fact = HilbertFactorization((("a", 3), ("b", 2)))
        amp = 3.7 * (rng.normal(size=6) + 1j * rng.normal(size=6))
        psi = StateVector(amp, fact)
        reduced = partial_trace(psi, Bipartition(("b",)))
        assert complex(np.trace(reduced)) == pytest.approx(1.0, abs=1e-14)
        expected = traced_oracle(psi, "abaB->bB")
        assert np.max(np.abs(reduced - expected)) <= 1e-14

    def test_keeping_every_factor_gives_projector(self):
        rng = np.random.default_rng(77)
        fact = HilbertFactorization((("a", 2), ("b", 3)))
        psi = random_state(rng, fact)
        reduced = partial_trace(psi, Bipartition(("b", "a")))
        amp = psi.amplitudes
        assert np.max(np.abs(reduced - np.outer(amp, amp.conj()))) <= 1e-15
        assert np.max(np.abs(reduced - traced_oracle(psi, "abAB->abAB"))) <= 1e-15

    def test_unknown_label_rejected(self):
        with pytest.raises(ValidationError, match="unknown factor"):
            partial_trace(bell_pair(), Bipartition(("nope",)))


class TestSchmidt:
    def test_shared_excitation_coefficients(self):
        fact = HilbertFactorization((("m1", 2), ("m2", 2)))
        amp = np.zeros(4, dtype=complex)
        amp[1] = amp[2] = 1.0 / math.sqrt(2.0)  # (|01> + |10>)/sqrt(2)
        psi = StateVector(amp, fact)
        sv = schmidt_coefficients(psi, Bipartition(("m1",)))
        assert np.allclose(sv, [1.0 / math.sqrt(2.0)] * 2, atol=1e-12)

    def test_product_state_rank_one(self):
        rng = np.random.default_rng(79)
        a = rng.normal(size=3) + 1j * rng.normal(size=3)
        b = rng.normal(size=4) + 1j * rng.normal(size=4)
        fact = HilbertFactorization((("a", 3), ("b", 4)))
        psi = StateVector(np.kron(a, b), fact).normalized()
        sv = schmidt_coefficients(psi, Bipartition(("a",)))
        assert sv[0] == pytest.approx(1.0, abs=1e-12)
        assert sv[1] <= 1e-12

    def test_initial_berezin_state_is_product(self):
        rep = build_berezin(2, 1)
        psi0 = dyn.single_photon_initial_state(rep, ("f1", "f2"))
        sv = schmidt_coefficients(psi0, Bipartition(("atom1", "atom2")))
        assert sv[1] <= 1e-12

    def test_squares_sum_to_one(self):
        rng = np.random.default_rng(83)
        fact = HilbertFactorization((("a", 3), ("b", 2), ("c", 2)))
        psi = random_state(rng, fact)
        sv = schmidt_coefficients(psi, Bipartition(("a", "c")))
        assert np.sum(sv**2) == pytest.approx(1.0, abs=1e-12)

    def test_squares_equal_marginal_spectrum(self):
        rng = np.random.default_rng(89)
        fact = HilbertFactorization((("a", 3), ("b", 4)))
        psi = random_state(rng, fact)
        sv = schmidt_coefficients(psi, Bipartition(("a",)))
        marginal = traced_oracle(psi, "abAb->aA")
        eigs = np.sort(np.linalg.eigvalsh(marginal))[::-1]
        assert np.max(np.abs(np.sort(sv**2)[::-1] - eigs)) <= 1e-10


class TestEntropy:
    def test_pure_state_zero(self):
        psi = bell_pair()
        amp = psi.amplitudes
        assert abs(von_neumann_entropy(np.outer(amp, amp.conj()))) <= 1e-12

    def test_maximally_mixed_qubit(self):
        assert von_neumann_entropy(np.eye(2) / 2) == pytest.approx(LN2, abs=1e-12)

    def test_shared_excitation_marginal(self):
        fact = HilbertFactorization((("m1", 2), ("m2", 2)))
        amp = np.zeros(4, dtype=complex)
        amp[1] = amp[2] = 1.0 / math.sqrt(2.0)
        psi = StateVector(amp, fact)
        assert marginal_entropy(psi, Bipartition(("m1",))) == pytest.approx(
            LN2, abs=1e-12
        )

    def test_marginals_agree_for_pure_states(self):
        rng = np.random.default_rng(97)
        fact = HilbertFactorization((("a", 3), ("b", 5)))
        psi = random_state(rng, fact)
        left = marginal_entropy(psi, Bipartition(("a",)))
        right = marginal_entropy(psi, Bipartition(("b",)))
        assert left == pytest.approx(right, abs=1e-10)

    @pytest.mark.parametrize("bad", [np.diag([1.2, -0.2]), with_bad_member(-2e-10)])
    def test_rejects_genuine_negativity(self, bad):
        with pytest.raises(ValidationError, match="negative eigenvalue"):
            von_neumann_entropy(bad)

    def test_clamps_roundoff_negativity_in_a_stack(self):
        values = von_neumann_entropy(with_bad_member(-5e-11))
        assert abs(values[2]) <= 1e-9


class TestConcurrence:
    def test_bell_projector(self):
        bell = np.zeros(4, dtype=complex)
        bell[1] = bell[2] = 1.0 / math.sqrt(2.0)
        assert concurrence(np.outer(bell, bell.conj())) == pytest.approx(
            1.0, abs=1e-10
        )

    def test_product_state_zero(self):
        rho = np.zeros((4, 4), dtype=complex)
        rho[3, 3] = 1.0
        assert concurrence(rho) == 0.0

    @pytest.mark.parametrize("t", (0.0, 0.4, math.pi / 8, math.pi / 4, 1.2, math.pi / 2))
    def test_irreducible_dynamics_concurrence_is_sin_squared(self, t):
        value = concurrence(dyn.rho_atoms_irreducible(t))
        assert value == pytest.approx(math.sin(t) ** 2, abs=1e-8)

    def test_invariant_under_local_unitaries(self):
        rng = np.random.default_rng(103)

        def local_unitary():
            m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            q, r = np.linalg.qr(m)
            return q * (np.diag(r) / np.abs(np.diag(r)))

        rho = dyn.rho_atoms_irreducible(0.7)
        base = concurrence(rho)
        for _ in range(5):
            u = kron(local_unitary(), local_unitary())
            rotated = u @ rho @ u.conj().T
            assert concurrence(rotated) == pytest.approx(base, abs=1e-9)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValidationError, match="4x4"):
            concurrence(np.eye(2) / 2)

    @pytest.mark.parametrize("bad", [with_bad_member(-2e-10)[2], with_bad_member(-2e-10)])
    def test_rejects_genuine_negativity(self, bad):
        with pytest.raises(ValidationError, match="negative eigenvalue"):
            concurrence(bad)


class TestTraceDistance:
    def test_identical_states(self):
        rho = dyn.rho_atoms_irreducible(0.3)
        assert trace_distance(rho, rho) == 0.0

    def test_orthogonal_pure_states(self):
        a = np.zeros((2, 2), dtype=complex)
        a[0, 0] = 1.0
        b = np.zeros((2, 2), dtype=complex)
        b[1, 1] = 1.0
        assert trace_distance(a, b) == pytest.approx(1.0, abs=1e-14)

    def test_metric_properties(self):
        rng = np.random.default_rng(107)
        rhos = [random_density(rng, 4) for _ in range(3)]
        d01 = trace_distance(rhos[0], rhos[1])
        d10 = trace_distance(rhos[1], rhos[0])
        assert d01 == d10
        d02 = trace_distance(rhos[0], rhos[2])
        d12 = trace_distance(rhos[1], rhos[2])
        assert d02 <= d01 + d12 + 1e-12

    @pytest.mark.parametrize("shapes", [
        ((2, 2), (3, 3)),
        ((5, 4, 4), (4, 4, 4)),
        ((5, 4, 4), (4, 4)),
        ((2, 5, 4, 4), (5, 4, 4)),
    ])
    def test_dimension_mismatch(self, shapes):
        a, b = (np.broadcast_to(np.eye(s[-1]) / s[-1], s) for s in shapes)
        with pytest.raises(ValidationError, match="mismatch"):
            trace_distance(a, b)

    def test_finite_ensemble_distance_decreases(self):
        limit = dyn.rho_atoms_limit(math.pi / 2, 0.25, 0.25, 0.25)
        d100 = trace_distance(
            dyn.rho_atoms_reducible(math.pi / 2, 100, 0.25, 0.25, 0.25), limit
        )
        d1000 = trace_distance(
            dyn.rho_atoms_reducible(math.pi / 2, 1000, 0.25, 0.25, 0.25), limit
        )
        assert 0.0 < d1000 < d100


class TestOperatorSchmidt:
    def test_product_operator_rank_one(self):
        rng = np.random.default_rng(109)
        u1 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        u2 = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        fact = HilbertFactorization((("a", 2), ("b", 3)))
        sv = operator_schmidt_coefficients(kron(u1, u2), fact, Bipartition(("a",)))
        assert sv[0] == pytest.approx(1.0, abs=1e-12)
        assert sv[1] <= 1e-12

    def test_coupled_propagator_not_product(self):
        rep = build_berezin(2, 1)
        h = dyn.jc_hamiltonian(rep, [("f1", 0), ("f2", 1)])
        fact = dyn.coupled_factorization(rep)
        u = expm_generator(h, math.pi / 2)
        for keep in (("atom1",), ("atom1", "field")):
            sv = operator_schmidt_coefficients(u, fact, Bipartition(keep))
            assert sv[1] >= 1e-2

    def test_infinity_propagator_product_across_local_split(self):
        # with factors reordered so each atom sits with its own mode, the
        # two-oscillator propagator is exactly a product
        rep = build_infinity_two_mode(1)
        h = dyn.jc_hamiltonian(rep, [("mode1", 0), ("mode2", 1)])
        u = expm_generator(h, 0.9)
        u_perm = matricize(u, (2, 2, 2, 2) * 2, (0, 2, 1, 3), (4, 6, 5, 7))
        fact = HilbertFactorization(
            (("atom1", 2), ("mode1", 2), ("atom2", 2), ("mode2", 2))
        )
        sv = operator_schmidt_coefficients(
            u_perm, fact, Bipartition(("atom1", "mode1"))
        )
        assert sv[1] <= 1e-12
