import math

import numpy as np
import pytest

from ccrlab.exceptions import ValidationError
from ccrlab.linalg import (
    HilbertFactorization,
    StateVector,
    expm_generator,
    hermitian_eig,
    kron,
    matrix_function_psd,
    matrix_functions_psd,
    reorder_matrix_factors,
    sinc_scaled,
)


def random_hermitian(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (m + m.conj().T) / 2


class TestHermitianEig:
    def test_diagonal_input(self):
        w, v = hermitian_eig(np.diag([2.0, 0.0, 1.0]))
        assert np.allclose(w, [0.0, 1.0, 2.0])
        # eigenvectors of a diagonal matrix form a permutation (up to phase)
        assert np.allclose(np.abs(v), np.eye(3)[:, [1, 2, 0]])

    def test_identity(self):
        w, _ = hermitian_eig(np.eye(3))
        assert np.allclose(w, [1.0, 1.0, 1.0])

    def test_reconstruction_residual(self):
        rng = np.random.default_rng(101)
        m = random_hermitian(rng, 8)
        w, v = hermitian_eig(m)
        assert np.max(np.abs(m - (v * w) @ v.conj().T)) <= 1e-10
        assert np.max(np.abs(v.conj().T @ v - np.eye(8))) <= 1e-10

    def test_rejects_non_square(self):
        with pytest.raises(ValidationError, match="square"):
            hermitian_eig(np.zeros((2, 3)))

    def test_rejects_non_hermitian_with_magnitude(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValidationError) as err:
            hermitian_eig(m)
        # the message names the check and the measured deviation
        assert "Hermitian" in str(err.value)
        assert "1.000e+00" in str(err.value)

    def test_rejects_nan(self):
        with pytest.raises(ValidationError, match="finite"):
            hermitian_eig(np.array([[np.nan, 0.0], [0.0, 1.0]]))


class TestMatrixFunctionPsd:
    def test_diagonal_evaluation(self):
        out = matrix_function_psd(
            np.diag([0.0, 4.0]), lambda x: math.cos(math.pi / 2 * math.sqrt(x))
        )
        assert np.allclose(out, np.diag([1.0, -1.0]), atol=1e-14)

    def test_constant_function_gives_identity(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(4, 4))
        out = matrix_function_psd(a @ a.T, lambda x: 1.0)
        assert np.allclose(out, np.eye(4), atol=1e-12)

    def test_identity_function_oracle(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(4, 6)) + 1j * rng.normal(size=(4, 6))
        psd = a @ a.conj().T
        assert np.max(np.abs(matrix_function_psd(psd, lambda x: x) - psd)) <= 1e-10

    def test_composition_property(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        psd = a @ a.conj().T
        chained = matrix_function_psd(matrix_function_psd(psd, math.sqrt), math.cos)
        direct = matrix_function_psd(psd, lambda x: math.cos(math.sqrt(x)))
        assert np.max(np.abs(chained - direct)) <= 1e-9

    def test_rejects_indefinite(self):
        with pytest.raises(ValidationError, match="positive semidefinite"):
            matrix_function_psd(np.diag([1.0, -0.5]), math.sqrt)

    def test_clamps_roundoff_negativity(self):
        out = matrix_function_psd(np.diag([-1e-12, 1.0]), math.sqrt)
        assert np.allclose(out, np.diag([0.0, 1.0]), atol=1e-12)

    def test_several_functions_equal_single_calls(self):
        rng = np.random.default_rng(13)
        a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        psd = a @ a.conj().T
        fs = (math.sqrt, lambda x: math.cos(math.sqrt(x)), lambda x: 1.0)
        outs = matrix_functions_psd(psd, fs)
        assert len(outs) == len(fs)
        for f, out in zip(fs, outs):
            assert np.array_equal(out, matrix_function_psd(psd, f))

    def test_several_functions_reject_indefinite(self):
        with pytest.raises(ValidationError, match="positive semidefinite"):
            matrix_functions_psd(np.diag([1.0, -0.5]), (math.sqrt, math.cos))


class TestSincScaled:
    def test_removable_singularity(self):
        assert sinc_scaled(0.0, 0.0) == 1.0
        assert sinc_scaled(0.0, 3.7) == 1.0

    def test_sine_zero(self):
        assert abs(sinc_scaled(1.0, math.pi)) <= 1e-15

    def test_direct_value(self):
        # sin(0.5)/0.5, frozen from scalar evaluation
        assert sinc_scaled(0.25, 1.0) == pytest.approx(0.958851077208406, abs=1e-15)

    def test_branch_crossover_agreement(self):
        # straddle the series threshold |t sqrt(x)| = 1e-4
        for u in (0.99e-4, 1.01e-4):
            direct = math.sin(u) / u
            assert sinc_scaled(u * u, 1.0) == pytest.approx(direct, abs=1e-14)

    def test_domain_error(self):
        with pytest.raises(ValidationError):
            sinc_scaled(-0.1, 1.0)


class TestKron:
    def test_identities(self):
        assert np.array_equal(kron(np.eye(2), np.eye(3)), np.eye(6))

    def test_projector_block_structure(self):
        rng = np.random.default_rng(3)
        m = rng.normal(size=(3, 3))
        proj = np.zeros((2, 2))
        proj[0, 0] = 1.0
        out = kron(proj, m)
        assert np.allclose(out[:3, :3], m)
        assert np.allclose(out[3:, :], 0.0)
        assert np.allclose(out[:, 3:], 0.0)

    def test_associativity(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            a, b, c = (
                rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
                for _ in range(3)
            )
            left = kron(kron(a, b), c)
            right = kron(a, kron(b, c))
            assert np.max(np.abs(left - right)) <= 1e-12

    def test_preserves_unitarity(self):
        rng = np.random.default_rng(17)
        qs = []
        for dim in (3, 4):
            m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            q, r = np.linalg.qr(m)
            qs.append(q * (np.diag(r) / np.abs(np.diag(r))))
        u = kron(*qs)
        assert np.max(np.abs(u @ u.conj().T - np.eye(12))) <= 1e-10

    @pytest.mark.parametrize("kind", [
        "complex", "real", "identity", "one_by_one", "rectangular"])
    def test_bitwise_equal_to_np_kron(self, kind):
        rng = np.random.default_rng(19)

        def cplx(*shape):
            return rng.normal(size=shape) + 1j * rng.normal(size=shape)

        factors = {
            "complex": [cplx(3, 3), cplx(2, 2), cplx(4, 4)],
            "real": [rng.normal(size=(3, 3)), rng.normal(size=(2, 2))],
            "identity": [np.eye(4), cplx(3, 3), np.eye(2)],
            "one_by_one": [np.array([[2.5 - 1.0j]]), cplx(3, 3), np.zeros((1, 1))],
            "rectangular": [cplx(2, 5), rng.normal(size=(3, 1)), cplx(1, 4)],
        }[kind]
        expected = np.asarray(factors[0], dtype=complex)
        for f in factors[1:]:
            expected = np.kron(expected, np.asarray(f, dtype=complex))
        out = kron(*factors)
        assert out.dtype == np.complex128 and out.shape == expected.shape
        assert np.array_equal(out, expected)
        assert out.tobytes() == expected.tobytes()

    def test_validates_factors(self):
        with pytest.raises(ValidationError, match="kron factor 1 must be 2-D"):
            kron(np.eye(2), np.ones(3))
        with pytest.raises(ValidationError, match="kron factor 0 contains non-finite"):
            kron(np.array([[np.inf]]), np.eye(2))
        with pytest.raises(ValidationError, match="at least one factor"):
            kron()


class TestExpmGenerator:
    def test_zero_generator(self):
        assert np.allclose(expm_generator(np.zeros((3, 3)), 2.5), np.eye(3))

    def test_diagonal_phases(self):
        out = expm_generator(np.diag([1.0, -1.0]), math.pi)
        assert np.allclose(out, -np.eye(2), atol=1e-14)

    def test_unitarity(self):
        rng = np.random.default_rng(23)
        h = random_hermitian(rng, 6)
        u = expm_generator(h, 0.7)
        assert np.max(np.abs(u @ u.conj().T - np.eye(6))) <= 1e-10

    def test_group_property(self):
        rng = np.random.default_rng(29)
        h = random_hermitian(rng, 5)
        lhs = expm_generator(h, 1.3)
        rhs = expm_generator(h, 0.9) @ expm_generator(h, 0.4)
        assert np.max(np.abs(lhs - rhs)) <= 1e-10

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidationError, match="Hermitian"):
            expm_generator(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)

    def test_array_times_match_scalar_times(self):
        rng = np.random.default_rng(31)
        h = random_hermitian(rng, 7)
        times = np.array([0.0, 0.4, math.pi / 2, 2.9])
        stacked = expm_generator(h, times)
        assert stacked.shape == (times.size, 7, 7)
        for t, u in zip(times, stacked):
            single = expm_generator(h, t)
            assert single.shape == (7, 7)
            assert np.max(np.abs(u - single)) <= 1e-14

    def test_rejects_two_dimensional_times(self):
        with pytest.raises(ValidationError, match="1-D"):
            expm_generator(np.eye(2), np.zeros((2, 2)))


class TestFactorization:
    def test_dimension_is_product(self):
        fact = HilbertFactorization((("a", 2), ("b", 3), ("c", 4)))
        assert fact.dim == 24
        assert fact.labels == ("a", "b", "c")

    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValidationError, match="unique"):
            HilbertFactorization((("a", 2), ("a", 3)))

    def test_rejects_zero_dim(self):
        with pytest.raises(ValidationError):
            HilbertFactorization((("a", 0),))

    def test_subset_preserves_order(self):
        fact = HilbertFactorization((("a", 2), ("b", 3), ("c", 4)))
        assert fact.subset(["c", "a"]).labels == ("a", "c")


class TestStateVector:
    def test_dimension_must_match(self):
        fact = HilbertFactorization((("a", 2), ("b", 2)))
        with pytest.raises(ValidationError, match="factorization dimension"):
            StateVector(np.ones(3), fact)

    def test_normalized(self):
        fact = HilbertFactorization((("a", 4),))
        psi = StateVector(np.array([3.0, 0.0, 4.0, 0.0]), fact).normalized()
        assert psi.norm == pytest.approx(1.0, abs=1e-15)

    def test_amplitudes_read_only(self):
        fact = HilbertFactorization((("a", 2),))
        psi = StateVector(np.array([1.0, 0.0]), fact)
        with pytest.raises(ValueError):
            psi.amplitudes[0] = 5.0


class TestReorderFactors:
    def test_matrix_swap_matches_kron_swap(self):
        rng = np.random.default_rng(31)
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        swapped = reorder_matrix_factors(np.kron(a, b), (2, 3), (1, 0))
        assert np.max(np.abs(swapped - np.kron(b, a))) <= 1e-14

    def test_rejects_bad_permutation(self):
        with pytest.raises(ValidationError, match="permutation"):
            reorder_matrix_factors(np.eye(4), (2, 2), (0, 0))
