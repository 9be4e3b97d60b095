import math

import numpy as np
import pytest

from ccrlab.exceptions import ValidationError
from ccrlab.linalg import (
    HilbertFactorization,
    StateVector,
    embed_operator,
    expm_generator,
    hermitian_eig,
    kron,
    matricize,
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
        "complex", "real", "identity", "one_by_one", "rectangular",
        "vectors", "real_vectors", "mixed_vectors"])
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
            "vectors": [cplx(3), cplx(2), cplx(4)],
            "real_vectors": [rng.normal(size=3), np.ones(2), rng.normal(size=1)],
            "mixed_vectors": [rng.normal(size=2), cplx(3), np.arange(4.0)],
        }[kind]
        expected = factors[0]
        for f in factors[1:]:
            expected = np.kron(expected, f)
        out = kron(*factors)
        assert out.dtype == (np.float64 if kind.startswith("real") else np.complex128)
        assert out.dtype == expected.dtype and out.shape == expected.shape
        assert np.array_equal(out, expected)
        assert out.tobytes() == expected.tobytes()

    def test_result_has_the_common_dtype_of_the_factors(self):
        real, cplx = np.arange(4.0).reshape(2, 2), np.eye(2) * (1 + 2j)
        assert kron(real, real).dtype == np.float64
        assert kron(real, np.eye(3, dtype=int), np.ones((1, 1), dtype=bool)).dtype == np.float64
        assert kron(real, cplx).dtype == kron(cplx, real).dtype == np.complex128
        assert embed_operator(real, (3, 2, 4), 1).dtype == np.float64
        assert embed_operator(cplx, (3, 2, 4), 1).dtype == np.complex128

    @pytest.mark.parametrize("dims, slot", [((3, 2, 4), 1), ((5,), 0), ((2, 3), 0), ((1, 4), 1)])
    def test_embedded_diagonal_is_the_diagonal_of_the_dense_embedding(self, dims, slot):
        rng = np.random.default_rng(23)
        diag = rng.normal(size=dims[slot])
        out = embed_operator(diag, dims, slot)
        assert out.dtype == np.float64 and out.shape == (int(np.prod(dims)),)
        dense = np.diagonal(embed_operator(np.diag(diag), dims, slot))
        assert out.tobytes() == dense.tobytes()
        assert embed_operator(diag * 1j, dims, slot).dtype == np.complex128

    def test_embed_operator_validates_a_diagonal(self):
        with pytest.raises(ValidationError, match="does not match factor dimension 2"):
            embed_operator(np.ones(3), (3, 2), 1)
        with pytest.raises(ValidationError, match="embedded operator contains non-finite"):
            embed_operator(np.array([1.0, np.nan]), (2, 2), 0)

    def test_validates_factors(self):
        # the first factor's number of axes sets the others': a vector and a
        # matrix do not mix
        with pytest.raises(ValidationError, match="kron factor 1 must be 2-D, got ndim=1"):
            kron(np.eye(2), np.ones(3))
        with pytest.raises(ValidationError, match="kron factor 1 must be 1-D, got ndim=2"):
            kron(np.ones(3), np.eye(2))
        with pytest.raises(ValidationError, match="kron factor 2 must be 2-D, got ndim=1"):
            kron(np.eye(2), np.eye(3), np.ones(2))
        with pytest.raises(ValidationError, match="kron factor 0 must be 2-D, got ndim=3"):
            kron(np.ones((2, 2, 2)), np.eye(2))
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


class TestStateVector:
    def test_dimension_must_match(self):
        fact = HilbertFactorization((("a", 2), ("b", 2)))
        with pytest.raises(ValidationError, match="factorization dimension"):
            StateVector(np.ones(3), fact)
        with pytest.raises(ValidationError, match="factorization dimension"):
            StateVector(np.ones((4, 3)), fact)

    def test_normalized(self):
        fact = HilbertFactorization((("a", 4),))
        psi = StateVector(np.array([3.0, 0.0, 4.0, 0.0]), fact).normalized()
        assert psi.norm == pytest.approx(1.0, abs=1e-15)

    def test_amplitudes_read_only(self):
        fact = HilbertFactorization((("a", 2),))
        psi = StateVector(np.array([1.0, 0.0]), fact)
        with pytest.raises(ValueError):
            psi.amplitudes[0] = 5.0

    @pytest.mark.parametrize("shape", [(), (2, 3, 4)])
    def test_rejects_zero_and_three_dimensional_amplitudes(self, shape):
        fact = HilbertFactorization((("a", 4),))
        with pytest.raises(ValidationError, match=r"\(dim,\) or \(T, dim\)"):
            StateVector(np.ones(shape), fact)

    def test_stack_norms_are_per_state(self):
        rng = np.random.default_rng(35)
        fact = HilbertFactorization((("a", 2), ("b", 3)))
        amps = rng.normal(size=(5, 6)) + 1j * rng.normal(size=(5, 6))
        psi = StateVector(amps, fact)
        assert psi.dim == 6
        assert np.array_equal(psi.norm, [np.linalg.norm(a) for a in amps])
        unit = psi.normalized()
        assert unit.amplitudes.shape == (5, 6)
        for a, u in zip(amps, unit.amplitudes):
            assert np.array_equal(u, StateVector(a, fact).normalized().amplitudes)

    def test_normalizing_a_stack_with_a_zero_member_raises(self):
        fact = HilbertFactorization((("a", 2),))
        psi = StateVector(np.array([[1.0, 0.0], [0.0, 0.0]]), fact)
        assert np.array_equal(psi.norm, [1.0, 0.0])
        with pytest.raises(ValidationError, match="zero vector"):
            psi.normalized()

    def test_empty_stack(self):
        fact = HilbertFactorization((("a", 3),))
        psi = StateVector(np.zeros((0, 3)), fact)
        assert psi.norm.shape == (0,)
        assert psi.normalized().amplitudes.shape == (0, 3)


class TestMatricize:
    def test_matrix_swap_matches_kron_swap(self):
        rng = np.random.default_rng(31)
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        swapped = matricize(np.kron(a, b), (2, 3, 2, 3), (1, 0), (3, 2))
        assert np.max(np.abs(swapped - np.kron(b, a))) <= 1e-14

    def test_vector_cut_matches_transpose(self):
        rng = np.random.default_rng(33)
        vec = rng.normal(size=24) + 1j * rng.normal(size=24)
        mat = matricize(vec, (2, 3, 4), (2, 0), (1,))
        expected = vec.reshape(2, 3, 4).transpose(2, 0, 1).reshape(8, 3)
        assert np.array_equal(mat, expected)

    def test_empty_column_side_is_one_column(self):
        vec = np.arange(6.0)
        assert matricize(vec, (2, 3), (0, 1), ()).shape == (6, 1)

    def test_rejects_bad_permutation(self):
        with pytest.raises(ValidationError, match="permutation"):
            matricize(np.eye(4), (2, 2, 2, 2), (0, 0), (2, 3))
        with pytest.raises(ValidationError, match="permutation"):
            matricize(np.eye(4), (2, 2, 2, 2), (0, 1), (2,))
