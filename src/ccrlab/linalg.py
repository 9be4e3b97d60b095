"""Dense complex linear algebra for operator and state manipulation.

Everything here is deterministic and pure: Hermitian eigendecomposition,
matrix functions of positive-semidefinite operators, Kronecker products,
the spectral matrix exponential used as the dynamics oracle, and the
bookkeeping types that pin a vector to an explicit tensor factorization.

All matrices are plain ``numpy.ndarray`` with ``complex128`` entries; the
module stays dense on purpose. Field spaces are capped at dimension 4096
by the reducible builder's ceiling. The brute-force route assembles the
coupling Hamiltonian directly on the excitation sectors of its initial
state (see :func:`ccrlab.dynamics.jc_hamiltonian`), so its largest
matrices are the field operators, and its largest diagonalization is
that sector block (see :func:`ccrlab.dynamics.evolve`), not the whole
coupled space. The closed-form propagator takes no matrix function: it
is one SVD of the coupling (see :func:`ccrlab.dynamics.closed_form_evolution`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Callable, Sequence

import numpy as np

from .exceptions import ValidationError

#: Hermiticity tolerance: max |M - M^dag| entry allowed before rejection.
TOL_HERM = 1e-12
#: Positivity tolerance: eigenvalues above -TOL_PSD are clamped to zero.
TOL_PSD = 1e-10


def as_complex_matrix(m, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite 2-D complex array, rejecting NaN/Inf entries."""
    arr = np.asarray(m, dtype=complex)
    if arr.ndim != 2:
        raise ValidationError(f"{name} must be 2-D, got ndim={arr.ndim}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains non-finite entries")
    return arr


def require_square(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    arr = as_complex_matrix(m, name)
    rows, cols = arr.shape
    if rows != cols:
        raise ValidationError(f"{name} must be square, got shape {rows}x{cols}")
    return arr


def require_hermitian(m) -> np.ndarray:
    """Validate a square matrix against ``max|M - M^dag| <= TOL_HERM``."""
    arr = require_square(m)
    dev = float(np.max(np.abs(arr - arr.conj().T))) if arr.size else 0.0
    if dev > TOL_HERM:
        raise ValidationError(
            f"matrix is not Hermitian: max |M - M^dag| = {dev:.3e} > {TOL_HERM:.1e}"
        )
    return arr


@dataclass(frozen=True)
class HilbertFactorization:
    """Ordered tensor factors, each a ``(label, dimension)`` pair.

    The factorization is the declared subsystem structure of a state or
    operator; partial traces, Schmidt cuts and factor permutations are all
    phrased in terms of its labels.
    """

    factors: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        factors = tuple((str(lab), int(dim)) for lab, dim in self.factors)
        object.__setattr__(self, "factors", factors)
        labels = [lab for lab, _ in factors]
        if len(set(labels)) != len(labels):
            raise ValidationError(f"factor labels must be unique, got {labels}")
        if any(dim < 1 for _, dim in factors):
            raise ValidationError("factor dimensions must be >= 1")

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(lab for lab, _ in self.factors)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(dim for _, dim in self.factors)

    @property
    def dim(self) -> int:
        """Total dimension, the product of all factor dimensions."""
        return int(np.prod(self.dims, dtype=np.int64)) if self.factors else 1

    def index(self, label: str) -> int:
        """Position of ``label`` in the factor ordering."""
        try:
            return self.labels.index(label)
        except ValueError:
            raise ValidationError(
                f"unknown factor label {label!r}; have {self.labels}"
            ) from None

    def subset(self, labels: Sequence[str]) -> "HilbertFactorization":
        """Sub-factorization of ``labels`` in the original order."""
        wanted = set(labels)
        for lab in labels:
            self.index(lab)
        return HilbertFactorization(
            tuple(f for f in self.factors if f[0] in wanted)
        )

    def joined_with(self, other: "HilbertFactorization") -> "HilbertFactorization":
        return HilbertFactorization(self.factors + other.factors)


@dataclass(frozen=True)
class StateVector:
    """A complex vector together with its declared tensor factorization.

    The amplitudes array is copied and marked read-only on construction,
    so instances are safe to share across threads.
    """

    amplitudes: np.ndarray
    factorization: HilbertFactorization

    def __post_init__(self) -> None:
        amp = np.array(self.amplitudes, dtype=complex).reshape(-1)
        if not np.all(np.isfinite(amp)):
            raise ValidationError("state amplitudes contain non-finite entries")
        if amp.size != self.factorization.dim:
            raise ValidationError(
                f"state has {amp.size} amplitudes but factorization dimension "
                f"is {self.factorization.dim}"
            )
        amp.setflags(write=False)
        object.__setattr__(self, "amplitudes", amp)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def normalized(self) -> "StateVector":
        n = self.norm
        if n == 0.0:
            raise ValidationError("cannot normalize the zero vector")
        return StateVector(self.amplitudes / n, self.factorization)

def hermitian_eig(m) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(w, v)`` with eigenvalues ``w`` real ascending and ``v``
    unitary, such that ``m = v @ diag(w) @ v.conj().T`` reconstructs to
    within 1e-10 in max-entry norm.
    """
    arr = require_hermitian(m)
    w, v = np.linalg.eigh(arr)
    return w, v


def matrix_function_psd(m, f: Callable[[float], float]) -> np.ndarray:
    """Apply a scalar function to a positive-semidefinite Hermitian matrix.

    Eigenvalues in ``[-TOL_PSD, 0)`` are roundoff from constructions such
    as ``A @ A.conj().T`` and are clamped to zero before ``f`` is applied;
    anything more negative raises.
    """
    w, v = hermitian_eig(m)
    if w.size and w[0] < -TOL_PSD:
        raise ValidationError(
            f"matrix is not positive semidefinite: min eigenvalue "
            f"{w[0]:.3e} < -{TOL_PSD:.1e}"
        )
    w = np.clip(w, 0.0, None)
    fw = np.array([f(float(x)) for x in w], dtype=complex)
    return (v * fw) @ v.conj().T


def _kron_pair(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.kron`` of two matrices as one broadcast multiply (same bits, less overhead)."""
    product = a[:, None, :, None] * b[None, :, None, :]
    return product.reshape(a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])


def kron(*factors) -> np.ndarray:
    """Kronecker product of one or more matrices, grouped left to right."""
    if not factors:
        raise ValidationError("kron requires at least one factor")
    mats = [as_complex_matrix(f, f"kron factor {i}") for i, f in enumerate(factors)]
    return reduce(_kron_pair, mats)


def embed_operator(op, dims: Sequence[int], slot: int) -> np.ndarray:
    """Place ``op`` at position ``slot`` of a tensor product, identity elsewhere."""
    arr = require_square(op, "embedded operator")
    if not 0 <= slot < len(dims):
        raise ValidationError(f"slot {slot} out of range for {len(dims)} factors")
    if arr.shape[0] != dims[slot]:
        raise ValidationError(
            f"operator dimension {arr.shape[0]} does not match factor "
            f"dimension {dims[slot]} at slot {slot}"
        )
    parts = [np.eye(d, dtype=complex) for d in dims]
    parts[slot] = arr
    return kron(*parts)


def time_grid(t) -> np.ndarray:
    """``t`` as floats; anything but a scalar or a 1-D grid is a ValidationError."""
    times = np.asarray(t, dtype=float)
    if times.ndim > 1:
        raise ValidationError(f"t must be a scalar or a 1-D array, got shape {times.shape}")
    return times


def expm_generator(h, t: float | np.ndarray) -> np.ndarray:
    """Unitary ``exp(-i h t)`` of a Hermitian generator, via its spectrum.

    This is the oracle every closed-form propagator in the package is
    checked against. ``t`` is a scalar (returns a d x d matrix) or a 1-D
    array of T times (returns a (T, d, d) stack); ``h`` is diagonalized
    once for all times.
    """
    times = time_grid(t)
    w, v = hermitian_eig(h)
    phases = np.exp(-1j * np.multiply.outer(times, w))
    return (v * phases[..., None, :]) @ v.conj().T


def reorder_matrix_factors(
    m: np.ndarray, dims: Sequence[int], order: Sequence[int]
) -> np.ndarray:
    """Permute tensor factors of an operator on both row and column indices."""
    dims = tuple(int(d) for d in dims)
    order = tuple(int(i) for i in order)
    if sorted(order) != list(range(len(dims))):
        raise ValidationError(f"order {order} is not a permutation of {len(dims)} factors")
    n = len(dims)
    total = int(np.prod(dims, dtype=np.int64))
    arr = require_square(m, "matrix")
    if arr.shape[0] != total:
        raise ValidationError(
            f"matrix dimension {arr.shape[0]} does not match factor dims {dims}"
        )
    tensor = arr.reshape(dims + dims)
    perm = order + tuple(n + i for i in order)
    return tensor.transpose(perm).reshape(total, total)
