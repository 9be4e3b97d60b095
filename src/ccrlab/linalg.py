"""Dense linear algebra for operator and state manipulation.

Everything here is deterministic and pure: Hermitian eigendecomposition,
Kronecker products, the spectral matrix exponential used as the dynamics
oracle, the bookkeeping types that pin a state, or a time grid's stack of
states, to an explicit tensor factorization, and :func:`matricize`, the
one regrouping of a tensor across a cut.

All arrays are plain ``numpy.ndarray``: ``float64`` where every entry is
real (the field operators a_k, I_k and N of every representation, the
vacua and the initial states, the coupling Hamiltonians) and
``complex128`` where exp(-i H t) adds a phase (propagators, evolved
states and the two-atom densities). :func:`require_square`,
:func:`kron`, :func:`embed_operator` and :class:`StateVector` keep real
input real. A diagonal operator (I_k, N) is stored as its diagonal, a
vector: :func:`kron` of vectors is the diagonal of the Kronecker product
of their diagonal matrices, and :func:`embed_operator` places a diagonal
between vectors of ones. The module stays dense on purpose. The
reducible ensemble's field space is capped at dimension 4096; the
irreducible representations cap their coupled space at 1024, so their
field dimension is at most 256, because their scenarios form whole
coupled-space Hamiltonians and propagators. The brute-force route
assembles the coupling Hamiltonian directly on the excitation sectors
that its initial state occupies, named by their total excitation
numbers (see :func:`ccrlab.dynamics.jc_hamiltonian`), so its largest
matrices are the field operators. It propagates the state on its
Krylov space, whose tridiagonal generator (2N x 2N for the N-oscillator
ensemble, 2 x 2 for the irreducible representations) is its only
diagonalization (see :func:`ccrlab.dynamics.evolve`); it forms no
propagator of the sector or of the coupled space. The closed-form
propagator takes no matrix function: it is one SVD of the coupling (see
:func:`ccrlab.dynamics.closed_form_evolution`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import Sequence

import numpy as np

from .exceptions import ValidationError

#: Hermiticity tolerance: max |M - M^dag| entry allowed before rejection.
TOL_HERM = 1e-12


def _as_array(m, name: str, ndim: int) -> np.ndarray:
    """Coerce to a finite ``ndim``-D array, rejecting NaN/Inf entries.

    Complex input becomes ``complex128`` and everything else (bool, int,
    real) ``float64``, so a real array is never widened to complex.
    """
    arr = np.asarray(m, dtype=complex if np.iscomplexobj(m) else float)
    if arr.ndim != ndim:
        raise ValidationError(f"{name} must be {ndim}-D, got ndim={arr.ndim}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains non-finite entries")
    return arr


def require_square(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    arr = _as_array(m, name, 2)
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

    def joined_with(self, other: "HilbertFactorization") -> "HilbertFactorization":
        return HilbertFactorization(self.factors + other.factors)


@dataclass(frozen=True)
class StateVector:
    """One state, or a stack of states over a time grid, with their factorization.

    ``amplitudes`` is one state of shape (dim,) or a (T, dim) stack whose
    row i is the state at t_i; ``dim`` is the factorization's either way.
    Real amplitudes are stored as ``float64``, complex ones as
    ``complex128``, the rule of :func:`require_square`. The array is
    copied and marked read-only on construction, so instances are safe to
    share across threads.
    """

    amplitudes: np.ndarray
    factorization: HilbertFactorization

    def __post_init__(self) -> None:
        amp = self.amplitudes
        amp = np.array(amp, dtype=complex if np.iscomplexobj(amp) else float)
        if amp.ndim not in (1, 2):
            raise ValidationError(
                f"state amplitudes must have shape (dim,) or (T, dim), got {amp.shape}")
        if not np.all(np.isfinite(amp)):
            raise ValidationError("state amplitudes contain non-finite entries")
        if amp.shape[-1] != self.factorization.dim:
            raise ValidationError(
                f"state has {amp.shape[-1]} amplitudes but factorization dimension "
                f"is {self.factorization.dim}"
            )
        amp.setflags(write=False)
        object.__setattr__(self, "amplitudes", amp)

    @property
    def dim(self) -> int:
        return self.factorization.dim

    @property
    def norm(self) -> float | np.ndarray:
        """The state's norm, or a stack's (T,) norms, each by its own ``np.linalg.norm``."""
        if self.amplitudes.ndim == 1:
            return float(np.linalg.norm(self.amplitudes))
        return np.array([np.linalg.norm(a) for a in self.amplitudes])

    def normalized(self) -> "StateVector":
        """Each state divided by its norm; a zero state, alone or in a stack, raises."""
        n = np.asarray(self.norm)
        if np.any(n == 0.0):
            raise ValidationError("cannot normalize the zero vector")
        return StateVector(self.amplitudes / n[..., None], self.factorization)


def hermitian_eig(m) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(w, v)`` with eigenvalues ``w`` real ascending and ``v``
    unitary, such that ``m = v @ diag(w) @ v.conj().T`` reconstructs to
    within 1e-10 in max-entry norm.
    """
    arr = require_hermitian(m)
    w, v = np.linalg.eigh(arr)
    return w, v


def _kron_pair(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.kron`` of two matrices, or of two vectors, as one broadcast multiply.

    Same bits as ``np.kron``, less overhead.
    """
    if a.ndim == 1:
        return (a[:, None] * b).reshape(-1)
    product = a[:, None, :, None] * b[None, :, None, :]
    return product.reshape(a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])


def kron(*factors) -> np.ndarray:
    """Kronecker product of one or more matrices, or of vectors, grouped left to right.

    Vectors are states or the diagonals of diagonal operators; the product
    of diagonals is the diagonal of the product. The first factor's
    number of axes sets the others', so a vector mixed with a matrix is a
    :class:`ValidationError`. The result is ``float64`` if every factor
    is real, else ``complex128``.
    """
    if not factors:
        raise ValidationError("kron requires at least one factor")
    ndim = 1 if np.ndim(factors[0]) == 1 else 2
    arrs = [_as_array(f, f"kron factor {i}", ndim) for i, f in enumerate(factors)]
    return reduce(_kron_pair, arrs)


def embed_operator(op, dims: Sequence[int], slot: int) -> np.ndarray:
    """Place ``op`` at position ``slot`` of a tensor product, identity elsewhere.

    ``op`` is a square matrix, or the diagonal of a diagonal operator as a
    vector; the identities are then ``np.ones(d)`` and the result is the
    diagonal of the embedding. The identities are real, so the result has
    the dtype of ``op``.
    """
    if np.ndim(op) == 1:
        arr, identity = _as_array(op, "embedded operator", 1), np.ones
    else:
        arr, identity = require_square(op, "embedded operator"), np.eye
    if not 0 <= slot < len(dims):
        raise ValidationError(f"slot {slot} out of range for {len(dims)} factors")
    if arr.shape[0] != dims[slot]:
        raise ValidationError(
            f"operator dimension {arr.shape[0]} does not match factor "
            f"dimension {dims[slot]} at slot {slot}"
        )
    parts = [identity(d) for d in dims]
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


def matricize(array, dims: Sequence[int], rows: Sequence[int],
              cols: Sequence[int]) -> np.ndarray:
    """Regroup a tensor across a cut into one matrix.

    ``array`` is reshaped to ``dims``; the axes ``rows`` (in that order)
    form the row index and the axes ``cols`` the column index. Every cut
    in the package is this one call: a state's Schmidt matrix, a pure
    state's partial trace, an operator's Schmidt matrix (the state cut of
    its vectorization, which puts each factor's row and column axes on the
    same side) and a factor reordering of an operator (give the reordered
    row axes, then the reordered column axes).
    """
    axes = tuple(rows) + tuple(cols)
    if sorted(axes) != list(range(len(dims))):
        raise ValidationError(f"axes {axes} are not a permutation of {len(dims)} axes")
    n_rows = math.prod(int(dims[i]) for i in rows)
    n_cols = math.prod(int(dims[i]) for i in cols)
    return np.asarray(array).reshape(dims).transpose(axes).reshape(n_rows, n_cols)
