"""Entanglement and distance measures over declared tensor factorizations.

Every measure here is relative to a bipartition of labeled factors; that
bookkeeping is the point, since the same vector can be entangled or not
depending on which factorization one declares. Scalar measures
(entropy, concurrence, trace distance) act on plain Hermitian matrices:
one matrix gives a ``float``, a (..., n, n) stack, such as the (T, 4, 4)
atom densities over a time grid, gives an array over its leading axes,
entry by entry the bits of the one-matrix call.
Reductions (partial traces, Schmidt cuts, marginal entropies) take one
pure state or a (T, dim) stack of them: a
:class:`~ccrlab.linalg.StateVector` carrying its factorization, regrouped
across the cut by :func:`~ccrlab.linalg.matricize`. A stack is reduced
in one batched call, each member's result the bits of the one-state call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import ValidationError
from .linalg import HilbertFactorization, StateVector, matricize, require_square

#: Eigenvalues above -EIG_CLAMP are treated as roundoff and clamped to 0;
#: anything more negative is rejected as a genuine positivity violation.
EIG_CLAMP = 1e-10

_SIGMA_Y_PAIR = np.array(
    [
        [0.0, 0.0, 0.0, -1.0],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0, 0.0],
    ],
    dtype=complex,
)  # sigma_y (x) sigma_y


@dataclass(frozen=True)
class Bipartition:
    """A split of a factorization into kept and discarded factors."""

    keep: tuple[str, ...]

    def __post_init__(self) -> None:
        keep = tuple(str(lab) for lab in self.keep)
        if not keep:
            raise ValidationError("bipartition must keep at least one factor")
        if len(set(keep)) != len(keep):
            raise ValidationError(f"duplicate labels in bipartition: {keep}")
        object.__setattr__(self, "keep", keep)

    def axes(self, fact: HilbertFactorization) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(kept axes, discarded axes), each in the factorization's order."""
        keep_axes = tuple(sorted(fact.index(lab) for lab in self.keep))
        drop_axes = tuple(i for i in range(len(fact.factors)) if i not in keep_axes)
        return keep_axes, drop_axes


def _cut_matrix(psi: StateVector, bipartition: Bipartition) -> np.ndarray:
    """The amplitudes as a (kept x discarded) matrix, each side in factor order.

    A (T, dim) stack gives a (T, kept, discarded) stack: its time axis
    leads the rows of the one :func:`~ccrlab.linalg.matricize` call.
    """
    fact = psi.factorization
    keep_axes, drop_axes = bipartition.axes(fact)
    stack = psi.amplitudes.shape[:-1]
    lead = len(stack)
    m = matricize(psi.amplitudes, stack + fact.dims,
                  tuple(range(lead)) + tuple(lead + i for i in keep_axes),
                  tuple(lead + i for i in drop_axes))
    return m.reshape(stack + (fact.dim // m.shape[1], m.shape[1]))


def partial_trace(psi: StateVector, bipartition: Bipartition) -> np.ndarray:
    """Density of the kept factors of a pure state, in the factorization's order.

    With M the normalized state as a (kept x discarded) matrix, the
    reduced density is M M^dag; no joint density matrix is formed. One
    state gives one complex matrix, a (T, dim) stack a (T, kept, kept)
    stack from one batched product.
    """
    m = _cut_matrix(psi.normalized(), bipartition)
    return m @ m.conj().swapaxes(-1, -2)


def schmidt_coefficients(psi: StateVector, bipartition: Bipartition) -> np.ndarray:
    """Singular values of the state reshaped across the bipartition.

    Nonincreasing; their squares sum to one for a normalized state. A
    single nonzero coefficient means a product state across the cut. A
    (T, dim) stack gives one row of coefficients per state.
    """
    return np.linalg.svd(_cut_matrix(psi, bipartition), compute_uv=False)


def operator_schmidt_coefficients(
    op, fact: HilbertFactorization, bipartition: Bipartition
) -> np.ndarray:
    """Schmidt spectrum of an operator across a factor bipartition.

    The operator is vectorized per factor group and decomposed by SVD; the
    returned coefficients are normalized to unit Euclidean length, so a
    single nonzero entry certifies ``op = op_keep (x) op_rest``.
    """
    arr = require_square(op, "operator")
    if arr.shape[0] != fact.dim:
        raise ValidationError(
            f"operator dimension {arr.shape[0]} does not match factorization "
            f"dimension {fact.dim}"
        )
    n = len(fact.dims)
    keep_axes, drop_axes = bipartition.axes(fact)
    mat = matricize(
        arr, fact.dims + fact.dims,
        keep_axes + tuple(n + i for i in keep_axes),
        drop_axes + tuple(n + i for i in drop_axes),
    )
    sv = np.linalg.svd(mat, compute_uv=False)
    total = float(np.linalg.norm(sv))
    if total == 0.0:
        raise ValidationError("operator Schmidt spectrum of the zero operator")
    return sv / total


def _density_array(rho) -> np.ndarray:
    """One matrix, or a (..., n, n) stack of them, as a finite complex array."""
    arr = np.asarray(rho, dtype=complex)
    if arr.ndim <= 2:
        return require_square(arr, "density matrix")
    if arr.shape[-1] != arr.shape[-2]:
        raise ValidationError(f"density matrix stack must hold square matrices, "
                              f"got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError("density matrix stack contains non-finite entries")
    return arr


def _float_or_array(values: np.ndarray) -> float | np.ndarray:
    """A 0-d result as a ``float``, a stack's results as they are."""
    return float(values) if values.ndim == 0 else values


def _clamped_spectrum(m: np.ndarray) -> np.ndarray:
    w = np.linalg.eigvalsh(m)
    lowest = np.min(w, initial=0.0)
    if lowest < -EIG_CLAMP:
        raise ValidationError(
            f"matrix has negative eigenvalue {lowest:.3e} beyond the "
            f"{EIG_CLAMP:.1e} roundoff clamp"
        )
    return np.clip(w, 0.0, None)


def _entropy(p: np.ndarray) -> float | np.ndarray:
    """-sum p ln p in nats over the last axis, with 0 ln 0 = 0."""
    logs = np.log(p, out=np.zeros_like(p), where=p > 0.0)
    return _float_or_array(-np.sum(p * logs, axis=-1) + 0.0)


def von_neumann_entropy(rho) -> float | np.ndarray:
    """Entropy -sum p ln p in nats, with 0 ln 0 = 0.

    Eigenvalues within the roundoff clamp of zero are set to zero first;
    larger negativity, in any member of a stack, raises. One matrix gives
    a ``float``, a (..., n, n) stack an array over its leading axes.
    """
    return _entropy(_clamped_spectrum(_density_array(rho)))


def concurrence(rho) -> float | np.ndarray:
    """Wootters two-qubit concurrence of a 4x4 density matrix, in [0, 1].

    With rho factored as L L^dag over its genuine eigenvalues, the
    Wootters lambdas are the singular values of L^T (sy (x) sy) L. The
    SVD resolves near-zero lambdas to machine precision, where routes
    through sqrt(rho) or the spectrum of rho rho~ lose half the digits.
    One matrix gives a ``float``; a (..., 4, 4) stack gives an array over
    its leading axes, and each check applies to every member.
    """
    m = _density_array(rho)
    if m.shape[-2:] != (4, 4):
        raise ValidationError(f"concurrence needs a 4x4 matrix, got {m.shape}")
    m_dag = m.conj().swapaxes(-1, -2)
    herm = float(np.max(np.abs(m - m_dag), initial=0.0))
    if herm > 1e-10:
        raise ValidationError(f"concurrence input not Hermitian: {herm:.3e}")
    tr = np.trace(m, axis1=-2, axis2=-1)
    if np.any(np.abs(tr - 1.0) > 1e-8):
        raise ValidationError(f"concurrence input trace is {tr!r}")
    w, v = np.linalg.eigh(((m + m_dag) / 2.0).reshape(-1, 4, 4))
    lowest = np.min(w, initial=0.0)
    if lowest < -EIG_CLAMP:
        raise ValidationError(
            f"concurrence input has negative eigenvalue {lowest:.3e}"
        )
    # numerical-zero weights contribute no lambda; eigh sorts ascending, so
    # a rank-k member keeps its last k eigenpairs
    rank = np.count_nonzero(w > 1e-12, axis=-1)
    lam = np.zeros(w.shape)
    for k in set(rank.tolist()):
        sel = rank == k
        factor = v[sel, :, 4 - k:] * np.sqrt(w[sel, None, 4 - k:])
        sym = factor.swapaxes(-1, -2) @ _SIGMA_Y_PAIR @ factor
        lam[sel, :k] = np.linalg.svd(sym, compute_uv=False)
    c = np.maximum(0.0, lam[:, 0] - lam[:, 1] - lam[:, 2] - lam[:, 3])
    return _float_or_array(c.reshape(m.shape[:-2]))


def trace_distance(rho, sigma) -> float | np.ndarray:
    """Half the trace norm of rho - sigma (both Hermitian, equal shapes).

    Two matrices give a ``float``; two (..., n, n) stacks of the same
    shape give an array over their leading axes.
    """
    a = _density_array(rho)
    b = _density_array(sigma)
    if a.shape != b.shape:
        raise ValidationError(
            f"dimension mismatch: {a.shape} vs {b.shape}"
        )
    w = np.linalg.eigvalsh(a - b)
    return _float_or_array(0.5 * np.sum(np.abs(w), axis=-1))


def marginal_entropy(
    psi: StateVector, bipartition: Bipartition
) -> float | np.ndarray:
    """Entropy of the kept marginal of a pure state, from its Schmidt spectrum.

    One state gives a ``float``, a (T, dim) stack an array of T entropies.
    """
    return _entropy(schmidt_coefficients(psi, bipartition) ** 2)
