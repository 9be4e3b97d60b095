"""Entanglement and distance measures over declared tensor factorizations.

Every measure here is relative to a bipartition of labeled factors; that
bookkeeping is the point, since the same vector can be entangled or not
depending on which factorization one declares. Scalar measures
(entropy, concurrence, trace distance) act on plain Hermitian matrices.
Reductions (partial traces, Schmidt cuts, marginal entropies) take pure
states: a :class:`~ccrlab.linalg.StateVector` carrying its factorization,
regrouped across the cut by :func:`~ccrlab.linalg.matricize`.
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


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian unit-trace matrix with its declared factorization.

    Only Hermiticity and unit trace are checked on construction; positivity
    is checked where a spectrum is taken (:func:`von_neumann_entropy`,
    :func:`concurrence`).
    """

    matrix: np.ndarray
    factorization: HilbertFactorization

    def __post_init__(self) -> None:
        m = require_square(self.matrix, "density matrix")
        if m.shape[0] != self.factorization.dim:
            raise ValidationError(
                f"density matrix dimension {m.shape[0]} does not match "
                f"factorization dimension {self.factorization.dim}"
            )
        herm = float(np.max(np.abs(m - m.conj().T)))
        if herm > 1e-10:
            raise ValidationError(
                f"density matrix not Hermitian: max |rho - rho^dag| = {herm:.3e}"
            )
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > 1e-10:
            raise ValidationError(f"density matrix trace is {tr!r}, expected 1")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


def _cut_matrix(psi: StateVector, bipartition: Bipartition) -> np.ndarray:
    """The amplitudes as a (kept x discarded) matrix, each side in factor order."""
    fact = psi.factorization
    keep_axes, drop_axes = bipartition.axes(fact)
    return matricize(psi.amplitudes, fact.dims, keep_axes, drop_axes)


def partial_trace(psi: StateVector, bipartition: Bipartition) -> DensityMatrix:
    """Density of the kept factors of a pure state, in the factorization's order.

    With M the normalized state as a (kept x discarded) matrix, the
    reduced density is M M^dag; no joint density matrix is formed.
    """
    m = _cut_matrix(psi.normalized(), bipartition)
    return DensityMatrix(m @ m.conj().T, psi.factorization.subset(bipartition.keep))


def schmidt_coefficients(psi: StateVector, bipartition: Bipartition) -> np.ndarray:
    """Singular values of the state reshaped across the bipartition.

    Nonincreasing; their squares sum to one for a normalized state. A
    single nonzero coefficient means a product state across the cut.
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
    if isinstance(rho, DensityMatrix):
        return rho.matrix
    return require_square(rho, "density matrix")


def _clamped_spectrum(m: np.ndarray) -> np.ndarray:
    w = np.linalg.eigvalsh(m)
    if w.size and w[0] < -EIG_CLAMP:
        raise ValidationError(
            f"matrix has negative eigenvalue {w[0]:.3e} beyond the "
            f"{EIG_CLAMP:.1e} roundoff clamp"
        )
    return np.clip(w, 0.0, None)


def _entropy(p: np.ndarray) -> float:
    """-sum p ln p in nats over the positive weights, so 0 ln 0 = 0."""
    p = p[p > 0.0]
    return float(-np.sum(p * np.log(p)) + 0.0)


def von_neumann_entropy(rho) -> float:
    """Entropy -sum p ln p in nats, with 0 ln 0 = 0.

    Eigenvalues within the roundoff clamp of zero are set to zero first;
    larger negativity raises.
    """
    return _entropy(_clamped_spectrum(_density_array(rho)))


def concurrence(rho) -> float:
    """Wootters two-qubit concurrence of a 4x4 density matrix, in [0, 1].

    With rho factored as L L^dag over its genuine eigenvalues, the
    Wootters lambdas are the singular values of L^T (sy (x) sy) L. The
    SVD resolves near-zero lambdas to machine precision, where routes
    through sqrt(rho) or the spectrum of rho rho~ lose half the digits.
    """
    m = _density_array(rho)
    if m.shape != (4, 4):
        raise ValidationError(f"concurrence needs a 4x4 matrix, got {m.shape}")
    herm = float(np.max(np.abs(m - m.conj().T)))
    if herm > 1e-10:
        raise ValidationError(f"concurrence input not Hermitian: {herm:.3e}")
    if abs(complex(np.trace(m)) - 1.0) > 1e-8:
        raise ValidationError(f"concurrence input trace is {np.trace(m)!r}")
    w, v = np.linalg.eigh((m + m.conj().T) / 2.0)
    if w[0] < -EIG_CLAMP:
        raise ValidationError(
            f"concurrence input has negative eigenvalue {w[0]:.3e}"
        )
    keep = w > 1e-12  # numerical-zero weights contribute no lambda
    factor = v[:, keep] * np.sqrt(w[keep])
    sym = factor.T @ _SIGMA_Y_PAIR @ factor
    lam = np.zeros(4)
    sv = np.linalg.svd(sym, compute_uv=False)
    lam[: sv.size] = sv
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


def trace_distance(rho, sigma) -> float:
    """Half the trace norm of rho - sigma (both Hermitian, equal dims)."""
    a = _density_array(rho)
    b = _density_array(sigma)
    if a.shape != b.shape:
        raise ValidationError(
            f"dimension mismatch: {a.shape} vs {b.shape}"
        )
    w = np.linalg.eigvalsh(a - b)
    return float(0.5 * np.sum(np.abs(w)))


def marginal_entropy(
    psi: StateVector, bipartition: Bipartition
) -> float:
    """Entropy of the kept marginal of a pure state, from its Schmidt spectrum."""
    return _entropy(schmidt_coefficients(psi, bipartition) ** 2)
