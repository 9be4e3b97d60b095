"""Builders for three representations of the canonical commutation relations.

Each builder returns a :class:`Representation`: per-mode lowering operators
``a_k``, the central elements ``I_k`` with ``[a_m, a_n^dag] = delta_mn I_m``,
a vacuum vector annihilated by every ``a_k``, and the declared tensor
factorization of the field space.

Three constructions are provided:

* the familiar two-mode irreducible representation (one oscillator per
  mode, ``I_k`` the identity),
* the symmetric Fock space over an abstract orthonormal one-particle
  basis, built directly in the occupation-number basis with a total
  occupation cutoff (``I_k`` again the identity, vacuum unique); it and
  the two-mode representation are one occupation-number construction
  that differs only in the declared factorization,
* the reducible finite-ensemble representation: N oscillators, each
  carrying every mode, with collective operators
  ``a_k = (1/sqrt(N)) sum_n a_k^(n)`` whose central element has spectrum
  {s/N}. Its vacuum is a tensor power of a single-oscillator vacuum with
  per-mode probabilities Z_k.

The binomial/multinomial vacuum weights that govern the reducible
representation are evaluated in log space so they stay usable up to
ensembles of 10^6 oscillators.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import fock
from .exceptions import ConfigError, DomainError, SizeLimitError, ValidationError
from .linalg import (
    HilbertFactorization,
    StateVector,
    embed_operator,
    kron,
)

#: Profiles must carry unit total probability to this tolerance.
TOL_PROFILE = 1e-12
#: Dimension ceiling for the field of a brute-force reducible ensemble,
#: whose evolution never forms a matrix on the coupled space.
BRUTE_FORCE_CEILING = 4096
#: Ceiling for the coupled atoms-plus-field space (4 times the field) of
#: the two irreducible representations. Their scenarios form the full
#: coupled Hamiltonian, its eigendecomposition and a propagator stack, so
#: at 4096 (n_max = 31) one run took minutes and ~3 GB; 1024 keeps the
#: largest admitted run within a few seconds and ~300 MB.
_COUPLED_CEILING = 1024


@dataclass(frozen=True)
class VacuumProfile:
    """Vacuum probability Z_k per wave-vector label; the amplitude O_k is sqrt(Z_k).

    The probabilities are real, nonnegative and sum to one, else a
    :class:`ValidationError`; they are stored as ``float64``. ``z_max``
    (the largest Z_k) is the renormalization constant of the reducible
    dynamics. No result reads a phase of O_k: a vacuum with phases
    e^{i phi_k} is a unitary diagonal in the labels times the real one,
    and that unitary commutes with every a_k, I_k and N.
    """

    labels: tuple[str, ...]
    probabilities: np.ndarray

    def __post_init__(self) -> None:
        labels = tuple(str(lab) for lab in self.labels)
        if np.iscomplexobj(self.probabilities):
            raise ValidationError("profile probabilities must be real")
        probs = np.array(self.probabilities, dtype=float).reshape(-1)
        if len(labels) != probs.size:
            raise ValidationError(
                f"profile has {len(labels)} labels but {probs.size} probabilities"
            )
        if len(set(labels)) != len(labels):
            raise ValidationError(f"profile labels must be unique, got {labels}")
        total = float(np.sum(probs))
        if not abs(total - 1.0) <= TOL_PROFILE:  # NaN fails too
            raise ValidationError(
                f"profile probabilities must sum to 1, got {total!r}"
            )
        if np.any(probs < 0):
            raise ValidationError("profile probabilities must be nonnegative")
        probs.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "probabilities", probs)

    @property
    def z_max(self) -> float:
        return float(np.max(self.probabilities))

    def probability(self, label: str) -> float:
        return float(self.probabilities[self.labels.index(label)])

    @classmethod
    def uniform(cls, n_modes: int) -> "VacuumProfile":
        """Flat profile Z_k = 1/n_modes over labels k1..k<n>."""
        if n_modes < 1:
            raise ValidationError("uniform profile needs at least one mode")
        labels = tuple(f"k{i + 1}" for i in range(n_modes))
        return cls(labels, np.full(n_modes, 1.0 / n_modes))

    @classmethod
    def plateau(
        cls, n_modes: int, window: tuple[int, int] = (0, 1), rate: float = 1.0
    ) -> "VacuumProfile":
        """Plateau of height 1 over an index window with exponential rolloff.

        ``window`` gives inclusive start/stop indices; outside it the
        unnormalized weight decays as exp(-rate * distance). The result is
        normalized so the probabilities sum to one.
        """
        if n_modes < 1:
            raise ValidationError("plateau profile needs at least one mode")
        lo, hi = int(window[0]), int(window[1])
        if not (0 <= lo <= hi < n_modes):
            raise ValidationError(
                f"plateau window {window} out of range for {n_modes} modes"
            )
        if not (math.isfinite(rate) and rate >= 0):
            raise ValidationError(f"rolloff rate must be finite and >= 0, got {rate}")
        idx = np.arange(n_modes)
        dist = np.where(idx < lo, lo - idx, np.where(idx > hi, idx - hi, 0))
        weights = np.exp(-rate * dist.astype(float))
        labels = tuple(f"k{i + 1}" for i in range(n_modes))
        return cls(labels, weights / weights.sum())


@dataclass(frozen=True, eq=False)
class Representation:
    """A concrete realization of the mode algebra on a finite space.

    ``lowering[k]`` and ``central[k]`` act on the full field space whose
    tensor structure is ``factorization``; ``number_op`` is the total
    photon-number operator used for excitation bookkeeping. The builders
    store these three and the ``vacuum`` (amplitudes sqrt(Z_k), see
    :class:`VacuumProfile`) as ``float64``, since all their entries are
    real in every basis here. a_k is a dense ``dim`` x ``dim`` matrix.
    ``central[k]`` and ``number_op`` are diagonal in every builder's basis
    and are stored as their diagonals, vectors of length ``dim``.
    ``below_cutoff_mask`` flags the basis states with one quantum of
    headroom everywhere (the subspace on which the commutation relations
    hold exactly despite truncation).
    """

    kind: str
    mode_labels: tuple[str, ...]
    lowering: dict[str, np.ndarray]
    central: dict[str, np.ndarray]
    vacuum: StateVector
    factorization: HilbertFactorization
    number_op: np.ndarray
    below_cutoff_mask: np.ndarray
    n_max: int | None = None
    n_oscillators: int | None = None
    profile: VacuumProfile | None = None

    @property
    def dim(self) -> int:
        return self.factorization.dim

    def raising(self, mode: str) -> np.ndarray:
        return self.lowering_of(mode).conj().T

    def lowering_of(self, mode: str) -> np.ndarray:
        try:
            return self.lowering[mode]
        except KeyError:
            raise ConfigError(
                f"representation has no mode {mode!r}; built modes: "
                f"{sorted(self.lowering)}"
            ) from None


@dataclass(frozen=True, eq=False)
class CentralSpectrum:
    """Spectral decomposition of a central element: I_k = sum_s (s/N) E_k(s).

    ``projectors[s]`` is the 0/1 diagonal of E_k(s), a vector over the
    field basis; ``eigenvalues[s]`` is s/N.
    """

    mode: str
    eigenvalues: np.ndarray
    projectors: tuple[np.ndarray, ...]


def build_infinity_two_mode(n_max: int) -> Representation:
    """Two-mode irreducible representation: one oscillator factor per mode.

    The occupation basis is the box n1, n2 <= n_max in lexicographic order
    (the ``a (x) I`` / ``I (x) a`` order) with the factorization
    mode1 (x) mode2; operators, vacuum and central identities come from the
    occupation-number construction shared with :func:`build_berezin`. A
    coupled dimension 4 (n_max + 1)^2 above the irreducible ceiling 1024
    (so n_max > 15) raises :class:`SizeLimitError` before anything is built.
    """
    n_max = int(n_max)
    if n_max < 1:
        raise ConfigError(f"two-mode build needs n_max >= 1, got {n_max}")
    _check_coupled_ceiling("two-mode", (n_max + 1) ** 2)
    box = [(n1, n2) for n1 in range(n_max + 1) for n2 in range(n_max + 1)]
    fact = HilbertFactorization((("mode1", n_max + 1), ("mode2", n_max + 1)))
    return _occupation_representation(
        "infinity", box, {"mode1": 0, "mode2": 1}, fact, n_max=n_max)


def _occupation_representation(
    kind: str,
    basis: list[tuple[int, ...]],
    modes: dict[str, int],
    fact: HilbertFactorization,
    n_max: int | None = None,
) -> Representation:
    """Irreducible Fock representation on an occupation basis.

    ``basis`` lists occupation tuples in the order of ``fact``'s basis;
    ``modes`` maps each built mode label to its slot in the tuples. a_k
    lowers slot k by one with matrix element sqrt(n_k), the vacuum is the
    all-zero tuple, ``number_op`` is the diagonal of tuple totals, the
    central elements are the identity (a diagonal of ones), and a basis
    state is below the cutoff when adding one quantum to any slot stays in
    the basis. Only
    ``fact`` tells the representations apart; ``n_max`` is only recorded.
    """
    index = {tup: i for i, tup in enumerate(basis)}
    dim = len(basis)
    lowering = {}
    for label, slot in modes.items():
        a = np.zeros((dim, dim))
        for tup, col in index.items():
            if tup[slot]:
                lowered = tup[:slot] + (tup[slot] - 1,) + tup[slot + 1:]
                a[index[lowered], col] = math.sqrt(tup[slot])
        lowering[label] = a
    identity = np.ones(dim)
    vac = np.zeros(dim)
    vac[index[(0,) * len(basis[0])]] = 1.0
    mask = np.array([all(tup[:k] + (n + 1,) + tup[k + 1:] in index
                         for k, n in enumerate(tup)) for tup in basis])
    return Representation(
        kind=kind,
        mode_labels=tuple(modes),
        lowering=lowering,
        central={label: identity for label in modes},
        vacuum=StateVector(vac, fact),
        factorization=fact,
        number_op=np.array([float(sum(tup)) for tup in basis]),
        below_cutoff_mask=mask,
        n_max=n_max,
    )


def _check_coupled_ceiling(kind: str, field_dim: int) -> None:
    """SizeLimitError if the coupled space, 4 * ``field_dim``, exceeds the ceiling.

    ``field_dim`` may be a lower bound of the field dimension (see
    :func:`_capped_comb`); it is reported as one.
    """
    if 4 * field_dim > _COUPLED_CEILING:
        raise SizeLimitError(
            f"{kind} field dimension is at least {field_dim}, so the coupled "
            f"dimension 4 * {field_dim} exceeds the brute-force ceiling "
            f"{_COUPLED_CEILING}"
        )


def _capped_comb(n: int, k: int, cap: int) -> int:
    """C(n, k) if it is at most ``cap``, else some value above ``cap``.

    Runs C(n - k + i, i) up over i <= min(k, n - k); each factor is at
    least 2, so it stops within cap.bit_length() + 1 steps however large
    n is.
    """
    k = min(k, n - k)
    value = 1
    for i in range(1, k + 1):
        value = value * (n - k + i) // i
        if value > cap:
            break
    return value


def occupation_basis(n_modes: int, total_cutoff: int) -> list[tuple[int, ...]]:
    """All occupation tuples (n_1..n_d) with sum <= total_cutoff, lexicographic.

    Built slot by slot, each prefix extended by every count its remaining
    budget admits, so only the C(d + cutoff, d) admissible tuples are made.
    """
    basis = [()]
    for _ in range(n_modes):
        basis = [tup + (k,) for tup in basis
                 for k in range(total_cutoff - sum(tup) + 1)]
    return basis


def build_berezin(
    d: int, total_cutoff: int, selected_modes: list[int] | None = None
) -> Representation:
    """Symmetric Fock space over d abstract orthonormal modes, total cutoff.

    The occupation basis is the simplex of tuples with total <=
    ``total_cutoff`` (:func:`occupation_basis`), declared as one ``field``
    factor; operators, vacuum and central identities come from the same
    occupation-number construction as :func:`build_infinity_two_mode`,
    which differs only in declaring one factor per mode.
    ``selected_modes`` are distinct 1-based indices into the mode basis;
    operators ``f<n>`` are built only for those (default: all of them).
    A coupled dimension 4 C(d + total_cutoff, d) above the irreducible
    ceiling 1024 raises :class:`SizeLimitError`, decided without
    enumerating the basis.
    """
    d = int(d)
    total_cutoff = int(total_cutoff)
    if d < 1:
        raise ConfigError(f"need at least one mode, got d={d}")
    if total_cutoff < 1:
        raise ConfigError(f"total cutoff must be >= 1, got {total_cutoff}")
    _check_coupled_ceiling("Berezin", _capped_comb(
        d + total_cutoff, d, _COUPLED_CEILING // 4))
    if selected_modes is None:
        selected_modes = list(range(1, d + 1))
    for n in selected_modes:
        if not 1 <= int(n) <= d:
            raise ConfigError(f"selected mode {n} out of range 1..{d}")
    if len({int(n) for n in selected_modes}) != len(selected_modes):
        raise ConfigError(f"selected modes repeat a mode: {list(selected_modes)}")

    basis = occupation_basis(d, total_cutoff)
    fact = HilbertFactorization((("field", len(basis)),))
    return _occupation_representation(
        "berezin", basis, {f"f{int(n)}": int(n) - 1 for n in selected_modes}, fact)


def _single_oscillator_mode_ops(
    profile: VacuumProfile, n_max: int
) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray], np.ndarray, np.ndarray]:
    """One-oscillator building blocks on the |k, n> basis (k-major order).

    The lowering operators are matrices; the mode projectors and the
    photon number are diagonals; the vacuum sum_k sqrt(Z_k) |k, 0> is a
    real vector.
    """
    m = len(profile.labels)
    ladder_dim = n_max + 1
    a = fock.annihilation(n_max)
    lowering = {}
    projectors = {}
    for i, label in enumerate(profile.labels):
        pk = np.zeros(m)
        pk[i] = 1.0
        lowering[label] = kron(np.diag(pk), a)
        projectors[label] = kron(pk, np.ones(ladder_dim))
    vac = kron(np.sqrt(profile.probabilities), np.eye(1, ladder_dim)[0])
    number = kron(np.ones(m), fock.number_operator(n_max))
    return lowering, projectors, vac, number


def fits_brute_force(n_oscillators: int, profile: VacuumProfile, n_max: int) -> bool:
    """Whether (modes * (n_max + 1))^N is within :data:`BRUTE_FORCE_CEILING`. Exact
    without forming a huge power: past exponent ceiling.bit_length() + 1 any
    factor >= 2 exceeds it."""
    factor_dim = len(profile.labels) * (int(n_max) + 1)
    power = min(int(n_oscillators), BRUTE_FORCE_CEILING.bit_length() + 1)
    return factor_dim**power <= BRUTE_FORCE_CEILING


def build_reducible(
    n_oscillators: int,
    profile: VacuumProfile,
    n_max: int = 1,
    selected_modes: list[str] | None = None,
) -> Representation:
    """Reducible ensemble representation of N oscillators carrying all modes.

    Each factor is a copy of the |k, n> space (wave-vector label times
    ladder level); the built mode operators are the collective
    ``(1/sqrt(N)) sum_n a_k^(n)`` and ``(1/N) sum_n I_k^(n)``, and the
    vacuum is the N-fold tensor power of ``sum_k sqrt(Z_k) |k, 0>``. Intended
    for brute-force work at small N; a field dimension above
    :data:`BRUTE_FORCE_CEILING` raises :class:`SizeLimitError`, decided
    without expanding the power.

    Each collective sum ``S_N = sum_n op^(n)`` is built by the
    Kronecker-sum recurrence ``S_n = S_(n-1) (x) 1_f + 1_(f^(n-1)) (x) op``
    from a zero of size one, so level n works at dimension f^n and the
    full-size result is written about twice instead of once per
    oscillator. The same recurrence runs on matrices (lowering operators,
    identities ``np.eye``) and on diagonals (central and photon-number
    operators, identities ``np.ones``), so only a_k is a dense matrix.
    """
    n_osc = int(n_oscillators)
    if n_osc < 1:
        raise ConfigError(f"need at least one oscillator, got N={n_osc}")
    n_max = int(n_max)
    if n_max < 0:
        raise ConfigError(f"n_max must be >= 0, got {n_max}")
    labels = list(profile.labels) if selected_modes is None else list(selected_modes)
    for label in labels:
        if label not in profile.labels:
            raise ConfigError(
                f"selected mode {label!r} not in profile labels {profile.labels}"
            )
    if len(set(labels)) != len(labels):
        raise ConfigError(f"selected modes repeat a mode: {labels}")

    factor_dim = len(profile.labels) * (n_max + 1)
    if not fits_brute_force(n_osc, profile, n_max):
        raise SizeLimitError(
            f"field dimension {factor_dim}^N with N = {n_osc} exceeds the "
            f"brute-force ceiling {BRUTE_FORCE_CEILING}"
        )

    one_lowering, one_proj, one_vac, one_number = _single_oscillator_mode_ops(
        profile, n_max
    )

    def collective(op: np.ndarray) -> np.ndarray:
        identity = np.eye(factor_dim) if op.ndim == 2 else np.ones(factor_dim)
        total = np.zeros((1,) * op.ndim)
        for level in range(n_osc):
            total = kron(total, identity)
            total += embed_operator(op, (factor_dim**level, factor_dim), 1)
        return total

    lowering = {}
    central = {}
    for label in labels:
        lowering[label] = collective(one_lowering[label])
        lowering[label] /= math.sqrt(n_osc)
        central[label] = collective(one_proj[label])
        central[label] /= n_osc

    vac = kron(*[one_vac] * n_osc)
    number = collective(one_number)

    fact = HilbertFactorization(
        tuple((f"osc{i + 1}", factor_dim) for i in range(n_osc))
    )
    photon_level = np.arange(factor_dim) % (n_max + 1)
    factor_mask = photon_level <= n_max - 1
    mask = np.array([True])
    for _ in range(n_osc):
        mask = np.kron(mask, factor_mask)
    return Representation(
        kind="reducible",
        mode_labels=tuple(labels),
        lowering=lowering,
        central=central,
        vacuum=StateVector(vac, fact),
        factorization=fact,
        number_op=number,
        below_cutoff_mask=mask.astype(bool),
        n_max=n_max,
        n_oscillators=n_osc,
        profile=profile,
    )


def central_spectral_projectors(rep: Representation, mode: str) -> CentralSpectrum:
    """Spectral projectors E_k(s) of a collective central element, as diagonals.

    E_k(s) projects onto the basis states in which exactly s of the N
    oscillators carry mode k; the corresponding eigenvalue of I_k is s/N.
    Each factor index divided by ``n_max + 1`` is that oscillator's mode
    label, so the projectors are diagonal and are returned as 0/1 vectors
    over the field basis, like the diagonal ``rep.central[mode]`` itself.

    They depend only on the basis labels, so ``mode`` may be any label of
    ``rep.profile``, whether or not its operators were built; a label
    outside the profile, or a representation of another kind, is a
    :class:`ConfigError`.
    """
    if rep.kind != "reducible":
        raise ConfigError(
            f"central spectral projectors require the reducible kind, got {rep.kind!r}"
        )
    assert rep.profile is not None and rep.n_oscillators is not None
    if mode not in rep.profile.labels:
        raise ConfigError(
            f"unknown mode {mode!r}; profile labels: {rep.profile.labels}")
    assert rep.n_max is not None
    n_osc = rep.n_oscillators
    label = np.indices(rep.factorization.dims).reshape(n_osc, -1) // (rep.n_max + 1)
    count = np.sum(label == rep.profile.labels.index(mode), axis=0)
    projectors = tuple((count == s).astype(float) for s in range(n_osc + 1))
    eigenvalues = np.arange(n_osc + 1) / n_osc
    return CentralSpectrum(mode=mode, eigenvalues=eigenvalues, projectors=projectors)


# Sector counts at or below this take the exact coefficient math.comb;
# larger ones Stirling's series (truncation error < 1e-15 from 25 upward).
_SMALL_SECTOR = 24


def _stirling_correction(k: int) -> float:
    """ln k! - ((k + 1/2) ln k - k + ln sqrt(2 pi)), four terms of Stirling's series."""
    inv2 = 1.0 / (k * k)
    return (1 / 12 - inv2 * (1 / 360 - inv2 * (1 / 1260 - inv2 / 1680))) / k


def _deviance(x: int, m: float, m_lo: float) -> float:
    """Loader's bd0: x ln(x / m) + m - x, for m an exact float pair (m, m_lo).

    With d = x - m and v = d / (x + m), ln(x / m) = 2 artanh v, so for
    |v| < 1/2 it is d v + 2 x sum_j v^(2j+1) / (2j + 1), j >= 1: no
    cancellation, and each term shrinks by at least v^2 <= 1/4. There d
    and the leading term d v are carried as float pairs, so the result is
    within about one rounding. Otherwise x / m is beyond 3 or 1/3, and the
    direct form loses at most a few roundings.
    """
    d, d_lo = _two_sum(x - m, -m_lo)  # x - m is exact for x <= 2 m, else one rounding
    w, w_lo = _two_sum(x, m)
    v = d / w
    if abs(v) >= 0.5:
        return x * math.log(x / m) - d
    # d v = (d + d_lo)^2 / (w + w_lo + m_lo) to first order in the lows,
    # with d - v w exact from Dekker's product
    lead, lead_lo = _two_prod(d, v)
    vw, vw_lo = _two_prod(v, w)
    tail = lead_lo + v * (((d - vw) - vw_lo) + 2 * d_lo - v * (w_lo + m_lo))
    term, v2, j = 2 * x * v * v * v, v * v, 3
    while lead + (tail + term / j) != lead + tail:
        tail += term / j
        term *= v2
        j += 2
    return lead + tail


def _log_binomial_cell(n: int, s: int, z: float, q: float, q_lo: float) -> float:
    """ln C(n, s) z^s q^(n - s) in float64, for z + q = 1 up to rounding.

    ``q`` is the exact float pair (q, q_lo); each probability needs only
    its own relative accuracy, so a caller passes the complement it holds
    best (see :func:`log_joint_weights`). n = 0, z = 0 or q = 0 is a point
    mass. Within ``_SMALL_SECTOR`` of either edge the coefficient is
    exact, C(n, k) / n^k times (n p)^k for the smaller count k and its
    probability p, and the larger probability's log is log1p of the
    smaller. Elsewhere it is Loader's saddle-point form: Stirling
    corrections, the half-log and the deviances of s from n z and of
    n - s from n q, whose deviations are exact from Dekker products (no
    large logs cancel).
    """
    if n == 0 or z == 0.0 or q + q_lo <= 0.0:
        return 0.0 if s == (0 if z == 0.0 else n) else -math.inf
    r = n - s
    if min(s, r) <= _SMALL_SECTOR:
        k, rest, p, p_rest = (s, r, z, q) if s <= r else (r, s, q, z)
        log_rest = math.log1p(-p) if p < p_rest else math.log(p_rest)
        # ln w to about one rounding: exact products, one rounded sum
        return math.fsum((math.log(math.comb(n, k) / n**k), *_two_prod(k, math.log(n * p)),
                          *_two_prod(rest, log_rest)))
    m, m_lo = _two_prod(n, q)
    return (_stirling_correction(n) - _stirling_correction(s) - _stirling_correction(r)
            - _deviance(s, *_two_prod(n, z)) - _deviance(r, m, m_lo + n * q_lo)
            + 0.5 * math.log(n / (math.tau * s * r)))


def log_binomial_weights(n: int, s: np.ndarray, z: float) -> np.ndarray:
    """ln C(n, s) z^s (1-z)^(n-s), cell by cell, in float64.

    Each cell is :func:`_log_binomial_cell` with 1 - z as a TwoSum pair,
    a few microseconds of scalar arithmetic, so no cell depends on the
    others in ``s``, whose order and gaps are free; it serves single cells:
    the anchors of the closed form's float64 tables
    (:func:`_log_binomial_table`, :func:`joint_sector_sum`), the point
    masses z in {0, 1}, and, as their reference, the checks that compare
    those tables with it.
    """
    n, q = int(n), _two_sum(1.0, -z)
    return np.array([_log_binomial_cell(n, k, z, *q) for k in np.ravel(s).tolist()],
                    dtype=float).reshape(np.shape(s))


def _two_sum(a, b):
    """(a + b, its rounding error), both exact: Knuth's TwoSum, on floats or arrays."""
    total = a + b
    b_part = total - a
    return total, (a - (total - b_part)) + (b - b_part)


def _split(a: float) -> tuple[float, float]:
    """Veltkamp's split a = hi + lo, each half of at most 26 significant bits."""
    hi = 134217729.0 * a - (134217729.0 * a - a)  # 2**27 + 1
    return hi, a - hi


def _two_prod(a: float, b: float) -> tuple[float, float]:
    """(a * b, its rounding error), both exact: Dekker's product (no fma)."""
    prod = a * b
    (a1, a2), (b1, b2) = _split(a), _split(b)
    return prod, ((a1 * b1 - prod) + a1 * b2 + a2 * b1) + a2 * b2


def _log_ratio_table(lam: tuple[float, float], p: float, lo: int, hi: int,
                     anchor: int, offset: float) -> np.ndarray:
    """f(j) - f(anchor) + offset for j = lo..hi in float64.

    The steps are f(j) - f(j - 1) = ln((lam - p j) / (q j)), q = 1 - p,
    with lam an exact float pair (hi, lo): lam = (n + 1) z and p = z give
    the binomial log-ratios ln(z (n + 1 - j) / ((1 - z) j)), lam = n z and
    p = 0 the power-series ones ln(n z / j). Near the bulk, |x| < 1/2 with
    x = (lam - j) / (q j), a step is log1p(x), whose numerator
    (lam_hi - j) + lam_lo is exactly centred (Sterbenz). x falls with j,
    so those cells are one run; outside it a step is the log of the ratio,
    whose numerator takes p j exactly from a split of p. The prefix sums
    carry the sum of their TwoSum errors (Ogita, Rump & Oishi's Sum2), so
    their rounding does not grow with the window.
    """
    start, stop = min(lo, anchor), max(hi, anchor)
    j = np.arange(start + 1, stop + 1, dtype=float)
    lam_hi, lam_lo = lam
    q = 1.0 - p
    # j < v for the first ceil(v) - start - 1 cells of j = start + 1..stop
    near = slice(*(min(max(math.ceil(v) - start - 1, 0), j.size)
                   for v in (lam_hi / (1 + q / 2), lam_hi / (1 - q / 2))))
    steps = np.empty_like(j)
    x = np.subtract(lam_hi, j[near], out=steps[near])
    x += lam_lo
    x /= q * j[near]
    np.log1p(x, out=x)
    p_hi, p_lo = _split(p)
    for far in (slice(0, near.start), slice(near.stop, j.size)):
        if far.start == far.stop:
            continue
        jf = j[far]
        steps[far] = np.log((((lam_hi - jf * p_hi) + lam_lo) - jf * p_lo) / (q * jf))
    total = np.concatenate(([0.0], np.cumsum(steps)))
    # TwoSum error of each partial sum total[i + 1] = total[i] + steps[i],
    # as _two_sum but in place: the sums are already in total
    part = np.subtract(total[1:], total[:-1], out=j)
    err = total[:-1] - (total[1:] - part)
    steps -= part
    err += steps
    errors = np.concatenate(([0.0], np.cumsum(err)))
    window, k = slice(lo - start, hi - start + 1), anchor - start
    return (total[window] - total[k]) + (errors[window] - errors[k]) + offset


def _log_binomial_table(n: int, z: float) -> np.ndarray:
    """ln Bin(n, s; z) over ``binomial_support(n, z)``, in float64.

    One :func:`_log_ratio_table` recurrence anchored at floor(n z), whose
    value is one cell of the per-cell formula :func:`log_binomial_weights`;
    the point masses z in {0, 1} are read from that formula whole. Within
    a few 1e-14 relative of it in every weight.
    """
    support = binomial_support(n, z)
    if not 0.0 < z < 1.0:
        return log_binomial_weights(n, support, z)
    anchor = min(max(math.floor(n * z), support[0]), support[-1])
    return _log_ratio_table(_two_prod(n + 1.0, z), z, support[0], support[-1],
                            anchor, float(log_binomial_weights(n, anchor, z)))


def log_joint_weights(
    n: int, s: np.ndarray, s_prime: np.ndarray, z1: float, z2: float
) -> np.ndarray:
    """log multinomial weight matrix over the outer grid s (rows) x s' (cols).

    C(n; s, s') z1^s z2^s' (1-z1-z2)^(n-s-s') is evaluated as
    Bin(n, s; z1) Bin(n - s, s'; z2 / (1 - z1)), both factors from the
    float64 per-cell formula (:func:`log_binomial_weights`). The second
    factor takes its complement as z0 / (1 - z1), z0 from the exact pair
    :func:`_rest_probability`, so that it keeps its digits when z1 + z2
    is near 1. Entries with s + s' > n are -inf (the coefficient vanishes
    there). With z1 = 1 no oscillator is left for mode 2, so only s' = 0
    carries weight. Costs a few microseconds per cell: meant for a few
    cells, not for whole sector grids (see :func:`joint_sector_sum`).
    """
    s = np.asarray(s)
    s_prime = np.asarray(s_prime)
    p, p_rest = 0.0, 1.0
    if z1 < 1.0:
        p, p_rest = z2 / (1.0 - z1), sum(_rest_probability(z1, z2)) / (1.0 - z1)
    rows = log_binomial_weights(n, s, z1)
    out = np.full((s.size, s_prime.size), -np.inf)
    for i, left in enumerate((n - s).tolist()):
        out[i, s_prime <= left] = [rows[i] + _log_binomial_cell(left, k, p, p_rest, 0.0)
                                   for k in s_prime.tolist() if k <= left]
    return out


def _rest_probability(z1: float, z2: float) -> tuple[float, float]:
    """1 - z1 - z2 as an exact float pair (hi, lo), by two TwoSums."""
    rest, err1 = _two_sum(1.0, -z1)
    z0, err2 = _two_sum(rest, -z2)
    return z0, err1 + err2


def binomial_support(n: int, z: float) -> np.ndarray:
    """Sector indices s carrying essentially all binomial mass.

    A window of ten standard deviations plus margin on either side of the
    mean, clipped to 0..n; its excluded tail mass is below 1e-20 at every
    n. The half-width depends on the standard deviation alone, so the
    window never shrinks as n grows.
    """
    center = math.floor(n * z)
    half = math.ceil(10.0 * math.sqrt(n * z * (1.0 - z)) + 26.0)
    return np.arange(max(0, center - half), min(n, center + half) + 1)


def joint_sector_sum(
    n: int, z1: float, z2: float, f1: np.ndarray, f2: np.ndarray,
    w1: np.ndarray | None = None,
) -> np.ndarray:
    """Sum over s, s' of the multinomial vacuum weight times f1(s) f2(s').

    The weight is C(n; s, s') z1^s z2^s' z0^(n-s-s') with z0 = 1 - z1 - z2,
    zero for s + s' > n. ``f1`` and ``f2`` are tabulated over
    ``binomial_support(n, z1)`` and ``binomial_support(n, z2)`` along their
    last axis; leading axes (e.g. time) are summed row by row.

    The weight factors as w0 a(s) b(s') c(s + s') with a ~ (n z1)^s / s!,
    b ~ (n z2)^s' / s'! and c(k) ~ (n z0)^(n-k) / (n-k)!, all normalized
    at an anchor cell (s0, s0') near the mean. The anchor weight w0 comes
    from :func:`log_joint_weights`, i.e. from the float64 per-cell binomial
    formula :func:`log_binomial_weights`, which is also the tables'
    reference; the log tables are float64 compensated log-ratio
    recurrences (:func:`_log_ratio_table`, with n z0 an exact float pair
    from :func:`_rest_probability` and Dekker's product), exponentiated in
    float64. The double sum is then sum_k c(k) (x * y)(k) with x = a f1
    and y = b f2, one 1-D convolution per row, taken for the whole row
    stack by one zero-padded ``rfft``/``irfft``: O((|a| + |b|) log(|a| +
    |b|)) per row instead of the direct O(|a| |b|), which took most of the
    call at N = 1e6. Its rounding is of order 1e-16 absolute on the
    unit-scale sums here, and the length-4 transform of the N = 1 tables
    is exact, so the N = 1 coherence stays exactly 0. For z0 = 0 the
    weight is the point mass s' = n - s, i.e. the float64 binomial table
    Bin(n, s; z1): a caller that holds it over ``binomial_support(n, z1)``
    passes it as ``w1``, else it is built when needed.
    """
    s1 = binomial_support(n, z1)
    s2 = binomial_support(n, z2)
    f1 = np.asarray(f1, dtype=float)
    f2 = np.asarray(f2, dtype=float)
    if f1.shape[-1] != s1.size or f2.shape[-1] != s2.size:
        raise ValidationError(
            f"f1, f2 need {s1.size} and {s2.size} entries on their last axis, "
            f"got {f1.shape[-1]} and {f2.shape[-1]}"
        )
    z0, z0_lo = _rest_probability(z1, z2)
    if z0 + z0_lo <= 0:
        # point mass at s' = n - s; sectors outside the s' window carry
        # no mass worth keeping
        sp = n - s1
        keep = (sp >= s2[0]) & (sp <= s2[-1])
        w1 = np.exp(_log_binomial_table(n, z1)) if w1 is None else w1
        return np.sum(w1[keep] * f1[..., keep] * f2[..., sp[keep] - s2[0]], axis=-1)

    # anchor at the mean of s and the conditional mean of s' given s0
    s0 = int(np.clip(round(n * z1), s1[0], s1[-1]))
    s0p = min(n - s0, int(round((n - s0) * z2 / (1.0 - z1))))
    log_w0 = log_joint_weights(n, np.array([s0]), np.array([s0p]), z1, z2)[0, 0]
    a = np.exp(_log_ratio_table(_two_prod(n, z1), 0.0, s1[0], s1[-1], s0, 0.0))
    b = np.exp(_log_ratio_table(_two_prod(n, z2), 0.0, s2[0], s2[-1], s0p, 0.0))
    k_lo = s1[0] + s2[0]
    k_hi = min(n, s1[-1] + s2[-1])
    r0 = n - s0 - s0p
    lam_hi, lam_lo = _two_prod(n, z0)
    c = np.exp(_log_ratio_table((lam_hi, lam_lo + n * z0_lo), 0.0, n - k_hi,
                                n - k_lo, r0, log_w0)[::-1])

    lead = np.broadcast_shapes(f1.shape[:-1], f2.shape[:-1])
    x = np.broadcast_to(a * f1, lead + a.shape).reshape(-1, a.size)
    y = np.broadcast_to(b * f2, lead + b.shape).reshape(-1, b.size)
    size = 1 << (a.size + b.size - 2).bit_length()
    conv = np.fft.irfft(np.fft.rfft(x, size) * np.fft.rfft(y, size), size)
    # numpy's own sum, not a BLAS product: a BLAS reduction may split its
    # sum by thread, and the bits would depend on the thread count
    return np.sum(conv[:, : c.size] * c, axis=-1).reshape(lead)


def mode_excitation_state(rep: Representation, mode: str, *more: str) -> StateVector:
    """Normalized single-quantum state (sum_k a_k^dag) |vacuum> over the given modes.

    a_k and the vacuum are real in every builder, so each a_k^dag
    |vacuum> is one real product with a transposed view of a_k, and the
    state is ``float64``. Only a raised state of norm 0 (at ``n_max =
    0``, or where the modes' vacuum probabilities are 0) is refused:
    however small a nonzero norm is, normalizing keeps the state's digits.
    """
    modes = (mode, *more)
    vac = rep.vacuum.amplitudes
    state = StateVector(sum(rep.raising(m) @ vac for m in modes), rep.factorization)
    if state.norm == 0.0:
        raise ValidationError(f"modes {modes} create nothing from the vacuum")
    return state.normalized()


def single_mode_cut(
    n_oscillators: int, profile: VacuumProfile, mode: str, n_max: int = 1
) -> tuple[float, float, float]:
    """Entropy and Schmidt pair of the reducible single-mode excitation, osc1 | rest.

    Normalized, a_k^dag |vacuum> is the W-type state N^(-1/2) sum_n
    |O .. (k, 1)_n .. O>, so for any profile and n_max >= 1 the 1|(N-1) cut
    has the Schmidt pair (sqrt(1 - 1/N), sqrt(1/N)) and the entropy h(1/N)
    in nats. Returns ``(entropy, schmidt_1, schmidt_2)``. It has no size
    ceiling. At ``n_max = 0`` it fails like ``mode_excitation_state(
    build_reducible(...), mode)``; like the closed-form density matrix, it
    accepts every normal Z_k and refuses a zero or subnormal one with a
    :class:`DomainError`.
    """
    if n_oscillators < 1 or n_max < 0 or mode not in profile.labels:
        raise ConfigError(f"need N >= 1, n_max >= 0 and a profile mode, got "
                          f"N={n_oscillators}, n_max={n_max}, mode={mode!r}")
    if n_max == 0:
        raise ValidationError(f"mode {mode!r} creates nothing from the vacuum")
    z = profile.probability(mode)
    if z < sys.float_info.min:
        raise DomainError(
            f"the vacuum probability of mode {mode!r}, {z}, is zero or subnormal, below "
            f"the smallest normal float {sys.float_info.min}: it underflows, for "
            "example because the plateau rate in config key 'profile' is too steep")
    if n_oscillators == 1:
        return 0.0, 1.0, 0.0
    p = 1.0 / n_oscillators
    entropy = -p * math.log(p) - (1.0 - p) * math.log1p(-p)
    return entropy, math.sqrt(1.0 - p), math.sqrt(p)


def ccr_check(rep: Representation) -> dict[tuple[str, ...], float]:
    """Measure how well the built operators satisfy the mode algebra.

    Returns one deviation per key: ``("commutator", m, n)`` is
    max |([a_m, a_n^dag] - delta_mn I_m) Q| with Q the projector onto the
    below-cutoff subspace, where truncation is invisible;
    ``("centrality", m, n)`` the unrestricted commutators of I_m with a_n
    and a_n^dag; ``("vacuum", m)`` the norm |a_m vacuum|. Magnitudes only,
    it never raises.
    """
    deviations = {}
    for m_lab in rep.mode_labels:
        a_m = rep.lowering[m_lab]
        deviations["vacuum", m_lab] = float(np.linalg.norm(a_m @ rep.vacuum.amplitudes))
        for n_lab in rep.mode_labels:
            ad_n = rep.raising(n_lab)
            comm = a_m @ ad_n - ad_n @ a_m
            if m_lab == n_lab:
                comm[np.diag_indices(rep.dim)] -= rep.central[m_lab]
            deviations["commutator", m_lab, n_lab] = float(
                np.max(np.abs(comm[:, rep.below_cutoff_mask]), initial=0.0)
            )
        i_m = rep.central[m_lab]
        for n_lab in rep.mode_labels:
            # [I_m, x] has entries (d_i - d_j) x_ij for I_m = diag(d)
            deviations["centrality", m_lab, n_lab] = max(
                float(np.max(np.abs(i_m[:, None] * x - x * i_m)))
                for x in (rep.lowering[n_lab], rep.raising(n_lab)))
    return deviations
