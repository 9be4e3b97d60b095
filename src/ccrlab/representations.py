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
from dataclasses import dataclass

import numpy as np

from . import fock
from .exceptions import ConfigError, SizeLimitError, ValidationError
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
    """Vacuum amplitude O_k per wave-vector label, with Z_k = |O_k|^2.

    The probabilities must sum to one; ``z_max`` (the largest Z_k) is the
    renormalization constant of the reducible dynamics.
    """

    labels: tuple[str, ...]
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        labels = tuple(str(lab) for lab in self.labels)
        amps = np.array(self.amplitudes, dtype=complex).reshape(-1)
        if len(labels) != amps.size:
            raise ValidationError(
                f"profile has {len(labels)} labels but {amps.size} amplitudes"
            )
        if len(set(labels)) != len(labels):
            raise ValidationError(f"profile labels must be unique, got {labels}")
        total = float(np.sum(np.abs(amps) ** 2))
        if not abs(total - 1.0) <= TOL_PROFILE:  # NaN fails too
            raise ValidationError(
                f"profile probabilities must sum to 1, got {total!r}"
            )
        amps.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    @property
    def z_max(self) -> float:
        return float(np.max(self.probabilities))

    def probability(self, label: str) -> float:
        return float(self.probabilities[self.labels.index(label)])

    @classmethod
    def from_probabilities(cls, labels, probabilities) -> "VacuumProfile":
        """Profile with the conventional real nonnegative O_k = sqrt(Z_k)."""
        probs = np.asarray(probabilities, dtype=float)
        if np.any(probs < 0):
            raise ValidationError("probabilities must be nonnegative")
        return cls(tuple(labels), np.sqrt(probs).astype(complex))

    @classmethod
    def uniform(cls, n_modes: int) -> "VacuumProfile":
        """Flat profile Z_k = 1/n_modes over labels k1..k<n>."""
        if n_modes < 1:
            raise ValidationError("uniform profile needs at least one mode")
        labels = tuple(f"k{i + 1}" for i in range(n_modes))
        return cls.from_probabilities(labels, np.full(n_modes, 1.0 / n_modes))

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
        return cls.from_probabilities(labels, weights / weights.sum())


@dataclass(frozen=True, eq=False)
class Representation:
    """A concrete realization of the mode algebra on a finite space.

    ``lowering[k]`` and ``central[k]`` act on the full field space whose
    tensor structure is ``factorization``; ``number_op`` is the total
    photon-number operator used for excitation bookkeeping, and
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


@dataclass(frozen=True)
class CcrReport:
    """Measured deviations from the mode algebra, per operator pair.

    ``commutator`` holds max |([a_m, a_n^dag] - delta_mn I_m) Q| with Q the
    projector onto the below-cutoff subspace; ``centrality`` the unrestricted
    commutators of I_k with every ladder operator; ``vacuum_annihilation``
    the norms |a_k vacuum|.
    """

    commutator: dict[tuple[str, str], float]
    centrality: dict[tuple[str, str], float]
    vacuum_annihilation: dict[str, float]

    @property
    def max_deviation(self) -> float:
        pools = (
            list(self.commutator.values())
            + list(self.centrality.values())
            + list(self.vacuum_annihilation.values())
        )
        return max(pools) if pools else 0.0


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
    all-zero tuple, ``number_op`` is diagonal in the tuple totals, the
    central elements are the identity, and a basis state is below the
    cutoff when adding one quantum to any slot stays in the basis. Only
    ``fact`` tells the representations apart; ``n_max`` is only recorded.
    """
    index = {tup: i for i, tup in enumerate(basis)}
    dim = len(basis)
    lowering = {}
    for label, slot in modes.items():
        a = np.zeros((dim, dim), dtype=complex)
        for tup, col in index.items():
            if tup[slot]:
                lowered = tup[:slot] + (tup[slot] - 1,) + tup[slot + 1:]
                a[index[lowered], col] = math.sqrt(tup[slot])
        lowering[label] = a
    identity = np.eye(dim, dtype=complex)
    vac = np.zeros(dim, dtype=complex)
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
        number_op=np.diag([float(sum(tup)) for tup in basis]).astype(complex),
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
    """One-oscillator building blocks on the |k, n> basis (k-major order)."""
    m = len(profile.labels)
    ladder_dim = n_max + 1
    a = fock.annihilation(n_max)
    eye_ladder = np.eye(ladder_dim, dtype=complex)
    lowering = {}
    projectors = {}
    for i, label in enumerate(profile.labels):
        pk = np.zeros((m, m), dtype=complex)
        pk[i, i] = 1.0
        lowering[label] = kron(pk, a)
        projectors[label] = kron(pk, eye_ladder)
    vac = kron_vector(profile.amplitudes, _ground_state(ladder_dim))
    number = kron(np.eye(m, dtype=complex), fock.number_operator(n_max))
    return lowering, projectors, vac, number


def _ground_state(dim: int) -> np.ndarray:
    e0 = np.zeros(dim, dtype=complex)
    e0[0] = 1.0
    return e0


def kron_vector(*vectors) -> np.ndarray:
    """Kronecker product of one or more vectors."""
    out = np.asarray(vectors[0], dtype=complex).reshape(-1)
    for v in vectors[1:]:
        out = np.kron(out, np.asarray(v, dtype=complex).reshape(-1))
    return out


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
    vacuum is the N-fold tensor power of ``sum_k O_k |k, 0>``. Intended
    for brute-force work at small N; a field dimension above
    :data:`BRUTE_FORCE_CEILING` raises :class:`SizeLimitError`, decided
    without expanding the power.

    Each collective sum ``S_N = sum_n op^(n)`` (lowering, central and
    photon-number operators) is built by the Kronecker-sum recurrence
    ``S_n = S_(n-1) (x) 1_f + 1_(f^(n-1)) (x) op`` from a 1x1 zero, so
    level n works at dimension f^n and the full-size matrix is written
    about twice instead of once per oscillator.
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
    eye_factor = np.eye(factor_dim, dtype=complex)

    def collective(op: np.ndarray) -> np.ndarray:
        total = np.zeros((1, 1), dtype=complex)
        for level in range(n_osc):
            total = kron(total, eye_factor)
            total += embed_operator(op, (factor_dim**level, factor_dim), 1)
        return total

    lowering = {}
    central = {}
    for label in labels:
        lowering[label] = collective(one_lowering[label])
        lowering[label] /= math.sqrt(n_osc)
        central[label] = collective(one_proj[label])
        central[label] /= n_osc

    vac = kron_vector(*[one_vac] * n_osc)
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
    over the field basis (``np.diag`` gives the matrix).

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


# Sector counts at or below this go through the exact small-coefficient
# table; larger ones through the Stirling branch (series error < 1e-15
# from 25 upward).
_SMALL_SECTOR = 24
_LD = np.longdouble


def _xlogy_ld(x: np.ndarray, y) -> np.ndarray:
    """x * log(y) with the 0 * log(0) = 0 convention, in extended precision."""
    x = np.asarray(x, dtype=_LD)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = x * np.log(np.asarray(y, dtype=_LD))
    return np.where(x == 0, _LD(0), out)


def _log_binomial_bulk(n, s, z, q):
    """ln C(n, s) z^s q^(n-s) by Stirling's series, q = 1 - z.

    A relative-entropy term, taken through log1p around the binomial mean
    so that its large logs do not cancel, plus the half-log and the
    series corrections. Accurate to ~1e-16 for min(s, n - s) >
    _SMALL_SECTOR. Arguments are extended precision; ``s`` is a 0-d value
    (one cell, in scalar arithmetic) or an array of cells.
    """
    r = n - s

    def corrections(x):
        inv = 1.0 / x
        inv2 = inv * inv
        return inv / 12 - inv * inv2 / 360 + inv * inv2 * inv2 / 1260 - inv * inv2**3 / 1680

    with np.errstate(divide="ignore", invalid="ignore"):
        # s ln(s/(nZ)) + (n-s) ln((n-s)/(n(1-Z))), the only large terms
        t1 = s * np.log1p((s - n * z) / (n * z))
        t2 = r * np.log1p((n * z - s) / (n * q))
    half = 0.5 * np.log(n / (_LD(2 * np.pi) * s * r))
    return -(t1 + t2) + half + (corrections(n) - corrections(s) - corrections(r))


def log_binomial_weights(n: int, s: np.ndarray, z: float) -> np.ndarray:
    """ln C(n, s) z^s (1-z)^(n-s), cell by cell, in extended precision.

    A cancellation-free Stirling form in the bulk
    (:func:`_log_binomial_bulk`) and exact small-coefficient logs near the
    edges, so each cell stands alone: no cell depends on the others in
    ``s``, whose order and gaps are free. Each cell costs ~25
    extended-precision operations, so it serves single cells: the anchors
    of the closed form's float64 tables (:func:`_log_binomial_table`,
    :func:`joint_sector_sum`), the point masses z in {0, 1}, and, as their
    oracle, the checks that compare those tables with it. A single bulk
    cell, which every anchor is at large n, runs as scalar arithmetic.
    """
    s = np.asarray(s)
    n_ld = _LD(n)
    z_ld = _LD(z)
    q_ld = _LD(1) - z_ld
    if s.size == 1 and _SMALL_SECTOR < s.flat[0] < n - _SMALL_SECTOR:
        return np.full(s.shape, _log_binomial_bulk(n_ld, _LD(s.flat[0]), z_ld, q_ld))
    s_ld = s.astype(_LD)
    out = np.empty(s.shape, dtype=_LD)

    lo = s <= _SMALL_SECTOR
    hi = ~lo & (n - s <= _SMALL_SECTOR)
    mid = ~(lo | hi)

    if lo.any() or hi.any():
        # ln C(n, k) for k = 0.._SMALL_SECTOR, by the exact product recurrence
        j = np.arange(1, min(_SMALL_SECTOR, n) + 1, dtype=_LD)
        table = np.concatenate([np.zeros(1, dtype=_LD),
                                np.cumsum(np.log(n_ld - j + 1) - np.log(j))])
        edge = lo | hi
        idx = np.where(lo, s, n - s)[edge]
        out[edge] = (
            table[idx]
            + _xlogy_ld(s_ld[edge], z_ld)
            + _xlogy_ld(n_ld - s_ld[edge], q_ld)
        )
    if mid.any():
        out[mid] = _log_binomial_bulk(n_ld, s_ld[mid], z_ld, q_ld)
    return out


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
                     anchor: int, offset) -> np.ndarray:
    """f(j) - f(anchor) + offset for j = lo..hi in float64, no extended precision.

    The steps are f(j) - f(j - 1) = ln((lam - p j) / (q j)), q = 1 - p,
    with lam an exact float pair (hi, lo): lam = (n + 1) z and p = z give
    the binomial log-ratios ln(z (n + 1 - j) / ((1 - z) j)), lam = n z and
    p = 0 the power-series ones ln(n z / j). Near the bulk, |x| < 1/2 with
    x = (lam - j) / (q j), a step is log1p(x), whose numerator
    (lam_hi - j) + lam_lo is exactly centred (Sterbenz). x falls with j,
    so those cells are one run; outside it a step is the log of the ratio,
    whose numerator takes p j exactly from a split of p. The prefix sums
    carry the sum of their TwoSum errors (Ogita, Rump & Oishi's Sum2), so
    their rounding does not grow with the window. ``offset``, an
    extended-precision anchor value, enters as two floats.
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
    low = (errors[window] - errors[k]) + float(offset - _LD(float(offset)))
    return (total[window] - total[k]) + low + float(offset)


def _log_binomial_table(n: int, z: float) -> np.ndarray:
    """ln Bin(n, s; z) over ``binomial_support(n, z)``, in float64.

    One :func:`_log_ratio_table` recurrence anchored at floor(n z), whose
    value is one cell of the extended-precision per-cell formula
    :func:`log_binomial_weights`; the point masses z in {0, 1} are read
    from that formula whole. Within a few 1e-14 relative of it in every
    weight.
    """
    support = binomial_support(n, z)
    if not 0.0 < z < 1.0:
        return log_binomial_weights(n, support, z).astype(float)
    anchor = min(max(math.floor(n * z), support[0]), support[-1])
    log_w = log_binomial_weights(n, np.array([anchor]), z)[0]
    return _log_ratio_table(_two_prod(n + 1.0, z), z, support[0], support[-1],
                            anchor, log_w)


def log_joint_weights(
    n: int, s: np.ndarray, s_prime: np.ndarray, z1: float, z2: float
) -> np.ndarray:
    """log multinomial weight matrix over the outer grid s (rows) x s' (cols).

    C(n; s, s') z1^s z2^s' (1-z1-z2)^(n-s-s') is evaluated as
    Bin(n, s; z1) Bin(n - s, s'; z2 / (1 - z1)), both factors from the
    per-cell formula :func:`log_binomial_weights` in extended precision.
    Entries with s + s' > n are -inf (the coefficient vanishes there). With
    z1 = 1 no oscillator is left for mode 2, so only s' = 0 carries weight.
    Costs one binomial evaluation per row and ~25 extended-precision
    operations per cell: meant for a few cells, not for whole sector grids
    (see :func:`joint_sector_sum`).
    """
    s = np.asarray(s)
    s_prime = np.asarray(s_prime)
    # clip guards roundoff when z1 + z2 ~ 1
    q = min(_LD(z2) / (_LD(1) - _LD(z1)), _LD(1)) if z1 < 1.0 else _LD(0)
    rows = log_binomial_weights(n, s, z1)
    out = np.full((s.size, s_prime.size), -np.inf, dtype=_LD)
    for i, s_i in enumerate(s):
        fits = s_prime <= n - s_i
        out[i, fits] = rows[i] + log_binomial_weights(n - s_i, s_prime[fits], q)
    return out


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
    n: int, z1: float, z2: float, f1: np.ndarray, f2: np.ndarray
) -> np.ndarray:
    """Sum over s, s' of the multinomial vacuum weight times f1(s) f2(s').

    The weight is C(n; s, s') z1^s z2^s' z0^(n-s-s') with z0 = 1 - z1 - z2,
    zero for s + s' > n. ``f1`` and ``f2`` are tabulated over
    ``binomial_support(n, z1)`` and ``binomial_support(n, z2)`` along their
    last axis; leading axes (e.g. time) are summed row by row.

    The weight factors as w0 a(s) b(s') c(s + s') with a ~ (n z1)^s / s!,
    b ~ (n z2)^s' / s'! and c(k) ~ (n z0)^(n-k) / (n-k)!, all normalized
    at an anchor cell (s0, s0') near the mean. The anchor weight w0 comes
    from :func:`log_joint_weights`, i.e. from the per-cell binomial
    formula :func:`log_binomial_weights` in extended precision, which is
    also the tables' oracle; the log tables are float64 compensated
    log-ratio recurrences (:func:`_log_ratio_table`, with n z0 an exact
    float pair from TwoSum and Dekker's product), exponentiated in
    float64. The double sum is then sum_k c(k) (x * y)(k) with x = a f1
    and y = b f2, one 1-D convolution per row, taken for the whole row
    stack by one zero-padded ``rfft``/``irfft``: O((|a| + |b|) log(|a| +
    |b|)) per row instead of the direct O(|a| |b|), which took most of the
    call at N = 1e6. Its rounding is of order 1e-16 absolute on the
    unit-scale sums here, and the length-4 transform of the N = 1 tables
    is exact, so the N = 1 coherence stays exactly 0. For z0 = 0 the
    weight is the point mass s' = n - s, i.e. the float64 binomial table
    Bin(n, s; z1).
    """
    return _joint_sector_sum(n, z1, z2, f1, f2, None)


def _joint_sector_sum(n: int, z1: float, z2: float, f1: np.ndarray,
                      f2: np.ndarray, w1: np.ndarray | None) -> np.ndarray:
    """:func:`joint_sector_sum`, given mode 1's binomial weights ``w1`` over
    ``binomial_support(n, z1)`` when the caller has them (None builds them
    if the point mass z0 = 0 needs them)."""
    s1 = binomial_support(n, z1)
    s2 = binomial_support(n, z2)
    f1 = np.asarray(f1, dtype=float)
    f2 = np.asarray(f2, dtype=float)
    if f1.shape[-1] != s1.size or f2.shape[-1] != s2.size:
        raise ValidationError(
            f"f1, f2 need {s1.size} and {s2.size} entries on their last axis, "
            f"got {f1.shape[-1]} and {f2.shape[-1]}"
        )
    # 1 - z1 - z2 exactly, as z0 + err1 + err2
    rest, err1 = _two_sum(1.0, -z1)
    z0, err2 = _two_sum(rest, -z2)
    if z0 + (err1 + err2) <= 0:
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
    c = np.exp(_log_ratio_table((lam_hi, lam_lo + n * (err1 + err2)), 0.0, n - k_hi,
                                n - k_lo, r0, log_w0)[::-1])

    lead = np.broadcast_shapes(f1.shape[:-1], f2.shape[:-1])
    x = np.broadcast_to(a * f1, lead + a.shape).reshape(-1, a.size)
    y = np.broadcast_to(b * f2, lead + b.shape).reshape(-1, b.size)
    size = 1 << (a.size + b.size - 2).bit_length()
    conv = np.fft.irfft(np.fft.rfft(x, size) * np.fft.rfft(y, size), size)
    return (conv[:, : c.size] @ c).reshape(lead)


def mode_excitation_state(rep: Representation, mode: str, *more: str) -> StateVector:
    """Normalized single-quantum state (sum_k a_k^dag) |vacuum> over the given modes.

    Each a_k^dag |vacuum> is taken as (vacuum^dag a_k)^dag, one
    vector-matrix product, so no conjugate-transposed operator is formed.
    """
    modes = (mode, *more)
    vac = rep.vacuum.amplitudes
    raised = sum((vac.conj() @ rep.lowering_of(mode)).conj() for mode in modes)
    state = StateVector(raised, rep.factorization)
    if state.norm < 1e-15:
        raise ValidationError(f"modes {modes} create nothing from the vacuum")
    return state.normalized()


def single_mode_cut(
    n_oscillators: int, profile: VacuumProfile, mode: str, n_max: int = 1
) -> tuple[float, float, float]:
    """Entropy and Schmidt pair of the reducible single-mode excitation, osc1 | rest.

    Normalized, a_k^dag |vacuum> is the W-type state N^(-1/2) sum_n
    |O .. (k, 1)_n .. O>, so for any profile and n_max >= 1 the 1|(N-1) cut
    has the Schmidt pair (sqrt(1 - 1/N), sqrt(1/N)) and the entropy h(1/N)
    in nats. Returns ``(entropy, schmidt_1, schmidt_2)``. Fails like
    ``mode_excitation_state(build_reducible(...), mode)``, with no size ceiling.
    """
    if n_oscillators < 1 or n_max < 0 or mode not in profile.labels:
        raise ConfigError(f"need N >= 1, n_max >= 0 and a profile mode, got "
                          f"N={n_oscillators}, n_max={n_max}, mode={mode!r}")
    if n_max == 0 or math.sqrt(profile.probability(mode)) < 1e-15:
        raise ValidationError(f"mode {mode!r} creates nothing from the vacuum")
    if n_oscillators == 1:
        return 0.0, 1.0, 0.0
    p = 1.0 / n_oscillators
    entropy = -p * math.log(p) - (1.0 - p) * math.log1p(-p)
    return entropy, math.sqrt(1.0 - p), math.sqrt(p)


def ccr_check(rep: Representation) -> CcrReport:
    """Measure how well the built operators satisfy the mode algebra.

    Commutator deviations are evaluated with columns restricted to the
    below-cutoff subspace, where truncation is invisible; centrality and
    vacuum annihilation are unrestricted. Returns magnitudes only, never
    raises.
    """
    commutator = {}
    centrality = {}
    vacuum = {}
    for m_lab in rep.mode_labels:
        a_m = rep.lowering[m_lab]
        vacuum[m_lab] = float(np.linalg.norm(a_m @ rep.vacuum.amplitudes))
        for n_lab in rep.mode_labels:
            ad_n = rep.raising(n_lab)
            comm = a_m @ ad_n - ad_n @ a_m
            if m_lab == n_lab:
                comm = comm - rep.central[m_lab]
            commutator[(m_lab, n_lab)] = float(
                np.max(np.abs(comm[:, rep.below_cutoff_mask]), initial=0.0)
            )
        i_m = rep.central[m_lab]
        for n_lab in rep.mode_labels:
            a_n = rep.lowering[n_lab]
            dev_a = float(np.max(np.abs(i_m @ a_n - a_n @ i_m)))
            dev_ad = float(
                np.max(np.abs(i_m @ a_n.conj().T - a_n.conj().T @ i_m))
            )
            centrality[(m_lab, n_lab)] = max(dev_a, dev_ad)
    return CcrReport(
        commutator=commutator,
        centrality=centrality,
        vacuum_annihilation=vacuum,
    )
