"""Excitation-exchange dynamics of two two-level atoms coupled to field modes.

The coupling Hamiltonian has the block form ``H = R^dag (x) A + R (x) A^dag``
with ``R`` the atomic lowering operator, so its unitary is available in
closed form from one singular value decomposition ``A = U S V^dag``:
cos(tS) blocks on the diagonal, sin(tS) blocks off it. Everything else
in the module is built on top of that identity: the two-atom
Jaynes-Cummings-type Hamiltonian, brute-force state evolution, and the
closed-form atomic density matrices of the irreducible, finite-ensemble,
and infinite-ensemble cases.

Conventions: coupling constant and hbar are 1, time is a dimensionless
phase. Atom basis index 0 is the excited state |+>, index 1 the ground
state |->. Two-atom density matrices use the product basis
(|++>, |+->, |-+>, |-->).
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .exceptions import ConfigError, DomainError, ValidationError
from .linalg import (
    HilbertFactorization,
    StateVector,
    expm_generator,
    kron,
    require_square,
    time_grid,
)
from .representations import (
    Representation,
    binomial_support,
    joint_sector_sum,
    kron_vector,
    log_binomial_weights,
    mode_excitation_state,
)

#: Atomic lowering operator R: |+> -> |->, R^2 = 0.
ATOM_LOWERING = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
#: Excited and ground kets in the (|+>, |->) basis.
KET_EXCITED = np.array([1.0, 0.0], dtype=complex)
KET_GROUND = np.array([0.0, 1.0], dtype=complex)

#: Indices into the two-atom basis (|++>, |+->, |-+>, |-->).
IDX_PP, IDX_PM, IDX_MP, IDX_MM = 0, 1, 2, 3
#: Number of excited atoms in each two-atom basis state.
ATOM_EXCITATIONS = np.array([2.0, 1.0, 1.0, 0.0])

#: Maximum ensemble size accepted by the closed-form density matrix.
MAX_ENSEMBLE = 10**6


def closed_form_evolution(a, t: float | np.ndarray) -> np.ndarray:
    """Closed-form unitary exp(-i H t) for ``H = R^dag (x) A + R (x) A^dag``.

    With the singular value decomposition ``A = U S V^dag`` it is the
    block matrix

        [[U cos(tS) U^dag,      -i U sin(tS) V^dag],
         [-i V sin(tS) U^dag,    V cos(tS) V^dag  ]]

    which is exact for any square ``A`` and has no square root and no
    removable singularity. The atom factor is ordered (|+>, |->). ``t`` is
    a scalar (returns a 2d x 2d matrix) or a 1-D array of T times (returns
    a (T, 2d, 2d) stack); ``A`` is decomposed once for all times.
    """
    arr = require_square(a, "coupling operator")
    times = time_grid(t)
    u, s, vh = np.linalg.svd(arr)
    uh, v = u.conj().T, vh.conj().T
    phases = np.multiply.outer(times, s)[..., None, :]
    cos, sin = np.cos(phases), np.sin(phases)
    return np.block([
        [(u * cos) @ uh, -1j * ((u * sin) @ vh)],
        [-1j * ((v * sin) @ uh), (v * cos) @ vh],
    ])


def coupled_factorization(rep: Representation) -> HilbertFactorization:
    """Factorization of the full atom1 (x) atom2 (x) field space."""
    atoms = HilbertFactorization((("atom1", 2), ("atom2", 2)))
    return atoms.joined_with(rep.factorization)


def _atom_operator(op: np.ndarray, slot: int) -> np.ndarray:
    eye = np.eye(2, dtype=complex)
    if slot == 0:
        return kron(op, eye)
    if slot == 1:
        return kron(eye, op)
    raise ConfigError(f"atom slot must be 0 or 1, got {slot}")


def jc_hamiltonian(
    rep: Representation,
    mode_atom_pairs: Sequence[tuple[str, int]],
    sector: np.ndarray | None = None,
) -> np.ndarray:
    """Excitation-conserving coupling H = sum_k (R_k^dag (x) i a_k - h.c.).

    ``mode_atom_pairs`` assigns each coupled atom (slot 0 or 1) to one
    field mode of ``rep``; an atom may appear at most once. The result is
    a Hermitian matrix on atom1 (x) atom2 (x) field that commutes with
    the total excitation number.

    ``sector`` is an optional boolean mask over the coupled basis, such as
    :func:`excitation_sector_mask` returns. With it the result is exactly
    ``H[np.ix_(sector, sector)]``, and no matrix on the full coupled space
    is formed. A kept state that H couples to a dropped one raises
    :class:`ValidationError`. Without it every state is kept.

    H is assembled block by block on its atom-block view: each nonzero
    r_ij of the 4x4 two-atom operator R puts r_ij (-i a_k^dag) into block
    (i, j) and conj(r_ij) (i a_k) into block (j, i). Block (i, j) keeps
    the field rows ``sector.reshape(4, d)[i]`` and columns ``[j]``, so
    only field-sized slices of a_k are ever taken.
    """
    dim_f = rep.dim
    if sector is None:
        sector = np.ones(4 * dim_f, dtype=bool)
    sector = np.asarray(sector)
    if sector.dtype != bool or sector.shape != (4 * dim_f,):
        raise ValidationError(
            f"sector must be a boolean mask of length {4 * dim_f}, got "
            f"{sector.dtype} of shape {sector.shape}"
        )
    keep = sector.reshape(4, dim_f)
    kept = [row.nonzero()[0][:, None] for row in keep]
    dropped = [(~row).nonzero()[0][:, None] for row in keep]
    offsets = np.concatenate(([0], np.cumsum(keep.sum(axis=1))))
    h = np.zeros((offsets[-1], offsets[-1]), dtype=complex)
    seen_atoms: set[int] = set()
    for mode, atom in mode_atom_pairs:
        if atom in seen_atoms:
            raise ConfigError(f"atom slot {atom} assigned to more than one mode")
        seen_atoms.add(atom)
        a_k = rep.lowering_of(mode)
        r = _atom_operator(ATOM_LOWERING, atom)
        for i, j in zip(*np.nonzero(r)):
            # Block (j, i) holds i a_k: a_k[p, q] couples field row p of
            # atom state j to field column q of atom state i.
            if a_k[kept[j], dropped[i].T].any() or a_k[dropped[j], kept[i].T].any():
                raise ValidationError(
                    "sector mask splits the excitation sectors: a kept state "
                    "couples to a dropped one"
                )
            a_kept = a_k[kept[j], kept[i].T]
            rows_i = slice(offsets[i], offsets[i + 1])
            rows_j = slice(offsets[j], offsets[j + 1])
            h[rows_i, rows_j] += r[i, j] * (-1j * a_kept.conj().T)
            h[rows_j, rows_i] += np.conj(r[i, j]) * (1j * a_kept)
    return h


def excitation_numbers(rep: Representation) -> np.ndarray:
    """Total excitation number of each atom1 (x) atom2 (x) field basis state.

    Excited atoms plus photons; the photon count is the diagonal of
    ``rep.number_op``, which is diagonal in every representation's basis.
    """
    photons = np.diag(rep.number_op).real
    return np.add.outer(ATOM_EXCITATIONS, photons).reshape(-1)


def excitation_sector_mask(rep: Representation, amplitudes: np.ndarray) -> np.ndarray:
    """Which coupled basis states share an excitation number with ``amplitudes``' support.

    The excitation numbers are integers, so a boolean table indexed by
    them marks the occupied sectors with numpy-core operations only
    (``np.isin`` would sort through ``np.unique`` and load ``numpy.ma``).
    """
    exc = excitation_numbers(rep).astype(int)
    occupied = np.zeros(exc.max() + 1, dtype=bool)
    occupied[exc[amplitudes != 0]] = True
    return occupied[exc]


def single_photon_initial_state(
    rep: Representation, modes: tuple[str, str]
) -> StateVector:
    """Both atoms in the ground state, one photon shared by two modes.

    The field part is (a_k1^dag + a_k2^dag) |vacuum>, normalized
    explicitly (:func:`~ccrlab.representations.mode_excitation_state`;
    for the ensemble vacuum the raw norm is sqrt(Z_1 + Z_2)).
    """
    field = mode_excitation_state(rep, *modes)
    full = kron_vector(KET_GROUND, KET_GROUND, field.amplitudes)
    return StateVector(full, coupled_factorization(rep))


def evolve(
    rep: Representation,
    mode_atom_pairs: Sequence[tuple[str, int]],
    psi0: StateVector,
    t: float | np.ndarray,
) -> StateVector | list[StateVector]:
    """Propagate ``psi0`` with exp(-i H_eff t), H the coupling of ``mode_atom_pairs``.

    A representation with a vacuum profile (the reducible ensemble) runs
    on H_eff = H / sqrt(Z), Z being the profile's largest vacuum
    probability; the irreducible ones, which have no profile, on H itself.

    H conserves the excitation number, so the evolution is exact on the
    sectors that ``psi0`` occupies (:func:`excitation_sector_mask`): H is
    assembled on them only (:func:`jc_hamiltonian` with ``sector=``) and
    diagonalized once for all times, and amplitudes outside them stay
    zero. ``psi0`` lives on atom1 (x) atom2 (x) field, dimension
    4 ``rep.dim``. ``t`` is a scalar (returns one state) or a 1-D array of
    times (returns one state per time).
    """
    if psi0.dim != 4 * rep.dim:
        raise ValidationError(
            f"dimension mismatch: state is {psi0.dim}, the coupled space of "
            f"the representation is {4 * rep.dim}"
        )
    inside = excitation_sector_mask(rep, psi0.amplitudes)
    h = jc_hamiltonian(rep, mode_atom_pairs, sector=inside)
    if rep.profile is not None:
        h = h / math.sqrt(rep.profile.z_max)
    u = expm_generator(h, t)
    amps = np.zeros(u.shape[:-2] + (psi0.dim,), dtype=complex)
    amps[..., inside] = u @ psi0.amplitudes[inside]
    if amps.ndim == 1:
        return StateVector(amps, psi0.factorization)
    return [StateVector(a, psi0.factorization) for a in amps]


def _two_atom_density(mm, pm, mp, coherence) -> np.ndarray:
    """(T, 4, 4) stack, or 4x4 for scalars, from |--><--|, |+-><+-|, |-+><-+|, |+-><-+|."""
    rho = np.zeros(np.shape(mm) + (4, 4), dtype=complex)
    rho[..., IDX_MM, IDX_MM] = mm
    rho[..., IDX_PM, IDX_PM] = pm
    rho[..., IDX_MP, IDX_MP] = mp
    rho[..., IDX_PM, IDX_MP] = rho[..., IDX_MP, IDX_PM] = coherence
    return rho


def rho_atoms_irreducible(t: float | np.ndarray) -> np.ndarray:
    """Two-atom density matrix after time t, any irreducible representation.

    cos^2(t) on |--><--| plus a symmetric one-excitation block of weight
    sin^2(t); maximally entangled at t = pi/2. ``t`` is a scalar (returns
    a 4x4 matrix) or a 1-D array of T times (returns a (T, 4, 4) stack).
    """
    times = time_grid(t)
    half_s2 = np.sin(times) ** 2 / 2.0
    return _two_atom_density(np.cos(times) ** 2, half_s2, half_s2, half_s2)


def _check_ensemble_params(n: int, z1: float, z2: float, z: float) -> tuple:
    n = int(n)
    if n < 1:
        raise DomainError(f"ensemble size must be >= 1, got {n}")
    if n > MAX_ENSEMBLE:
        raise DomainError(f"ensemble size {n} exceeds the supported {MAX_ENSEMBLE}")
    z1, z2, z = float(z1), float(z2), float(z)
    if z1 <= 0.0 or z2 <= 0.0:
        raise DomainError(f"mode probabilities must be positive, got {z1}, {z2}")
    if z1 + z2 > 1.0 + 1e-12:
        raise DomainError(f"z1 + z2 must be <= 1, got {z1 + z2}")
    if z < max(z1, z2) - 1e-12:
        raise DomainError(
            f"renormalization constant z = {z} must be >= max(z1, z2) = {max(z1, z2)}"
        )
    return n, z1, z2, z


def rho_atoms_reducible(
    t: float | np.ndarray, n: int, z1: float, z2: float, z: float
) -> np.ndarray:
    """Two-atom density matrix for the N-oscillator reducible representation.

    Sector sums over the spectrum {s/N} of the central elements: diagonal
    terms carry binomial vacuum weights per mode, the |+-><-+| coherence
    carries the joint multinomial weight (which vanishes identically for
    s + s' > N, killing the coherence at N = 1). Every weight is the
    float64 exponential of an extended-precision log from the anchored
    recurrence of :func:`~ccrlab.representations.log_binomial_weights`;
    the joint sum runs as a 1-D convolution of such tables
    (:func:`~ccrlab.representations.joint_sector_sum`), taken by FFT for
    all times at once; the direct O(|s| |s'|) product took most of the
    call at N = 1e6. Oscillation frequencies are sqrt(s/(N Z)) as
    produced by the H/sqrt(Z) generator.

    ``t`` is a scalar (returns a 4x4 matrix) or a 1-D array of T times
    (returns a (T, 4, 4) stack); the weights are built once for all times.
    """
    n, z1, z2, z = _check_ensemble_params(n, z1, z2, z)
    tt = time_grid(t)[..., None]

    def sector_values(z_k: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        support = binomial_support(n, z_k)
        ratio = support / n
        weights = np.exp(log_binomial_weights(n, support, z_k).astype(float))
        return ratio, weights, tt * np.sqrt(ratio / z)

    ratio1, w1, theta1 = sector_values(z1)
    ratio2, w2, theta2 = sector_values(z2)

    norm = 1.0 / (z1 + z2)
    up1 = np.sum(np.sin(theta1) ** 2 * ratio1 * w1, axis=-1)
    up2 = np.sum(np.sin(theta2) ** 2 * ratio2 * w2, axis=-1)
    down = np.sum(np.cos(theta1) ** 2 * ratio1 * w1, axis=-1) + np.sum(
        np.cos(theta2) ** 2 * ratio2 * w2, axis=-1
    )
    coherence = joint_sector_sum(
        n, z1, z2, np.sin(theta1) * np.sqrt(ratio1), np.sin(theta2) * np.sqrt(ratio2)
    )

    return _two_atom_density(norm * down, norm * up1, norm * up2, norm * coherence)


def rho_atoms_limit(t: float | np.ndarray, z1: float, z2: float, z: float) -> np.ndarray:
    """Large-ensemble limit of :func:`rho_atoms_reducible`.

    The sector sums concentrate at s/N = Z_k, leaving mode frequencies
    sqrt(Z_k / Z); with Z1 = Z2 = Z this reduces to
    :func:`rho_atoms_irreducible`. ``t`` is a scalar (returns a 4x4
    matrix) or a 1-D array of T times (returns a (T, 4, 4) stack).
    """
    _, z1, z2, z = _check_ensemble_params(1, z1, z2, z)
    times = time_grid(t)
    w1 = z1 / (z1 + z2)
    w2 = z2 / (z1 + z2)
    th1 = times * math.sqrt(z1 / z)
    th2 = times * math.sqrt(z2 / z)
    return _two_atom_density(
        w1 * np.cos(th1) ** 2 + w2 * np.cos(th2) ** 2,
        w1 * np.sin(th1) ** 2,
        w2 * np.sin(th2) ** 2,
        math.sqrt(w1 * w2) * np.sin(th1) * np.sin(th2),
    )
