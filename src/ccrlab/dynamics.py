"""Excitation-exchange dynamics of two two-level atoms coupled to field modes.

The coupling Hamiltonian has the block form ``H = R^dag (x) A + R (x) A^dag``
with ``R`` the atomic lowering operator, so its unitary is available in
closed form from one singular value decomposition ``A = U S V^dag``:
cos(tS) blocks on the diagonal, sin(tS) blocks off it. The module also
assembles the two-atom Jaynes-Cummings-type Hamiltonian, the same form
with A = a_k for each coupled atom, evolves states by brute force, and
gives the atomic density in closed form. a_k, R and the initial states
are real, so the Hamiltonian is a real symmetric ``float64`` matrix and
``complex128`` enters only with the phases of exp(-i H t).

The closed forms of the irreducible, finite-ensemble and large-ensemble
cases share one body, :func:`rho_atoms`: a representation enters the
atomic density only through mu, the joint vacuum distribution of the
eigenvalues (r1, r2) of the central elements I_1 and I_2, which
:func:`central_measure` gives for a built representation. With
theta_k = t sqrt(r_k / Z) (the generator is H / sqrt(Z)) and
norm = 1 / E[r1 + r2], taken from mu's exact means:

    |+-><+-| = norm E[r1 sin^2 theta1], |-+><-+| likewise with r2,
    |--><--| = norm E[r1 cos^2 theta1 + r2 cos^2 theta2],
    |+-><-+| = norm E[sqrt(r1 r2) sin theta1 sin theta2].

mu is the point mass at (1, 1) with Z = 1 for the irreducible
representations, the multinomial on (s/N, s'/N) for the N-oscillator
ensemble and the point mass at (Z1, Z2) for its large-N limit;
``rho_atoms_irreducible``, ``rho_atoms_reducible`` and
``rho_atoms_limit`` evaluate these three from their parameters. Each
closed form takes ``t`` as a scalar (a 4x4 result) or a 1-D array of T
times (a (T, 4, 4) stack) and builds mu once for all times.

Conventions: coupling constant and hbar are 1, time is a dimensionless
phase. Atom basis index 0 is the excited state |+>, index 1 the ground
state |->. Two-atom density matrices use the product basis
(|++>, |+->, |-+>, |-->).
"""

from __future__ import annotations

import math
import sys
from typing import Collection, Sequence

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
    _log_binomial_table,
    binomial_support,
    joint_sector_sum,
    mode_excitation_state,
)

#: Atomic lowering operator R: |+> -> |->, R^2 = 0.
ATOM_LOWERING = np.array([[0.0, 0.0], [1.0, 0.0]])
#: Ground ket in the (|+>, |->) basis.
KET_GROUND = np.array([0.0, 1.0])

#: Indices into the two-atom basis (|++>, |+->, |-+>, |-->).
IDX_PP, IDX_PM, IDX_MP, IDX_MM = 0, 1, 2, 3
#: Number of excited atoms in each two-atom basis state.
ATOM_EXCITATIONS = np.array([2.0, 1.0, 1.0, 0.0])
#: The (lower, upper) two-atom basis pairs that raising each atom slot links.
_ATOM_RAISES = {0: ((IDX_MP, IDX_PP), (IDX_MM, IDX_PM)),
                1: ((IDX_PM, IDX_PP), (IDX_MM, IDX_MP))}

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


def jc_hamiltonian(
    rep: Representation,
    mode_atom_pairs: Sequence[tuple[str, int]],
    excitations: Collection[int] | None = None,
) -> np.ndarray:
    """Excitation-conserving coupling H = sum_k (R_k^dag (x) a_k + R_k (x) a_k^dag).

    ``mode_atom_pairs`` assigns each coupled atom (slot 0 or 1) to one
    field mode of ``rep``; an atom may appear at most once. The result is
    a real symmetric ``float64`` matrix on atom1 (x) atom2 (x) field
    (every builder's a_k is real) that commutes with the total excitation
    number. Each term is :func:`closed_form_evolution`'s form with A =
    a_k. Coupling e^{i phi} a_k instead, one phase for every mode,
    conjugates H by the local unitary diag(e^{i phi}, 1) on each atom;
    it is diagonal in the atom basis, so no concurrence, entropy,
    operator Schmidt coefficient or atom-density entry that can be
    nonzero depends on phi.

    ``excitations`` names the total excitation numbers
    (:func:`excitation_numbers`) whose sectors are kept, all of them when
    None. The result is exactly H restricted to the coupled basis states
    of those sectors, in basis order, and no matrix on the full coupled
    space is formed. H conserves the number, so whole sectors are closed
    under it.

    H is assembled block by block on its atom-block view: raising atom
    slot s takes two-atom state ``lower`` to ``upper``
    (:data:`_ATOM_RAISES`), which puts a_k into block (upper, lower) and
    its transpose a_k^dag into block (lower, upper). Each block keeps the
    field rows and columns of its atom states' kept basis states, so only
    field-sized slices of a_k are ever taken.
    """
    keep = excitation_sector_mask(rep, excitations).reshape(4, rep.dim)
    kept = [row.nonzero()[0][:, None] for row in keep]
    offsets = np.concatenate(([0], np.cumsum(keep.sum(axis=1))))
    blocks = [slice(lo, hi) for lo, hi in zip(offsets[:-1], offsets[1:])]
    h = np.zeros((offsets[-1], offsets[-1]))
    seen_atoms: set[int] = set()
    for mode, atom in mode_atom_pairs:
        if atom not in _ATOM_RAISES:
            raise ConfigError(f"atom slot must be 0 or 1, got {atom}")
        if atom in seen_atoms:
            raise ConfigError(f"atom slot {atom} assigned to more than one mode")
        seen_atoms.add(atom)
        a_k = rep.lowering_of(mode)
        for lower, upper in _ATOM_RAISES[atom]:
            # a_k[p, q] couples field row p of the upper atom state to
            # field column q of the lower one
            a_kept = a_k[kept[upper], kept[lower].T]
            h[blocks[lower], blocks[upper]] += a_kept.T
            h[blocks[upper], blocks[lower]] += a_kept
    return h


def excitation_numbers(rep: Representation) -> np.ndarray:
    """Total excitation number of each atom1 (x) atom2 (x) field basis state.

    Excited atoms plus photons; the photon counts are ``rep.number_op``,
    the diagonal of the photon-number operator.
    """
    return np.add.outer(ATOM_EXCITATIONS, rep.number_op).reshape(-1)


def excitation_sector_mask(rep: Representation,
                           excitations: Collection[int] | None = None) -> np.ndarray:
    """Which coupled basis states have a total excitation number in ``excitations``.

    Every state when ``excitations`` is None; a number that no state has
    marks nothing. The excitation numbers are integers, so a boolean
    table indexed by them marks the kept sectors with numpy-core
    operations only (``np.isin`` would sort through ``np.unique`` and
    load ``numpy.ma``).
    """
    exc = excitation_numbers(rep).astype(int)
    kept = np.array([excitations is None or e in excitations for e in range(exc.max() + 1)])
    return kept[exc]


def single_photon_initial_state(
    rep: Representation, modes: tuple[str, str]
) -> StateVector:
    """Both atoms in the ground state, one photon shared by two modes.

    The field part is (a_k1^dag + a_k2^dag) |vacuum>, normalized
    explicitly (:func:`~ccrlab.representations.mode_excitation_state`;
    for the ensemble vacuum the raw norm is sqrt(Z_1 + Z_2)). The state is
    ``float64``, as are the vacuum and the ground kets.
    """
    field = mode_excitation_state(rep, *modes)
    full = kron(KET_GROUND, KET_GROUND, field.amplitudes)
    return StateVector(full, coupled_factorization(rep))


def evolve(
    rep: Representation,
    mode_atom_pairs: Sequence[tuple[str, int]],
    psi0: StateVector,
    t: float | np.ndarray,
) -> StateVector:
    """Propagate ``psi0`` with exp(-i H_eff t), H the coupling of ``mode_atom_pairs``.

    H_eff = H / sqrt(Z), Z from :func:`_generator_scale`: the profile's
    largest vacuum probability for the reducible ensemble, 1 for the
    irreducible representations, which have no profile.

    H conserves the excitation number, so the evolution is exact on the
    sectors that ``psi0`` occupies: H is assembled on them only
    (:func:`jc_hamiltonian` with their ``excitations``), a real symmetric
    matrix diagonalized once for all times, and amplitudes outside them
    (:func:`excitation_sector_mask`) stay zero. ``psi0`` is one state (a
    stack is a ValidationError) on atom1 (x) atom2 (x) field, dimension
    4 ``rep.dim``. ``t`` is a scalar (returns one state) or a 1-D array
    of T times (returns one :class:`~ccrlab.linalg.StateVector` holding
    the (T, dim) stack); the evolved amplitudes are ``complex128``.
    """
    if psi0.amplitudes.ndim != 1:
        raise ValidationError(
            f"psi0 must be one state, got a stack of shape {psi0.amplitudes.shape}")
    if psi0.dim != 4 * rep.dim:
        raise ValidationError(
            f"dimension mismatch: state is {psi0.dim}, the coupled space of "
            f"the representation is {4 * rep.dim}"
        )
    excitations = set(excitation_numbers(rep)[psi0.amplitudes != 0])
    inside = excitation_sector_mask(rep, excitations)
    h = jc_hamiltonian(rep, mode_atom_pairs, excitations)
    u = expm_generator(h / math.sqrt(_generator_scale(rep)), t)
    amps = np.zeros(u.shape[:-2] + (psi0.dim,), dtype=complex)
    amps[..., inside] = u @ psi0.amplitudes[inside]
    return StateVector(amps, psi0.factorization)


def _generator_scale(rep: Representation) -> float:
    """Z of the generator H / sqrt(Z): the profile's largest vacuum
    probability for the reducible ensemble, 1 for the irreducible kinds."""
    return rep.profile.z_max if rep.profile is not None else 1.0


def rho_atoms(t, mu, z: float) -> np.ndarray:
    """The two-atom density of a central spectral measure mu (module docstring).

    ``mu`` is (marginals, joint): ``marginals`` holds (points, weights,
    exact mean) of r1 and of r2; ``joint(g1, g2)`` is E[g1(r1) g2(r2)]
    for g1, g2 tabulated over the points along their last axis. Each
    point takes one sine per time: cos^2 = 1 - sin^2, so |--><--| is
    norm (E[r1] + E[r2] - E[r1 sin^2] - E[r2 sin^2]), with the E[r_k]
    summed over the tabulated weights.
    """
    marginals, joint = mu
    tt = time_grid(t)[..., None]
    norm = 1.0 / (marginals[0][2] + marginals[1][2])
    rho = np.zeros(tt.shape[:-1] + (4, 4), dtype=complex)
    amplitude = []
    for idx, (r, w, _) in zip((IDX_PM, IDX_MP), marginals):
        rw = r * w
        sin = np.sin(tt * np.sqrt(r / z))
        excited = np.sum(sin**2 * rw, axis=-1)
        rho[..., idx, idx] = norm * excited
        rho[..., IDX_MM, IDX_MM] += np.sum(rw, axis=-1) - excited
        amplitude.append(sin * np.sqrt(r))
    rho[..., IDX_MM, IDX_MM] *= norm
    rho[..., IDX_PM, IDX_MP] = rho[..., IDX_MP, IDX_PM] = norm * joint(*amplitude)
    return rho


def _point_measure(r1: float, r2: float) -> tuple:
    """mu of the point mass at (r1, r2)."""
    marginals = [(np.array([r]), np.ones(1), r) for r in (r1, r2)]
    return marginals, lambda g1, g2: g1[..., 0] * g2[..., 0]


def _multinomial_measure(n: int, z1: float, z2: float) -> tuple:
    """mu of the N-oscillator vacuum: the multinomial on (s/N, s'/N).

    Binomial marginals over :func:`~ccrlab.representations.binomial_support`,
    each weight the float64 exponential of a float64 compensated
    log-ratio recurrence anchored on one cell of the float64 per-cell
    formula :func:`~ccrlab.representations.log_binomial_weights`
    (one table for both modes when z1 = z2), and the joint sum
    :func:`~ccrlab.representations.joint_sector_sum`, one FFT convolution
    for all times, whose point mass at z1 + z2 = 1 reads mode 1's table.
    """
    def marginal(z_k):
        return binomial_support(n, z_k) / n, np.exp(_log_binomial_table(n, z_k)), z_k

    first = marginal(z1)
    marginals = (first, first if z2 == z1 else marginal(z2))
    return marginals, lambda g1, g2: joint_sector_sum(n, z1, z2, g1, g2, first[1])


def central_measure(rep: Representation, modes: tuple[str, str]) -> tuple:
    """mu of ``rep``'s vacuum over the central elements of ``modes``.

    A representation without a vacuum profile (the irreducible kinds,
    whose central elements are the identity) gives the point mass at
    (1, 1); the reducible ensemble the multinomial of its N oscillators
    and the two modes' probabilities Z_k. ``rho_atoms(t, mu,
    _generator_scale(rep))`` is then the closed form of ``rep``'s
    atomic density.
    """
    if rep.profile is None:
        return _point_measure(1.0, 1.0)
    n, z1, z2, _ = _check_ensemble_params(
        rep.n_oscillators, *map(rep.profile.probability, modes), rep.profile.z_max)
    return _multinomial_measure(n, z1, z2)


def rho_atoms_irreducible(t: float | np.ndarray) -> np.ndarray:
    """Two-atom density matrix after time t, any irreducible representation.

    mu is the point mass at (1, 1) with Z = 1: cos^2(t) on |--><--| plus
    a symmetric one-excitation block of weight sin^2(t), maximally
    entangled at t = pi/2.
    """
    return rho_atoms(t, _point_measure(1.0, 1.0), 1.0)


def _check_ensemble_params(n: int, z1: float, z2: float, z: float) -> tuple:
    n = int(n)
    if n < 1:
        raise DomainError(f"ensemble size must be >= 1, got {n}")
    if n > MAX_ENSEMBLE:
        raise DomainError(f"ensemble size {n} exceeds the supported {MAX_ENSEMBLE}")
    z1, z2, z = float(z1), float(z2), float(z)
    for name, value in (("z1", z1), ("z2", z2), ("z", z)):
        if not math.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value}")
    # a subnormal z has lost precision, and the sector-weight recurrence's
    # far steps round to 0 at the smallest ones
    if min(z1, z2) < sys.float_info.min:
        why = "must be positive" if min(z1, z2) < 0.0 else (
            "underflows, for example because the plateau rate is too steep")
        raise DomainError(f"a selected mode's vacuum probability {why}: got z1 = {z1}, "
                          f"z2 = {z2}, smallest normal float {sys.float_info.min}")
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

    mu is the multinomial vacuum distribution of (s/N, s'/N)
    (:func:`_multinomial_measure`). The multinomial weight vanishes for
    s + s' > N, which kills the coherence at N = 1.
    """
    n, z1, z2, z = _check_ensemble_params(n, z1, z2, z)
    return rho_atoms(t, _multinomial_measure(n, z1, z2), z)


def rho_atoms_limit(t: float | np.ndarray, z1: float, z2: float, z: float) -> np.ndarray:
    """Large-ensemble limit of :func:`rho_atoms_reducible`.

    The multinomial concentrates at s/N = Z_k, so mu is the point mass at
    (Z1, Z2): mode frequencies sqrt(Z_k / Z). With Z1 = Z2 = Z this is
    :func:`rho_atoms_irreducible`.
    """
    _, z1, z2, z = _check_ensemble_params(1, z1, z2, z)
    return rho_atoms(t, _point_measure(z1, z2), z)
