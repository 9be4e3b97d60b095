"""Numerical laboratory for representations of the canonical commutation
relations: truncated Fock spaces, excitation-exchange dynamics in closed
form, and entanglement accounting over declared tensor factorizations."""

__version__ = "0.1.0"

from .linalg import (
    HilbertFactorization,
    StateVector,
    expm_generator,
    hermitian_eig,
    kron,
)
from .fock import annihilation, number_operator
from .representations import (
    CentralSpectrum,
    Representation,
    VacuumProfile,
    build_berezin,
    build_infinity_two_mode,
    build_reducible,
    ccr_check,
    central_spectral_projectors,
    mode_excitation_state,
)
from .dynamics import (
    closed_form_evolution,
    evolve,
    jc_hamiltonian,
    rho_atoms_irreducible,
    rho_atoms_limit,
    rho_atoms_reducible,
    single_photon_initial_state,
)
from .entanglement import (
    Bipartition,
    DensityMatrix,
    concurrence,
    marginal_entropy,
    operator_schmidt_coefficients,
    partial_trace,
    schmidt_coefficients,
    trace_distance,
    von_neumann_entropy,
)
