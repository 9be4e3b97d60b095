"""Two-mode irreducible representation: entanglement is already in the photon.

One photon split over two orthogonal modes, each mode coupled to its own
two-level atom. In the representation where each mode owns an oscillator,
the initial photon state (|10> + |01>)/sqrt(2) is itself maximally
entangled across the mode cut (ln 2 nats), the propagator factorizes into
operators local to each (atom, mode) pair, and the atoms end up in a Bell
state at t = pi/2: the entanglement is exchanged locally.
"""

import math

from ccrlab import (
    Bipartition,
    build_infinity_two_mode,
    concurrence,
    evolve,
    mode_excitation_state,
    partial_trace,
    rho_atoms_irreducible,
    single_photon_initial_state,
    trace_distance,
)
from ccrlab.entanglement import marginal_entropy

rep = build_infinity_two_mode(1)

photon = mode_excitation_state(rep, "mode1", "mode2")
entropy = marginal_entropy(photon, Bipartition(("mode1",)))
print(f"mode-bipartition entropy of the shared photon: {entropy:.12f} nats")
print(f"ln 2                                         : {math.log(2):.12f} nats")
print()

pairs = [("mode1", 0), ("mode2", 1)]
psi0 = single_photon_initial_state(rep, ("mode1", "mode2"))

# one evolution and one reduction for the whole time grid: a (T, 4, 4) stack
fracs = (0.0, 0.125, 0.25, 0.375, 0.5)
times = [frac * math.pi for frac in fracs]
atoms = partial_trace(evolve(rep, pairs, psi0, times), Bipartition(("atom1", "atom2")))
conc = concurrence(atoms)
dist = trace_distance(atoms, rho_atoms_irreducible(times))

print(" t/pi   concurrence   sin^2(t)   distance to closed form")
for frac, t, c, d in zip(fracs, times, conc, dist):
    print(f" {frac:4.3f}   {c:11.9f}   {math.sin(t)**2:8.6f}   {d:.2e}")

print()
print("The atoms are maximally entangled at t = pi/2; since the dynamics is")
print("a product of local pieces, that entanglement had to be present in")
print("the initial photon state of this representation.")
