"""The reducible N-oscillator representation at brute-force sizes.

Every oscillator carries all modes; the mode operators are collective,
their commutators close on central elements with spectrum {s/N}, and the
vacuum is an N-fold tensor power parametrized by probabilities Z_k. The
dynamics runs on the generator H/sqrt(Z), which every evolution of a
reducible representation uses. This script
cross-checks the closed-form atomic density (sector sums with binomial
and multinomial vacuum weights) against direct tensor simulation for
N = 1, 2, 3 and shows the N = 1 coherence extinction.
"""

import math


from ccrlab import (
    VacuumProfile,
    build_reducible,
    rho_atoms_reducible,
    trace_distance,
)
from ccrlab.dynamics import IDX_MP, IDX_PM
from ccrlab.scenarios import simulated_atomic_density

profile = VacuumProfile.uniform(2)  # Z1 = Z2 = Z = 1/2
print("uniform two-mode vacuum profile, generator H/sqrt(Z)")
print()
print(" N    t/pi   |brute - closed|   atom-atom coherence")
for n in (1, 2, 3):
    rep = build_reducible(n, profile, n_max=1)
    for frac in (0.25, 0.5):
        t = frac * math.pi
        brute = simulated_atomic_density(rep, t, ("k1", "k2"))
        closed = rho_atoms_reducible(t, n, 0.5, 0.5, 0.5)
        d = trace_distance(brute, closed)
        coh = abs(brute[IDX_PM, IDX_MP])
        print(f" {n}    {frac:4.2f}   {d:14.2e}   {coh:18.12f}")
print()
print("At N = 1 the |+-><-+| coherence vanishes identically (the joint")
print("sector weight requires two excitations from a single oscillator),")
print("so the atoms stay unentangled no matter how long they interact;")
print("the irreducible Bell state is recovered only for LARGE N.")
