"""The excitation-exchange propagator in closed form.

For H = R^dag (x) A + R (x) A^dag, with R the two-level lowering operator,
and the singular value decomposition A = U S V^dag, exp(-iHt) is the 2x2
block matrix [[U cos(tS) U^dag, -i U sin(tS) V^dag], [-i V sin(tS) U^dag,
V cos(tS) V^dag]]. No property of A is needed, and one SVD serves every
time point. This script checks the block form against a brute-force
matrix exponential for random couplings and shows the full Rabi transfer
of the scalar-mode case.
"""

import math

import numpy as np

from ccrlab import closed_form_evolution, expm_generator
from ccrlab.dynamics import ATOM_LOWERING

rng = np.random.default_rng(1)

print("Closed-form propagator vs spectral matrix exponential")
print("=" * 60)
for dim in (2, 4, 7):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = np.kron(ATOM_LOWERING.conj().T, a) + np.kron(ATOM_LOWERING, a.conj().T)
    for t in (0.3, math.pi / 2):
        u_closed = closed_form_evolution(a, t)
        u_oracle = expm_generator(h, t)
        dev = np.max(np.abs(u_closed - u_oracle))
        uni = np.max(np.abs(u_closed @ u_closed.conj().T - np.eye(2 * dim)))
        print(f"  dim {dim}, t = {t:5.3f}: |closed - oracle| = {dev:.2e}, "
              f"unitarity defect = {uni:.2e}")

print()
print("Scalar mode at t = pi/2 (full Rabi transfer, cos block vanishes):")
u = closed_form_evolution(np.eye(1), math.pi / 2)
for row in u:
    print("   ", "  ".join(f"{v.real:+.3f}{v.imag:+.3f}j" for v in row))
