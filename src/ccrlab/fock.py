"""Truncated single-oscillator Fock space: ladder and number operators.

A truncation keeping occupations 0..n_max realizes the ladder algebra
exactly on every state with no amplitude at the top level; the commutator
picks up a defect -(n_max + 1) in the (n_max, n_max) corner.
"""

from __future__ import annotations

import numpy as np

from .exceptions import ValidationError


def _check_n_max(n_max: int) -> int:
    n = int(n_max)
    if n < 0:
        raise ValidationError(f"n_max must be >= 0, got {n_max}")
    return n


def annihilation(n_max: int) -> np.ndarray:
    """Lowering operator on occupations 0..n_max: a[n-1, n] = sqrt(n)."""
    n = _check_n_max(n_max)
    return np.diag(np.sqrt(np.arange(1, n + 1)), k=1)


def number_operator(n_max: int) -> np.ndarray:
    """Occupation-number operator diag(0, 1, ..., n_max); exact in truncation."""
    n = _check_n_max(n_max)
    return np.diag(np.arange(n + 1, dtype=float))

