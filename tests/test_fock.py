import math

import numpy as np
import pytest

from ccrlab.exceptions import ValidationError
from ccrlab.fock import annihilation, number_operator


def test_two_level_ladder():
    assert np.array_equal(annihilation(1), np.array([[0, 1], [0, 0]], dtype=complex))


def test_matrix_elements_forced_by_number_eigenvalues():
    a = annihilation(2)
    expected = np.zeros((3, 3), dtype=complex)
    expected[0, 1] = 1.0
    expected[1, 2] = math.sqrt(2.0)
    assert np.array_equal(a, expected)


def test_commutator_defect_at_top_level():
    a = annihilation(3)
    comm = a @ a.conj().T - a.conj().T @ a
    assert np.allclose(comm, np.diag([1.0, 1.0, 1.0, -3.0]))


def test_number_operator_exact():
    assert np.array_equal(number_operator(3), np.diag([0.0, 1.0, 2.0, 3.0]))
    a = annihilation(3)
    product = a.conj().T @ a
    assert np.max(np.abs(product - number_operator(3))) <= 1e-15
    # superdiagonal structure is exact: the product is strictly diagonal
    assert np.count_nonzero(product - np.diag(np.diag(product))) == 0


def test_vacuum_annihilated_exactly():
    vac = np.zeros(5)
    vac[0] = 1.0
    assert np.count_nonzero(annihilation(4) @ vac) == 0


def test_rejects_negative_n_max():
    with pytest.raises(ValidationError):
        annihilation(-1)
