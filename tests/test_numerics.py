import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gpchannels.errors import InvalidDistributionError, InvalidStateError
from gpchannels.numerics import (
    as_distribution,
    check_density_matrix,
    majorizes,
    shannon_entropy,
    von_neumann_entropy,
)


@pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf, complex(0.5, np.nan)])
def test_check_density_matrix_refuses_non_finite_entries(entry):
    rho = np.array([[0.5, 0.0], [0.0, 0.5]], dtype=complex)
    rho[0, 0] = entry
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for check in (check_density_matrix, von_neumann_entropy):
            with pytest.raises(InvalidStateError, match="^matrix has non-finite entries$"):
                check(rho)
    with pytest.raises(InvalidStateError, match="^matrix has non-finite entries$"):
        von_neumann_entropy(np.full((2, 2), np.nan))


def test_as_distribution_accepts_valid():
    p = as_distribution([0.25, 0.5, 0.25])
    assert np.allclose(p, [0.25, 0.5, 0.25])


def test_as_distribution_clamps_tiny_negative():
    p = as_distribution([1.0 + 1e-14, -1e-14])
    assert p[1] == 0.0
    assert p.min() >= 0.0


def test_as_distribution_rejects_negative():
    with pytest.raises(InvalidDistributionError):
        as_distribution([1.1, -0.1])


def test_as_distribution_rejects_bad_sum():
    with pytest.raises(InvalidDistributionError):
        as_distribution([0.5, 0.4])
    with pytest.raises(InvalidDistributionError, match="^empty probability vector$"):
        as_distribution([])


def test_as_distribution_rejects_nan():
    with pytest.raises(InvalidDistributionError):
        as_distribution([np.nan, 1.0])


def test_shannon_entropy_uniform():
    for n in (2, 3, 5, 9):
        assert shannon_entropy(np.full(n, 1.0 / n)) == pytest.approx(np.log(n), abs=1e-12)


def test_shannon_entropy_deterministic():
    # 0 log 0 contributes nothing
    assert shannon_entropy([1.0, 0.0, 0.0]) == 0.0


def test_check_density_matrix_accepts_mixed_state():
    rho = np.diag([0.5, 0.3, 0.2]).astype(complex)
    out = check_density_matrix(rho)
    assert np.allclose(out, rho)


def test_check_density_matrix_rejects_nonhermitian():
    with pytest.raises(InvalidStateError):
        check_density_matrix(np.array([[0.5, 0.1], [0.3, 0.5]]))
    with pytest.raises(InvalidStateError, match=r"got shape \(2, 3\)$"):
        check_density_matrix(np.zeros((2, 3)))


def test_check_density_matrix_rejects_negative_eigenvalue():
    with pytest.raises(InvalidStateError):
        check_density_matrix(np.array([[1.2, 0.0], [0.0, -0.2]]))


def test_check_density_matrix_rejects_wrong_trace():
    with pytest.raises(InvalidStateError):
        check_density_matrix(np.eye(2))


def test_von_neumann_entropy_pure_and_maximally_mixed():
    pure = np.zeros((3, 3), dtype=complex)
    pure[0, 0] = 1.0
    assert von_neumann_entropy(pure) == pytest.approx(0.0, abs=1e-12)
    assert von_neumann_entropy(np.eye(4) / 4) == pytest.approx(np.log(4), abs=1e-12)


def test_von_neumann_entropy_basis_invariant(rng):
    evs = np.array([0.6, 0.3, 0.1])
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    rho = q @ np.diag(evs) @ q.conj().T
    assert von_neumann_entropy(rho) == pytest.approx(shannon_entropy(evs), abs=1e-10)


def test_majorizes_uniform_is_bottom():
    assert majorizes([0.5, 0.3, 0.2], np.full(3, 1 / 3))
    assert not majorizes(np.full(3, 1 / 3), [0.5, 0.3, 0.2])
    with pytest.raises(ValueError, match="length mismatch: 2 vs 3$"):
        majorizes([0.5, 0.5], [0.2, 0.3, 0.5])


def test_majorizes_self():
    assert majorizes([0.7, 0.3], [0.3, 0.7])  # order must not matter


@given(st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=2, max_size=8))
def test_entropy_bounds(weights):
    p = np.asarray(weights)
    p = p / p.sum()
    h = shannon_entropy(p)
    assert -1e-12 <= h <= np.log(p.size) + 1e-12


@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=6))
def test_any_distribution_majorizes_uniform(weights):
    p = np.asarray(weights)
    total = p.sum()
    if total <= 0:
        return
    p = p / total
    assert majorizes(p, np.full(p.size, 1.0 / p.size))
