import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gpchannels.errors import InvalidDistributionError
from gpchannels.numerics import _entropy, as_distribution
from references import majorizes, von_neumann_entropy


def test_entropies_of_pure_inputs_are_positive_zero():
    for entropy in (_entropy(np.array([1.0])), _entropy(np.array([0.0, 1.0]))):
        assert entropy == 0.0 and math.copysign(1.0, entropy) == 1.0


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
        assert _entropy(np.full(n, 1.0 / n)) == pytest.approx(np.log(n), abs=1e-12)


def test_shannon_entropy_deterministic():
    # 0 log 0 contributes nothing
    assert _entropy(np.array([1.0, 0.0, 0.0])) == 0.0


def test_von_neumann_entropy_pure_and_maximally_mixed():
    pure = np.zeros((3, 3), dtype=complex)
    pure[0, 0] = 1.0
    assert von_neumann_entropy(pure) == pytest.approx(0.0, abs=1e-12)
    assert von_neumann_entropy(np.eye(4) / 4) == pytest.approx(np.log(4), abs=1e-12)


def test_von_neumann_entropy_basis_invariant(rng):
    evs = np.array([0.6, 0.3, 0.1])
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    rho = q @ np.diag(evs) @ q.conj().T
    assert von_neumann_entropy(rho) == pytest.approx(_entropy(evs), abs=1e-10)


def test_majorizes_uniform_is_bottom():
    assert majorizes([0.5, 0.3, 0.2], np.full(3, 1 / 3))
    assert not majorizes(np.full(3, 1 / 3), [0.5, 0.3, 0.2])


def test_majorizes_self():
    assert majorizes([0.7, 0.3], [0.3, 0.7])  # order must not matter


@given(st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=2, max_size=8))
def test_entropy_bounds(weights):
    p = np.asarray(weights)
    p = p / p.sum()
    h = _entropy(p)
    assert -1e-12 <= h <= np.log(p.size) + 1e-12


@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=6))
def test_any_distribution_majorizes_uniform(weights):
    p = np.asarray(weights)
    total = p.sum()
    if total <= 0:
        return
    p = p / total
    assert majorizes(p, np.full(p.size, 1.0 / p.size))
