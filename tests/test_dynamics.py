import numpy as np
import pytest

from gpchannels.dynamics import (
    PauliTrajectory,
    RateSpec,
    capacity_trajectory,
    eigenvalue_trajectory,
    non_p_divisible_capacity_witness,
    ode_eigenvalue_oracle,
    p_divisibility_check,
)
from gpchannels.errors import NotCompletelyPositiveError

LN2 = np.log(2.0)


def test_rate_spec_requires_three_entries():
    with pytest.raises(ValueError):
        RateSpec((0.1, 0.2))


def test_rate_spec_rejects_bad_tables():
    with pytest.raises(ValueError):
        RateSpec((([0.0, 0.0], [1.0, 1.0]), 0.1, 0.1))  # times not increasing
    with pytest.raises(ValueError):
        RateSpec((([0.0], [1.0]), 0.1, 0.1))  # too short
    with pytest.raises(ValueError):
        RateSpec((np.inf, 0.1, 0.1))


def test_rate_spec_evaluate_interpolates_and_clamps():
    r = RateSpec((([0.0, 1.0], [0.0, 2.0]), 0.5, 0.0))
    vals = r.evaluate(np.array([-1.0, 0.5, 2.0]))
    assert np.allclose(vals[0], [0.0, 1.0, 2.0])  # held at the ends
    assert np.allclose(vals[1], 0.5)
    assert np.allclose(vals[2], 0.0)


def test_constant_rates_give_exact_exponentials():
    g = (0.3, 0.5, 0.7)
    traj = eigenvalue_trajectory(RateSpec.constant(*g), 2.0, 41)
    t = traj.times
    expect = np.stack([
        np.exp(-(g[1] + g[2]) * t),
        np.exp(-(g[0] + g[2]) * t),
        np.exp(-(g[0] + g[1]) * t),
    ], axis=1)
    assert np.max(np.abs(traj.lambdas - expect)) < 1e-13
    assert traj.cp_everywhere
    assert traj.p_divisible


def test_linear_table_is_integrated_exactly():
    # gamma_1(t) = t on [0, 2]: integral t^2/2; Simpson is exact for linear rates
    r = RateSpec((([0.0, 2.0], [0.0, 2.0]), 0.0, 0.0))
    traj = eigenvalue_trajectory(r, 2.0, 21)
    t = traj.times
    assert np.max(np.abs(traj.lambdas[:, 1] - np.exp(-t**2 / 2))) < 1e-13
    assert np.allclose(traj.lambdas[:, 0], 1.0)


def test_trajectory_validates_arguments():
    with pytest.raises(ValueError):
        eigenvalue_trajectory(RateSpec.constant(1, 1, 1), -1.0, 10)
    with pytest.raises(ValueError):
        eigenvalue_trajectory(RateSpec.constant(1, 1, 1), 1.0, 1)


@pytest.mark.parametrize("steps", [0, 1])
def test_ode_oracle_validates_steps(steps):
    with pytest.raises(ValueError, match=f"need at least 2 steps, got {steps}"):
        ode_eigenvalue_oracle(RateSpec.constant(1, 1, 1), 1.0, steps)


def test_ode_oracle_matches_quadrature_constant_rates():
    r = RateSpec.constant(0.4, 0.2, 0.1)
    traj = eigenvalue_trajectory(r, 3.0, 61)
    lam = ode_eigenvalue_oracle(r, 3.0, 61)
    assert np.max(np.abs(traj.lambdas - lam)) < 1e-8


def test_ode_oracle_matches_quadrature_witness():
    r = non_p_divisible_capacity_witness()
    traj = eigenvalue_trajectory(r, 3.0, 301)
    lam = ode_eigenvalue_oracle(r, 3.0, 301)
    assert np.max(np.abs(traj.lambdas - lam)) < 1e-6


def test_capacity_monotone_under_constant_rates():
    traj = capacity_trajectory(eigenvalue_trajectory(RateSpec.constant(0.5, 0.3, 0.2),
                                                     4.0, 201))
    assert p_divisibility_check(traj)
    assert np.all(np.diff(traj.capacity) <= 1e-10)
    assert traj.capacity[0] == pytest.approx(LN2, abs=1e-12)


def test_capacity_plateau_single_rate():
    traj = capacity_trajectory(eigenvalue_trajectory(RateSpec.constant(0.9, 0.0, 0.0),
                                                     2.0, 101))
    assert np.max(np.abs(traj.capacity - LN2)) < 1e-12


def test_derivative_formula_where_valid():
    traj = capacity_trajectory(eigenvalue_trajectory(RateSpec.constant(0.3, 0.1, 0.0),
                                                     4.0, 801))
    mask = traj.cdot_formula_valid & (traj.times >= 0.5)
    mask[-1] = False
    assert mask.any()
    assert np.max(np.abs(traj.cdot_formula[mask] - traj.cdot_fd[mask])) < 1e-4
    assert np.all(traj.cdot_formula[mask] <= 1e-12)


def test_witness_breaks_p_divisibility_not_monotonicity():
    traj = capacity_trajectory(eigenvalue_trajectory(non_p_divisible_capacity_witness(),
                                                     3.0, 601))
    assert traj.cp_everywhere
    assert not traj.p_divisible
    assert not p_divisibility_check(traj)
    # two eigenvalues revive somewhere inside (1, 1.6)
    window = (traj.times > 1.0) & (traj.times < 1.6)
    assert np.any(np.diff(traj.lambdas[window, 1]) > 1e-4)
    # yet the capacity never grows
    assert np.all(np.diff(traj.capacity) <= 1e-10)


def test_capacity_trajectory_rejects_cp_violation():
    # one negative rate from the start pushes two eigenvalues above the CP cap
    traj = eigenvalue_trajectory(RateSpec.constant(-1.0, 0.0, 0.2), 0.5, 51)
    assert not traj.cp_everywhere
    with pytest.raises(NotCompletelyPositiveError):
        capacity_trajectory(traj)


def test_capacity_trajectory_names_where_it_leaves_cp():
    traj = eigenvalue_trajectory(RateSpec.constant(-1.0, 0.0, 0.2), 0.5, 51)
    with pytest.raises(NotCompletelyPositiveError,
                       match=r"^trajectory leaves the CP region at t=0\.01$"):
        capacity_trajectory(traj)


def test_trajectory_is_frozen():
    traj = eigenvalue_trajectory(RateSpec.constant(1, 1, 1), 1.0, 11)
    assert isinstance(traj, PauliTrajectory)
    with pytest.raises(AttributeError):
        traj.times = np.zeros(3)
