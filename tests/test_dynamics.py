import logging
import re
import time
import warnings

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from gpchannels import capacity, dynamics
from gpchannels.channels import (
    EigenvalueVector,
    cp_rows,
    probabilities_from_eigenvalues,
    superoperator,
)
from gpchannels.dynamics import (
    PauliTrajectory,
    RateSpec,
    capacity_trajectory,
    eigenvalue_trajectory,
    non_p_divisible_capacity_witness,
    ode_eigenvalue_oracle,
    p_divisibility_check,
    p_divisible_so_far,
)
from gpchannels.errors import NotCompletelyPositiveError
from gpchannels.mub import weyl_labels

LN2 = np.log(2.0)


def test_rate_spec_requires_three_entries():
    with pytest.raises(ValueError, match=r"^need exactly 3 rates, got 2$"):
        RateSpec((0.1, 0.2))


def test_rate_spec_rejects_bad_tables():
    with pytest.raises(ValueError):
        RateSpec((([0.0, 0.0], [1.0, 1.0]), 0.1, 0.1))  # times not increasing
    with pytest.raises(ValueError):
        RateSpec((([0.0], [1.0]), 0.1, 0.1))  # too short
    with pytest.raises(ValueError):
        RateSpec((np.inf, 0.1, 0.1))
    with pytest.raises(ValueError, match="^rate 2: table entries must be finite$"):
        RateSpec((0.1, ([0.0, 1.0], [0.5, np.nan]), 0.1))


@pytest.mark.parametrize("rates, message", [
    (("1", 0.1, 0.1), "rate 1: expected a number or a (times, values) pair, got '1'"),
    ((0.1, True, 0.1), "rate 2: expected a number or a (times, values) pair, got True"),
    ((0.1, 0.1, np.array(0.5)),
     "rate 3: expected a number or a (times, values) pair, got array(0.5)"),
    ((1j, 0.1, 0.1), "rate 1: expected a number or a (times, values) pair, got 1j"),
    (("x", 0.1, 0.1), "rate 1: expected a number or a (times, values) pair, got 'x'"),
    (((("0", "1"), ("1", "2")), 0.1, 0.1),
     "rate 1: table times must be real numbers, got ('0', '1')"),
    ((0.1, ((False, True), (1.0, 2.0)), 0.1),
     "rate 2: table times must be real numbers, got (False, True)"),
    ((0.1, 0.1, ([0.0, 1.0], [True, 2.0])),
     "rate 3: table values must be real numbers, got [True, 2.0]"),
    ((([0.0], [1.0]), 0.1, 0.1), "rate 1: table needs 2 or more points, got 1"),
    ((([0.0, 1.0], [1.0]), 0.1, 0.1), "rate 1: table needs matching 1-d arrays"),
    (0.5, "rates must be a tuple, list or 1-d array, got 0.5"),
    (None, "rates must be a tuple, list or 1-d array, got None"),
    ({0.1, 0.2, 0.3}, "rates must be a tuple, list or 1-d array, got {0.1, 0.2, 0.3}"),
    ({1: 0, 2: 0, 3: 0}, "rates must be a tuple, list or 1-d array, got {1: 0, 2: 0, 3: 0}"),
], ids=["string", "bool", "0-d-array", "complex", "word", "string-table", "bool-times",
        "bool-value", "one-point", "mismatched", "float", "none", "set", "dict"])
def test_rate_spec_takes_real_numbers_only(rates, message):
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        RateSpec(rates)


def test_rate_spec_normalizes_every_real_input_as_before():
    times = np.array([0.0, 1.0, 2.0])
    r = RateSpec((np.int64(2), ([0, 1, 2], (np.float32(0.5), 1, 1.5)), (times, times)))
    assert repr(r.rates) == ("(('const', 2.0), ('table', array([0., 1., 2.]), "
                             "array([0.5, 1. , 1.5])), ('table', array([0., 1., 2.]), "
                             "array([0., 1., 2.])))")
    assert type(r.rates[0][1]) is float
    assert r.rates[2][1].dtype == float and r.rates[2][1] is times
    assert RateSpec.constant(1, 0.5, 0).rates == (("const", 1.0), ("const", 0.5),
                                                   ("const", 0.0))


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
    for route in (eigenvalue_trajectory, ode_eigenvalue_oracle):
        with pytest.raises(ValueError, match="^steps must be an integer, got 11.9$"):
            route(RateSpec.constant(1, 1, 1), 3.0, 11.9)
        for t_max in (np.inf, np.nan):
            with pytest.raises(ValueError,
                               match=f"^t_max must be positive and finite, got {t_max}$"):
                route(RateSpec.constant(1, 1, 1), t_max, 11)
        for t_max in (True, "3", np.array(1.0), 1j):
            with pytest.raises(ValueError, match="^" + re.escape(
                    f"t_max must be a real number, got {t_max!r}") + "$"):
                route(RateSpec.constant(1, 1, 1), t_max, 11)


@pytest.mark.parametrize("steps", [0, 1])
def test_ode_oracle_validates_steps(steps):
    with pytest.raises(ValueError, match=f"need at least 2 steps, got {steps}"):
        ode_eigenvalue_oracle(RateSpec.constant(1, 1, 1), 1.0, steps)


def test_ode_oracle_matches_quadrature_constant_rates():
    r = RateSpec.constant(0.4, 0.2, 0.1)
    traj = eigenvalue_trajectory(r, 3.0, 61)
    lam = ode_eigenvalue_oracle(r, 3.0, 61)
    assert np.max(np.abs(traj.lambdas - lam)) < 1e-8
    # zero rates: the derivative vanishes, so the integrator takes its
    # zero-derivative initial step
    r = RateSpec.constant(0, 0, 0)
    lam = ode_eigenvalue_oracle(r, 3.0, 61)
    assert np.max(np.abs(lam - 1.0)) <= 1e-15
    assert np.array_equal(lam, eigenvalue_trajectory(r, 3.0, 61).lambdas)


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


def test_derivative_formula_follows_a_negative_dominant_eigenvalue():
    # lambda* = -0.6 + 0.15 t has the largest magnitude throughout; the d = 2
    # capacity term is even, so the rate formula holds on its signed value
    times = np.linspace(0.0, 2.0, 401)
    lams = np.stack([-0.6 + 0.15 * times, np.full(401, 0.1), np.full(401, 0.1)], axis=1)
    assert cp_rows(lams).all()
    traj = capacity_trajectory(PauliTrajectory(times, lams, cp_everywhere=True,
                                               p_divisible=False))
    inner = slice(1, -1)
    assert traj.cdot_formula_valid[inner].all()
    assert np.all(traj.cdot_formula[inner] < 0.0)
    assert np.max(np.abs(traj.cdot_formula[inner] - traj.cdot_fd[inner])) <= 1e-4


def test_derivative_formula_holds_when_the_top_two_magnitudes_nearly_tie():
    # the top two |lambda| differ by 1e-6 throughout: lambda* is still one
    # function of t, so every row is valid
    times = np.linspace(0.0, 1.0, 101)
    lams = np.stack([0.6 - 0.1 * times, 0.6 - 0.1 * times - 1e-6, np.full(101, 0.3)],
                    axis=1)
    assert cp_rows(lams).all()
    traj = capacity_trajectory(PauliTrajectory(times, lams, cp_everywhere=True,
                                               p_divisible=True))
    assert traj.cdot_formula_valid.all()
    inner = slice(1, -1)
    assert np.max(np.abs(traj.cdot_formula[inner] - traj.cdot_fd[inner])) <= 1e-7


def test_capacity_trajectory_reads_the_trajectorys_cp_verdict(monkeypatch):
    traj = eigenvalue_trajectory(non_p_divisible_capacity_witness(), 3.0, 61)

    def no_second_verdict(lams):
        raise AssertionError("cp_rows called on the success path")

    monkeypatch.setattr(dynamics, "cp_rows", no_second_verdict)
    assert capacity_trajectory(traj).capacity.shape == (61,)


def test_capacity_trajectory_assembles_no_upper_bound(monkeypatch):
    traj = eigenvalue_trajectory(non_p_divisible_capacity_witness(), 3.0, 61)

    def no_upper_bound(*args):
        raise AssertionError("upper bound assembled on the success path")

    monkeypatch.setattr(capacity, "_assemble_zeta", no_upper_bound)
    monkeypatch.setattr(capacity, "_dimension_table", no_upper_bound)
    assert capacity_trajectory(traj).capacity.shape == (61,)


# magnitudes with exact ties, +-lambda pairs of equal magnitude and zeros
_TIED = st.sampled_from([0.0, -0.0, 0.25, -0.25, 0.5, -0.5, 1.0, -1.0, 1e-300, -1e-300])


@given(st.lists(st.lists(_TIED | st.floats(-1.0, 1.0), min_size=3, max_size=3),
                min_size=1, max_size=20))
@example([[0.5, -0.5, 0.5], [0.0, -0.0, 0.0], [1.0, 1.0, 1.0], [-0.25, 0.25, 0.0]])
def test_sorted_columns_select_np_sort_exactly(rows):
    mags = np.abs(np.array(rows))
    got = np.stack(dynamics._sorted_columns(mags), axis=1)
    assert got.tobytes() == np.sort(mags, axis=1)[:, ::-1].tobytes()


@given(st.lists(st.lists(_TIED | st.floats(-1.0, 1.0), min_size=3, max_size=3),
                min_size=1, max_size=20))
@example([[0.5, -0.5, 0.5], [0.0, -0.0, 0.0], [-0.0, 0.0, -0.0], [-0.25, 0.25, 0.0],
          [0.25, -0.5, 0.5], [1e-300, -1e-300, 0.0]])
def test_lambda_star_selects_as_argmax(rows):
    # the entry of largest magnitude, the first on a tie: the argmax route
    rows = np.array(rows)
    mags = np.abs(rows)
    want = rows[np.arange(rows.shape[0]), np.argmax(mags, axis=1)]
    assert dynamics._lambda_star(rows, mags).tobytes() == want.tobytes()


def test_p_divisible_so_far_falls_at_the_first_rise_and_stays_down():
    traj = eigenvalue_trajectory(non_p_divisible_capacity_witness(), 3.0, 301)
    flags = p_divisible_so_far(traj.lambdas)
    rises = np.any(np.diff(traj.lambdas, axis=0) > dynamics.P_DIVISIBILITY_TOL, axis=1)
    first = int(np.argmax(rises)) + 1
    assert flags.dtype == bool and flags.shape == (301,)
    assert flags[:first].all() and not flags[first:].any()
    assert flags[-1] == traj.p_divisible == p_divisibility_check(traj)
    constant = eigenvalue_trajectory(RateSpec.constant(0.4, 0.2, 0.1), 3.0, 31)
    assert p_divisible_so_far(constant.lambdas).all() and constant.p_divisible
    assert p_divisible_so_far(constant.lambdas[:1]).tolist() == [True]


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


@pytest.mark.parametrize("times", [np.array([0.0]), np.array([])], ids=["one", "none"])
def test_capacity_trajectory_needs_two_times(times):
    # _time_grid's rule: a rate needs two times, and so does np.gradient
    lams = np.full((times.size, 3), 0.5)
    traj = PauliTrajectory(times, lams, cp_everywhere=True, p_divisible=True)
    with pytest.raises(ValueError, match=rf"^need at least 2 times, got {times.size}$"):
        capacity_trajectory(traj)


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


def _dip_rates(seed):
    """A seeded rate table with a negative dip, next to two constant rates."""
    rng = np.random.default_rng(seed)
    base, dip = rng.uniform(1.5, 3.5), -rng.uniform(0.3, 1.5)
    knots = np.cumsum([0.0, *rng.uniform(0.1, 0.6, size=3)]) + rng.uniform(0.5, 1.2)
    times = np.concatenate([[0.0], knots, [3.0]])  # the last knot stays below 3.0
    values = np.array([base, base, dip, dip, base, base])
    return RateSpec(((times, values), *rng.uniform(0.1, 0.4, size=2)))


_REFERENCE_RATES = [non_p_divisible_capacity_witness(),
                    *(_dip_rates(seed) for seed in (11, 12, 13)),
                    RateSpec.constant(0.4, 0.2, 0.1)]


# X, Y and Z, written out here so that the reference read-out shares nothing
# with the module's, which takes its axes from the displacement products
_PAULIS = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


def _pauli_lambdas(states):
    """lambda_a = 1/2 Tr(S_a M(S_a)) for row-major vec states M, one Pauli at a time."""
    maps = np.asarray(states).reshape(-1, 4, 4)
    return np.stack([
        0.5 * np.einsum("ij,nji->n", s, (maps @ s.ravel()).reshape(-1, 2, 2)).real
        for s in _PAULIS], axis=1)


def _scipy_rk45_lambdas(r, times):
    """scipy's RK45 on the same generator and tolerances, restarted at every
    knot of a rate table and composed, M(t) = M(t, k) M(k).  A step across a
    knot, where the rates have a kink, can cost RK45 several 1e-8; the
    restarts keep that error out of the reference, as the oracle's own steps
    end on the knots."""
    from scipy.integrate import solve_ivp  # reference implementation, tests only

    def rhs(t, y):
        return (dynamics._generators(r, [t])[0] @ y.reshape(4, 4)).ravel()

    t0, t1 = times[0], times[-1]
    knots = {k for entry in r.rates if entry[0] == "table" for k in entry[1] if t0 < k < t1}
    edges = np.array(sorted(knots | {t0, t1}))
    total = np.eye(4)
    states = [total.ravel()]
    for a, b in zip(edges[:-1], edges[1:]):
        inside = times[(times > a) & (times <= b)]
        sol = solve_ivp(rhs, (a, b), np.eye(4).ravel(), method="RK45",
                        t_eval=np.union1d(inside, [b]), rtol=1e-10, atol=1e-12)
        assert sol.success, sol.message
        maps = sol.y.T.reshape(-1, 4, 4)
        states.extend((maps[:inside.size] @ total).reshape(-1, 16))
        total = maps[-1] @ total
    return _pauli_lambdas(states)


@pytest.mark.scipy_reference
@pytest.mark.parametrize("r", _REFERENCE_RATES)
def test_dormand_prince_matches_scipy_rk45(r):
    times = np.linspace(0.0, 3.0, 301)
    lam = ode_eigenvalue_oracle(r, 3.0, 301)
    assert np.max(np.abs(lam - _scipy_rk45_lambdas(r, times))) < 5e-9


@pytest.mark.parametrize("g", [(0.4, 0.2, 0.1), (2.0, 0.05, 0.7), (-0.3, 0.5, 0.9)])
def test_dormand_prince_matches_constant_rate_closed_form(g):
    lam = ode_eigenvalue_oracle(RateSpec.constant(*g), 3.0, 301)
    t = np.linspace(0.0, 3.0, 301)[:, None]
    expect = np.exp(-(np.sum(g) - np.array(g)) * t)
    assert np.max(np.abs(lam - expect)) < 1e-10


def _step_report(caplog, r, steps):
    """The oracle's eigenvalues on [0, 3] at `steps` grid times, and the
    (accepted, rejected) steps of its DEBUG step report."""
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="gpchannels.dynamics"):
        lam = ode_eigenvalue_oracle(r, 3.0, steps)
    [record] = [x for x in caplog.records if x.name == "gpchannels.dynamics"]
    assert record.levelno == logging.DEBUG
    assert record.args[2] == dynamics.ODE_MAX_STEPS == 50_000
    assert record.getMessage().startswith(
        f"Dormand-Prince: {record.args[0]} accepted steps, {record.args[1]} rejected")
    return lam, record.args[:2]


# Each count sits where a change to the step rules shows: growth safety 0.8 in
# place of 0.9 takes the witness to 149 accepted steps, and letting the step
# grow right after a rejection takes (50, 0.1, 0.1) to 2 rejections.
@pytest.mark.parametrize("r, counts", [
    (non_p_divisible_capacity_witness(), (134, 6)),
    (_dip_rates(11), (105, 5)),
    (_dip_rates(12), (129, 6)),
    (_dip_rates(13), (133, 10)),
    (RateSpec.constant(0.4, 0.2, 0.1), (46, 0)),
    (RateSpec.constant(50, 0.1, 0.1), (175, 9)),
])
def test_ode_oracle_reports_its_pinned_step_counts(r, counts, caplog):
    _, reported = _step_report(caplog, r, 301)
    assert reported == counts


def _step_ends(r):
    return np.array([t_new for _, t_new, _, _ in dynamics._dp_steps(r, 0.0, 3.0)])


def test_dormand_prince_output_on_step_ends_and_two_steps():
    g = np.array([0.4, 0.2, 0.1])
    r = RateSpec.constant(*g)
    ends = _step_ends(r)
    assert ends.size > 10 and ends[-1] == 3.0

    def exact(t):
        return np.exp(-(g.sum() - g) * np.asarray(t)[:, None])

    two = ode_eigenvalue_oracle(r, 3.0, 2)
    assert two.shape == (2, 3)
    assert np.array_equal(two[0], np.ones(3))
    assert np.max(np.abs(two - exact([0.0, 3.0]))) < 1e-10
    # every accepted step end an output time, then every other one
    for grid in (np.concatenate([[0.0], ends]), np.concatenate([[0.0], ends[1::2]])):
        lam = _pauli_lambdas(dynamics._dormand_prince(r, grid))
        assert np.max(np.abs(lam - exact(grid))) < 1e-10
    witness = non_p_divisible_capacity_witness()
    assert np.isin(witness.rates[0][1][1:-1], _step_ends(witness)).all()  # on the knots


@pytest.mark.scipy_reference
def test_dormand_prince_output_on_step_ends_matches_scipy_rk45():
    witness = non_p_divisible_capacity_witness()
    grid = np.concatenate([[0.0], _step_ends(witness)])
    lam = _pauli_lambdas(dynamics._dormand_prince(witness, grid))
    assert np.max(np.abs(lam - _scipy_rk45_lambdas(witness, grid))) < 1e-9


def test_quadrature_refuses_non_finite_eigenvalues():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^map eigenvalues are not finite at t=1\.5$"):
            eigenvalue_trajectory(RateSpec.constant(-250, -250, -250), 3.0, 11)


def test_ode_oracle_fails_fast_on_overflow():
    start = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeError, match=r"^map integration failed: .*t=.*"):
            ode_eigenvalue_oracle(RateSpec.constant(-400, -400, -400), 3.0, 11)
    assert time.perf_counter() - start < 30.0


@pytest.mark.parametrize("g", [(1e308, 1e308, 0), (1e308, 1e308, 1e308), (-1e308, 0, 0)])
def test_quadrature_refuses_huge_finite_rates_by_time(g):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^map eigenvalues are not finite at t=0\.01$"):
            eigenvalue_trajectory(RateSpec.constant(*g), 3.0, 301)


@pytest.mark.parametrize("g", [(1e308, 1e308, 0), (1e308, 1e308, 1e308), (-1e308, 0, 0),
                               (2e296, 2e296, 0)])
def test_ode_oracle_refuses_huge_finite_rates(g):
    # from about 1.8e296 on, the rates overflow the initial-step norm
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeError, match="^map integration failed: rates overflow at t=0$"):
            ode_eigenvalue_oracle(RateSpec.constant(*g), 3.0, 301)


@pytest.mark.parametrize("route", [eigenvalue_trajectory, ode_eigenvalue_oracle])
def test_collapsed_time_grid_is_refused(route):
    # linspace(0, 1e-320, 301) repeats subnormal times
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError,
                           match=r"^t_max=1e-320, steps=301: times not strictly increasing$"):
            route(RateSpec.constant(0.1, 0.1, 0.1), 1e-320, 301)


@pytest.mark.parametrize("t_max", [1e160, 1e200, 1e308, np.finfo(float).max, 1e-300, 1e-310])
def test_extreme_t_max_gives_finite_derivatives_without_warnings(t_max):
    # midpoints of times near the largest float, and products of two spacings
    # in np.gradient, used to overflow (or underflow to a division by zero)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = capacity_trajectory(eigenvalue_trajectory(
            RateSpec((([0.0, 1.0], [0.1, 0.3]), 0.1, 0.1)), t_max, 301))
    for values in (traj.lambdas, traj.capacity, traj.cdot_fd, traj.cdot_formula):
        assert np.isfinite(values).all()


def test_time_derivative_is_np_gradient_on_ordinary_grids():
    for spec, t_max, steps in [(non_p_divisible_capacity_witness(), 3.0, 301),
                               (RateSpec.constant(0.3, 0.1, 0.0), 4.0, 801),
                               (RateSpec.constant(0.5, 0.2, 0.1), 1e3, 31)]:
        traj = capacity_trajectory(eigenvalue_trajectory(spec, t_max, steps))
        assert np.array_equal(traj.cdot_fd, np.gradient(traj.capacity, traj.times))


def test_ode_oracle_refuses_a_step_that_underflows():
    # a rate that jumps to 1e6 right after t = 1e10 needs steps far below the
    # spacing of floats there
    r = RateSpec((((0.0, 1e10, 1e10 + 1e5, 2e10), (0.0, 0.0, 1e6, 1e6)), 0.0, 0.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeError, match=r"^map integration failed: step size \S+ "
                                               r"underflows at t=1e\+10$"):
            ode_eigenvalue_oracle(r, 2e10, 3)


def test_ode_oracle_refuses_inputs_beyond_its_step_budget(monkeypatch):
    # the budget is patched down so that the refusal comes within a second
    monkeypatch.setattr(dynamics, "ODE_MAX_STEPS", 200)
    witness = non_p_divisible_capacity_witness()  # 134 steps
    lam = ode_eigenvalue_oracle(witness, 3.0, 301)
    assert np.max(np.abs(lam - eigenvalue_trajectory(witness, 3.0, 301).lambdas)) < 1e-6
    start = time.perf_counter()
    with pytest.raises(RuntimeError,
                       match=r"^map integration failed: 200 steps spent at t=\S+$"):
        ode_eigenvalue_oracle(RateSpec.constant(1e100, 1e100, 0), 3.0, 11)
    assert time.perf_counter() - start < 1.0


def test_large_finite_backflow_is_accepted_on_both_routes(caplog):
    r = RateSpec.constant(-100, -100, -100)
    traj = eigenvalue_trajectory(r, 3.0, 11)
    lam, counts = _step_report(caplog, r, 11)
    assert counts == (14_384, 1)  # of the 50,000-step budget
    assert np.all(np.isfinite(traj.lambdas)) and not traj.cp_everywhere
    assert np.all(np.isfinite(lam))
    assert np.allclose(lam, traj.lambdas, rtol=1e-6, atol=0.0)


def test_qubit_axis_order_is_the_reverse_of_the_channel_layers():
    # weyl_labels(2) is [[2], [3], [1]]: basis 1 holds Z and basis 3 holds X,
    # while the dynamics' lambda_1 is the X axis
    r = RateSpec.constant(0.4, 0.2, 0.1)
    lam = ode_eigenvalue_oracle(r, 1.0, 2)[-1]
    evolved = dynamics._dormand_prince(r, np.array([0.0, 1.0]))[-1].reshape(4, 4)

    def channel_map(row):
        return superoperator(probabilities_from_eigenvalues(EigenvalueVector(2, row)))

    assert weyl_labels(2).tolist() == [[2], [3], [1]]
    assert np.abs(channel_map(lam[::-1]) - evolved).max() <= 1e-14
    assert np.abs(channel_map(lam) - evolved).max() > 0.09
