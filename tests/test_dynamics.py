import dataclasses
import logging
import re
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from gpchannels import capacity, dynamics
from gpchannels.channels import (
    EigenvalueVector,
    _cp_rows,
    probabilities_from_eigenvalues,
    sample_cp_eigenvalues,
    superoperator,
)
from gpchannels.dynamics import (
    PauliTrajectory,
    RateSpec,
    _p_divisible_so_far,
    capacity_trajectory,
    eigenvalue_trajectory,
    non_p_divisible_capacity_witness,
    ode_eigenvalue_oracle,
    p_divisibility_check,
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
    assert _cp_rows(lams).all()
    traj = capacity_trajectory(PauliTrajectory(times, lams))
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
    assert _cp_rows(lams).all()
    traj = capacity_trajectory(PauliTrajectory(times, lams))
    assert traj.cdot_formula_valid.all()
    inner = slice(1, -1)
    assert np.max(np.abs(traj.cdot_formula[inner] - traj.cdot_fd[inner])) <= 1e-7


def test_capacity_trajectory_reads_the_trajectorys_cp_verdict(monkeypatch):
    # CP is decided once per trajectory: the cp_everywhere that
    # capacity_trajectory reads
    calls = []

    def counted(lams):
        calls.append(lams.shape)
        return _cp_rows(lams)

    monkeypatch.setattr(dynamics, "_cp_rows", counted)
    traj = capacity_trajectory(
        eigenvalue_trajectory(non_p_divisible_capacity_witness(), 3.0, 61))
    assert traj.capacity.shape == (61,)
    assert calls == [(61, 3)]


def test_capacity_trajectory_assembles_no_upper_bound(monkeypatch):
    traj = eigenvalue_trajectory(non_p_divisible_capacity_witness(), 3.0, 61)

    def no_upper_bound(*args):
        raise AssertionError("upper bound assembled on the success path")

    monkeypatch.setattr(capacity, "_assemble_zeta", no_upper_bound)
    monkeypatch.setattr(capacity, "_dimension_table", no_upper_bound)
    assert capacity_trajectory(traj).capacity.shape == (61,)


# CP rows whose largest |lambda| is 1 + 5e-13, within the CP slack of 1
_SATURATED = [[1.0 + 5e-13, 1.0, 1.0], [1.0 + 5e-13, 0.4, 0.4], [-1.0 - 5e-13, 0.4, -0.4]]
_ROW_KINDS = ("sampled", "near-tie", "opposite-tie", "all-tie")


def _qubit_row(kind, rng):
    # one CP row of the kind, drawn again until it is CP
    while True:
        row = sample_cp_eigenvalues(2, 1, rng)[0]
        if kind == "near-tie":
            # another entry 1 ulp above or below the largest magnitude, either sign
            mags = np.abs(row)
            j = (np.argmax(mags) + rng.integers(1, 3)) % 3
            row[j] = rng.choice([-1.0, 1.0]) * np.nextafter(mags.max(), rng.choice([0.0, 2.0]))
        elif kind == "opposite-tie":
            a = rng.uniform(-0.5, 0.5)
            row = np.array([a, -a, rng.uniform(-abs(a), abs(a))])
        elif kind == "all-tie":
            row = rng.choice([-1.0, 1.0], 3) * rng.uniform(0.0, 1.0)
        row = rng.permutation(row)
        if _cp_rows(row[None, :])[0]:
            return row


@given(st.lists(st.sampled_from(_ROW_KINDS), max_size=12),
       st.integers(min_value=0, max_value=2**32 - 1))
@example(list(_ROW_KINDS), 0)
def test_trajectory_capacity_is_the_closed_form_on_every_row(kinds, seed):
    # the term of the largest |lambda| alone against bounds_batch's maximum of
    # the three: the same bits on exact magnitude ties and on the saturated
    # rows, which read ln 2, and within one ulp of ln 2 where the top two
    # magnitudes nearly tie, since the maximum may then take the smaller
    # magnitude's rounded term
    rng = np.random.default_rng(seed)
    rows = np.array([_qubit_row(kind, rng) for kind in kinds]
                    + [rng.permutation(row) for row in _SATURATED])
    got = PauliTrajectory(np.arange(len(rows), dtype=float), rows).capacity
    expect = np.array([capacity.pauli_classical_capacity(EigenvalueVector(2, row))
                       for row in rows])
    exact = np.array([kind in ("opposite-tie", "all-tie") for kind in kinds] + [True] * 3)
    assert got[exact].tobytes() == expect[exact].tobytes()
    assert np.all(np.abs(got - expect) <= np.spacing(LN2))
    assert got[-3:].tolist() == [LN2] * 3


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
    flags = _p_divisible_so_far(traj.lambdas)
    rises = np.any(np.diff(traj.lambdas, axis=0) > dynamics.P_DIVISIBILITY_TOL, axis=1)
    first = int(np.argmax(rises)) + 1
    assert flags.dtype == bool and flags.shape == (301,)
    assert flags[:first].all() and not flags[first:].any()
    assert flags[-1] == traj.p_divisible == p_divisibility_check(traj)
    constant = eigenvalue_trajectory(RateSpec.constant(0.4, 0.2, 0.1), 3.0, 31)
    assert _p_divisible_so_far(constant.lambdas).all() and constant.p_divisible
    assert _p_divisible_so_far(constant.lambdas[:1]).tolist() == [True]


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
    # _time_grid's rule: a rate needs two times, and so does np.gradient; the
    # constructor owns it, so no trajectory lacks a capacity or a P verdict
    lams = np.full((times.size, 3), 0.5)
    with pytest.raises(ValueError, match=rf"^need at least 2 times, got {times.size}$"):
        PauliTrajectory(times, lams)


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


_T3 = np.array([0.0, 1.0, 2.0])
_CP3 = [[0.5, 0.2, 0.1], [0.4, 0.2, 0.1], [0.3, 0.2, 0.1]]
_RISING3 = [[0.2, 0.2, 0.2], [0.3, 0.2, 0.2], [0.4, 0.2, 0.2]]


def _returns_itself(traj):
    return capacity_trajectory(traj) is traj


# each case: the call, then either the (error, message) it must raise or the
# call that gives the value it must return
_TRAJECTORY_DEFECTS = {
    "not-cp": (lambda: capacity_trajectory(PauliTrajectory(
        _T3, [[0.5, 0.2, 0.1], [0.9, 0.9, -0.5], [0.9, 0.9, -0.5]])),
        (NotCompletelyPositiveError, r"^trajectory leaves the CP region at t=1$")),
    "cp": (lambda: capacity_trajectory(PauliTrajectory(_T3, _CP3)).capacity.tolist(),
           lambda: [capacity.pauli_classical_capacity(EigenvalueVector(2, row))
                    for row in _CP3]),
    "rising": (lambda: (PauliTrajectory(_T3, _RISING3).p_divisible,
                        p_divisibility_check(PauliTrajectory(_T3, _RISING3))),
               lambda: (False, False)),
    "1-d-lambdas": (lambda: PauliTrajectory(_T3[:1], [0.5, 0.2, 0.1]),
                    (ValueError, r"^need \(n,\) times and \(n, 3\) eigenvalues, got shapes "
                                 r"\(1,\) and \(3,\)$")),
    "2-lambdas": (lambda: PauliTrajectory(_T3, np.full((3, 2), 0.1)),
                  (ValueError, r"^need \(n,\) times and \(n, 3\) eigenvalues, got shapes "
                               r"\(3,\) and \(3, 2\)$")),
    "1-lambda": (lambda: PauliTrajectory(_T3, np.full((3, 1), 0.1)),
                 (ValueError, r"^need \(n,\) times and \(n, 3\) eigenvalues, got shapes "
                              r"\(3,\) and \(3, 1\)$")),
    "4-lambdas": (lambda: PauliTrajectory(_T3, np.full((3, 4), 0.1)),
                  (ValueError, r"^need \(n,\) times and \(n, 3\) eigenvalues, got shapes "
                               r"\(3,\) and \(3, 4\)$")),
    "mismatched-lengths": (lambda: PauliTrajectory(_T3, _CP3[:2]),
                           (ValueError, r"^need \(n,\) times and \(n, 3\) eigenvalues, "
                                        r"got shapes \(3,\) and \(2, 3\)$")),
    "decreasing-times": (lambda: PauliTrajectory(_T3[::-1], _CP3),
                         (ValueError, "^times must be finite and strictly increasing$")),
    "nan-time": (lambda: PauliTrajectory([0.0, np.nan, 2.0], _CP3),
                 (ValueError, "^times must be finite and strictly increasing$")),
    "nan-eigenvalue": (lambda: PauliTrajectory(_T3, [_CP3[0], [0.4, np.nan, 0.1], _CP3[2]]),
                       (ValueError, r"^map eigenvalues are not finite at t=1$")),
    "old-positional-call": (lambda: PauliTrajectory(_T3, _CP3, True, True),
                            (TypeError, "positional arguments")),
    "capacity-given": (lambda: PauliTrajectory(_T3, _CP3, capacity=np.array([42.0])),
                       (TypeError, "unexpected keyword argument 'capacity'")),
    "returns-itself": (lambda: _returns_itself(PauliTrajectory(_T3, _CP3)), lambda: True),
    "capacity-of-an-array": (lambda: capacity_trajectory(np.array(_CP3)),
                             (TypeError, "^expected a PauliTrajectory, got ndarray$")),
    "p-divisibility-of-an-array": (lambda: p_divisibility_check(np.array(_CP3)),
                                   (TypeError, "^expected a PauliTrajectory, got ndarray$")),
    "nested-lists": (lambda: capacity_trajectory(
        PauliTrajectory(_T3.tolist(), _CP3)).capacity.tobytes(),
        lambda: capacity_trajectory(PauliTrajectory(_T3, np.array(_CP3))).capacity.tobytes()),
}


@pytest.mark.parametrize("call, outcome", _TRAJECTORY_DEFECTS.values(),
                         ids=_TRAJECTORY_DEFECTS.keys())
def test_trajectory_defects_are_refused_by_name_or_answered(call, outcome):
    # a trajectory holds times and eigenvalues only, checks them, and reads
    # its verdicts off them
    if isinstance(outcome, tuple):
        error, message = outcome
        with pytest.raises(error, match=message):
            call()
    else:
        assert call() == outcome()


def test_trajectory_holds_no_verdict_field():
    # a trajectory is its times and eigenvalues: the verdicts and the capacity
    # outputs are properties read off them
    names = [field.name for field in dataclasses.fields(PauliTrajectory)]
    assert names == ["times", "lambdas"]


def test_a_trajectory_keeps_read_only_copies_and_hands_out_read_only_outputs():
    # no write by the caller, before or after the first read, outdates the
    # check or the kept pass
    times, lams = _T3.copy(), np.array(_CP3)
    traj = PauliTrajectory(times, lams)
    capacity = traj.capacity.copy()
    times[2], lams[1] = np.nan, [0.9, 0.9, -0.5]
    assert traj.times is not times and traj.lambdas is not lams
    assert np.array_equal(traj.times, _T3) and np.array_equal(traj.lambdas, _CP3)
    assert traj.cp_everywhere and np.array_equal(traj.capacity, capacity)
    for name in ("times", "lambdas", "capacity", "cdot_fd", "cdot_formula",
                 "cdot_formula_valid"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(traj, name)[0] = 0


def test_a_chain_checks_its_trajectory_once_and_makes_its_outputs_in_one_pass(
        monkeypatch):
    # eigenvalue_trajectory -> capacity_trajectory -> p_divisibility_check, as
    # perfbench runs it: one check of the arrays, and one pass for the four
    # outputs, however often they are read
    checks, passes = [], []
    post_init, basis_terms = PauliTrajectory.__post_init__, dynamics._basis_terms

    def counted_check(self):
        checks.append(1)
        post_init(self)

    def counted_pass(lams, d):
        passes.append((lams.shape, d))
        return basis_terms(lams, d)

    monkeypatch.setattr(PauliTrajectory, "__post_init__", counted_check)
    monkeypatch.setattr(dynamics, "_basis_terms", counted_pass)
    traj = capacity_trajectory(
        eigenvalue_trajectory(non_p_divisible_capacity_witness(), 3.0, 61))
    assert not p_divisibility_check(traj)
    outputs = [(traj.capacity, traj.cdot_fd, traj.cdot_formula, traj.cdot_formula_valid)
               for _ in range(3)]
    assert all(a is b for later in outputs[1:] for a, b in zip(outputs[0], later))
    assert checks == [1]
    # the one x ln x pair runs on the largest-magnitude column alone
    assert passes == [((61,), 2)]


def test_a_trajectory_off_the_cp_region_raises_on_every_read_of_an_output():
    # an exception is not kept: each read runs the pass again and raises again
    traj = PauliTrajectory(_T3, [[0.5, 0.2, 0.1], [0.9, 0.9, -0.5], [0.9, 0.9, -0.5]])
    for name in ("capacity", "cdot_fd", "cdot_formula", "cdot_formula_valid"):
        with pytest.raises(NotCompletelyPositiveError,
                           match=r"^trajectory leaves the CP region at t=1$"):
            getattr(traj, name)


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


def test_dormand_prince_tableau_is_consistent():
    # residuals today: 2.2e-16, 2.2e-16, 0 and 7.2e-16, each the rounding of
    # the fractions; a wrong digit in any entry moves its row by far more
    a, c, e, p = dynamics._DP_A, dynamics._DP_C, dynamics._DP_E, dynamics._DP_P
    # row 6, the 5th-order weights, integrates a constant rate exactly
    assert abs(a[6].sum() - 1.0) <= 1e-15
    # each stage input sits at its stage time
    assert np.max(np.abs(a.sum(axis=1) - c)) <= 1e-15
    # the error weights are the difference of two weight rows that sum to 1
    assert abs(e.sum()) <= 1e-15
    # at the step end, the quartic interpolant is the 5th-order solution
    assert np.max(np.abs(p.sum(axis=0) - [*a[6], 0.0])) <= 1e-15


def test_dense_output_reads_many_grid_times_off_each_step():
    g = np.array([0.4, 0.2, 0.1])
    lam = ode_eigenvalue_oracle(RateSpec.constant(*g), 3.0, 2001)  # 46 steps
    t = np.linspace(0.0, 3.0, 2001)[:, None]
    assert np.max(np.abs(lam - np.exp(-(g.sum() - g) * t))) < 1e-10


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


_UNEVEN_ROWS = [[0.5, 0.1, 0.1], [0.4, 0.1, 0.1], [0.3, 0.1, 0.1]]


@pytest.mark.parametrize("times", [[0.0, 1e-200, 1e200], [0.0, 1.0, 1e308]])
def test_uneven_grids_give_finite_rates_without_warnings(times):
    # spacings 400 and 308 decades apart: the gradient, scaled to the middle of
    # the spacings, is the one-sided slopes weighted by the opposite spacing
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = PauliTrajectory(times, _UNEVEN_ROWS)
        outputs = (traj.capacity, traj.cdot_fd, traj.cdot_formula)
    for values in outputs:
        assert np.isfinite(values).all()
    c = traj.capacity.tolist()
    t0, t1, t2 = times
    slopes = [(c[1] - c[0]) / (t1 - t0), (c[2] - c[1]) / (t2 - t1)]
    w = (t2 - t1) / (t2 - t0)
    expect = [slopes[0], w * slopes[0] + (1.0 - w) * slopes[1], slopes[1]]
    assert traj.cdot_fd == pytest.approx(expect, rel=1e-12)


def test_a_grid_too_fine_for_a_finite_rate_is_refused_by_its_time():
    # a step of 5e-324 under a capacity change of 0.05 is a rate past the
    # largest float; every read of an output raises
    traj = PauliTrajectory([0.0, 5e-324, 1.0], _UNEVEN_ROWS)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name in ("capacity", "cdot_fd", "cdot_formula", "cdot_formula_valid"):
            with pytest.raises(ValueError, match=r"^capacity rate is not finite at t=0: "
                                                 r"the time grid is too fine or too uneven$"):
                getattr(traj, name)


def test_time_derivative_is_np_gradient_on_ordinary_grids():
    for spec, t_max, steps in [(non_p_divisible_capacity_witness(), 3.0, 301),
                               (RateSpec.constant(0.3, 0.1, 0.0), 4.0, 801),
                               (RateSpec.constant(0.5, 0.2, 0.1), 1e3, 31)]:
        traj = capacity_trajectory(eigenvalue_trajectory(spec, t_max, steps))
        assert np.array_equal(traj.cdot_fd, np.gradient(traj.capacity, traj.times))


def _uneven_grid(n):
    """A seeded grid of n strictly increasing times with random spacings."""
    rng = np.random.default_rng([n, 7])
    return rng.uniform(-2.0, 2.0) + np.cumsum(rng.uniform(1e-3, 1.0, size=n))


@pytest.mark.parametrize("times", [
    *(pytest.param(np.linspace(0.0, 3.0, n), id=str(n)) for n in (2, 3, 301, 15001)),
    # exactly uniform, np.gradient's scalar branch: at a spacing of 1.5 after
    # the scaling its three-point weights would round differently
    *(pytest.param(np.arange(n) * h, id=f"uniform{h}-{n}")
      for n in (3, 301) for h in (0.25, 0.75)),
    *(pytest.param(_uneven_grid(n), id=f"uneven-{n}") for n in (2, 3, 4, 7, 16, 31, 50)),
])
def test_time_derivative_takes_each_row_as_np_gradient(times):
    # capacity_trajectory differentiates the capacity and lambda* in one call,
    # as the two rows of a (2, n) array
    rows = np.random.default_rng(times.size).standard_normal((2, times.size))
    expect = np.stack([np.gradient(r, times) for r in rows])
    assert np.array_equal(dynamics._time_derivative(rows, times), expect)


def test_cdot_formula_is_plus_zero_where_lambda_star_saturates():
    # at t = 0 every eigenvalue is 1, outside the formula's interior rows
    traj = capacity_trajectory(eigenvalue_trajectory(RateSpec.constant(0.3, 0.2, 0.1), 1.0, 11))
    assert traj.lambdas[0].tolist() == [1.0, 1.0, 1.0]
    assert traj.cdot_formula[0] == 0.0 and not np.signbit(traj.cdot_formula[0])
    assert np.isfinite(traj.cdot_formula).all()


@pytest.mark.parametrize("route", [eigenvalue_trajectory, ode_eigenvalue_oracle])
@pytest.mark.parametrize("rates", [5, None, "x", [0.1, 0.2, 0.3]],
                         ids=["int", "none", "str", "list"])
def test_rate_entries_refuse_anything_but_a_rate_spec(route, rates):
    # refused by type before the grid is read: the grid here is invalid too
    with pytest.raises(TypeError, match=rf"^expected a RateSpec, got {type(rates).__name__}$"):
        route(rates, -1.0, 1)


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


def test_dense_output_keeps_only_the_steps_that_cover_a_grid_time(caplog):
    # traced, each step costs about ten times as much, so the run is a short
    # one; keeping all of its 1,443 steps would take over 2 MB
    tracemalloc.start()
    try:
        _, counts = _step_report(caplog, RateSpec.constant(-10, -10, -10), 11)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts == (1_443, 0)
    assert peak < 1_000_000


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
