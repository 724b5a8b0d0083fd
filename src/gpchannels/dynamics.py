"""Time-dependent qubit dephasing-type dynamics with three decay rates.

The generator damps each Pauli axis at the sum of the other two rates, so
the map eigenvalues factorize as lambda_a(t) = exp(-(G_b + G_c)) with G the
cumulative rate integrals.  Two independent code paths produce lambda(t):
Simpson quadrature of the rates (the fast path) and direct integration of
the generator acting on the full map (the oracle).  The oracle integrates
with the embedded Dormand-Prince 5(4) pair (Dormand & Prince 1980) and its
quartic dense output (Shampine 1986), under the step-size rules of scipy's
RK45, except that its steps end on the knots of every rate table, so no step
straddles a kink in the rates, and that it refuses an integration that needs
more than ODE_MAX_STEPS steps; it is plain numpy.

Each per-step decision on a trajectory has one rule, made here once.  The
capacity is the maximum of bounds_batch's per-basis terms, driven by lambda*,
the eigenvalue of largest magnitude; at d = 2 that maximum is bounds_batch's
exact capacity, so the upper bound is not built.  capacity_trajectory's rate
formula is the chain rule on it.  The CP verdict is eigenvalue_trajectory's
cp_everywhere, which capacity_trajectory reads.  P divisibility is
p_divisible_so_far, the running flag behind PauliTrajectory.p_divisible,
p_divisibility_check and the CLI's p_divisible_so_far column.

The qubit operators are the channel layer's: the generator and the oracle's
read-out take the displacement products of the label sets of weyl_labels(2),
in reverse set order, so no Pauli matrix is written out here.  The part of
set a is the generalized Pauli generator at d = 2 (Chruscinski & Siudzinska
2016), L_a = kraus_superoperator(1/d, W_a) - (d-1)/d, and lambda_a is read off
as 1/2 vec(W_a)^H M vec(W_a).

Axis order: lambda_1, lambda_2, lambda_3 here belong to the X, Y and Z axes,
the reverse of the channel layer's.  weyl_labels(2) is [[2], [3], [1]], the
labels of Z, ZX = iY and X, so EigenvalueVector(2, lambda) puts lambda_1 on
the Z basis and lambda_3 on X: the channel with this module's map is
EigenvalueVector(2, lambda[::-1]).  The bounds and the CP decision are
symmetric in the eigenvalues, so the trajectories' capacities do not depend
on the order.
"""

import bisect
import logging
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

# pauli_classical_capacity stays importable here: perfbench traces the
# per-step qubit closed form through this name
from .capacity import _basis_terms, pauli_classical_capacity  # noqa: F401
from .channels import clip_eigenvalue_rows, cp_rows, kraus_superoperator
from .errors import NotCompletelyPositiveError
from .mub import displacement_products, weyl_labels
from .numerics import _is_real, _real_array, _require_integer

P_DIVISIBILITY_TOL = 1e-10
ODE_RTOL = 1e-10
ODE_ATOL = 1e-12
# Accepted Dormand-Prince steps per integration.  Stability caps an explicit
# step near 3/rate, so the count grows with rate * t_max: 134 steps for the
# witness, 14,384 for the backflow rates (-100, -100, -100) on [0, 3].
ODE_MAX_STEPS = 50_000

_log = logging.getLogger(__name__)

# The label sets of weyl_labels(2) in reverse order hold X, ZX = iY and Z, one
# displacement product W_a each, the operators of this module's three axes.
_AXIS_VECS = displacement_products(2, 1, weyl_labels(2)[::-1, 0]).reshape(3, 4)
# L_a = 1/2 W_a (x) conj(W_a) - 1/2 on row-major vec, the generator part of
# label set a at d = 2, one flattened row each: the generator is their sum
# weighted by the rates.
_GENERATOR_PARTS = np.stack([kraus_superoperator(np.full(1, 0.5), w.reshape(1, 2, 2)).real
                             - 0.5 * np.eye(4) for w in _AXIS_VECS]).reshape(3, 16)

# Dormand-Prince 5(4): stage times, stage rows (row 6 is the 5th-order
# solution, whose rate is the first stage of the next step), the embedded
# error weights, and the quartic dense output (Shampine's c_6 optimum), written
# one row per stage and stored transposed, one row per power of the step
# fraction, so that the output reads it as a contiguous (4, 7) matrix.
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = np.array([
    [0, 0, 0, 0, 0, 0],
    [1 / 5, 0, 0, 0, 0, 0],
    [3 / 40, 9 / 40, 0, 0, 0, 0],
    [44 / 45, -56 / 15, 32 / 9, 0, 0, 0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0, 0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0],
    [35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
])
_DP_E = np.array([-71 / 57600, 0, 71 / 16695, -71 / 1920, 17253 / 339200,
                  -22 / 525, 1 / 40])
_DP_P = np.ascontiguousarray(np.array([
    [1, -8048581381 / 2820520608, 8663915743 / 2820520608,
     -12715105075 / 11282082432],
    [0, 0, 0, 0],
    [0, 131558114200 / 32700410799, -68118460800 / 10900136933,
     87487479700 / 32700410799],
    [0, -1754552775 / 470086768, 14199869525 / 1410260304,
     -10690763975 / 1880347072],
    [0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632],
    [0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
    [0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
]).T)
_DP_POWERS = np.arange(1, 5)


@dataclass(frozen=True)
class RateSpec:
    """Three decay rates, each a constant or a sampled table, given as a
    tuple, list or 1-d array; any other container is refused by name.

    A constant is a real number; a bool is not one, nor a string, a complex
    or an array.  A table is a pair (times, values) of 1-d sequences of real
    numbers, 2 or more points each; evaluation interpolates linearly and
    holds the end values outside the sampled range.  Table times must be
    strictly increasing and everything finite.  Negative rate values are
    allowed (they model information backflow).  Any other entry is refused
    with a ValueError naming the rate.
    """

    rates: tuple

    def __post_init__(self):
        if not (isinstance(self.rates, (tuple, list))
                or isinstance(self.rates, np.ndarray) and self.rates.ndim == 1):
            raise ValueError(f"rates must be a tuple, list or 1-d array, got {self.rates!r}")
        if len(self.rates) != 3:
            raise ValueError(f"need exactly 3 rates, got {len(self.rates)}")
        norm = []
        for i, entry in enumerate(self.rates):
            if _is_real(entry):
                value = float(entry)
                if not np.isfinite(value):
                    raise ValueError(f"rate {i + 1} is not finite")
                norm.append(("const", value))
            elif not (isinstance(entry, (tuple, list)) and len(entry) == 2
                      or isinstance(entry, np.ndarray) and entry.shape[:1] == (2,)):
                raise ValueError(f"rate {i + 1}: expected a number or a (times, "
                                 f"values) pair, got {entry!r}")
            else:
                times, values = (_real_array(f"rate {i + 1}: table {half}", part)
                                 for half, part in zip(("times", "values"), entry))
                if times.ndim != 1 or times.shape != values.shape:
                    raise ValueError(f"rate {i + 1}: table needs matching 1-d arrays")
                if times.size < 2:
                    raise ValueError(f"rate {i + 1}: table needs 2 or more points, "
                                     f"got {times.size}")
                if not (np.all(np.isfinite(times)) and np.all(np.isfinite(values))):
                    raise ValueError(f"rate {i + 1}: table entries must be finite")
                if np.any(np.diff(times) <= 0.0):
                    raise ValueError(f"rate {i + 1}: table times must strictly increase")
                norm.append(("table", times, values))
        object.__setattr__(self, "rates", tuple(norm))

    @staticmethod
    def constant(g1: float, g2: float, g3: float) -> "RateSpec":
        return RateSpec((g1, g2, g3))

    def evaluate(self, t) -> np.ndarray:
        """Rates at time(s) t, shape (3,) + shape(t)."""
        t = np.asarray(t, dtype=float)
        out = np.empty((3,) + t.shape)
        for i, entry in enumerate(self.rates):
            if entry[0] == "const":
                out[i] = entry[1]
            else:
                out[i] = np.interp(t, entry[1], entry[2])
        return out


@dataclass(frozen=True)
class PauliTrajectory:
    """Sampled map eigenvalues and derived quantities on a uniform time grid."""

    times: np.ndarray
    lambdas: np.ndarray
    cp_everywhere: bool
    p_divisible: bool
    capacity: Optional[np.ndarray] = None
    cdot_fd: Optional[np.ndarray] = None
    cdot_formula: Optional[np.ndarray] = None
    cdot_formula_valid: Optional[np.ndarray] = None


def p_divisible_so_far(lambdas: np.ndarray) -> np.ndarray:
    """Per grid time: has no eigenvalue grown by more than P_DIVISIBILITY_TOL
    over any grid interval up to it.  True at the first time, False from the
    first rise on.

    A qubit Pauli map is P-divisible iff no eigenvalue ever grows.
    """
    rises = np.any(np.diff(lambdas, axis=0) > P_DIVISIBILITY_TOL, axis=1)
    return np.logical_and.accumulate(np.concatenate([[True], ~rises]))


def _time_grid(t_max: float, steps: int) -> np.ndarray:
    if not _is_real(t_max):
        raise ValueError(f"t_max must be a real number, got {t_max!r}")
    # NaN fails both comparisons
    if not 0.0 < t_max < np.inf:
        raise ValueError(f"t_max must be positive and finite, got {t_max}")
    _require_integer("steps", steps)
    if steps < 2:
        raise ValueError(f"need at least 2 steps, got {steps}")
    times = np.linspace(0.0, float(t_max), steps)
    # a t_max near the smallest subnormal rounds some increments to 0
    if not (np.diff(times) > 0.0).all():
        raise ValueError(f"t_max={t_max}, steps={steps}: times not strictly increasing")
    return times


def eigenvalue_trajectory(r: RateSpec, t_max: float, steps: int) -> PauliTrajectory:
    """Map eigenvalues on a uniform grid via cumulative Simpson quadrature.

    Each grid interval contributes h/6 (g_i + 4 g_mid + g_{i+1}); exact for
    constant and linear rates between samples.  Raises ValueError naming the
    first grid time at which an eigenvalue overflows.
    """
    times = _time_grid(t_max, steps)
    h = times[1] - times[0]
    g_nodes = r.evaluate(times)
    # halves first: the sum of two times near the largest float overflows
    g_mids = r.evaluate(times[:-1] / 2.0 + times[1:] / 2.0)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        increments = h / 6.0 * (g_nodes[:, :-1] + 4.0 * g_mids + g_nodes[:, 1:])
        gamma_cum = np.concatenate(
            [np.zeros((3, 1)), np.cumsum(increments, axis=1)], axis=1
        )
        lambdas = np.exp(gamma_cum - gamma_cum.sum(axis=0)).T
    finite = np.isfinite(lambdas).all(axis=1)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise ValueError(f"map eigenvalues are not finite at t={times[bad]:.6g}")
    return PauliTrajectory(
        times=times,
        lambdas=lambdas,
        cp_everywhere=bool(cp_rows(lambdas).all()),
        p_divisible=bool(p_divisible_so_far(lambdas)[-1]),
    )


def _generators(r: RateSpec, t) -> np.ndarray:
    """The 4x4 generators L(t) at the times t, shape (n, 4, 4)."""
    return (r.evaluate(t).T @ _GENERATOR_PARTS).reshape(-1, 4, 4)


def _rms(x: np.ndarray) -> float:
    return math.sqrt(x @ x / x.size)


def _dp_steps(r: RateSpec, t: float, t_end: float):
    """Accepted Dormand-Prince 5(4) steps of dM/dt = L(t) M from M = 1 at t
    to t_end, each as (t, t_new, y, stages): y the row-major vec of M at t
    and stages the (7, 16) stage rates, whose last row is the rate at t_new.

    Local extrapolation, and step control as scipy's RK45: RMS error norm,
    safety 0.9, factors in [0.2, 10], exponent -1/5, no growth right after a
    rejection, and its initial step.  Unlike RK45, steps end on the interior
    knots of every rate table, where the rates have kinks; the step size and
    the first-same-as-last rate carry across a knot, since the rates are
    continuous there.  Raises RuntimeError when the rates overflow the error
    norm, the step underflows, the state stops being finite or ODE_MAX_STEPS
    steps are spent.  Run to t_end, it logs one DEBUG record whose args are
    the accepted steps, the rejected steps and ODE_MAX_STEPS.
    """
    knots = {float(k) for entry in r.rates if entry[0] == "table" for k in entry[1]}
    stops = sorted({k for k in knots if t < k < t_end} | {t_end})
    y = np.eye(4).ravel()
    abs_y = np.abs(y)
    scale = ODE_ATOL + abs_y * ODE_RTOL
    # initial step (Hairer, Norsett & Wanner, Sec. II.4, as scipy selects it);
    # only rates that overflow the error norm make h0 0 or NaN
    with np.errstate(over="ignore", invalid="ignore"):
        f = (_generators(r, [t])[0] @ y.reshape(4, 4)).ravel()
        d0, d1 = _rms(y / scale), _rms(f / scale)
        h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
        h0 = min(h0, t_end - t)
        if not h0 > 0.0:
            raise RuntimeError(f"map integration failed: rates overflow at t={t:.6g}")
        f1 = (_generators(r, [t + h0])[0] @ (y + h0 * f).reshape(4, 4)).ravel()
        d2 = _rms((f1 - f) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    h_abs = min(100 * h0, h1, t_end - t)

    stages = np.empty((7, 16))
    stage_mats = stages.reshape(7, 4, 4)
    taken = rejections = 0
    while t < t_end:
        if taken == ODE_MAX_STEPS:
            raise RuntimeError(f"map integration failed: {taken} steps spent at t={t:.6g}")
        taken += 1
        stop = stops[bisect.bisect_right(stops, t)]
        min_step = 10.0 * (math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise RuntimeError(f"map integration failed: step size "
                                   f"{h_abs:.3g} underflows at t={t:.6g}")
            t_new = min(t + h_abs, stop)
            h = t_new - t
            gens = _generators(r, t + _DP_C * h)
            a = _DP_A * h
            stages[0] = f
            with np.errstate(over="ignore", invalid="ignore"):  # checked below
                for s in range(1, 7):
                    y_new = a[s, :s] @ stages[:s]
                    y_new += y
                    np.matmul(gens[s], y_new.reshape(4, 4), out=stage_mats[s])
            if not np.isfinite(stages).all():
                raise RuntimeError(f"map integration failed: state not "
                                   f"finite at t={t:.6g}, h={h:.3g}")
            abs_new = np.abs(y_new)
            scale = ODE_ATOL + np.maximum(abs_y, abs_new) * ODE_RTOL
            err = _rms(_DP_E @ stages * h / scale)
            if err < 1.0:
                factor = 10.0 if err == 0.0 else min(10.0, 0.9 * err ** -0.2)
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs *= max(0.2, 0.9 * err ** -0.2)
            rejected = True
            rejections += 1
        yield t, t_new, y, stages
        t, y, f, abs_y = t_new, y_new, stages[6].copy(), abs_new
    _log.debug("Dormand-Prince: %d accepted steps, %d rejected, of ODE_MAX_STEPS = %d",
               taken, rejections, ODE_MAX_STEPS)


def _dormand_prince(r: RateSpec, times: np.ndarray) -> np.ndarray:
    """Row-major vec of M(t), dM/dt = L(t) M from M = 1 at times[0], at each of
    the increasing times: shape (len(times), 16).  The times inside each
    accepted step, its end included, are read off its quartic interpolant
    together, so the grid does not constrain the steps."""
    out = np.empty((times.size, 16))
    grid = times.tolist()
    done = 0
    for t, t_new, y, stages in _dp_steps(r, grid[0], grid[-1]):
        upto = bisect.bisect_right(grid, t_new)
        if upto > done:
            h = t_new - t
            x = (times[done:upto] - t) / h
            out[done:upto] = y + h * (x[:, None] ** _DP_POWERS) @ (_DP_P @ stages)
            done = upto
    return out


def ode_eigenvalue_oracle(r: RateSpec, t_max: float, steps: int) -> np.ndarray:
    """Eigenvalues from direct integration of the generator on the full map.

    Evolves the 4x4 superoperator (row-major vectorization) under
    dM/dt = L(t) M with L = 1/2 sum_a g_a(t) (W_a (x) conj(W_a) - 1), from
    the identity, and reads each eigenvalue off the evolved axis operator,
    lambda_a = 1/2 Tr(W_a^dagger M(W_a)).  The integrator is Dormand-Prince 5(4)
    with dense output and scipy's RK45 step rules, at rtol ODE_RTOL and atol
    ODE_ATOL; it uses neither the factorized closed form nor the quadrature.
    Logs its accepted and rejected steps against ODE_MAX_STEPS as one DEBUG
    record of the module's logger.  Raises RuntimeError when the integration
    fails.
    """
    times = _time_grid(t_max, steps)
    maps = _dormand_prince(r, times).reshape(-1, 4, 4)
    # lambda_a = 1/2 vec(W_a)^H M vec(W_a), the Pauli transfer diagonal
    return 0.5 * np.einsum("ak,nkl,al->na", _AXIS_VECS.conj(), maps, _AXIS_VECS).real


def p_divisibility_check(traj: PauliTrajectory) -> bool:
    """True iff every eigenvalue trace is non-increasing on the grid."""
    return bool(p_divisible_so_far(traj.lambdas)[-1])


def _time_derivative(values: np.ndarray, times: np.ndarray) -> np.ndarray:
    """np.gradient(values, times), taken against times / s and divided by s,
    s the largest power of two not above the spacing: the scaling is exact,
    and it keeps the products of two spacings in np.gradient from overflowing
    on huge grids and from underflowing to 0 on tiny ones."""
    s = 2.0 ** np.floor(np.log2(times[1] - times[0]))
    return np.gradient(values, times / s) / s


def _sorted_columns(rows: np.ndarray):
    """The largest, middle and smallest entry of each (n, 3) row, each (n,):
    the columns of np.sort(rows, axis=1) in reverse, selected exactly."""
    a, b, c = rows.T
    low, high = np.minimum(a, b), np.maximum(a, b)
    return (np.maximum(high, c), np.maximum(low, np.minimum(high, c)),
            np.minimum(low, c))


def capacity_trajectory(traj: PauliTrajectory) -> PauliTrajectory:
    """Attach the qubit capacity and its derivative diagnostics to a trajectory.

    The capacity is the largest of bounds_batch's per-basis terms, the d = 2
    term of lambda*, the eigenvalue of largest magnitude; it is bounds_batch's
    exact capacity, since the qubit bounds always meet, and no upper bound is
    assembled here.  That term is even in lambda, so the chain rule gives one
    rate for either sign of lambda*,
    dC/dt = (dlambda*/dt / 2) ln[(1 + lambda*)/(1 - lambda*)],
    reported as cdot_formula next to the finite-difference cdot_fd.  It holds
    where lambda* is one function of t: rows where the largest magnitude is
    unique or all magnitudes are equal, and that are not saturated (|lambda*|
    at 1) while moving; cdot_formula_valid marks them.

    The CP verdict is the trajectory's cp_everywhere; when it is False, the
    NotCompletelyPositiveError names the first grid time outside the region.
    A trajectory of fewer than 2 times has no derivative and is refused.
    """
    if traj.times.size < 2:
        raise ValueError(f"need at least 2 times, got {traj.times.size}")
    if not traj.cp_everywhere:
        bad = int(np.argmin(cp_rows(traj.lambdas)))
        raise NotCompletelyPositiveError(
            f"trajectory leaves the CP region at t={traj.times[bad]:.6g}"
        )
    # the qubit bounds meet on every CP row, so chi_low is the capacity
    capacity = _sorted_columns(_basis_terms(clip_eigenvalue_rows(traj.lambdas)))[0]
    mags = np.abs(traj.lambdas)
    lam_star = traj.lambdas[np.arange(mags.shape[0]), np.argmax(mags, axis=1)]
    top, middle, bottom = _sorted_columns(mags)
    cdot_fd = _time_derivative(capacity, traj.times)
    dlam_star = _time_derivative(lam_star, traj.times)
    formula = np.zeros_like(lam_star)
    interior = top < 1.0 - 1e-12
    formula[interior] = 0.5 * dlam_star[interior] * np.log(
        (1.0 + lam_star[interior]) / (1.0 - lam_star[interior])
    )
    one_max = (top - middle > 1e-9) | (top - bottom <= 1e-12)
    valid = one_max & (interior | (np.abs(dlam_star) <= 1e-8))
    return replace(
        traj,
        capacity=capacity,
        cdot_fd=cdot_fd,
        cdot_formula=formula,
        cdot_formula_valid=valid,
    )


def non_p_divisible_capacity_witness() -> RateSpec:
    """A rate table that breaks P divisibility while the capacity stays monotone.

    The first rate dips negative enough that the two eigenvalues it damps
    revive, yet the largest eigenvalue is driven solely by the two small
    constant rates, so the capacity keeps decreasing: monotone capacity does
    not imply P divisibility.
    """
    table = (
        np.array([0.0, 0.9, 1.1, 1.5, 1.7, 3.0]),
        np.array([3.0, 3.0, -1.0, -1.0, 3.0, 3.0]),
    )
    return RateSpec((table, 0.2, 0.2))
