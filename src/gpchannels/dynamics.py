"""Time-dependent qubit dephasing-type dynamics with three decay rates.

The generator damps each Pauli axis at the sum of the other two rates, so
the map eigenvalues factorize as lambda_a(t) = exp(-(G_b + G_c)) with G the
cumulative rate integrals.  Two independent code paths produce lambda(t):
Simpson quadrature of the rates (the fast path) and direct integration of
the generator acting on the full map (the oracle).  The oracle integrates
with the embedded Dormand-Prince 5(4) pair (Dormand & Prince 1980) and its
quartic dense output (Shampine 1986), under the step-size rules of scipy's
RK45, except that its steps end on the knots of every rate table, so no step
straddles a kink in the rates; it is plain numpy.

Axis order: lambda_1, lambda_2, lambda_3 here belong to the X, Y and Z axes,
the reverse of the channel layer's.  weyl_labels(2) is [[2], [3], [1]], so
EigenvalueVector(2, lambda) puts lambda_1 on the Z basis and lambda_3 on X:
the channel with this module's map is EigenvalueVector(2, lambda[::-1]).  The
bounds and the CP decision are symmetric in the eigenvalues, so the
trajectories' capacities do not depend on the order.
"""

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

# pauli_classical_capacity stays importable here: perfbench traces the
# per-step qubit closed form through this name
from .capacity import bounds_batch, pauli_classical_capacity  # noqa: F401
from .channels import _PAULI_T_VECS, _PAULI_VECS, _SIGMA, cp_rows
from .errors import NotCompletelyPositiveError
from .numerics import _require_integer

P_DIVISIBILITY_TOL = 1e-10
ODE_RTOL = 1e-10
ODE_ATOL = 1e-12

# 1/2 (S_a (x) S_a^T - 1) for a = x, y, z on row-major vec: the generator is
# their sum weighted by the rates.  Each S_a (x) S_a^T is real.
_GENERATOR_PARTS = np.stack(
    [0.5 * (np.kron(s, s.T).real - np.eye(4)) for s in _SIGMA[1:]])

# Dormand-Prince 5(4): stage times, stage rows (row 6 is the 5th-order
# solution, whose rate is the first stage of the next step), the embedded
# error weights, and the quartic dense-output rows (Shampine's c_6 optimum).
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
_DP_P = np.array([
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
])
_DP_POWERS = np.arange(1, 5)


@dataclass(frozen=True)
class RateSpec:
    """Three decay rates, each a constant or a sampled table.

    A table is a pair (times, values); evaluation interpolates linearly and
    holds the end values outside the sampled range.  Table times must be
    strictly increasing and everything finite.  Negative rate values are
    allowed (they model information backflow).
    """

    rates: tuple

    def __post_init__(self):
        if len(self.rates) != 3:
            raise ValueError(f"need exactly 3 rates, got {len(self.rates)}")
        norm = []
        for i, entry in enumerate(self.rates):
            if np.isscalar(entry):
                value = float(entry)
                if not np.isfinite(value):
                    raise ValueError(f"rate {i + 1} is not finite")
                norm.append(("const", value))
            else:
                times, values = entry
                times = np.asarray(times, dtype=float)
                values = np.asarray(values, dtype=float)
                if times.ndim != 1 or times.size < 2 or times.shape != values.shape:
                    raise ValueError(f"rate {i + 1}: table needs matching 1-d arrays")
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


def eigenvalue_rises(lambdas: np.ndarray) -> np.ndarray:
    """Per grid interval: does some eigenvalue grow by more than P_DIVISIBILITY_TOL.

    A qubit Pauli map is P-divisible iff no eigenvalue ever grows.
    """
    return np.any(np.diff(lambdas, axis=0) > P_DIVISIBILITY_TOL, axis=1)


def _time_grid(t_max: float, steps: int) -> np.ndarray:
    # NaN fails both comparisons
    if not 0.0 < t_max < np.inf:
        raise ValueError(f"t_max must be positive and finite, got {t_max}")
    _require_integer("steps", steps)
    if steps < 2:
        raise ValueError(f"need at least 2 steps, got {steps}")
    return np.linspace(0.0, float(t_max), steps)


def eigenvalue_trajectory(r: RateSpec, t_max: float, steps: int) -> PauliTrajectory:
    """Map eigenvalues on a uniform grid via cumulative Simpson quadrature.

    Each grid interval contributes h/6 (g_i + 4 g_mid + g_{i+1}); exact for
    constant and linear rates between samples.  Raises ValueError naming the
    first grid time at which an eigenvalue overflows.
    """
    times = _time_grid(t_max, steps)
    h = times[1] - times[0]
    g_nodes = r.evaluate(times)
    g_mids = r.evaluate((times[:-1] + times[1:]) / 2.0)
    increments = h / 6.0 * (g_nodes[:, :-1] + 4.0 * g_mids + g_nodes[:, 1:])
    gamma_cum = np.concatenate(
        [np.zeros((3, 1)), np.cumsum(increments, axis=1)], axis=1
    )
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        lambdas = np.exp(gamma_cum - gamma_cum.sum(axis=0)).T
    finite = np.isfinite(lambdas).all(axis=1)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise ValueError(f"map eigenvalues are not finite at t={times[bad]:.6g}")
    traj = PauliTrajectory(
        times=times,
        lambdas=lambdas,
        cp_everywhere=bool(cp_rows(lambdas).all()),
        p_divisible=not eigenvalue_rises(lambdas).any(),
    )
    return traj


def _generators(r: RateSpec, t) -> np.ndarray:
    """The 4x4 generators L(t) at the times t, shape (n, 4, 4)."""
    return np.einsum("an,aij->nij", r.evaluate(t), _GENERATOR_PARTS)


def _rms(x: np.ndarray) -> float:
    return float(np.sqrt(x @ x / x.size))


def _dp_steps(r: RateSpec, t: float, t_end: float):
    """Accepted Dormand-Prince 5(4) steps of dM/dt = L(t) M from M = 1 at t
    to t_end, each as (t, t_new, y, stages): y the row-major vec of M at t
    and stages the (7, 16) stage rates, whose last row is the rate at t_new.

    Local extrapolation, and step control as scipy's RK45: RMS error norm,
    safety 0.9, factors in [0.2, 10], exponent -1/5, no growth right after a
    rejection, and its initial step.  Unlike RK45, steps end on the interior
    knots of every rate table, where the rates have kinks; the step size and
    the first-same-as-last rate carry across a knot, since the rates are
    continuous there.  Raises RuntimeError when the step underflows or the
    state stops being finite.
    """
    knots = [k for entry in r.rates if entry[0] == "table" for k in entry[1]]
    stops = np.unique([k for k in knots if t < k < t_end] + [t_end])
    y = np.eye(4).ravel()
    f = (_generators(r, [t])[0] @ y.reshape(4, 4)).ravel()

    # initial step (Hairer, Norsett & Wanner, Sec. II.4, as scipy selects it)
    scale = ODE_ATOL + np.abs(y) * ODE_RTOL
    d0, d1 = _rms(y / scale), _rms(f / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, t_end - t)
    f1 = (_generators(r, [t + h0])[0] @ (y + h0 * f).reshape(4, 4)).ravel()
    d2 = _rms((f1 - f) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    h_abs = min(100 * h0, h1, t_end - t)

    stages = np.empty((7, 16))
    stage_mats = stages.reshape(7, 4, 4)
    while t < t_end:
        stop = stops[np.searchsorted(stops, t, side="right")]
        min_step = 10.0 * (np.nextafter(t, np.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise RuntimeError(f"map integration failed: step size "
                                   f"{h_abs:.3g} underflows at t={t:.6g}")
            t_new = min(t + h_abs, stop)
            h = t_new - t
            gens = _generators(r, t + _DP_C * h)
            stages[0] = f
            with np.errstate(over="ignore", invalid="ignore"):  # checked below
                for s in range(1, 7):
                    y_new = y + np.dot(stages[:s].T, _DP_A[s, :s]) * h
                    np.matmul(gens[s], y_new.reshape(4, 4), out=stage_mats[s])
            if not np.isfinite(stages).all():
                raise RuntimeError(f"map integration failed: state not "
                                   f"finite at t={t:.6g}, h={h:.3g}")
            scale = ODE_ATOL + np.maximum(np.abs(y), np.abs(y_new)) * ODE_RTOL
            err = _rms(np.dot(stages.T, _DP_E) * h / scale)
            if err < 1.0:
                factor = 10.0 if err == 0.0 else min(10.0, 0.9 * err ** -0.2)
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs *= max(0.2, 0.9 * err ** -0.2)
            rejected = True
        yield t, t_new, y, stages
        t, y, f = t_new, y_new, stages[6].copy()


def _dormand_prince(r: RateSpec, times: np.ndarray) -> np.ndarray:
    """Row-major vec of M(t), dM/dt = L(t) M from M = 1 at times[0], at each of
    the increasing times: shape (len(times), 16).  The times inside each
    accepted step, its end included, are read off its quartic interpolant
    together, so the grid does not constrain the steps."""
    out = np.empty((times.size, 16))
    done = 0
    for t, t_new, y, stages in _dp_steps(r, float(times[0]), float(times[-1])):
        upto = int(np.searchsorted(times, t_new, side="right"))
        if upto > done:
            h = t_new - t
            x = (times[done:upto] - t) / h
            out[done:upto] = y + h * (x[:, None] ** _DP_POWERS) @ (_DP_P.T @ stages)
            done = upto
    return out


def ode_eigenvalue_oracle(r: RateSpec, t_max: float, steps: int) -> np.ndarray:
    """Eigenvalues from direct integration of the generator on the full map.

    Evolves the 4x4 superoperator (row-major vectorization) under
    dM/dt = L(t) M with L = 1/2 sum_a g_a(t) (S_a (x) S_a^T - 1), from the
    identity, and reads each eigenvalue off the evolved Pauli operator,
    lambda_a = 1/2 Tr(S_a M(S_a)).  The integrator is Dormand-Prince 5(4)
    with dense output and scipy's RK45 step rules, at rtol ODE_RTOL and atol
    ODE_ATOL; it uses neither the factorized closed form nor the quadrature.
    Raises RuntimeError when the integration fails.
    """
    times = _time_grid(t_max, steps)
    maps = _dormand_prince(r, times).reshape(-1, 4, 4)
    # lambda_a = 1/2 vec(S_a^T) . M vec(S_a), the Pauli transfer diagonal
    return 0.5 * np.einsum("ak,nkl,al->na", _PAULI_T_VECS[1:], maps, _PAULI_VECS[1:]).real


def p_divisibility_check(traj: PauliTrajectory) -> bool:
    """True iff every eigenvalue trace is non-increasing on the grid."""
    return not eigenvalue_rises(traj.lambdas).any()


def capacity_trajectory(traj: PauliTrajectory) -> PauliTrajectory:
    """Attach the qubit capacity and its derivative diagnostics to a trajectory.

    The closed-form rate expression
    dC/dt = (dL_max/dt / 2) ln[(1 + L_max)/(1 - L_max)]
    only governs where the largest eigenvalue dominates in magnitude; its
    values are reported together with a validity mask (largest eigenvalue
    governs and is either unique or fully degenerate) instead of being
    asserted against the finite-difference derivative elsewhere.
    """
    ok = cp_rows(traj.lambdas)
    if not np.all(ok):
        bad = int(np.argmin(ok))
        raise NotCompletelyPositiveError(
            f"trajectory leaves the CP region at t={traj.times[bad]:.6g}"
        )
    capacity = bounds_batch(traj.lambdas).exact_capacity
    cdot_fd = np.gradient(capacity, traj.times)

    lam_sorted = np.sort(traj.lambdas, axis=1)[:, ::-1]
    lmax = lam_sorted[:, 0]
    lstar = np.abs(traj.lambdas).max(axis=1)
    dmax = np.gradient(lmax, traj.times)
    formula = np.zeros_like(lmax)
    interior = lmax < 1.0 - 1e-12
    formula[interior] = 0.5 * dmax[interior] * np.log(
        (1.0 + lmax[interior]) / (1.0 - lmax[interior])
    )
    saturated_moving = ~interior & (np.abs(dmax) > 1e-8)
    governs = np.abs(lmax - lstar) <= 1e-12
    unique_max = (lam_sorted[:, 0] - lam_sorted[:, 1] > 1e-9) | (
        np.ptp(traj.lambdas, axis=1) <= 1e-12
    )
    valid = governs & unique_max & ~saturated_moving
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
