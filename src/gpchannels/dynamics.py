"""Time-dependent qubit dephasing-type dynamics with three decay rates.

The generator damps each Pauli axis at the sum of the other two rates, so
the map eigenvalues factorize as lambda_a(t) = exp(-(G_b + G_c)) with G the
cumulative rate integrals.  Two independent code paths produce lambda(t):
Simpson quadrature of the rates (the fast path) and direct integration of
the generator acting on the full map (the oracle).
"""

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

# pauli_classical_capacity stays importable here: perfbench traces the
# per-step qubit closed form through this name
from .capacity import bounds_batch, pauli_classical_capacity  # noqa: F401
from .channels import cp_rows
from .errors import NotCompletelyPositiveError

P_DIVISIBILITY_TOL = 1e-10

_SIGMA = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


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
    if t_max <= 0.0:
        raise ValueError(f"t_max must be positive, got {t_max}")
    if steps < 2:
        raise ValueError(f"need at least 2 steps, got {steps}")
    return np.linspace(0.0, float(t_max), int(steps))


def eigenvalue_trajectory(r: RateSpec, t_max: float, steps: int) -> PauliTrajectory:
    """Map eigenvalues on a uniform grid via cumulative Simpson quadrature.

    Each grid interval contributes h/6 (g_i + 4 g_mid + g_{i+1}); exact for
    constant and linear rates between samples.
    """
    times = _time_grid(t_max, steps)
    h = times[1] - times[0]
    g_nodes = r.evaluate(times)
    g_mids = r.evaluate((times[:-1] + times[1:]) / 2.0)
    increments = h / 6.0 * (g_nodes[:, :-1] + 4.0 * g_mids + g_nodes[:, 1:])
    gamma_cum = np.concatenate(
        [np.zeros((3, 1)), np.cumsum(increments, axis=1)], axis=1
    )
    lambdas = np.exp(gamma_cum - gamma_cum.sum(axis=0)).T
    traj = PauliTrajectory(
        times=times,
        lambdas=lambdas,
        cp_everywhere=bool(cp_rows(lambdas).all()),
        p_divisible=not eigenvalue_rises(lambdas).any(),
    )
    return traj


def ode_eigenvalue_oracle(r: RateSpec, t_max: float, steps: int) -> np.ndarray:
    """Eigenvalues from direct integration of the generator on the full map.

    Evolves the 4x4 superoperator (row-major vectorization) under
    dM/dt = L(t) M with L = 1/2 sum_a g_a(t) (S_a (x) S_a^T - 1) and reads
    each eigenvalue off the evolved Pauli operator.
    """
    from scipy.integrate import solve_ivp  # imported on first use: it is slow to load

    times = _time_grid(t_max, steps)
    conj_parts = [np.kron(_SIGMA[a], _SIGMA[a].T) for a in (1, 2, 3)]
    eye4 = np.eye(4)

    def rhs(t, y):
        g = r.evaluate(t)
        lmat = sum(
            0.5 * g[i] * (conj_parts[i] - eye4) for i in range(3)
        )
        return (lmat @ y.reshape(4, 4)).ravel()

    sol = solve_ivp(
        rhs,
        (0.0, float(t_max)),
        np.eye(4, dtype=complex).ravel(),
        t_eval=times,
        rtol=1e-10,
        atol=1e-12,
    )
    if not sol.success:
        raise RuntimeError(f"map integration failed: {sol.message}")
    lambdas = np.empty((times.size, 3))
    for a in (1, 2, 3):
        sigma_vec = _SIGMA[a].ravel()
        evolved = sol.y.T.reshape(-1, 4, 4) @ sigma_vec
        lambdas[:, a - 1] = 0.5 * np.einsum(
            "ij,nji->n", _SIGMA[a], evolved.reshape(-1, 2, 2)
        ).real
    return lambdas


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
