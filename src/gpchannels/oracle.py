"""Independent numerical checks: brute-force output-entropy search, Choi
positivity, and additivity probes for the closed-form capacity bounds."""

from dataclasses import dataclass
from functools import lru_cache
from math import isqrt
from typing import Optional

import numpy as np

from .channels import (
    GeneralizedPauliChannel,
    WeylChannel,
    choi_matrix,
    classical_map_t,
    eigenvalues_from_probabilities,
    gpc_to_weyl,
    require_cp,
    tensor,
    weighted_gram,
    weyl_kraus_terms,
)
from .capacity import bounds_batch, holevo_upper_bound_weyl, _h
from .mub import MubSet, unitary_u

CHOI_PSD_TOL = 1e-9


@dataclass(frozen=True)
class SearchConfig:
    """Settings for the minimum-output-entropy search.

    grid_resolution: polar divisions of the qubit state-space grid (the
    azimuthal count is twice that); doubling it refines the grid in place.
    samples: random pure states drawn for d >= 3.
    """

    grid_resolution: int = 64
    samples: int = 256
    seed: int = 0
    refinement_iterations: int = 200

    def __post_init__(self):
        for name in ("grid_resolution", "samples", "seed", "refinement_iterations"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.grid_resolution < 8:
            raise ValueError(f"grid_resolution must be >= 8, got {self.grid_resolution}")
        if self.samples < 0:
            raise ValueError(f"samples must be >= 0, got {self.samples}")
        if self.refinement_iterations < 0:
            raise ValueError(
                f"refinement_iterations must be >= 0, got {self.refinement_iterations}"
            )


def cp_oracle_choi(ch) -> bool:
    """Complete positivity straight from the Choi spectrum."""
    evs = np.linalg.eigvalsh(choi_matrix(ch))
    return bool(evs.min() >= -CHOI_PSD_TOL)


def _kraus_for(channel, m: Optional[MubSet]):
    if isinstance(channel, WeylChannel):
        if m is not None:
            raise ValueError(
                f"basis set (d={m.dimension}) given for a WeylChannel, whose Kraus "
                "operators are displacement products; pass m=None"
            )
        return weyl_kraus_terms(channel)
    if isinstance(channel, GeneralizedPauliChannel):
        require_cp(eigenvalues_from_probabilities(channel))
        if m is None:
            return weyl_kraus_terms(gpc_to_weyl(channel))
        d = channel.dimension
        if m.dimension != d or m.n_bases != d + 1:
            raise ValueError("basis set does not match the channel dimension")
        p = channel.probabilities
        weights = [p[0]]
        ops = [np.eye(d, dtype=complex)]
        for alpha in range(1, d + 2):
            for k in range(1, d):
                weights.append(p[alpha] / (d - 1.0))
                ops.append(unitary_u(m, alpha, k))
        return np.asarray(weights), np.asarray(ops)
    raise TypeError(f"expected a channel, got {type(channel).__name__}")


def _superoperator(weights: np.ndarray, ops: np.ndarray) -> np.ndarray:
    """S = sum_k w_k U_k (x) conj(U_k), acting on row-major vec(rho)."""
    dim = ops.shape[1]
    gram = weighted_gram(weights, ops).reshape(dim, dim, dim, dim)
    return gram.transpose(0, 2, 1, 3).reshape(dim * dim, dim * dim)


def _projector_rows(states: np.ndarray) -> np.ndarray:
    """Row-major vec(psi psi^dagger) of each pure state (rows)."""
    n, dim = states.shape
    return (states[:, :, None] * states.conj()[:, None, :]).reshape(n, dim * dim)


def _entropies_from_projectors(rho: np.ndarray, sup: np.ndarray) -> np.ndarray:
    """Entropy of S vec(rho) for each row of rho, all rows in one GEMM.

    BLAS takes a single row through gemv, whose rounding differs from
    gemm's; such a row is doubled so that every state's entropy is the same
    bits whatever batch it arrives in.
    """
    n = rho.shape[0]
    dim = isqrt(sup.shape[0])
    if n == 1:
        rho = np.concatenate([rho, rho])
    out = (rho @ sup.T)[:n].reshape(n, dim, dim)
    if dim == 2:
        a = out[:, 0, 0].real
        dd = out[:, 1, 1].real
        half = (a + dd) / 2.0
        det = a * dd - np.abs(out[:, 0, 1]) ** 2
        disc = np.sqrt(np.maximum(half**2 - det, 0.0))
        evs = np.stack([half + disc, half - disc])
    else:
        evs = np.linalg.eigvalsh(out).T.copy()
    # one row per eigenvalue index, so that each sum over a spectrum adds whole
    # rows; summing many short rows is several times slower
    np.maximum(evs, 0.0, out=evs)
    evs /= evs.sum(axis=0)
    logs = np.log(evs, out=np.zeros_like(evs), where=evs > 0.0)
    logs *= evs
    return -logs.sum(axis=0)


def _output_entropies(states: np.ndarray, sup: np.ndarray) -> np.ndarray:
    """Entropy of the channel output for each pure input state (rows)."""
    return _entropies_from_projectors(_projector_rows(states), sup)


@lru_cache(maxsize=None)
def _qubit_grid(resolution: int) -> np.ndarray:
    """Read-only grid states, cached per resolution."""
    theta = np.linspace(0.0, np.pi, resolution + 1)
    phi = np.linspace(0.0, 2.0 * np.pi, 2 * resolution, endpoint=False)
    tt, pp = np.meshgrid(theta, phi, indexing="ij")
    states = np.empty((tt.size, 2), dtype=complex)
    states[:, 0] = np.cos(tt / 2.0).ravel()
    states[:, 1] = np.exp(1j * pp.ravel()) * np.sin(tt / 2.0).ravel()
    states.setflags(write=False)
    return states


@lru_cache(maxsize=None)
def _qubit_grid_projectors(resolution: int) -> np.ndarray:
    """Read-only psi (x) conj(psi) rows of the grid states, cached per resolution."""
    rho = _projector_rows(_qubit_grid(resolution))
    rho.setflags(write=False)
    return rho


def _angles_to_state(angles: np.ndarray) -> np.ndarray:
    """Qubit states from (theta, phi) rows."""
    th, ph = angles[:, 0], angles[:, 1]
    return np.stack([np.cos(th / 2.0), np.exp(1j * ph) * np.sin(th / 2.0)], axis=1)


def _params_to_state(x: np.ndarray) -> np.ndarray:
    """Normalized states from (real parts, imaginary parts) rows.

    A row of norm below 1e-12 maps to the first basis vector.
    """
    dim = x.shape[1] // 2
    v = x[:, :dim] + 1j * x[:, dim:]
    norm = np.linalg.norm(v, axis=1)
    tiny = norm < 1e-12
    v[tiny] = 0.0
    v[tiny, 0] = 1.0
    norm[tiny] = 1.0
    return v / norm[:, None]


# scipy's initial-simplex steps and non-adaptive Nelder-Mead coefficients,
# and the search's tolerances
_NONZDELT, _ZDELT = 0.05, 0.00025
_RHO, _CHI, _PSI, _SIGMA = 1, 2, 0.5, 0.5
_XATOL, _FATOL = 1e-12, 1e-14


def _polish(objective, x0: np.ndarray, cfg: SearchConfig):
    """Nelder-Mead minima of a batch objective from each row of x0, in lockstep.

    objective maps (n, N) points to (n,) values.  Each start follows
    scipy's minimize(method="Nelder-Mead") without adaptive coefficients,
    with maxiter = cfg.refinement_iterations, xatol = 1e-12, fatol = 1e-14
    and no cap on evaluations, and stops on its own.  Each iteration
    evaluates the reflection, expansion and both contraction points of every
    running start in one objective call, and the shrunk simplices in one
    more; an objective that gives each row the same value whatever batch it
    is in therefore reproduces scipy's path.  Returns the best point, its
    value, the iteration count and whether the tolerances were met, one
    entry per start.
    """
    k, n = x0.shape
    rows = np.arange(k)[:, None]
    sim = np.repeat(x0[:, None, :], n + 1, axis=1)
    step = np.arange(n)
    sim[:, step + 1, step] = np.where(x0 != 0, (1 + _NONZDELT) * x0, _ZDELT)
    fsim = objective(sim.reshape(-1, n)).reshape(k, n + 1)
    order = np.argsort(fsim, axis=1)
    sim, fsim = sim[rows, order], fsim[rows, order]
    iterations = np.ones(k, dtype=int)
    converged = np.zeros(k, dtype=bool)
    # candidate points a * xbar - b * worst: reflection, expansion, outside
    # and inside contraction, with scipy's coefficient expressions (the
    # inside one's + psi * worst is subtracted negated, which is exact)
    coef_a = np.array([1 + _RHO, 1 + _RHO * _CHI, 1 + _PSI * _RHO, 1 - _PSI])[:, None]
    coef_b = np.array([_RHO, _RHO * _CHI, _PSI * _RHO, -_PSI])[:, None]
    while True:
        live = np.flatnonzero((iterations < cfg.refinement_iterations) & ~converged)
        if live.size == 0:
            break
        s, f = sim[live], fsim[live]
        done = ((np.abs(s[:, 1:] - s[:, :1]).max(axis=(1, 2)) <= _XATOL)
                & (np.abs(f[:, :1] - f[:, 1:]).max(axis=1) <= _FATOL))
        if done.any():
            converged[live[done]] = True
            live, s, f = live[~done], s[~done], f[~done]
            if live.size == 0:
                break
        xbar = np.add.reduce(s[:, :-1], 1) / n
        pts = coef_a * xbar[:, None, :] - coef_b * s[:, -1:, :]
        fp = objective(pts.reshape(-1, n)).reshape(-1, 4)
        fxr, fxe, fxc, fxcc = fp.T
        # which candidate replaces the worst vertex; -1 shrinks the simplex
        pick = np.where(
            fxr < f[:, 0], np.where(fxe < fxr, 1, 0),
            np.where(fxr < f[:, -2], 0,
                     np.where(fxr < f[:, -1], np.where(fxc <= fxr, 2, -1),
                              np.where(fxcc < f[:, -1], 3, -1))))
        take = np.flatnonzero(pick >= 0)
        s[take, -1], f[take, -1] = pts[take, pick[take]], fp[take, pick[take]]
        shrink = np.flatnonzero(pick < 0)
        if shrink.size:
            best = s[shrink, :1]
            s[shrink, 1:] = best + _SIGMA * (s[shrink, 1:] - best)
            f[shrink, 1:] = objective(s[shrink, 1:].reshape(-1, n)).reshape(-1, n)
        iterations[live] += 1
        order = np.argsort(f, axis=1)
        sub = np.arange(live.size)[:, None]
        sim[live], fsim[live] = s[sub, order], f[sub, order]
    return sim[:, 0], fsim.min(axis=1), iterations, converged


@dataclass(frozen=True)
class SearchResult:
    """Where the minimum-output-entropy search found its minimum.

    entropy is the smaller of grid_entropy (the best sampled or grid state)
    and polished_entropy (the best Nelder-Mead polish; None when
    refinement_iterations is 0).  state is the input state that attains
    entropy.  iterations and converged hold, per polished start, the
    Nelder-Mead iteration count and whether it met xatol and fatol before
    refinement_iterations ran out.
    """

    entropy: float
    grid_entropy: float
    polished_entropy: Optional[float]
    state: np.ndarray
    iterations: tuple
    converged: tuple


def search_output_entropy(channel, m: Optional[MubSet] = None,
                          cfg: Optional[SearchConfig] = None) -> SearchResult:
    """Brute-force search for the minimal output entropy over pure inputs.

    Qubits use a nested polar/azimuthal grid (finer resolutions contain the
    coarser points, so the raw grid minimum never increases); higher
    dimensions use seeded random states plus deterministic warm starts.  The
    best candidates (the grid minimum for qubits, the best three otherwise)
    are polished together with Nelder-Mead when refinement_iterations > 0.
    """
    cfg = cfg or SearchConfig()
    sup = _superoperator(*_kraus_for(channel, m))
    dim = channel.dimension

    if dim == 2:
        states = _qubit_grid(cfg.grid_resolution)
        ents = _entropies_from_projectors(_qubit_grid_projectors(cfg.grid_resolution), sup)
        idx = ents.argmin()
        x0 = np.pi * np.array([[idx // (2 * cfg.grid_resolution),
                                idx % (2 * cfg.grid_resolution)]]) / cfg.grid_resolution
        to_state = _angles_to_state
    else:
        starts = [np.eye(dim, dtype=complex)]
        if isinstance(channel, GeneralizedPauliChannel) and m is not None:
            starts.append(m.bases.reshape(-1, dim))
        if cfg.samples > 0:
            rng = np.random.default_rng(cfg.seed)
            raw = rng.standard_normal((cfg.samples, dim)) + 1j * rng.standard_normal(
                (cfg.samples, dim)
            )
            starts.append(raw / np.linalg.norm(raw, axis=1, keepdims=True))
        states = np.concatenate(starts, axis=0)
        ents = _output_entropies(states, sup)
        best3 = np.argsort(ents)[:3]
        idx = best3[0]
        x0 = np.concatenate([states[best3].real, states[best3].imag], axis=1)
        to_state = _params_to_state

    grid_entropy = float(ents[idx])
    state = states[idx].copy()
    if cfg.refinement_iterations == 0:
        return SearchResult(grid_entropy, grid_entropy, None, state, (), ())
    x, fun, iterations, converged = _polish(
        lambda pts: _output_entropies(to_state(pts), sup), x0, cfg)
    j = int(fun.argmin())
    polished = float(fun[j])
    if polished < grid_entropy:
        state = to_state(x[j:j + 1])[0]
    return SearchResult(
        entropy=min(grid_entropy, polished),
        grid_entropy=grid_entropy,
        polished_entropy=polished,
        state=state,
        iterations=tuple(int(i) for i in iterations),
        converged=tuple(bool(c) for c in converged),
    )


def min_output_entropy(channel, m: Optional[MubSet] = None,
                       cfg: Optional[SearchConfig] = None) -> float:
    """The entropy of search_output_entropy."""
    return search_output_entropy(channel, m, cfg).entropy


def holevo_estimate(channel, m: Optional[MubSet] = None,
                    cfg: Optional[SearchConfig] = None) -> float:
    """ln(dim) minus the searched minimal output entropy.

    Always at most the true Holevo quantity of these covariant channels, so
    together with the closed-form bounds it forms a sandwich.
    """
    entropy = min_output_entropy(channel, m, cfg)
    return float(np.log(channel.dimension) - entropy)


@dataclass(frozen=True)
class AdditivityReport:
    """Single-copy vs two-copy behaviour of both capacity bounds."""

    dimension: int
    chi_low: float
    chi_low_tensor: float
    lower_gap: float
    chi_up: float
    chi_up_tensor: float
    upper_gap: float
    tensor_row_entropies: tuple
    chi_grid_estimate: Optional[float] = None

    def to_json(self) -> dict:
        return {
            "d": self.dimension,
            "chi_low": self.chi_low,
            "chi_low_tensor": self.chi_low_tensor,
            "lower_gap": self.lower_gap,
            "chi_up": self.chi_up,
            "chi_up_tensor": self.chi_up_tensor,
            "upper_gap": self.upper_gap,
            "tensor_row_entropies": list(self.tensor_row_entropies),
            "chi_grid_estimate": self.chi_grid_estimate,
        }


def additivity_report(c: GeneralizedPauliChannel,
                      cfg: Optional[SearchConfig] = None) -> AdditivityReport:
    """Compare both bounds on one copy against the two-copy channel.

    The lower bound is evaluated on the tensor channel directly through the
    product transition matrices (rows are tensor products of single-copy
    rows), the upper bound through the grouped weights of tensor(c, c).  When
    a search config is given, a brute-force estimate of the single-copy
    Holevo quantity is attached.
    """
    e = eigenvalues_from_probabilities(c)
    bounds = bounds_batch(e.values[None, :])
    d = c.dimension
    chi_low = float(bounds.chi_low[0])
    row_entropies = []
    for alpha in range(1, d + 2):
        t_single = classical_map_t(e, alpha)
        t_pair = np.kron(t_single, t_single)
        row_entropies.append(_h(t_pair[0]))
    chi_low_tensor = float(2.0 * np.log(d) - min(row_entropies))
    chi_up = float(bounds.chi_up[0])
    chi_up_tensor = holevo_upper_bound_weyl(tensor(c, c))
    estimate = None
    if cfg is not None:
        estimate = holevo_estimate(c, None, cfg)
    return AdditivityReport(
        dimension=d,
        chi_low=chi_low,
        chi_low_tensor=chi_low_tensor,
        lower_gap=chi_low_tensor - 2.0 * chi_low,
        chi_up=chi_up,
        chi_up_tensor=chi_up_tensor,
        upper_gap=2.0 * chi_up - chi_up_tensor,
        tensor_row_entropies=tuple(row_entropies),
        chi_grid_estimate=estimate,
    )
