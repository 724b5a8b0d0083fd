"""Independent numerical checks: brute-force output-entropy search, Choi
positivity, and additivity probes for the closed-form capacity bounds."""

from dataclasses import dataclass
from functools import lru_cache
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


def _output_entropies(states: np.ndarray, sup: np.ndarray):
    """Entropy of the channel output for each pure input state (rows).

    All states go through the superoperator in one GEMM.
    """
    n, dim = states.shape
    rho = (states[:, :, None] * states.conj()[:, None, :]).reshape(n, dim * dim)
    out = (rho @ sup.T).reshape(n, dim, dim)
    if dim == 2:
        a = out[:, 0, 0].real
        dd = out[:, 1, 1].real
        half = (a + dd) / 2.0
        det = a * dd - np.abs(out[:, 0, 1]) ** 2
        disc = np.sqrt(np.clip(half**2 - det, 0.0, None))
        evs = np.stack([half + disc, half - disc], axis=1)
    else:
        evs = np.linalg.eigvalsh(out)
    evs = np.clip(evs, 0.0, None)
    evs /= evs.sum(axis=1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = np.where(evs > 0.0, np.log(evs), 0.0)
    return -(evs * logs).sum(axis=1)


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


def _angles_to_state(angles) -> np.ndarray:
    th, ph = angles
    return np.array([np.cos(th / 2.0), np.exp(1j * ph) * np.sin(th / 2.0)])


def _params_to_state(x: np.ndarray) -> np.ndarray:
    dim = x.size // 2
    v = x[:dim] + 1j * x[dim:]
    norm = np.linalg.norm(v)
    if norm < 1e-12:
        v = np.zeros(dim, dtype=complex)
        v[0] = 1.0
        return v
    return v / norm


def _polish(objective, x0: np.ndarray, cfg: SearchConfig) -> float:
    """Nelder-Mead minimum of objective from x0."""
    from scipy.optimize import minimize  # imported on first use: it is slow to load

    res = minimize(
        objective,
        x0=x0,
        method="Nelder-Mead",
        options={"maxiter": cfg.refinement_iterations,
                 "xatol": 1e-12, "fatol": 1e-14},
    )
    return float(res.fun)


def min_output_entropy(channel, m: Optional[MubSet] = None,
                       cfg: Optional[SearchConfig] = None) -> float:
    """Brute-force search for the minimal output entropy over pure inputs.

    Qubits use a nested polar/azimuthal grid (finer resolutions contain the
    coarser points, so the raw grid minimum never increases); higher
    dimensions use seeded random states plus deterministic warm starts.  The
    best candidates are polished with Nelder-Mead when
    refinement_iterations > 0.
    """
    cfg = cfg or SearchConfig()
    sup = _superoperator(*_kraus_for(channel, m))
    dim = channel.dimension

    if dim == 2:
        states = _qubit_grid(cfg.grid_resolution)
        ents = _output_entropies(states, sup)
        best = float(ents.min())
        if cfg.refinement_iterations > 0:
            idx = int(ents.argmin())
            theta0 = np.pi * (idx // (2 * cfg.grid_resolution)) / cfg.grid_resolution
            phi0 = np.pi * (idx % (2 * cfg.grid_resolution)) / cfg.grid_resolution
            polished = _polish(
                lambda ang: _output_entropies(_angles_to_state(ang)[None, :], sup)[0],
                np.array([theta0, phi0]),
                cfg,
            )
            best = min(best, polished)
        return best

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
    best = float(ents.min())
    if cfg.refinement_iterations > 0:
        for idx in np.argsort(ents)[:3]:
            polished = _polish(
                lambda x: _output_entropies(_params_to_state(x)[None, :], sup)[0],
                np.concatenate([states[idx].real, states[idx].imag]),
                cfg,
            )
            best = min(best, polished)
    return best


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
