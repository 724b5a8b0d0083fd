"""Independent numerical checks of the closed-form capacity bounds:
brute-force output-entropy search and Choi positivity.

The search and the Choi oracle use only the channel's unitary Kraus
operators.  The search takes them from kraus_terms, through weighted_gram
(superoperator).  The Choi oracle diagonalizes the Choi matrix's
shift blocks, choi_blocks.
The search evaluates grid, basis-vector and random pure states and
polishes the best with conditional-gradient steps, which certify a
stationary point through their Frank-Wolfe gap.  For d >= 3 the vectors of
the basis set are its warm starts on both Kraus routes: basis alpha is the
common eigenbasis of its own unitaries and of the displacement products in
weyl_labels(d)[alpha-1], so they hold an eigenbasis of every Kraus operator.
It ranks the qubit grid by output purity, not entropy: a qubit output with
Bloch vector r' has eigenvalues (1 +- |r'|)/2, so its entropy falls strictly
as |r'| grows, and the purest output on the grid is its entropy minimum.
"""

import logging
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .channels import canonical_mub, choi_blocks, superoperator
# choi_matrix, gpc_to_weyl, require_cp and weyl_kraus_terms stay importable
# here: perfbench traces these names in this module
from .channels import choi_matrix, gpc_to_weyl, require_cp, weyl_kraus_terms  # noqa: F401
from .mub import MubSet
from .numerics import CLAMP_TOL, _entropies, _require_in_range

# The Hermitian Pauli matrices I, X, Y, Z, their row-major vecs and the vecs
# of their transposes.  Tr(A B) = vec(A^T) . vec(B), so a qubit superoperator
# S has the Pauli transfer matrix T_ij = 1/2 vec(S_i^T) . S vec(S_j).  The
# qubit grid's ranking reads Bloch vectors off these, not off the displacement
# products: their ZX = iY carries a 1.2e-16 imaginary part from exp(i pi),
# which could flip ties in the ranking.
_SIGMA = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]],
                   [[1, 0], [0, -1]]], dtype=complex)
_PAULI_VECS = _SIGMA.reshape(4, 4)
_PAULI_T_VECS = _SIGMA.transpose(0, 2, 1).reshape(4, 4)

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class SearchConfig:
    """Settings for the minimum-output-entropy search.

    grid_resolution: polar divisions of the qubit state-space grid (the
    azimuthal count is twice that); doubling it refines the grid in place.
    samples: random pure states drawn for d >= 3; the best three are polished.
    refinement_iterations: cap on the conditional-gradient iterations of each
    polished start; 0 skips the polish.
    """

    grid_resolution: int = 64
    samples: int = 256
    seed: int = 0
    refinement_iterations: int = 200

    def __post_init__(self):
        for name, lo in (("grid_resolution", 8), ("samples", 0), ("seed", 0),
                         ("refinement_iterations", 0)):
            _require_in_range(name, getattr(self, name), lo)


def cp_oracle_choi(ch) -> bool:
    """Complete positivity from the spectra of the Choi matrix's shift
    blocks, choi_blocks: True when the smallest eigenvalue is at least
    -CLAMP_TOL, the slack as_distribution grants each weight.

    True on every channel the package can construct: each block is a
    unitary similarity of its shift's weights, so the spectrum is the Kraus
    weight multiset, which as_distribution has clamped to be non-negative,
    up to rounding of order 1e-16.  So it is not yet an independent CP test
    (ROADMAP.md, open item 2); cp_rows decides CP.
    """
    return bool(np.linalg.eigvalsh(choi_blocks(ch)).min() >= -CLAMP_TOL)


def _rows_times(rows: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """rows @ mat, with a single row doubled: BLAS takes one row through gemv,
    whose rounding differs from gemm's, so this keeps each row's result the
    same bits whatever batch it arrives in."""
    n = rows.shape[0]
    if n == 1:
        rows = np.concatenate([rows, rows])
    return (rows @ mat)[:n]


def _outputs(states: np.ndarray, sup: np.ndarray) -> np.ndarray:
    """Phi(psi psi^dagger) for each pure state (rows), (n, dim, dim): the
    row-major vec(psi psi^dagger) rows times sup.T, all in one GEMM; each
    output is the same bits whatever batch it arrives in."""
    n, dim = states.shape
    rows = (states[:, :, None] * states.conj()[:, None, :]).reshape(n, dim * dim)
    return _rows_times(rows, sup.T).reshape(n, dim, dim)


def _output_entropies(states: np.ndarray, sup: np.ndarray) -> np.ndarray:
    """Entropy of the channel output for each pure input state (rows), through
    _outputs, so each state's entropy is the same bits in any batch."""
    # one row per eigenvalue index, so that each sum over a spectrum adds whole
    # rows; summing many short rows is several times slower
    evs = np.linalg.eigvalsh(_outputs(states, sup)).T.copy()
    np.maximum(evs, 0.0, out=evs)
    evs /= evs.sum(axis=0)
    return _entropies(evs, axis=0)


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
def _qubit_grid_bloch(resolution: int) -> np.ndarray:
    """Read-only Bloch vectors of the grid states as columns, cached per
    resolution: row j holds <psi|S_j|psi> for S = X, Y, Z.  Three long rows,
    not one short row per state, so that the ranking's GEMM and its sum over
    the three components walk whole rows, several times faster."""
    states = _qubit_grid(resolution)
    bloch = np.einsum("ni,jik,nk->jn", states.conj(), _SIGMA[1:], states).real
    bloch.setflags(write=False)
    return bloch


def _pauli_transfer(sup: np.ndarray) -> np.ndarray:
    """The real 4 x 4 Pauli transfer matrix T_ij = 1/2 Tr(S_i Phi(S_j)) of a
    qubit superoperator, over I, X, Y, Z.  A unital, trace-preserving map has
    first row and column (1, 0, 0, 0) and sends Bloch vector r to T[1:, 1:] r.
    """
    return 0.5 * (_PAULI_T_VECS @ sup @ _PAULI_VECS.T).real


# a polished start is certified stationary once its Frank-Wolfe gap is this small
_GAP_TOL = 1e-13
# output eigenvalues are clamped here before the log: pure outputs have zeros,
# and a floor near float resolution keeps A's scale, and so the rounding of
# its gap, well below _GAP_TOL
_EIG_FLOOR = 1e-16


def _gradient_matrices(states: np.ndarray, sup: np.ndarray) -> np.ndarray:
    """A = Phi^dagger(log Phi(psi psi^dagger)) for each pure state (rows).

    The gradient of -S(Phi(P)) at P = psi psi^dagger is A + I.  On row-major
    vec rows Phi is rows @ sup.T (_outputs) and its adjoint rows @ sup.conj().
    """
    n, dim = states.shape
    w, v = np.linalg.eigh(_outputs(states, sup))
    logs = (v * np.log(np.maximum(w, _EIG_FLOOR))[:, None, :]) @ v.conj().transpose(0, 2, 1)
    return _rows_times(logs.reshape(n, dim * dim), sup.conj()).reshape(n, dim, dim)


def _polish(states: np.ndarray, sup: np.ndarray, max_iterations: int):
    """Conditional-gradient steps psi <- top eigenvector of A(psi), in lockstep.

    -S(Phi(P)) is convex in P, so moving to the top eigenvector Q of A lowers
    the output entropy by at least the Frank-Wolfe gap
    lambda_max(A) - <psi|A|psi>, which is zero exactly at stationary points.
    Each start stops once its gap is at most _GAP_TOL (converged) or after
    max_iterations gap evaluations, and does not depend on the others.
    Returns the final states, then per start the iteration count, whether it
    converged and its last gap.
    """
    states = states.copy()
    k = states.shape[0]
    iterations = np.zeros(k, dtype=int)
    converged = np.zeros(k, dtype=bool)
    gaps = np.zeros(k)
    live = np.arange(k)
    while live.size:
        psi = states[live]
        a = _gradient_matrices(psi, sup)
        w, v = np.linalg.eigh(a)
        expect = np.sum(psi.conj() * (a @ psi[:, :, None])[:, :, 0], axis=1).real
        gap = w[:, -1] - expect
        iterations[live] += 1
        gaps[live] = gap
        done = gap <= _GAP_TOL
        converged[live[done]] = True
        states[live[~done]] = v[~done, :, -1]
        live = live[~done & (iterations[live] < max_iterations)]
    return states, iterations, converged, gaps


@dataclass(frozen=True)
class SearchResult:
    """Where the minimum-output-entropy search found its minimum.

    entropy is the smaller of grid_entropy (the best grid, sampled or warm
    start state) and polished_entropy (the best polished start; None when
    refinement_iterations is 0).  state is the input state that attains
    entropy.  iterations and converged hold, per polished start, the number
    of conditional-gradient iterations and whether the start was certified
    stationary (Frank-Wolfe gap at most 1e-13) before refinement_iterations
    ran out.
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
    coarser points, so the raw grid minimum never increases) and polish its
    minimum.  The grid is ranked by output purity, which is exact: the Kraus
    operators are unitary, so the channel is unital and sends Bloch vector r
    to T r, T the 3 x 3 block of its Pauli transfer matrix; the output
    eigenvalues are (1 +- |T r|)/2, whose entropy falls strictly as |T r|
    grows.  So the row of largest |T r|^2 is the grid's entropy minimum, and
    only its entropy is computed.

    Higher dimensions evaluate warm starts plus seeded random states, and
    polish the best three random states (the best three starts when samples
    is 0).  The warm starts are the vectors of m, or of canonical_mub(dim)
    when m is None, for every channel on either Kraus route; so a dimension
    that is not a prime power is refused.  Basis alpha diagonalizes its own
    unitaries and the displacement products in weyl_labels(dim)[alpha-1],
    which hold every nonzero label of a WeylChannel(p, n), p prime, in the
    same digit order.  So the warm starts hold an eigenbasis of every Kraus
    operator, with each degenerate eigenspace resolved the same way on both
    routes, and a vector of the best basis attains the lower bound chi_low.
    The warm starts of a generalized Pauli channel are stationary points
    already, so polishing them would change nothing.  The polish is a batched
    conditional-gradient step on pure states (_polish), run when
    refinement_iterations > 0; a warning is logged when the returned state is
    a polished start that is not certified stationary.
    """
    cfg = cfg or SearchConfig()
    sup = superoperator(channel, m)
    dim = channel.dimension

    if dim == 2:
        states = _qubit_grid(cfg.grid_resolution)
        bloch = _pauli_transfer(sup)[1:, 1:] @ _qubit_grid_bloch(cfg.grid_resolution)
        idx = int(np.einsum("ij,ij->j", bloch, bloch).argmax())
        grid_entropy = float(_output_entropies(states[idx:idx + 1], sup)[0])
        polish = [idx]
    else:
        warm = (m or canonical_mub(dim)).bases.reshape(-1, dim)
        normal = np.random.default_rng(cfg.seed).standard_normal
        raw = normal((cfg.samples, dim)) + 1j * normal((cfg.samples, dim))
        states = np.concatenate([warm, raw])
        states /= np.linalg.norm(states, axis=1, keepdims=True)
        ents = _output_entropies(states, sup)
        idx = int(ents.argmin())
        grid_entropy = float(ents[idx])
        first = len(states) - cfg.samples if cfg.samples > 0 else 0
        polish = first + np.argsort(ents[first:])[:3]

    state = states[idx].copy()
    if cfg.refinement_iterations == 0:
        return SearchResult(grid_entropy, grid_entropy, None, state, (), ())
    final, iterations, converged, gaps = _polish(
        states[polish], sup, cfg.refinement_iterations)
    fun = _output_entropies(final, sup)
    j = int(fun.argmin())
    polished = float(fun[j])
    if polished < grid_entropy:
        state = final[j]
        if not converged[j]:
            _log.warning(
                "output-entropy search (d=%d): best polished start not stationary "
                "after %d iterations, Frank-Wolfe gap %.3e", dim, iterations[j], gaps[j])
    return SearchResult(
        entropy=min(grid_entropy, polished),
        grid_entropy=grid_entropy,
        polished_entropy=polished,
        state=state,
        iterations=tuple(int(i) for i in iterations),
        converged=tuple(bool(c) for c in converged),
    )


def holevo_estimate(channel, m: Optional[MubSet] = None,
                    cfg: Optional[SearchConfig] = None) -> float:
    """ln(dim) minus the searched minimal output entropy.

    Always at most the true Holevo quantity of these covariant channels, so
    together with the closed-form bounds it forms a sandwich.
    """
    entropy = search_output_entropy(channel, m, cfg).entropy
    return float(np.log(channel.dimension) - entropy)
