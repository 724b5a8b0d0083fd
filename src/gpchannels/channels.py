"""Mixed-unitary qudit channels defined over a full set of unbiased bases.

The channel is parametrized by a probability vector (p_0, p_1, ..., p_{d+1}):
weight p_0 on the identity and weight p_alpha/(d-1) on each of the d-1
unitaries attached to basis alpha.  The equivalent spectral view is the
vector of eigenvalues lambda_alpha on the traceless part of each basis
algebra; the probability vector is the source of truth and the eigenvalue
form is derived.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NotCompletelyPositiveError, UnsupportedDimensionError
from .mub import (
    MubSet,
    _weyl_matrix,
    build_mubs_dim4,
    build_mubs_prime,
    dim4_triples,
    is_prime,
    unitary_u,
)
from .numerics import CLAMP_TOL, as_distribution

EIGENVALUE_BOX_TOL = 1e-9


@dataclass(frozen=True)
class GeneralizedPauliChannel:
    """Channel given by its d+2 mixing probabilities (identity weight first)."""

    dimension: int
    probabilities: np.ndarray

    def __post_init__(self):
        if int(self.dimension) < 2:
            raise UnsupportedDimensionError(f"dimension must be >= 2, got {self.dimension}")
        object.__setattr__(self, "dimension", int(self.dimension))
        probs = as_distribution(self.probabilities)
        if probs.size != self.dimension + 2:
            raise ValueError(
                f"need {self.dimension + 2} probabilities for d={self.dimension}, "
                f"got {probs.size}"
            )
        object.__setattr__(self, "probabilities", probs)


@dataclass(frozen=True)
class EigenvalueVector:
    """The d+1 channel eigenvalues; may violate complete positivity.

    Each entry is confined to [-1/(d-1), 1], the range reachable from any
    probability vector.  CP is the stronger pair of inequalities checked by
    is_completely_positive.
    """

    dimension: int
    values: np.ndarray

    def __post_init__(self):
        if int(self.dimension) < 2:
            raise UnsupportedDimensionError(f"dimension must be >= 2, got {self.dimension}")
        object.__setattr__(self, "dimension", int(self.dimension))
        vals = np.array(self.values, dtype=float).ravel()
        if vals.size != self.dimension + 1:
            raise ValueError(
                f"need {self.dimension + 1} eigenvalues for d={self.dimension}, "
                f"got {vals.size}"
            )
        object.__setattr__(self, "values", clip_eigenvalue_rows(vals[None, :])[0])


@dataclass(frozen=True)
class WeylChannel:
    """Mixed-unitary channel with displacement-product Kraus operators.

    `parts` tensor factors of local dimension `local_dimension`; the flat
    probability vector is indexed by the mixed-radix label
    (k_1, l_1, ..., k_r, l_r), most significant digit first.
    """

    local_dimension: int
    parts: int
    probabilities: np.ndarray

    def __post_init__(self):
        if int(self.local_dimension) < 2:
            raise UnsupportedDimensionError(
                f"local dimension must be >= 2, got {self.local_dimension}"
            )
        if int(self.parts) < 1:
            raise ValueError(f"parts must be >= 1, got {self.parts}")
        object.__setattr__(self, "local_dimension", int(self.local_dimension))
        object.__setattr__(self, "parts", int(self.parts))
        probs = as_distribution(self.probabilities)
        expect = self.local_dimension ** (2 * self.parts)
        if probs.size != expect:
            raise ValueError(f"need {expect} weights, got {probs.size}")
        object.__setattr__(self, "probabilities", probs)

    @property
    def dimension(self) -> int:
        return self.local_dimension ** self.parts


def eigenvalues_from_probabilities(c: GeneralizedPauliChannel) -> EigenvalueVector:
    """lambda_alpha = [d (p_0 + p_alpha) - 1] / (d - 1)."""
    d = c.dimension
    p = c.probabilities
    lam = (d * (p[0] + p[1:]) - 1.0) / (d - 1.0)
    return EigenvalueVector(d, lam)


def probabilities_from_eigenvalues(e: EigenvalueVector) -> GeneralizedPauliChannel:
    """Invert the spectral map; raises if the result is not a distribution."""
    d = e.dimension
    lam = e.values
    total = lam.sum()
    p0 = (1.0 + (d - 1.0) * total) / d**2
    rest = (d - 1.0) * (1.0 + d * lam - total) / d**2
    p = np.concatenate([[p0], rest])
    if p.min() < -CLAMP_TOL:
        raise NotCompletelyPositiveError(
            f"eigenvalues give negative probability {p.min():.3e}"
        )
    return GeneralizedPauliChannel(d, p)


def _row_label(i: int, n: int) -> str:
    return f"row {i}: " if n > 1 else ""


def clip_eigenvalue_rows(lams: np.ndarray) -> np.ndarray:
    """Check an (N, d+1) eigenvalue array row by row; return it clipped to the box.

    Entries must be finite and lie in [-1/(d-1), 1] within
    EIGENVALUE_BOX_TOL.  The ValueError names the first failing row.
    """
    d = lams.shape[1] - 1
    lo = -1.0 / (d - 1)
    # NaN and infinities fail a comparison, so this also tests finiteness
    inside = (lams >= lo - EIGENVALUE_BOX_TOL) & (lams <= 1.0 + EIGENVALUE_BOX_TOL)
    inside = inside.all(axis=1)
    if not inside.all():
        i = int(np.argmin(inside))
        row, label = lams[i], _row_label(i, lams.shape[0])
        if not np.isfinite(row).all():
            raise ValueError(f"{label}eigenvalues must be finite")
        raise ValueError(
            f"{label}eigenvalues outside [{lo}, 1]: min={row.min()}, max={row.max()}"
        )
    return np.minimum(np.maximum(lams, lo), 1.0)


def cp_margin_rows(lams: np.ndarray) -> np.ndarray:
    """Fujiwara-Algoet margin of each row of an (N, d+1) eigenvalue array.

    CP requires -1/(d-1) <= sum(lambda) <= 1 + d * min(lambda); the margin is
    the distance to the nearer side, negative when the conditions fail.
    """
    d = lams.shape[1] - 1
    total = lams.sum(axis=1)
    return np.minimum(total + 1.0 / (d - 1.0), 1.0 + d * lams.min(axis=1) - total)


def require_cp_rows(lams: np.ndarray) -> None:
    """Raise NotCompletelyPositiveError naming the first row below -CLAMP_TOL."""
    margins = cp_margin_rows(lams)
    bad = margins < -CLAMP_TOL
    if bad.any():
        i = int(np.argmax(bad))
        raise NotCompletelyPositiveError(
            f"{_row_label(i, lams.shape[0])}eigenvalues {lams[i].tolist()} "
            f"violate complete positivity (margin {margins[i]:.3e})"
        )


def fujiwara_algoet_margin(e: EigenvalueVector) -> float:
    """Distance to the CP boundary: negative means the conditions fail."""
    return float(cp_margin_rows(e.values[None, :])[0])


def is_completely_positive(e: EigenvalueVector, tol: float = CLAMP_TOL) -> bool:
    return fujiwara_algoet_margin(e) >= -tol


def require_cp(e: EigenvalueVector) -> None:
    require_cp_rows(e.values[None, :])


def apply(c: GeneralizedPauliChannel, m: MubSet, rho: np.ndarray) -> np.ndarray:
    """Apply the channel using the unitaries built from the given basis set.

    Accepts any matrix of matching dimension (linear extension), so operator
    inputs can be used to read off eigenvalues.
    """
    d = c.dimension
    rho = np.asarray(rho, dtype=complex)
    if m.dimension != d or m.n_bases != d + 1:
        raise ValueError(
            f"basis set (d={m.dimension}, n={m.n_bases}) does not match channel d={d}"
        )
    if rho.shape != (d, d):
        raise ValueError(f"state shape {rho.shape} does not match dimension {d}")
    p = c.probabilities
    out = p[0] * rho
    for alpha in range(1, d + 2):
        if p[alpha] == 0.0:
            continue
        acc = np.zeros_like(rho)
        for k in range(1, d):
            u = unitary_u(m, alpha, k)
            acc += u @ rho @ u.conj().T
        out += p[alpha] / (d - 1.0) * acc
    return out


@lru_cache(maxsize=None)
def _weyl_family(s: int) -> np.ndarray:
    mats = np.zeros((s * s, s, s), dtype=complex)
    for k in range(s):
        for l in range(s):
            mats[k * s + l] = _weyl_matrix(s, k, l)
    return mats


def weyl_kraus_terms(w: WeylChannel):
    """(weights, operators) for the nonzero-weight displacement products."""
    s, r = w.local_dimension, w.parts
    fam = _weyl_family(s)
    idx = np.nonzero(w.probabilities)[0]
    dim = w.dimension
    ops = np.zeros((idx.size, dim, dim), dtype=complex)
    for row, flat in enumerate(idx):
        digits = np.unravel_index(flat, (s,) * (2 * r))
        op = fam[digits[0] * s + digits[1]]
        for a in range(1, r):
            op = np.kron(op, fam[digits[2 * a] * s + digits[2 * a + 1]])
        ops[row] = op
    return w.probabilities[idx].copy(), ops


def apply_weyl(w: WeylChannel, rho: np.ndarray) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    dim = w.dimension
    if rho.shape != (dim, dim):
        raise ValueError(f"state shape {rho.shape} does not match dimension {dim}")
    weights, ops = weyl_kraus_terms(w)
    return np.einsum("k,kab,bc,kdc->ad", weights, ops, rho, ops.conj())


def gpc_to_weyl(c: GeneralizedPauliChannel) -> WeylChannel:
    """Rewrite the channel with displacement-product Kraus operators.

    Prime d: basis alpha in 1..d collects the labels (k, k*(alpha-1) mod d)
    for k = 1..d-1 and basis d+1 the labels (0, k), each at weight
    p_alpha/(d-1).  d = 4: the five Pauli-product triples, each member at
    weight p_alpha/3, with sigma_x -> (0,1), sigma_y -> (1,1), sigma_z -> (1,0)
    per qubit.
    """
    d = c.dimension
    p = c.probabilities
    if is_prime(d):
        weights = np.zeros((d, d))
        weights[0, 0] = p[0]
        share = p[1:] / (d - 1.0)
        for alpha in range(1, d + 1):
            for k in range(1, d):
                weights[k, (k * (alpha - 1)) % d] += share[alpha - 1]
        for k in range(1, d):
            weights[0, k] += share[d]
        return WeylChannel(d, 1, weights.ravel())
    if d == 4:
        pair = {0: (0, 0), 1: (0, 1), 2: (1, 1), 3: (1, 0)}
        weights = np.zeros((2, 2, 2, 2))
        weights[0, 0, 0, 0] = p[0]
        share = p[1:] / 3.0
        for alpha, triple in enumerate(dim4_triples(), start=1):
            for i, j in triple:
                k1, l1 = pair[i]
                k2, l2 = pair[j]
                weights[k1, l1, k2, l2] += share[alpha - 1]
        return WeylChannel(2, 2, weights.ravel())
    raise UnsupportedDimensionError(
        f"no displacement-operator form for d={d} (prime or 4 required)"
    )


def kraus_probability_multiset(c: GeneralizedPauliChannel) -> np.ndarray:
    """The d^2 Kraus weights: p_0 once, then each p_alpha/(d-1) repeated d-1 times."""
    d = c.dimension
    p = c.probabilities
    return np.concatenate([[p[0]], np.repeat(p[1:] / (d - 1.0), d - 1)])


def _as_weyl(ch) -> WeylChannel:
    if isinstance(ch, WeylChannel):
        return ch
    if isinstance(ch, GeneralizedPauliChannel):
        return gpc_to_weyl(ch)
    raise TypeError(f"expected a channel, got {type(ch).__name__}")


def tensor(a, b) -> WeylChannel:
    """Tensor product channel; weights are products of the factor weights."""
    wa, wb = _as_weyl(a), _as_weyl(b)
    if wa.local_dimension != wb.local_dimension:
        raise ValueError(
            f"local dimensions differ: {wa.local_dimension} vs {wb.local_dimension}"
        )
    return WeylChannel(
        wa.local_dimension,
        wa.parts + wb.parts,
        np.kron(wa.probabilities, wb.probabilities),
    )


def weighted_gram(weights: np.ndarray, ops: np.ndarray) -> np.ndarray:
    """G = sum_k w_k vec(U_k) vec(U_k)^dagger, one GEMM (row-major vec).

    G / dim is the Choi matrix.  Reshuffled as G[a,b,c,d] -> S[(a,c),(b,d)]
    it is the superoperator S = sum_k w_k U_k (x) conj(U_k), which maps
    vec(rho) to vec(sum_k w_k U_k rho U_k^dagger).
    """
    vecs = ops.reshape(ops.shape[0], -1)
    return (vecs.T * weights) @ vecs.conj()


def choi_matrix(ch) -> np.ndarray:
    """Choi state (channel (x) id applied to the maximally entangled state).

    Normalized to trace 1.  For orthogonal unitary Kraus operators the
    eigenvalues are exactly the mixing weights.
    """
    w = _as_weyl(ch)
    return weighted_gram(*weyl_kraus_terms(w)) / w.dimension


def classical_map_t(e: EigenvalueVector, alpha: int) -> np.ndarray:
    """Transition matrix induced on the vectors of basis alpha.

    T_kl = lambda_alpha delta_kl + (1 - lambda_alpha)/d; bistochastic.
    """
    d = e.dimension
    if not 1 <= alpha <= d + 1:
        raise ValueError(f"basis label {alpha} out of range 1..{d + 1}")
    lam = e.values[alpha - 1]
    return lam * np.eye(d) + (1.0 - lam) / d * np.ones((d, d))


def channel_to_json(c: GeneralizedPauliChannel) -> dict:
    return {"d": c.dimension, "probabilities": c.probabilities.tolist()}


def channel_from_json(obj: dict) -> GeneralizedPauliChannel:
    """Build a channel from {"d", "probabilities"} or {"d", "lambdas"}."""
    d = int(obj["d"])
    if "probabilities" in obj:
        return GeneralizedPauliChannel(d, np.asarray(obj["probabilities"], dtype=float))
    if "lambdas" in obj:
        e = EigenvalueVector(d, np.asarray(obj["lambdas"], dtype=float))
        return probabilities_from_eigenvalues(e)
    raise ValueError("channel JSON needs 'probabilities' or 'lambdas'")


@lru_cache(maxsize=None)
def canonical_mub(d: int) -> MubSet:
    """The package's reference basis set for dimension d (prime or 4)."""
    if is_prime(d):
        return build_mubs_prime(d)
    if d == 4:
        return build_mubs_dim4()
    raise UnsupportedDimensionError(f"no basis construction for d={d}")
