"""Mixed-unitary qudit channels defined over a full set of unbiased bases.

The channel is parametrized by a probability vector (p_0, p_1, ..., p_{d+1}):
weight p_0 on the identity and weight p_alpha/(d-1) on each of the d-1
unitaries attached to basis alpha.  The equivalent spectral view is the
vector of eigenvalues lambda_alpha on the traceless part of each basis
algebra; the probability vector is the source of truth and the eigenvalue
form is derived.

For a prime power d = p^n the same channel has displacement-product Kraus
operators (gpc_to_weyl): the d-1 products in weyl_labels(d)[alpha-1] share
the weight of basis alpha.

Dimension policy: numerics._require_dimension is the one check that d is an
integer >= 2; every class and function below that takes d runs it, directly
or through mub.require_prime_power, and it raises UnsupportedDimensionError
naming the value.  The lambda/p parametrization (EigenvalueVector,
GeneralizedPauliChannel and the maps between the two forms), the
Fujiwara-Algoet margin and the CP decision are dimension-free and accept any
d >= 2.  Everything that needs a basis set, or displacement
products for a GeneralizedPauliChannel, requires a prime power d and raises
UnsupportedDimensionError naming d otherwise: canonical_mub, gpc_to_weyl,
tensor, both Kraus routes of kraus_terms and so superoperator, apply,
choi_blocks, choi_matrix and the oracle, and the capacity bounds.  A
MubSet is checked when it is made (a prime power d, d+1 bases, verify_mub),
so the basis-set route only matches its dimension.  A WeylChannel
carries its own displacement products, of any local dimension; the oracle's
search still takes its warm starts from canonical_mub of its dimension.

Number policy: numerics._real_array is the one place where array input
becomes floats.  Every constructor and row function here reads its
probabilities or eigenvalues through it, and refuses by name an entry that
is not a real number: a bool, a string or a complex, even one whose
imaginary part is 0.  Its twin numerics._complex_array reads apply's state
(and a MubSet's bases), and refuses a bool or a string the same way.  A
batch of rows (probability_rows, eigenvalue_rows and the capacity bounds)
is read by _row_array, which also refuses by name any shape but (N, d+k)
with d >= 2; eigenvalue_rows then refuses a row that is not a probability
vector, with as_distribution's tolerances and no clamp.

sample_cp_eigenvalues, the sampler of the CP region behind random-sweep and
the self-checks, lives beside eigenvalue_rows, the map it wraps.

The layer writes out no Pauli matrix: at d = 2 the displacement products
are the Paulis, up to the phase of ZX = iY.  The Hermitian Paulis live in
the oracle, whose qubit grid ranking is their one user.

Every channel action takes one route: kraus_terms -> weighted_gram, which,
reshuffled, is the superoperator behind apply and the oracle's
output-entropy search, and over D is choi_matrix.  The basis-set route's
unitaries come from one batched product, mub._basis_unitaries.  choi_blocks
builds the same Choi matrix as D shift blocks of D x D from one character
table, the diagonals of the D unshifted displacement products.
"""

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .errors import InvalidDistributionError, NotCompletelyPositiveError
from .mub import (
    MubSet,
    _basis_unitaries,
    build_mubs,
    displacement_products,
    prime_power,
    weyl_labels,
)
from .numerics import (
    CLAMP_TOL,
    VALIDATION_TOL,
    _complex_array,
    _real_array,
    _require_dimension,
    _require_in_range,
    as_distribution,
)


@dataclass(frozen=True)
class GeneralizedPauliChannel:
    """Channel given by its d+2 mixing probabilities (identity weight first)."""

    dimension: int
    probabilities: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "dimension", _require_dimension(self.dimension))
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
    probability vector.  cp_rows decides CP, a stronger pair of inequalities.
    """

    dimension: int
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "dimension", _require_dimension(self.dimension))
        vals = _real_array("eigenvalues", self.values).ravel()
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
        object.__setattr__(self, "local_dimension",
                           _require_dimension(self.local_dimension, "local_dimension"))
        object.__setattr__(self, "parts", _require_in_range("parts", self.parts, 1))
        probs = as_distribution(self.probabilities)
        expect = self.local_dimension ** (2 * self.parts)
        if probs.size != expect:
            raise ValueError(f"need {expect} weights, got {probs.size}")
        object.__setattr__(self, "probabilities", probs)

    @property
    def dimension(self) -> int:
        return self.local_dimension ** self.parts


def eigenvalues_from_probabilities(c: GeneralizedPauliChannel) -> EigenvalueVector:
    """Apply the spectral map (eigenvalue_rows) to one channel."""
    return EigenvalueVector(c.dimension, eigenvalue_rows(c.probabilities[None, :])[0])


def _row_array(kind: str, rows, extra: int) -> np.ndarray:
    """rows read through numerics._real_array as "<kind> rows"; refused by
    name unless an (N, d+extra) array with d an integer >= 2
    (_require_dimension)."""
    rows = _real_array(f"{kind} rows", rows)
    if rows.ndim != 2:
        raise ValueError(f"need an (N, d+{extra}) {kind} array, got shape {rows.shape}")
    _require_dimension(rows.shape[1] - extra)
    return rows


def eigenvalue_rows(probs: np.ndarray) -> np.ndarray:
    """(N, d+1) eigenvalues of an (N, d+2) mixing-probability array:
    lambda_alpha = [d (p_0 + p_alpha) - 1] / (d - 1).

    An affine bijection from the probability simplex onto the CP region.
    Rows are read by _row_array, then checked with as_distribution's
    tolerances, but not clamped: entries finite and >= -CLAMP_TOL, sums within
    VALIDATION_TOL of 1.  InvalidDistributionError names the first bad row.
    """
    probs = _row_array("probability", probs, 2)
    with np.errstate(invalid="ignore"):  # inf - inf, refused below
        total = probs.sum(axis=1)
    # NaN and infinities fail one of the comparisons
    ok = (probs >= -CLAMP_TOL).all(axis=1) & (np.abs(total - 1.0) <= VALIDATION_TOL)
    if not ok.all():
        i = int(np.argmin(ok))
        raise InvalidDistributionError(
            f"{_row_label(i, probs.shape[0])}probabilities {probs[i].tolist()} are not "
            f"a probability vector (sum {float(total[i])!r})")
    d = probs.shape[1] - 2
    return (d * (probs[:, :1] + probs[:, 1:]) - 1.0) / (d - 1.0)


def sample_cp_eigenvalues(d: int, count: int, rng) -> np.ndarray:
    """count eigenvalue rows drawn uniformly from the CP region, shape (count, d+1).

    Dirichlet(1, ..., 1) rows are uniform on the probability simplex, and
    eigenvalue_rows maps the simplex affinely onto the CP region.
    """
    d = _require_dimension(d)
    _require_in_range("count", count, 0)
    return eigenvalue_rows(rng.dirichlet(np.ones(d + 2), count))


def probabilities_from_eigenvalues(e: EigenvalueVector) -> GeneralizedPauliChannel:
    """Invert the spectral map (probability_rows); raises
    NotCompletelyPositiveError unless e is CP."""
    return GeneralizedPauliChannel(e.dimension, probability_rows(e.values[None, :])[0])


def _row_label(i: int, n: int) -> str:
    return f"row {i}: " if n > 1 else ""


def probability_rows(lams: np.ndarray) -> np.ndarray:
    """(N, d+2) mixing probabilities of an (N, d+1) eigenvalue array.

    p_0 = [1 + (d-1) sum(lambda)] / d^2 and
    p_alpha = (d-1) [1 + d lambda_alpha - sum(lambda)] / d^2.  Rows are read
    by _row_array; raises NotCompletelyPositiveError naming the first row that
    is not CP.
    """
    lams = _row_array("eigenvalue", lams, 1)
    require_cp_rows(lams)
    d = lams.shape[1] - 1
    total = lams.sum(axis=1, keepdims=True)
    return np.concatenate([(1.0 + (d - 1.0) * total) / d**2,
                           (d - 1.0) * (1.0 + d * lams - total) / d**2], axis=1)


def clip_eigenvalue_rows(lams: np.ndarray) -> np.ndarray:
    """Check an (N, d+1) eigenvalue array row by row; return it clipped to the box.

    Entries must be finite and lie in [-1/(d-1), 1] within
    VALIDATION_TOL.  The ValueError names the first failing row.
    """
    d = lams.shape[1] - 1
    lo = -1.0 / (d - 1)
    # NaN and infinities fail a comparison, so this also tests finiteness
    inside = (lams >= lo - VALIDATION_TOL) & (lams <= 1.0 + VALIDATION_TOL)
    if not inside.all():
        i = int(np.argmin(inside.all(axis=1)))
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


def cp_rows(lams: np.ndarray) -> np.ndarray:
    """The package's one CP decision: which rows of an (N, d+1) eigenvalue
    array have a Fujiwara-Algoet margin of at least -CLAMP_TOL."""
    return cp_margin_rows(lams) >= -CLAMP_TOL


def require_cp_rows(lams: np.ndarray) -> None:
    """Raise NotCompletelyPositiveError naming the first row that is not CP."""
    ok = cp_rows(lams)
    if not ok.all():
        i = int(np.argmin(ok))
        margin = cp_margin_rows(lams[i:i + 1])[0]
        raise NotCompletelyPositiveError(
            f"{_row_label(i, lams.shape[0])}eigenvalues {lams[i].tolist()} "
            f"violate complete positivity (margin {margin:.3e})"
        )


def fujiwara_algoet_margin(e: EigenvalueVector) -> float:
    """Distance to the CP boundary: negative means the conditions fail."""
    return float(cp_margin_rows(e.values[None, :])[0])


def is_completely_positive(e: EigenvalueVector) -> bool:
    """Whether e passes the package's one CP decision (cp_rows)."""
    return bool(cp_rows(e.values[None, :])[0])


def require_cp(e: EigenvalueVector) -> None:
    """Raise NotCompletelyPositiveError unless e is CP (require_cp_rows)."""
    require_cp_rows(e.values[None, :])


def weyl_kraus_terms(w: WeylChannel):
    """(weights, operators) for the nonzero-weight displacement products."""
    idx = np.nonzero(w.probabilities)[0]
    return (w.probabilities[idx].copy(),
            displacement_products(w.local_dimension, w.parts, idx))


def gpc_to_weyl(c: GeneralizedPauliChannel) -> WeylChannel:
    """Rewrite the channel with displacement-product Kraus operators.

    d = p^n gives a WeylChannel(p, n): the identity keeps p_0 and each of the
    d-1 labels in weyl_labels(d)[alpha-1] gets p_alpha/(d-1).
    """
    d = c.dimension
    labels = weyl_labels(d)
    weights = np.zeros(d * d)
    weights[0] = c.probabilities[0]
    weights[labels] = (c.probabilities[1:] / (d - 1.0))[:, None]
    return WeylChannel(*prime_power(d), weights)


def kraus_probability_multiset(c: GeneralizedPauliChannel) -> np.ndarray:
    """The d^2 Kraus weights: p_0 once, then each p_alpha/(d-1) repeated d-1 times."""
    d = c.dimension
    p = c.probabilities
    return np.concatenate([[p[0]], np.repeat(p[1:] / (d - 1.0), d - 1)])


def _require_channel(ch):
    if not isinstance(ch, (WeylChannel, GeneralizedPauliChannel)):
        raise TypeError(f"expected a channel, got {type(ch).__name__}")
    return ch


def _as_weyl(ch) -> WeylChannel:
    if isinstance(_require_channel(ch), GeneralizedPauliChannel):
        return gpc_to_weyl(ch)
    return ch


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

    G / dim is the Choi matrix, choi_matrix (choi_blocks builds its shift
    blocks instead).
    Reshuffled as G[a,b,c,d] -> S[(a,c),(b,d)] it is the superoperator
    S = sum_k w_k U_k (x) conj(U_k), which maps vec(rho) to
    vec(sum_k w_k U_k rho U_k^dagger).
    """
    vecs = ops.reshape(ops.shape[0], -1)
    return (vecs.T * weights) @ vecs.conj()


def kraus_terms(channel, m: Optional[MubSet] = None):
    """(weights, operators) of the channel's unitary Kraus operators.

    m None: the displacement products (weyl_kraus_terms).  A MubSet: the
    identity and each basis's unitaries U_alpha^k, weighted by
    kraus_probability_multiset; it was checked when it was made, so only its
    dimension is matched to the channel's here.  Any other m is a TypeError.
    The two sets are kept apart on purpose, as a cross-check of the bases.
    """
    if m is None:
        return weyl_kraus_terms(_as_weyl(channel))
    if not isinstance(m, MubSet):
        raise TypeError(f"basis set must be a MubSet or None, got {type(m).__name__}")
    if isinstance(channel, WeylChannel):
        raise ValueError(
            f"basis set (d={m.dimension}) given for a WeylChannel, whose Kraus "
            "operators are displacement products; pass m=None"
        )
    d = _require_channel(channel).dimension
    if m.dimension != d:
        raise ValueError(
            f"basis set (d={m.dimension}, n={m.n_bases}) does not match channel d={d}"
        )
    ops = _basis_unitaries(m.bases, np.arange(1, d)).reshape(-1, d, d)
    return kraus_probability_multiset(channel), np.concatenate([np.eye(d)[None], ops])


def superoperator(channel, m: Optional[MubSet] = None) -> np.ndarray:
    """kraus_superoperator of kraus_terms(channel, m)."""
    return kraus_superoperator(*kraus_terms(channel, m))


def kraus_superoperator(weights: np.ndarray, ops: np.ndarray) -> np.ndarray:
    """S = sum_k w_k U_k (x) conj(U_k), acting on row-major vec(rho): the
    weighted_gram of the Kraus set, reshuffled."""
    dim = ops.shape[1]
    gram = weighted_gram(weights, ops).reshape(dim, dim, dim, dim)
    return gram.transpose(0, 2, 1, 3).reshape(dim * dim, dim * dim)


def apply(c, m: Optional[MubSet], rho: np.ndarray) -> np.ndarray:
    """superoperator(c, m) @ vec(rho), m picking the Kraus set as in kraus_terms.

    Accepts any matrix of numbers of matching dimension (linear extension), so
    operator inputs can be used to read off eigenvalues; a bool, a string or
    ragged rows are refused by name (numerics._complex_array).
    """
    sup = superoperator(c, m)
    rho = _complex_array("state", rho)
    if rho.shape != (c.dimension, c.dimension):
        raise ValueError(f"state shape {rho.shape} does not match dimension {c.dimension}")
    return (sup @ rho.ravel()).reshape(rho.shape)


def choi_blocks(ch) -> np.ndarray:
    """The Choi matrix as D blocks of D x D, D the channel dimension.

    A displacement product sends |i> to a phase times |i + b>, so vec(U_k)
    lives on the vec indices (i, i + b) of its shift b, and up to a
    permutation the Choi matrix is block diagonal over the shifts: its
    spectrum is the union of the block spectra.  Block b, indexed by i, is
    sum_k w_k u_k u_k^dagger / D over the D products of shift b, u_k the
    entries U_k[i, i + b].  That entry depends only on the phase digits of
    k, not on its shift, so every block reads one character table: chars[j]
    is the diagonal of the shift-0 product with phase digits j (the row sums
    of any product with those digits, exactly, since each row holds one
    nonzero).  Block b is chars^T diag(w_b) conj(chars) / D, w_b the weights
    of shift b in phase order: chars / sqrt(D) is unitary, so each block is
    a unitary similarity of its shift's weights.  The (p,)*2n grid of all
    D^2 labels, zero weights included, is transposed so that the shift
    digits lead; its row 0 holds the shift-0 labels.
    """
    w = _as_weyl(ch)
    p, n, dim = w.local_dimension, w.parts, w.dimension
    labels = np.arange(dim * dim).reshape((p,) * (2 * n))
    labels = labels.transpose(*range(1, 2 * n, 2), *range(0, 2 * n, 2)).reshape(dim, dim)
    chars = displacement_products(p, n, labels[0]).sum(axis=2)
    return (chars.T * w.probabilities[labels][:, None, :]) @ chars.conj() / dim


def choi_matrix(ch) -> np.ndarray:
    """Choi state (channel (x) id applied to the maximally entangled state).

    Normalized to trace 1: the dense weighted_gram of the displacement
    products over D, built independently of choi_blocks.  For orthogonal
    unitary Kraus operators the eigenvalues are exactly the mixing weights.
    """
    w = _as_weyl(ch)
    return weighted_gram(*kraus_terms(w)) / w.dimension


def classical_map_rows(lams: np.ndarray) -> np.ndarray:
    """(N, d+1, d, d) transition matrices of (N, d+1) eigenvalue rows, one per
    basis alpha: T_kl = lambda_alpha delta_kl + (1 - lambda_alpha)/d; bistochastic.
    """
    d = lams.shape[1] - 1
    lam = lams[:, :, None, None]
    return lam * np.eye(d) + (1.0 - lam) / d * np.ones((d, d))


def classical_map_t(e: EigenvalueVector, alpha: int) -> np.ndarray:
    """Transition matrix induced on the vectors of basis alpha (classical_map_rows)."""
    _require_in_range("basis label", alpha, 1, e.dimension + 1)
    return classical_map_rows(e.values[None, :])[0, alpha - 1]


# typed, so that d=4.0 misses the entry of d=4 and is refused
@lru_cache(maxsize=None, typed=True)
def canonical_mub(d: int) -> MubSet:
    """The package's reference basis set for a prime power d: build_mubs, cached."""
    return build_mubs(d)
