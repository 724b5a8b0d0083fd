"""Classical-capacity bounds for the mixed-unitary channels in this package.

The lower bound is the best single-basis classical capacity; the upper bound
comes from grouping the sorted Kraus weights into d blocks of d (the grouped
weight vector majorizes every output spectrum, so its entropy lower-bounds
the minimal output entropy).  Both are in nats.

bounds_batch is the one entry point: it checks (N, d+1) eigenvalue rows and
evaluates both closed forms on all of them at once; the CLI, the self-checks
and the oracle read it directly.  The qubit dynamics take the maximum of its
per-basis terms (_basis_terms), which is its exact capacity at d = 2, where
the bounds always meet; a test pins that equality.  The second routes, through
the transition matrices (transition_row_entropies) and through the sorted
weights (zeta_vector, zeta_components_p_form), are kept apart on purpose as
cross-checks.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Tuple

import numpy as np

from .channels import (
    EigenvalueVector,
    GeneralizedPauliChannel,
    WeylChannel,
    _row_array,
    classical_map_rows,
    clip_eigenvalue_rows,
    require_cp,  # noqa: F401  perfbench traces this name in this module
    require_cp_rows,
)
from .mub import require_prime_power
from .numerics import (CLAMP_TOL, _entropies, _entropy, _real_array, _require_in_range,
                       _xlogx, as_distribution)

COINCIDENCE_TOL = 1e-9


def transition_row_entropies(lams: np.ndarray, copies: int = 1) -> np.ndarray:
    """Entropy of the first row of T_alpha^(x copies), copies 1 or 2, as an
    (N, d+1) array over checked (N, d+1) eigenvalue rows and bases alpha.

    Built from classical_map_rows, independently of bounds_batch's closed
    forms; the first row of T (x) T is the outer product of first rows.
    """
    copies = _require_in_range("copies", copies, 1, 2)
    rows = classical_map_rows(lams)[:, :, 0, :]
    if copies == 2:
        rows = (rows[..., :, None] * rows[..., None, :]).reshape(rows.shape[:2] + (-1,))
    return _entropies(np.maximum(rows, 0.0), axis=-1)


def holevo_lower_via_classical(e: EigenvalueVector) -> float:
    """Same bound through the induced transition matrices: ln d - min row entropy."""
    lams = _checked_rows(e.values[None, :])
    return float(np.log(e.dimension) - transition_row_entropies(lams).min())


def zeta_vector(multiset) -> np.ndarray:
    """Sort a D^2-element weight multiset and sum consecutive blocks of D; D is
    read from the multiset's length, which must be a square."""
    arr = as_distribution(multiset)
    block = math.isqrt(arr.size)
    if block * block != arr.size:
        raise ValueError(f"need a square number of weights, got {arr.size}")
    return np.sort(arr)[::-1].reshape(block, block).sum(axis=1)


def holevo_upper_bound_weyl(w: WeylChannel) -> float:
    """Upper bound straight from the channel's weight multiset.

    Only a WeylChannel holds its Kraus weights (pass gpc_to_weyl(c)); any
    other input is refused with a TypeError naming its type.
    """
    if not isinstance(w, WeylChannel):
        raise TypeError(f"expected a WeylChannel, got {type(w).__name__}")
    return float(np.log(w.dimension) - _entropy(zeta_vector(w.probabilities)))


@dataclass(frozen=True)
class ZetaComponents:
    """Closed-form block sums of the sorted Kraus weights.

    The weight multiset holds the identity weight once and d-1 copies of each
    basis weight share.  After sorting, block k of d entries is one of:

    - plain_blocks[k-1]: copies only, identity weight not yet reached;
    - shifted_blocks[k-1]: copies only, identity weight consumed earlier
      (the copy pattern is shifted by one slot);
    - straddle_blocks[k-1]: the block that contains the identity weight.

    `region` is the 1-based index of the block holding the identity weight,
    and `zeta` the assembled non-increasing distribution of length d.
    Arrays from the eigenvalue form and the probability form agree entrywise.
    """

    dimension: int
    region: int
    zeta: np.ndarray
    plain_blocks: np.ndarray
    shifted_blocks: np.ndarray
    straddle_blocks: np.ndarray

    def zeta_for_region(self, region: int) -> np.ndarray:
        """Assemble the block vector as if the identity weight sat in `region`.

        Used to check continuity: at a boundary the assemblies for the two
        adjacent regions coincide.
        """
        _require_in_range("region", region, 1, self.dimension)
        return _assemble_zeta(
            np.arange(1, self.dimension + 1), region, self.plain_blocks,
            self.shifted_blocks, self.straddle_blocks,
        )


def _assemble_zeta(col, region, plain, shifted, straddle):
    # blocks before the region are plain, the region's block straddles, the
    # rest are shifted; works row-wise on (N, d) blocks with (N,) regions and
    # the block columns 1..d
    region = np.asarray(region)[..., None]
    return np.where(col < region, plain, np.where(col == region, straddle, shifted))


@dataclass(frozen=True)
class BatchBounds:
    """Closed-form bounds of N channels of one dimension, one row per channel.

    Capacities are in nats.  `maximizing_alpha` and `region` are 1-based;
    `exact_capacity` is NaN where the capacity is not known.  The block
    arrays are those of ZetaComponents, stacked, each (N, d).
    """

    dimension: int
    chi_low: np.ndarray
    maximizing_alpha: np.ndarray
    chi_up: np.ndarray
    region: np.ndarray
    zeta: np.ndarray
    plain_blocks: np.ndarray
    shifted_blocks: np.ndarray
    straddle_blocks: np.ndarray
    coincide: np.ndarray
    exact_capacity: np.ndarray

    def components(self, i: int) -> ZetaComponents:
        """The block sums of row i."""
        return ZetaComponents(
            dimension=self.dimension,
            region=int(self.region[i]),
            zeta=self.zeta[i],
            plain_blocks=self.plain_blocks[i],
            shifted_blocks=self.shifted_blocks[i],
            straddle_blocks=self.straddle_blocks[i],
        )


def _checked_rows(lams) -> np.ndarray:
    # an (N, d+1) array of real, finite, CP rows inside the box, clipped to it,
    # for a prime power d (one with a basis set, which _dimension_table
    # requires); the error names the rows, d or the first bad row
    lams = _row_array("eigenvalue", lams, 1)
    _dimension_table(lams.shape[1] - 1)
    lams = clip_eigenvalue_rows(lams)
    require_cp_rows(lams)
    return lams


def _basis_arguments(lams: np.ndarray):
    # the two x ln x arguments of the per-basis term of checked (N, d+1) rows,
    # made one at a time, so that a long first one is freed before the second
    d = lams.shape[1] - 1
    yield 1.0 + (d - 1.0) * lams
    yield 1.0 - lams


def _basis_combination(d: int, up: np.ndarray, down: np.ndarray) -> np.ndarray:
    # per basis, from the x ln x of its two arguments, the capacity of the
    # symmetric classical channel it induces (chi_low is the row maximum);
    # in place, in up and down, so long rows make no more temporaries
    up /= d
    down *= (d - 1.0) / d
    up += down
    return up


def _basis_terms(lams: np.ndarray) -> np.ndarray:
    # the per-basis terms of checked (N, d+1) rows, one _xlogx call per argument
    return _basis_combination(lams.shape[1] - 1, *map(_xlogx, _basis_arguments(lams)))


@lru_cache(maxsize=None)
def _dimension_table(d: int):
    # the constants of d: rows plain, shifted, straddle of the block values
    # [1 + a_k L_k + b_k L_{k+1} - c S] / d, the block columns k = 1..d and
    # ln d.  require_prime_power comes first, and lru_cache does not cache an
    # exception, so any other d is refused on every call
    require_prime_power(d)
    k = np.arange(1, d + 1, dtype=float)
    a = np.stack([d - k, d + 1 - k, d - k])[:, None, :]
    b = np.stack([k, k - 1, k - 1])[:, None, :]
    c = np.array([1.0, 1.0, 0.0])[:, None, None]
    for shared in (a, b, c, k):  # every caller gets these same arrays
        shared.setflags(write=False)
    return a, b, c, k, np.log(d)


def bounds_batch(lams) -> BatchBounds:
    """Both closed-form bounds for an (N, d+1) array of eigenvalue rows.

    Rows are checked first: entries real numbers (numerics._real_array), d a
    prime power, entries finite, inside [-1/(d-1), 1]
    (then clipped) and CP; the package error names d or the first bad row.

    Lower bound: per basis the capacity of the symmetric classical channel it
    induces, [1+(d-1)L]/d ln[1+(d-1)L] + (d-1)(1-L)/d ln(1-L), maximized
    over the basis.

    Upper bound: ln d minus the entropy of the grouped weights.  With the
    eigenvalues sorted non-increasingly and S their sum, the identity weight
    sits in block r = 1 + #{m in 2..d : L_m > S} (ties resolve to the lower
    region; the assemblies agree there).  Block values, 1-based k:

    plain_k    = [1 + (d-k) L_k + k L_{k+1} - S] / d
    shifted_k  = [1 + (d+1-k) L_k + (k-1) L_{k+1} - S] / d
    straddle_k = [1 + (d-k) L_k + (k-1) L_{k+1}] / d

    The exact capacity is chi_low wherever the bounds coincide, NaN
    elsewhere; one rule for every d.  Every qubit row coincides: its capacity
    is driven by the largest-magnitude eigenvalue, and at d = 2 the per-basis
    term [(1+L) ln(1+L) + (1-L) ln(1-L)] / 2 is even in L, bit for bit, and
    grows with |L|, so chi_low is the term of the largest |L|.  For d >= 3
    they meet, among others, on two sub-regions of the families with
    all eigenvalues equal except one: the odd eigenvalue is the largest and
    the others are >= 0, or it is the most negative and the others are <= 0.
    Elsewhere in those families they can differ, for example at d = 4 with
    lambda = (-1/9, 1/6, 1/6, 1/6, 1/6).  Weak additivity of the lower bound
    pins the regularized value where they meet.
    """
    lams = _checked_rows(lams)
    d = lams.shape[1] - 1
    a, b, c, col, log_d = _dimension_table(d)

    lam = -np.sort(-lams, axis=1)
    total = lam.sum(axis=1)[:, None]
    plain, shifted, straddle = (1.0 + a * lam[:, :d] + b * lam[:, 1:] - c * total) / d
    region = 1 + (lam[:, 1:d] > total).sum(axis=1)
    zeta = _assemble_zeta(col, region, plain, shifted, straddle)

    # one x ln x pass over both per-basis arguments and the grouped weights;
    # it is elementwise, so each entry has the bits of a call of its own
    # (the combination overwrites the first 2(d+1) columns)
    xlx = _xlogx(np.concatenate([*_basis_arguments(lams), zeta], axis=1))
    terms = _basis_combination(d, xlx[:, :d + 1], xlx[:, d + 1:2 * d + 2])
    best = np.argmax(terms, axis=1)
    chi_low = terms.max(axis=1)
    chi_up = log_d + xlx[:, 2 * d + 2:].sum(axis=1)

    coincide = np.abs(chi_up - chi_low) <= COINCIDENCE_TOL
    return BatchBounds(
        dimension=d,
        chi_low=chi_low,
        maximizing_alpha=best + 1,
        chi_up=chi_up,
        region=region,
        zeta=zeta,
        plain_blocks=plain,
        shifted_blocks=shifted,
        straddle_blocks=straddle,
        coincide=coincide,
        exact_capacity=np.where(coincide, chi_low, np.nan),
    )


def zeta_components_p_form(c: GeneralizedPauliChannel) -> ZetaComponents:
    """The same block sums computed from the probability view.

    With basis weights sorted so p_1 >= ... >= p_{d+1} and p_0 the identity
    weight, block values are (1-based k):

    plain_k    = [(d-k) p_k + k p_{k+1}] / (d-1)
    shifted_k  = [(d+1-k) p_k + (k-1) p_{k+1}] / (d-1)
    straddle_k = [(d-k) p_k + (k-1) p_{k+1}] / (d-1) + p_0

    and the identity weight sits in block
    r = 1 + #{m in 2..d : p_m/(d-1) > p_0}.
    """
    d = c.dimension
    p0 = c.probabilities[0]
    rest = c.probabilities[1:]
    ps = -np.sort(-rest)
    k = np.arange(1, d + 1, dtype=float)
    head, tail = ps[:d], ps[1:]
    plain = ((d - k) * head + k * tail) / (d - 1.0)
    shifted = ((d + 1 - k) * head + (k - 1) * tail) / (d - 1.0)
    straddle = ((d - k) * head + (k - 1) * tail) / (d - 1.0) + p0
    region = 1 + int(np.count_nonzero(ps[1:d] / (d - 1.0) > p0))
    return ZetaComponents(
        dimension=d,
        region=region,
        zeta=_assemble_zeta(k, region, plain, shifted, straddle),
        plain_blocks=plain,
        shifted_blocks=shifted,
        straddle_blocks=straddle,
    )


# One-row wrappers of bounds_batch: nothing in the package calls them, but
# perfbench calls or traces each of them, so they stay until it moves to
# bounds_batch.
def _one(e: EigenvalueVector) -> BatchBounds:
    return bounds_batch(e.values[None, :])


def holevo_lower_bound(e: EigenvalueVector) -> Tuple[float, int]:
    """Best single-basis capacity and the 1-based basis index attaining it."""
    b = _one(e)
    return float(b.chi_low[0]), int(b.maximizing_alpha[0])


def holevo_upper_bound(e: EigenvalueVector) -> Tuple[float, ZetaComponents]:
    """Closed-form upper bound from the eigenvalue view, with its block sums."""
    b = _one(e)
    return float(b.chi_up[0]), b.components(0)


@dataclass(frozen=True)
class CapacityBounds:
    """Lower/upper Holevo-capacity bounds and, when they meet, the capacity."""

    dimension: int
    chi_low: float
    chi_up: float
    coincide: bool
    exact_capacity: Optional[float]
    maximizing_alpha: int


def pauli_classical_capacity(e: EigenvalueVector) -> float:
    """Qubit closed form: driven by the largest-magnitude eigenvalue."""
    if e.dimension != 2:
        raise ValueError(f"qubit closed form needs d=2, got d={e.dimension}")
    return float(_one(e).exact_capacity[0])


def capacity_bounds(e: EigenvalueVector) -> CapacityBounds:
    """Both Holevo bounds of one channel, and the capacity where they meet."""
    b = _one(e)
    exact = float(b.exact_capacity[0])
    return CapacityBounds(
        dimension=e.dimension,
        chi_low=float(b.chi_low[0]),
        chi_up=float(b.chi_up[0]),
        coincide=bool(b.coincide[0]),
        exact_capacity=None if math.isnan(exact) else exact,
        maximizing_alpha=int(b.maximizing_alpha[0]),
    )


def channel_fidelity_extremes_rows(lams) -> Tuple[np.ndarray, np.ndarray]:
    """Extreme input-output fidelities (1 + L)/2 of (N, 3) qubit eigenvalue
    rows, at the smallest and largest eigenvalue of each row; rows are
    checked as in bounds_batch, then refused unless d = 2."""
    lams = _checked_rows(lams)
    if lams.shape[1] != 3:
        raise ValueError(f"fidelity extremes need d=2, got d={lams.shape[1] - 1}")
    return (1.0 + lams.min(axis=1)) / 2.0, (1.0 + lams.max(axis=1)) / 2.0


def capacity_from_fidelity(f):
    """Qubit capacity through an extreme fidelity value, or an array of them
    (the error then names the first bad entry, flat index); each must be a
    real number (numerics._real_array)."""
    arr = _real_array("fidelities", f)
    inside = ((arr >= -CLAMP_TOL) & (arr <= 1.0 + CLAMP_TOL)).ravel()
    if not inside.all():
        i = int(np.argmin(inside))
        where, bad = (f"entry {i}: ", arr.ravel()[i]) if arr.ndim else ("", f)
        raise ValueError(f"{where}fidelity {bad} outside [0, 1]")
    arr = np.minimum(np.maximum(arr, 0.0), 1.0)
    capacity = np.log(2.0) + _xlogx(arr) + _xlogx(1.0 - arr)
    return float(capacity) if arr.ndim == 0 else capacity
