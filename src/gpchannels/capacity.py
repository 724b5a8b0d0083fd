"""Classical-capacity bounds for the mixed-unitary channels in this package.

The lower bound is the best single-basis classical capacity; the upper bound
comes from grouping the sorted Kraus weights into d blocks of d (the grouped
weight vector majorizes every output spectrum, so its entropy lower-bounds
the minimal output entropy).  Both are in nats.
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
    classical_map_rows,
    clip_eigenvalue_rows,
    require_cp,
    require_cp_rows,
)
from .errors import UnsupportedDimensionError
from .numerics import _entropy, as_distribution

COINCIDENCE_TOL = 1e-9


def _xlogx(x: np.ndarray) -> np.ndarray:
    # x ln x with 0 ln 0 = 0; negative rounding noise counts as 0
    return x * np.log(x, out=np.zeros(x.shape), where=x > 0.0)


def transition_row_entropies(lams: np.ndarray, copies: int = 1) -> np.ndarray:
    """Entropy of the first row of T_alpha^(x copies), copies 1 or 2, as an
    (N, d+1) array over checked (N, d+1) eigenvalue rows and bases alpha.

    Built from classical_map_rows, independently of bounds_batch's closed
    forms; the first row of T (x) T is the outer product of first rows.
    """
    if copies not in (1, 2):
        raise ValueError(f"copies must be 1 or 2, got {copies}")
    rows = classical_map_rows(lams)[:, :, 0, :]
    if copies == 2:
        rows = (rows[..., :, None] * rows[..., None, :]).reshape(rows.shape[:2] + (-1,))
    return -_xlogx(np.maximum(rows, 0.0)).sum(axis=-1)


def holevo_lower_via_classical(e: EigenvalueVector) -> float:
    """Same bound through the induced transition matrices: ln d - min row entropy."""
    require_cp(e)
    return float(np.log(e.dimension) - transition_row_entropies(e.values[None, :]).min())


def zeta_vector(multiset, block_size: int) -> np.ndarray:
    """Sort a D^2-element weight multiset and sum consecutive blocks of D."""
    arr = as_distribution(multiset)
    if arr.size != block_size**2:
        raise ValueError(
            f"need {block_size**2} weights for block size {block_size}, got {arr.size}"
        )
    return np.sort(arr)[::-1].reshape(block_size, block_size).sum(axis=1)


def holevo_upper_bound_weyl(w: WeylChannel) -> float:
    """Upper bound straight from the channel's weight multiset."""
    # the block vector is a distribution up to rounding: clip before the entropy
    zeta = np.clip(zeta_vector(w.probabilities, w.dimension), 0.0, None)
    return float(np.log(w.dimension) - _entropy(zeta))


@dataclass(frozen=True)
class ZetaComponents:
    """Closed-form block sums of the sorted Kraus weights.

    The weight multiset holds the identity weight once and d-1 copies of each
    basis weight share.  After sorting, block k of d entries is one of:

    - plain_blocks[k-1]: copies only, identity weight not yet reached;
    - shifted_blocks[k-1]: copies only, identity weight consumed earlier
      (the copy pattern is shifted by one slot);
    - straddle_blocks[k-1]: the block that contains the identity weight;
    - merged_blocks[k-1]: identity weight plus every copy of family k
      (the straddle block at the extremes; length d+1).

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
    merged_blocks: np.ndarray

    def zeta_for_region(self, region: int) -> np.ndarray:
        """Assemble the block vector as if the identity weight sat in `region`.

        Used to check continuity: at a boundary the assemblies for the two
        adjacent regions coincide.
        """
        if not 1 <= region <= self.dimension:
            raise ValueError(f"region {region} out of range 1..{self.dimension}")
        return _assemble_zeta(
            self.dimension, region, self.plain_blocks, self.shifted_blocks,
            self.straddle_blocks,
        )


def _assemble_zeta(d, region, plain, shifted, straddle):
    # blocks before the region are plain, the region's block straddles, the
    # rest are shifted; works row-wise on (N, d) blocks with (N,) regions
    col = np.arange(1, d + 1)
    region = np.asarray(region)[..., None]
    return np.where(col < region, plain, np.where(col == region, straddle, shifted))


@dataclass(frozen=True)
class BatchBounds:
    """Closed-form bounds of N channels of one dimension, one row per channel.

    Capacities are in nats.  `maximizing_alpha` and `region` are 1-based;
    `exact_capacity` is NaN where the capacity is not known.  The block
    arrays are those of ZetaComponents, stacked: (N, d) and, for the merged
    blocks, (N, d+1).
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
    merged_blocks: np.ndarray
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
            merged_blocks=self.merged_blocks[i],
        )


def _checked_rows(lams) -> np.ndarray:
    # an (N, d+1) array of finite, CP rows inside the box, clipped to it;
    # the package error names the first bad row
    lams = np.asarray(lams, dtype=float)
    if lams.ndim != 2:
        raise ValueError(f"need an (N, d+1) eigenvalue array, got shape {lams.shape}")
    if lams.shape[1] < 3:
        raise UnsupportedDimensionError(f"dimension must be >= 2, got {lams.shape[1] - 1}")
    lams = clip_eigenvalue_rows(lams)
    require_cp_rows(lams)
    return lams


@lru_cache(maxsize=None)
def _block_coefficients(d: int):
    # rows plain, shifted, straddle of [1 + a_k L_k + b_k L_{k+1} - c S] / d
    k = np.arange(1, d + 1, dtype=float)
    a = np.stack([d - k, d + 1 - k, d - k])[:, None, :]
    b = np.stack([k, k - 1, k - 1])[:, None, :]
    c = np.array([1.0, 1.0, 0.0])[:, None, None]
    return a, b, c


def bounds_batch(lams) -> BatchBounds:
    """Both closed-form bounds for an (N, d+1) array of eigenvalue rows.

    Rows are checked first: finite, inside [-1/(d-1), 1] (then clipped) and
    completely positive; the package error names the first bad row.

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
    merged_k   = [1 + (d-1) L_k] / d

    The exact capacity is known for every qubit, where it is driven by the
    largest-magnitude eigenvalue, and wherever the bounds coincide.
    """
    lams = _checked_rows(lams)
    d = lams.shape[1] - 1
    rows = np.arange(lams.shape[0])

    terms = _xlogx(1.0 + (d - 1.0) * lams) / d + (d - 1.0) / d * _xlogx(1.0 - lams)
    best = np.argmax(terms, axis=1)
    chi_low = terms[rows, best]

    lam = -np.sort(-lams, axis=1)
    total = lam.sum(axis=1)[:, None]
    a, b, c = _block_coefficients(d)
    plain, shifted, straddle = (1.0 + a * lam[:, :d] + b * lam[:, 1:] - c * total) / d
    merged = (1.0 + (d - 1.0) * lam) / d
    region = 1 + (lam[:, 1:d] > total).sum(axis=1)
    zeta = _assemble_zeta(d, region, plain, shifted, straddle)
    chi_up = np.log(d) + _xlogx(zeta).sum(axis=1)

    coincide = np.abs(chi_up - chi_low) <= COINCIDENCE_TOL
    if d == 2:
        # the basis of the largest-magnitude eigenvalue: its term is the
        # qubit closed form [(1+L*) ln(1+L*) + (1-L*) ln(1-L*)] / 2
        exact = terms[rows, np.abs(lams).argmax(axis=1)]
    else:
        exact = np.where(coincide, chi_low, np.nan)
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
        merged_blocks=merged,
        coincide=coincide,
        exact_capacity=exact,
    )


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


def zeta_components_p_form(c: GeneralizedPauliChannel) -> ZetaComponents:
    """The same block sums computed from the probability view.

    With basis weights sorted so p_1 >= ... >= p_{d+1} and p_0 the identity
    weight, block values are (1-based k):

    plain_k    = [(d-k) p_k + k p_{k+1}] / (d-1)
    shifted_k  = [(d+1-k) p_k + (k-1) p_{k+1}] / (d-1)
    straddle_k = [(d-k) p_k + (k-1) p_{k+1}] / (d-1) + p_0
    merged_k   = p_0 + p_k

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
    merged = p0 + ps
    region = 1 + int(np.count_nonzero(ps[1:d] / (d - 1.0) > p0))
    return ZetaComponents(
        dimension=d,
        region=region,
        zeta=_assemble_zeta(d, region, plain, shifted, straddle),
        plain_blocks=plain,
        shifted_blocks=shifted,
        straddle_blocks=straddle,
        merged_blocks=merged,
    )


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


def _exact_or_none(b: BatchBounds) -> Optional[float]:
    exact = float(b.exact_capacity[0])
    return None if math.isnan(exact) else exact


def classical_capacity_exact(e: EigenvalueVector) -> Optional[float]:
    """The capacity when it is known: coinciding bounds, else None.

    The bounds meet for every qubit channel.  For d >= 3 they meet, among
    others, on two sub-regions of the families with all eigenvalues equal
    except one: the odd eigenvalue is the largest and the others are >= 0,
    or it is the most negative and the others are <= 0.  Elsewhere in those
    families they can differ, for example at d = 4 with
    lambda = (-1/9, 1/6, 1/6, 1/6, 1/6).  Weak additivity of the lower bound
    pins the regularized value where they meet.
    """
    return _exact_or_none(_one(e))


def capacity_bounds(e: EigenvalueVector) -> CapacityBounds:
    b = _one(e)
    return CapacityBounds(
        dimension=e.dimension,
        chi_low=float(b.chi_low[0]),
        chi_up=float(b.chi_up[0]),
        coincide=bool(b.coincide[0]),
        exact_capacity=_exact_or_none(b),
        maximizing_alpha=int(b.maximizing_alpha[0]),
    )


def channel_fidelity_extremes_rows(lams) -> Tuple[np.ndarray, np.ndarray]:
    """Extreme input-output fidelities (1 + L)/2 of (N, 3) qubit eigenvalue
    rows, at the smallest and largest eigenvalue of each row; rows are
    checked as in bounds_batch."""
    lams = np.asarray(lams, dtype=float)
    if lams.ndim == 2 and lams.shape[1] != 3:
        raise ValueError(f"fidelity extremes need d=2, got d={lams.shape[1] - 1}")
    lams = _checked_rows(lams)
    return (1.0 + lams.min(axis=1)) / 2.0, (1.0 + lams.max(axis=1)) / 2.0


def channel_fidelity_extremes(e: EigenvalueVector) -> Tuple[float, float]:
    """Extreme input-output fidelities of a qubit channel: (1 + L)/2 at the
    smallest and largest eigenvalue."""
    f_min, f_max = channel_fidelity_extremes_rows(e.values[None, :])
    return float(f_min[0]), float(f_max[0])


def capacity_from_fidelity(f):
    """Qubit capacity through an extreme fidelity value, or an array of them
    (the error then names the first bad entry, flat index)."""
    arr = np.asarray(f, dtype=float)
    inside = ((arr >= -1e-12) & (arr <= 1.0 + 1e-12)).ravel()
    if not inside.all():
        i = int(np.argmin(inside))
        where, bad = (f"entry {i}: ", arr.ravel()[i]) if arr.ndim else ("", f)
        raise ValueError(f"{where}fidelity {bad} outside [0, 1]")
    arr = np.minimum(np.maximum(arr, 0.0), 1.0)
    capacity = np.log(2.0) + _xlogx(arr) + _xlogx(1.0 - arr)
    return float(capacity) if arr.ndim == 0 else capacity
