"""Entropies and majorization on plain numpy arrays.

All entropies are in nats.  Conversion to bits happens only at the output
layer (see the CLI), never here.
"""

import numpy as np

from .errors import InvalidDistributionError, InvalidStateError

# Slack table; a constant with one user stays beside it.  CLAMP_TOL is in units
# of the Fujiwara-Algoet margin, where channels.cp_rows makes the one CP decision:
# a CP row's probabilities are >= -(d-1)/d^2 CLAMP_TOL, so the CP criteria agree.
CLAMP_TOL = 1e-12      # also the clamp on probabilities and fidelities
VALIDATION_TOL = 1e-9  # sums, Hermiticity, traces, eigenvalue box, basis checks


def as_distribution(p) -> np.ndarray:
    """Validate a probability vector and return a cleaned copy.

    Entries in [-CLAMP_TOL, 0) are clamped to 0; anything more negative is an
    error, as is a total differing from 1 by more than VALIDATION_TOL.
    """
    arr = np.array(p, dtype=float).ravel()
    if arr.size == 0:
        raise InvalidDistributionError("empty probability vector")
    if not np.all(np.isfinite(arr)):
        raise InvalidDistributionError("probability vector has non-finite entries")
    low = arr.min()
    if low < -CLAMP_TOL:
        raise InvalidDistributionError(f"negative probability {low:.3e}")
    arr[arr < 0.0] = 0.0
    total = arr.sum()
    if abs(total - 1.0) > VALIDATION_TOL:
        raise InvalidDistributionError(f"probabilities sum to {float(total)!r}, expected 1")
    return arr


def _xlogx(x: np.ndarray) -> np.ndarray:
    # x ln x with 0 ln 0 = 0; negative rounding noise counts as 0
    return x * np.log(x, out=np.zeros(x.shape), where=x > 0.0)


def _entropy(p: np.ndarray) -> float:
    return float(-_xlogx(p).sum())


def shannon_entropy(p) -> float:
    """Shannon entropy in nats of a probability vector."""
    return _entropy(as_distribution(p))


def check_density_matrix(rho) -> np.ndarray:
    """Validate a density matrix: Hermitian, trace 1, spectrum >= -VALIDATION_TOL."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise InvalidStateError(f"expected a square matrix, got shape {rho.shape}")
    if np.max(np.abs(rho - rho.conj().T)) > VALIDATION_TOL:
        raise InvalidStateError("matrix is not Hermitian")
    trace = np.trace(rho)
    if abs(trace.real - 1.0) > VALIDATION_TOL or abs(trace.imag) > VALIDATION_TOL:
        raise InvalidStateError(f"trace is {trace}, expected 1")
    evs = np.linalg.eigvalsh(rho)
    if evs.min() < -VALIDATION_TOL:
        raise InvalidStateError(f"negative eigenvalue {evs.min():.3e}")
    return rho


def von_neumann_entropy(rho) -> float:
    """Von Neumann entropy in nats of a density matrix (validates the input)."""
    rho = check_density_matrix(rho)
    evs = np.linalg.eigvalsh(rho)
    evs = np.clip(evs, 0.0, None)
    evs /= evs.sum()
    return _entropy(evs)


def majorizes(a, b) -> bool:
    """True iff distribution `a` majorizes distribution `b` (within VALIDATION_TOL).

    Both are sorted non-increasingly; every partial sum of `a` must be at
    least the corresponding partial sum of `b`, up to slack.
    """
    a = as_distribution(a)
    b = as_distribution(b)
    if a.size != b.size:
        raise ValueError(f"length mismatch: {a.size} vs {b.size}")
    ca = np.cumsum(np.sort(a)[::-1])
    cb = np.cumsum(np.sort(b)[::-1])
    return bool(np.all(ca >= cb - VALIDATION_TOL))
