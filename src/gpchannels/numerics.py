"""Entropies and majorization on plain numpy arrays.

All entropies are in nats.  Conversion to bits happens only at the output
layer (see the CLI), never here.
"""

import numbers

import numpy as np

from .errors import InvalidDistributionError, InvalidStateError, UnsupportedDimensionError

# Slack table; a constant with one user stays beside it.  CLAMP_TOL is in units
# of the Fujiwara-Algoet margin, where channels.cp_rows makes the one CP decision:
# a CP row's probabilities are >= -(d-1)/d^2 CLAMP_TOL, so the CP criteria agree.
CLAMP_TOL = 1e-12      # also the clamp on probabilities and fidelities, and the
                       # floor of the Choi block eigenvalues (cp_oracle_choi)
VALIDATION_TOL = 1e-9  # sums, Hermiticity, traces, eigenvalue box, basis checks


def _require_integer(name: str, value, error=ValueError) -> None:
    """Raise error naming the field unless value is an integer; a bool is not,
    a numpy integer is."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise error(f"{name} must be an integer, got {value!r}")


def _is_real(value) -> bool:
    """Whether value is a real number (numbers.Real, numpy's integer and floating
    scalars included); a bool is not, nor a string, a complex or an array."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _real_array(name: str, value, error=ValueError) -> np.ndarray:
    """value as a float array, the one place array input becomes floats; error
    naming the field unless every entry is a real number (as in _is_real).

    An integer or floating ndarray passes on its dtype, a float one without a
    copy; anything else is read as objects first, since a float conversion
    would parse a string, take a bool as 0 or 1 and drop an imaginary part.
    """
    if isinstance(value, np.ndarray) and value.dtype.kind in "iuf":
        return np.asarray(value, dtype=float)
    try:
        entries = np.array(value, dtype=object)
        if all(map(_is_real, entries.flat)):
            return entries.astype(float)
    except ValueError:  # nested arrays too ragged to lay out even as objects
        pass
    raise error(f"{name} must be real numbers, got {value!r}")


def _require_in_range(name: str, value, lo: int, hi=None, error=ValueError) -> int:
    """value as an int; error naming the field unless it is an integer (as in
    _require_integer) of at least lo, and at most hi when hi is given."""
    _require_integer(name, value, error)
    if hi is not None and not lo <= value <= hi:
        raise error(f"{name} {value} out of range {lo}..{hi}")
    if value < lo:
        raise error(f"{name} must be >= {lo}, got {value}")
    return int(value)


def _require_dimension(value, name: str = "dimension") -> int:
    """value as an int; UnsupportedDimensionError naming the field unless it
    is an integer of at least 2 (_require_in_range)."""
    return _require_in_range(name, value, 2, error=UnsupportedDimensionError)


def as_distribution(p) -> np.ndarray:
    """Validate a probability vector and return a cleaned copy.

    Entries in [-CLAMP_TOL, 0) are clamped to 0; anything more negative is an
    error, as is a total differing from 1 by more than VALIDATION_TOL, or an
    entry that is not a real number (_real_array).
    """
    arr = _real_array("probabilities", p, InvalidDistributionError).flatten()
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
    # 0 - sum, not -sum: the entropy of a pure input is +0.0, not -0.0
    return float(0.0 - _xlogx(p).sum())


def shannon_entropy(p) -> float:
    """Shannon entropy in nats of a probability vector."""
    return _entropy(as_distribution(p))


def check_density_matrix(rho) -> np.ndarray:
    """Validate a density matrix: finite, Hermitian, trace 1, spectrum >=
    -VALIDATION_TOL."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise InvalidStateError(f"expected a square matrix, got shape {rho.shape}")
    # NaN fails every comparison below, so it would pass them all
    if not np.isfinite(rho).all():
        raise InvalidStateError("matrix has non-finite entries")
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
