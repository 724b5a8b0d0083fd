"""Input checks, distributions and the entropy kernel on plain numpy arrays.

All entropies are in nats.  Conversion to bits happens only at the output
layer (see the CLI), never here.  _xlogx is the one x ln x kernel, and
_entropies the one writer of the rule that a pure input has entropy +0.0:
every function that gives entropies, one or many, calls it.
"""

import numbers

import numpy as np

from .errors import InvalidDistributionError, UnsupportedDimensionError

# Slack table; a constant with one user stays beside it.  CLAMP_TOL is in units
# of the Fujiwara-Algoet margin, where channels._cp_rows, behind
# is_completely_positive and require_cp, makes the one CP decision: a CP row's
# probabilities are >= -(d-1)/d^2 CLAMP_TOL, so the CP criteria agree.
CLAMP_TOL = 1e-12      # also the clamp on probabilities and fidelities, and the
                       # floor of the Choi block eigenvalues (cp_oracle_choi)
VALIDATION_TOL = 1e-9  # sums, eigenvalue box, basis checks


def _require_integer(name: str, value, error=ValueError) -> None:
    """Raise error naming the field unless value is an integer; a bool is not,
    a numpy integer is."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise error(f"{name} must be an integer, got {value!r}")


def _is_real(value) -> bool:
    """Whether value is a real number (numbers.Real, numpy's integer and floating
    scalars included); a bool is not, nor a string, a complex or an array."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """Whether value is a real (as in _is_real) or complex number, numpy's
    complex scalars included; a bool is not, nor a string or an array."""
    return isinstance(value, numbers.Complex) and not isinstance(value, bool)


def _real_array(name: str, value, error=ValueError) -> np.ndarray:
    """value as a float array, the one place array input becomes floats; error
    naming the field unless every entry is a real number (as in _is_real).

    An integer or floating ndarray passes on its dtype, a float one without a
    copy; anything else goes through _object_array.
    """
    if isinstance(value, np.ndarray) and value.dtype.kind in "iuf":
        return np.asarray(value, dtype=float)
    return _object_array(name, value, _is_real, float, error)


def _complex_array(name: str, value, error=ValueError) -> np.ndarray:
    """value as a complex array, the twin of _real_array for input that may be
    complex; error naming the field unless every entry is a number (as in
    _is_number).

    A numeric ndarray passes on its dtype, a complex one without a copy;
    anything else goes through _object_array.
    """
    if isinstance(value, np.ndarray) and value.dtype.kind in "iufc":
        return np.asarray(value, dtype=complex)
    return _object_array(name, value, _is_number, complex, error)


def _object_array(name: str, value, accept, dtype, error) -> np.ndarray:
    """value read as objects, then as dtype (float or complex) once every entry
    passes accept; else error naming the field.  A direct conversion would
    parse a string, take a bool as 0 or 1 and, to float, drop an imaginary
    part."""
    try:
        entries = np.array(value, dtype=object)
        if all(map(accept, entries.flat)):
            return entries.astype(dtype)
    except ValueError:  # nested arrays too ragged to lay out even as objects
        pass
    kind = "real" if dtype is float else "complex"
    raise error(f"{name} must be {kind} numbers, got {value!r}")


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


def _entropies(p: np.ndarray, axis=None) -> np.ndarray:
    # the one writer of the rule that a pure input has entropy +0.0, not
    # -0.0: 0 - sum, not -sum; axis as in np.sum
    return 0.0 - _xlogx(p).sum(axis=axis)


def _entropy(p: np.ndarray) -> float:
    return float(_entropies(p))
