import contextlib
import io
import json
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gpchannels.capacity import (
    bounds_batch,
    capacity_bounds,
    capacity_from_fidelity,
    channel_fidelity_extremes_rows,
    holevo_lower_via_classical,
    zeta_components_p_form,
    zeta_vector,
)
from gpchannels.channels import (
    EigenvalueVector,
    GeneralizedPauliChannel,
    WeylChannel,
    _classical_map_rows,
    _cp_margin_rows,
    _cp_rows,
    _require_cp_rows,
    _weighted_gram,
    apply,
    canonical_mub,
    choi_blocks,
    choi_matrix,
    classical_map_t,
    eigenvalue_rows,
    eigenvalues_from_probabilities,
    fujiwara_algoet_margin,
    gpc_to_weyl,
    is_completely_positive,
    kraus_probability_multiset,
    kraus_terms,
    probabilities_from_eigenvalues,
    probability_rows,
    require_cp,
    sample_cp_eigenvalues,
    superoperator,
    tensor,
    weyl_kraus_terms,
)
from gpchannels.dynamics import PauliTrajectory, RateSpec
from gpchannels.errors import (
    InvalidDistributionError,
    NotCompletelyPositiveError,
    UnsupportedDimensionError,
)
from gpchannels.cli import main
from gpchannels.mub import (
    MubSet,
    _displacement_products,
    build_mubs,
    prime_power,
    unitary_u,
    weyl_labels,
)
from gpchannels.numerics import CLAMP_TOL, VALIDATION_TOL, as_distribution
from gpchannels.oracle import cp_oracle_choi, holevo_estimate

REF_PROBS = [0.25, 0.5, 0.25, 0.0]


def random_density(rng, d):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def test_channel_validates_probability_count():
    with pytest.raises(ValueError):
        GeneralizedPauliChannel(2, [0.5, 0.5])


def test_channel_validates_distribution():
    with pytest.raises(InvalidDistributionError):
        GeneralizedPauliChannel(2, [0.7, 0.5, -0.1, -0.1])


def test_channel_rejects_dimension_one():
    with pytest.raises(UnsupportedDimensionError):
        GeneralizedPauliChannel(1, [0.5, 0.5, 0.0])
    with pytest.raises(UnsupportedDimensionError, match="dimension must be >= 2, got 1$"):
        EigenvalueVector(1, [0.5, 0.5])
    with pytest.raises(UnsupportedDimensionError, match="dimension must be an integer, got 2.7$"):
        GeneralizedPauliChannel(2.7, REF_PROBS)
    with pytest.raises(UnsupportedDimensionError, match="dimension must be an integer, got '3'$"):
        EigenvalueVector("3", [0.1] * 4)
    with pytest.raises(UnsupportedDimensionError, match="dimension must be an integer, got True$"):
        EigenvalueVector(True, [0.1] * 2)
    assert GeneralizedPauliChannel(np.int64(2), REF_PROBS).dimension == 2


def test_eigenvalue_vector_box():
    EigenvalueVector(3, [1.0, -0.5, 0.0, 0.2])  # boundary values fine
    with pytest.raises(ValueError):
        EigenvalueVector(3, [1.2, 0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        EigenvalueVector(3, [0.0, -0.6, 0.0, 0.0])


def test_eigenvalue_vector_clips_boundary_noise():
    e = EigenvalueVector(2, [1.0 + 1e-12, -1.0 - 1e-12, 0.0])
    assert e.values[0] == 1.0
    assert e.values[1] == -1.0


def test_reference_channel_eigenvalues():
    e = eigenvalues_from_probabilities(GeneralizedPauliChannel(2, REF_PROBS))
    assert np.allclose(e.values, [0.5, 0.0, -0.5], atol=1e-15)


@given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=10**9))
@settings(max_examples=40, deadline=None)
def test_probability_round_trip(d, seed):
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.ones(d + 2))
    c = GeneralizedPauliChannel(d, p)
    back = probabilities_from_eigenvalues(eigenvalues_from_probabilities(c))
    assert np.allclose(back.probabilities, c.probabilities, atol=1e-12)



def test_eigenvalue_rows_match_the_one_row_formula(rng):
    for d in (2, 3, 5, 8):
        probs = rng.dirichlet(np.ones(d + 2), 50)
        expect = [(d * (p[0] + p[1:]) - 1.0) / (d - 1.0) for p in probs]
        assert np.array_equal(eigenvalue_rows(probs), expect)
        one = eigenvalues_from_probabilities(GeneralizedPauliChannel(d, probs[7]))
        assert np.array_equal(one.values, expect[7])


def _rejection_cp_rows(d, count, rng):
    # reference sampler: uniform on the eigenvalue box, kept where the
    # Fujiwara-Algoet margin is non-negative; the CP region lies inside the box
    lo = -1.0 / (d - 1.0)
    out = []
    while len(out) < count:
        batch = rng.uniform(lo, 1.0, size=(max(4 * count, 1024), d + 1))
        out.extend(batch[_cp_margin_rows(batch) >= 0.0])
    return np.asarray(out[:count])


def _moments(x):
    """Coordinate means and covariance entries with their standard errors."""
    centred = x - x.mean(axis=0)
    prods = centred[:, :, None] * centred[:, None, :]
    root_n = np.sqrt(x.shape[0])
    return (x.mean(axis=0), x.std(axis=0) / root_n,
            prods.mean(axis=0), prods.std(axis=0) / root_n)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_sampler_matches_rejection_reference(d):
    n = 20_000
    mean, mean_se, cov, cov_se = _moments(
        sample_cp_eigenvalues(d, n, np.random.default_rng([20261101, d])))
    ref_mean, ref_mean_se, ref_cov, ref_cov_se = _moments(
        _rejection_cp_rows(d, n, np.random.default_rng([20261102, d])))
    assert np.all(np.abs(mean - ref_mean) <= 5 * np.hypot(mean_se, ref_mean_se))
    assert np.all(np.abs(cov - ref_cov) <= 5 * np.hypot(cov_se, ref_cov_se))
    # E[p_0 + p_alpha] = 2/(d+2) under Dirichlet(1, ..., 1)
    exact = (d - 2) / ((d + 2) * (d - 1))
    assert np.all(np.abs(mean - exact) <= 5 * mean_se)
    assert np.all(np.abs(ref_mean - exact) <= 5 * ref_mean_se)


# every public entry point that takes a dimension, called with it
DIMENSION_ENTRY_POINTS = {
    "GeneralizedPauliChannel": lambda d: GeneralizedPauliChannel(d, REF_PROBS),
    "EigenvalueVector": lambda d: EigenvalueVector(d, [0.1] * 4),
    "WeylChannel": lambda d: WeylChannel(d, 1, [0.25] * 4),
    "sample_cp_eigenvalues": lambda d: sample_cp_eigenvalues(d, 3, np.random.default_rng(0)),
    # by keyword: an untyped cache would serve d=4.0 the entry of d=4
    "canonical_mub": lambda d: canonical_mub(d=d),
    "build_mubs": lambda d: build_mubs(d=d),
    "weyl_labels": lambda d: weyl_labels(d=d),
    "prime_power": lambda d: prime_power(d=d),
}


@pytest.mark.parametrize("value, message", [
    (2.5, "must be an integer, got 2.5"),
    ("3", "must be an integer, got '3'"),
    (np.float64(4.0), f"must be an integer, got {np.float64(4.0)!r}"),
    (True, "must be an integer, got True"),
    (1, "must be >= 2, got 1"),
], ids=["float", "string", "numpy-float", "bool", "one"])
@pytest.mark.parametrize("entry", list(DIMENSION_ENTRY_POINTS))
def test_every_entry_point_refuses_a_bad_dimension(entry, value, message):
    # d = 4 is cached first, so that 4.0 cannot pass through a cache hit
    assert canonical_mub(d=4).dimension == weyl_labels(d=4).shape[0] - 1 == 4
    if entry == "prime_power" and message.startswith("must be >= 2"):
        # a predicate: an integer below 2 is no prime power
        assert prime_power(d=value) is None
        return
    with pytest.raises(UnsupportedDimensionError, match=re.escape(message) + "$"):
        DIMENSION_ENTRY_POINTS[entry](value)


@pytest.mark.parametrize("call, message", [
    (lambda: classical_map_t(EigenvalueVector(3, [0.1] * 4), 1.5),
     "basis label must be an integer, got 1.5"),
    (lambda: canonical_mub(3).projector(1.0, 0), "basis label must be an integer, got 1.0"),
    (lambda: canonical_mub(3).projector(1, 5), "vector index 5 out of range 0..2"),
    (lambda: canonical_mub(3).projector(1, -1), "vector index -1 out of range 0..2"),
    (lambda: canonical_mub(3).projector(1, 0.5), "vector index must be an integer, got 0.5"),
    (lambda: unitary_u(canonical_mub(3), 1, 1.5), "power index must be an integer, got 1.5"),
    (lambda: RateSpec((None, 0.1, 0.2)),
     "rate 1: expected a number or a (times, values) pair, got None"),
    (lambda: RateSpec((0.1, (0, 1, 2), 0.2)),
     "rate 2: expected a number or a (times, values) pair, got (0, 1, 2)"),
    (lambda: sample_cp_eigenvalues(2, -1, np.random.default_rng(0)),
     "count must be >= 0, got -1"),
    (lambda: sample_cp_eigenvalues(2, 2.0, np.random.default_rng(0)),
     "count must be an integer, got 2.0"),
], ids=["map-label", "projector-label", "projector-index", "projector-negative",
        "projector-float", "unitary-power", "rate-none", "rate-triple", "sampler-negative", "sampler-float"])
def test_bad_indices_and_entries_are_refused_by_name(call, message):
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        call()


EIGS = [0.5, 0.0, -0.5]
# entry point -> (call on an array input, a valid input, its error, the field
# the error names); every one reads its numbers through numerics._real_array
ARRAY_ENTRY_POINTS = {
    "as_distribution": (as_distribution, REF_PROBS, InvalidDistributionError,
                        "probabilities"),
    "GeneralizedPauliChannel": (lambda v: GeneralizedPauliChannel(2, v), REF_PROBS,
                                InvalidDistributionError, "probabilities"),
    "WeylChannel": (lambda v: WeylChannel(2, 1, v), REF_PROBS, InvalidDistributionError,
                    "probabilities"),
    "zeta_vector": (zeta_vector, REF_PROBS, InvalidDistributionError, "probabilities"),
    "EigenvalueVector": (lambda v: EigenvalueVector(2, v), EIGS, ValueError, "eigenvalues"),
    "holevo_lower_via_classical": (lambda v: holevo_lower_via_classical(
        EigenvalueVector(2, v)), EIGS, ValueError, "eigenvalues"),
    "probability_rows": (probability_rows, [EIGS, [0.25, 0.25, 0.0]], ValueError,
                         "eigenvalue rows"),
    "eigenvalue_rows": (eigenvalue_rows, [REF_PROBS, [0.5, 0.0, 0.25, 0.25]], ValueError,
                        "probability rows"),
    "bounds_batch": (bounds_batch, [EIGS, [0.25, 0.25, 0.0]], ValueError,
                     "eigenvalue rows"),
    "channel_fidelity_extremes_rows": (channel_fidelity_extremes_rows,
                                       [EIGS, [0.25, 0.25, 0.0]], ValueError,
                                       "eigenvalue rows"),
    "capacity_from_fidelity": (capacity_from_fidelity, [0.75, 0.5], ValueError,
                               "fidelities"),
    "RateSpec-times": (lambda v: RateSpec(((v, [1.0, 2.0]), 0.1, 0.1)), [0.0, 1.0],
                       ValueError, "rate 1: table times"),
    "RateSpec-values": (lambda v: RateSpec((0.1, ([0.0, 1.0], v), 0.1)), [1.0, 2.0],
                        ValueError, "rate 2: table values"),
    "PauliTrajectory": (lambda v: PauliTrajectory([0.0, 1.0], v), [EIGS, [0.25, 0.25, 0.0]],
                        ValueError, "eigenvalues"),
}


def _map_entries(f, value):
    # value's nested lists with f applied to every number
    return [_map_entries(f, x) for x in value] if isinstance(value, list) else f(value)


def _with_first(f, value):
    # value's nested lists with f applied to the first number only
    entries = np.array(value, dtype=object)
    entries.flat[0] = f(entries.flat[0])
    return entries.tolist()


def _ragged(value):
    # rows of unequal length: the last row loses its last entry
    rows = value if isinstance(value[0], list) else [value, value]
    return rows[:-1] + [rows[-1][:-1]]


# each is refused by every entry point: a float conversion would parse, coerce
# or truncate the first six, and fail on ragged rows with numpy's own message
BAD_ARRAYS = {
    "complex": lambda v: np.array(v) + 0.25j,
    "complex-zero-imaginary": lambda v: np.array(v, dtype=complex),
    "complex-in-list": lambda v: _with_first(complex, v),
    "bool-in-list": lambda v: _with_first(bool, v),
    "bool-array": lambda v: np.array(v) != 0.0,
    "numeric-string": lambda v: _map_entries(str, v),
    "ragged": _ragged,
    # too ragged to lay out even as objects: numerics._object_array's except branch
    "ragged-arrays": lambda v: [np.zeros((2, 2)), np.zeros((2, 3))],
}


@pytest.mark.filterwarnings("error")  # no ComplexWarning on the way either
@pytest.mark.parametrize("bad", list(BAD_ARRAYS))
@pytest.mark.parametrize("entry", list(ARRAY_ENTRY_POINTS))
def test_every_array_entry_point_takes_real_numbers_only(entry, bad):
    call, valid, error, field = ARRAY_ENTRY_POINTS[entry]
    call(valid)
    value = BAD_ARRAYS[bad](valid)
    message = f"{field} must be real numbers, got {value!r}"
    with pytest.raises(error, match="^" + re.escape(message) + "$"):
        call(value)


@pytest.mark.parametrize("entry", list(ARRAY_ENTRY_POINTS))
def test_array_entry_points_read_real_numbers_as_float64(entry):
    # on real input, lists of ints and numpy scalars and float32 arrays
    # included, every entry point gives the bits of np.array(value, dtype=float)
    call, valid, _, _ = ARRAY_ENTRY_POINTS[entry]
    mixed = _map_entries(lambda x: int(x) if x == int(x) else np.float32(x), valid)
    for value in (valid, np.array(valid, dtype=np.float32), mixed):
        assert (pickle.dumps(call(value))
                == pickle.dumps(call(np.array(value, dtype=float)))), value


# the row entry points above, each with the columns its rows hold beyond d;
# every one reads its batch through channels._row_array
ROW_ENTRY_POINTS = {"probability_rows": 1, "eigenvalue_rows": 2, "bounds_batch": 1,
                    "channel_fidelity_extremes_rows": 1}
# malformed batch -> its shape, given the columns beyond d
MALFORMED_BATCHES = {
    "one-row-flat": lambda extra: (2 + extra,),
    "stacked": lambda extra: (1, 2, 2 + extra),
    "d=1": lambda extra: (2, 1 + extra),
    "d=0": lambda extra: (2, extra),
    "no-columns": lambda extra: (2, 0),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("batch", list(MALFORMED_BATCHES))
@pytest.mark.parametrize("entry", list(ROW_ENTRY_POINTS))
def test_every_row_entry_point_refuses_a_malformed_batch_by_name(entry, batch):
    call, _, _, field = ARRAY_ENTRY_POINTS[entry]
    extra = ROW_ENTRY_POINTS[entry]
    shape = MALFORMED_BATCHES[batch](extra)
    if len(shape) != 2:
        error = ValueError
        message = f"need an (N, d+{extra}) {field.split()[0]} array, got shape {shape}"
    else:
        error = UnsupportedDimensionError
        message = f"dimension must be >= 2, got {shape[1] - extra}"
    with pytest.raises(error, match="^" + re.escape(message) + "$"):
        call(np.full(shape, 0.5))


@pytest.mark.parametrize("rows, message", [
    # lambda = (1, 3, 3) before the check, outside the CP region
    ([[2.0, -1.0, 0.0, 0.0]], "probabilities [2.0, -1.0, 0.0, 0.0] are not a probability "
                              "vector (sum 1.0)"),
    ([REF_PROBS, [0.5, 0.5, 0.5, 0.0]], "row 1: probabilities [0.5, 0.5, 0.5, 0.0] are not "
                                        "a probability vector (sum 1.5)"),
    ([REF_PROBS, [0.5, 0.5, 2 * CLAMP_TOL, -2 * CLAMP_TOL]],
     f"row 1: probabilities {[0.5, 0.5, 2 * CLAMP_TOL, -2 * CLAMP_TOL]} are not a "
     "probability vector (sum 1.0)"),
    ([[0.5, 0.5 + 2 * VALIDATION_TOL, 0.0, 0.0]],
     f"probabilities {[0.5, 0.5 + 2 * VALIDATION_TOL, 0.0, 0.0]} are not a probability "
     f"vector (sum {0.5 + (0.5 + 2 * VALIDATION_TOL)!r})"),
    ([[0.5, 0.5, np.nan, 0.0], REF_PROBS], "row 0: probabilities [0.5, 0.5, nan, 0.0] are "
                                           "not a probability vector (sum nan)"),
    ([[np.inf, -np.inf, 0.5, 0.5]], "probabilities [inf, -inf, 0.5, 0.5] are not a "
                                    "probability vector (sum nan)"),
    ([[np.inf, 0.0, 0.5, 0.5]], "probabilities [inf, 0.0, 0.5, 0.5] are not a probability "
                                "vector (sum inf)"),
], ids=["outside-cp", "sum", "negative", "sum-beyond-tolerance", "nan", "infinities", "inf"])
def test_eigenvalue_rows_refuse_rows_that_are_not_probability_vectors(rows, message):
    with pytest.raises(InvalidDistributionError, match="^" + re.escape(message) + "$"):
        eigenvalue_rows(rows)


def test_eigenvalue_rows_check_within_tolerance_without_clamping():
    # as_distribution's slack: the row passes and keeps its bits
    rows = np.array([[0.5, 0.5 - CLAMP_TOL, -CLAMP_TOL, 2 * CLAMP_TOL + 0.5 * VALIDATION_TOL]])
    expect = 2.0 * (rows[:, :1] + rows[:, 1:]) - 1.0  # d = 2
    assert eigenvalue_rows(rows).tobytes() == expect.tobytes()


# entry point -> (call on an array input, a valid input, the field the error
# names); every one reads its numbers through numerics._complex_array
COMPLEX_ENTRY_POINTS = {
    "apply": (lambda v: apply(GeneralizedPauliChannel(2, REF_PROBS), None, v),
              [[0.75, 0.25], [0.25, 0.25]], "state"),
    "MubSet": (lambda v: MubSet(2, v), canonical_mub(2).bases.tolist(), "bases"),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [bad for bad in BAD_ARRAYS if not bad.startswith("complex")])
@pytest.mark.parametrize("entry", list(COMPLEX_ENTRY_POINTS))
def test_every_complex_entry_point_takes_numbers_only(entry, bad):
    call, valid, field = COMPLEX_ENTRY_POINTS[entry]
    value = BAD_ARRAYS[bad](valid)
    message = f"{field} must be complex numbers, got {value!r}"
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        call(value)


@pytest.mark.parametrize("entry", list(COMPLEX_ENTRY_POINTS))
def test_complex_entry_points_read_numbers_as_complex128(entry):
    # lists of real or complex numbers, ints and numpy scalars included, give
    # the bits of np.array(value, dtype=complex)
    call, valid, _ = COMPLEX_ENTRY_POINTS[entry]
    mixed = _map_entries(lambda x: int(x.real) if x == int(x.real) else np.complex128(x),
                         valid)
    for value in (valid, mixed):
        assert (pickle.dumps(call(value))
                == pickle.dumps(call(np.array(value, dtype=complex)))), value


def test_int_lists_read_as_floats():
    assert as_distribution([1, 0, 0, 0]).tolist() == [1.0, 0.0, 0.0, 0.0]
    assert EigenvalueVector(2, [1, 0, 0]).values.dtype == float
    assert np.array_equal(EigenvalueVector(2, [1, 0, 0]).values, [1.0, 0.0, 0.0])
    assert np.array_equal(bounds_batch([[1, 0, 0]]).chi_low, [np.log(2.0)])
    assert capacity_from_fidelity([1, 0]).tolist() == [np.log(2.0)] * 2
    assert probability_rows([[1, 1, 1]]).tolist() == [[1.0, 0.0, 0.0, 0.0]]
    assert eigenvalue_rows([[1, 0, 0, 0]]).tolist() == [[1.0, 1.0, 1.0]]


def test_a_probability_array_is_never_written_to():
    p = np.array([0.5, 0.5 + 1e-13, -1e-13, 0.0])
    before = p.copy()
    c = GeneralizedPauliChannel(2, p)
    assert np.array_equal(p, before) and p[2] == -1e-13
    assert c.probabilities[2] == 0.0 and c.probabilities is not p
    assert as_distribution(c.probabilities) is not c.probabilities


@pytest.mark.parametrize("d", [2, 3, 4, 5, 7, 8, 9])
def test_sampled_rows_are_cp_and_in_the_box(d):
    lams = sample_cp_eigenvalues(d, 2000, np.random.default_rng([20261103, d]))
    assert lams.shape == (2000, d + 1)
    assert _cp_rows(lams).all()
    assert lams.min() >= -1.0 / (d - 1) - VALIDATION_TOL
    assert lams.max() <= 1.0 + VALIDATION_TOL


def test_sampler_refuses_dimension_one(rng):
    with pytest.raises(UnsupportedDimensionError, match="dimension must be >= 2, got 1$"):
        sample_cp_eigenvalues(1, 5, rng)


@pytest.mark.parametrize("d, shown", [(2.5, "2.5"), (True, "True"), ("3", "'3'")])
def test_sampler_refuses_non_integer_dimension(d, shown, rng):
    with pytest.raises(UnsupportedDimensionError,
                       match=f"^dimension must be an integer, got {shown}$"):
        sample_cp_eigenvalues(d, 5, rng)


def test_cp_margin_signs():
    assert fujiwara_algoet_margin(EigenvalueVector(2, [0.5, 0.0, -0.5])) == pytest.approx(0.0, abs=1e-15)
    assert fujiwara_algoet_margin(EigenvalueVector(2, [0.2, 0.1, 0.0])) > 0
    # the identity channel is an extreme point: margin exactly zero
    assert fujiwara_algoet_margin(EigenvalueVector(2, [1.0, 1.0, 1.0])) == 0.0
    assert fujiwara_algoet_margin(EigenvalueVector(2, [0.9, 0.9, -0.9])) < 0


def test_require_cp_raises():
    with pytest.raises(NotCompletelyPositiveError):
        require_cp(EigenvalueVector(2, [0.9, 0.9, -0.9]))


def test_probabilities_from_noncp_eigenvalues_raise():
    with pytest.raises(NotCompletelyPositiveError):
        probabilities_from_eigenvalues(EigenvalueVector(2, [0.9, 0.9, -0.9]))


def _cp_verdicts(d, lam):
    """CP verdicts on one row: is_completely_positive, _require_cp_rows and
    probabilities_from_eigenvalues (raises or not), and CLI cp-check."""
    e = EigenvalueVector(d, lam)
    verdicts = [is_completely_positive(e)]
    for call in (lambda: _require_cp_rows(e.values[None, :]),
                 lambda: probabilities_from_eigenvalues(e)):
        try:
            call()
            verdicts.append(True)
        except NotCompletelyPositiveError:
            verdicts.append(False)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["cp-check", "--d", str(d), "--lambdas=" + ",".join(map(repr, lam))])
    payload = json.loads(out.getvalue())
    assert code == 0 and ("probabilities" in payload) == payload["completely_positive"]
    return verdicts + [payload["completely_positive"]]


@given(st.sampled_from([2, 3, 5]), st.sampled_from(["sum", "min"]),
       st.sampled_from([-1.0, 1.0]), st.floats(min_value=-13.0, max_value=-11.0),
       st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_cp_criteria_agree_next_to_the_boundary(d, side, sign, exponent, seed):
    # a row at margin sign * 10**exponent on one side of the CP boundary: the
    # probability behind that side (p_0 for the sum, p_alpha for the minimum)
    # is (d-1)/d^2 times its margin
    rng = np.random.default_rng(seed)
    target = sign * 10.0**exponent
    k = 0 if side == "sum" else 1 + int(rng.integers(d + 1))
    p = np.insert(rng.dirichlet(np.ones(d + 1)), k, 0.0)
    p[k] = target * (d - 1) / d**2
    p[np.arange(d + 2) != k] *= 1.0 - p[k]
    lam = [float(x) for x in (d * (p[0] + p[1:]) - 1.0) / (d - 1.0)]
    margin = fujiwara_algoet_margin(EigenvalueVector(d, lam))
    assert abs(margin - target) <= 1e-14
    assert _cp_verdicts(d, lam) == [margin >= -CLAMP_TOL] * 4
    if margin >= -CLAMP_TOL:
        assert cp_oracle_choi(probabilities_from_eigenvalues(EigenvalueVector(d, lam)))


# d = 3, margin -2.0e-12: its smallest probability, -4.4e-13, is within the
# clamp, so a test on the probabilities alone would accept it
CP_WITNESS = [0.3, 0.2, 0.1, -0.2 - 1e-12]


def test_cp_decision_at_the_witness(capsys):
    e = EigenvalueVector(3, CP_WITNESS)
    assert fujiwara_algoet_margin(e) == pytest.approx(-2.0e-12, abs=1e-15)
    assert _cp_verdicts(3, CP_WITNESS) == [False] * 4
    with pytest.raises(NotCompletelyPositiveError):
        capacity_bounds(e)
    assert main(["bounds", "--d", "3", "--lambdas=" + ",".join(map(repr, CP_WITNESS))]) == 2
    assert "violate complete positivity (margin -2.000e-12)" in capsys.readouterr().err


def test_identity_channel_acts_trivially(rng):
    d = 3
    c = GeneralizedPauliChannel(d, [1.0] + [0.0] * (d + 1))
    m = canonical_mub(d)
    rho = random_density(rng, d)
    assert np.allclose(apply(c, m, rho), rho, atol=1e-12)


def test_uniform_channel_depolarizes(rng):
    # equal weight on identity and every basis family sends all states to I/d
    d = 3
    c = GeneralizedPauliChannel(d, np.full(d + 2, 1.0 / (d + 2)))
    e = eigenvalues_from_probabilities(c)
    m = canonical_mub(d)
    rho = random_density(rng, d)
    out = apply(c, m, rho)
    lam = e.values[0]
    assert np.allclose(e.values, lam, atol=1e-15)
    expect = lam * rho + (1 - lam) * np.eye(d) / d
    assert np.allclose(out, expect, atol=1e-12)


def test_apply_preserves_trace_and_hermiticity(rng):
    d = 5
    p = rng.dirichlet(np.ones(d + 2))
    c = GeneralizedPauliChannel(d, p)
    m = canonical_mub(d)
    rho = random_density(rng, d)
    out = apply(c, m, rho)
    assert np.trace(out) == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(out, out.conj().T, atol=1e-12)


@pytest.mark.parametrize("d", (2, 3, 5))
def test_apply_matches_weyl_route(d, rng):
    p = rng.dirichlet(np.ones(d + 2))
    c = GeneralizedPauliChannel(d, p)
    m = canonical_mub(d)
    rho = random_density(rng, d)
    assert np.allclose(apply(c, m, rho), apply(gpc_to_weyl(c), None, rho), atol=1e-10)


@pytest.mark.parametrize("d", (2, 3, 4, 5, 7, 8, 9))
def test_apply_matches_explicit_kraus_sum_on_both_routes(d):
    rng = np.random.default_rng([20261024, d])
    c = GeneralizedPauliChannel(d, rng.dirichlet(np.ones(d + 2)))
    m = canonical_mub(d)
    rho = random_density(rng, d)
    p = c.probabilities
    mub_sum = p[0] * rho
    for alpha in range(1, d + 2):
        for k in range(1, d):
            u = unitary_u(m, alpha, k)
            mub_sum = mub_sum + p[alpha] / (d - 1.0) * (u @ rho @ u.conj().T)
    w = gpc_to_weyl(c)
    weyl_sum = sum(wk * (u @ rho @ u.conj().T) for wk, u in zip(*weyl_kraus_terms(w)))
    assert np.abs(apply(c, m, rho) - mub_sum).max() <= 1e-14
    assert np.abs(apply(w, None, rho) - weyl_sum).max() <= 1e-14
    assert np.array_equal(apply(c, None, rho), apply(w, None, rho))


def test_kraus_terms_errors_reach_every_caller():
    c3 = GeneralizedPauliChannel(3, [0.2, 0.3, 0.25, 0.15, 0.1])
    rho = np.eye(3) / 3.0
    not_a_channel = eigenvalues_from_probabilities(c3)
    for call in (lambda: kraus_terms(not_a_channel), lambda: superoperator(not_a_channel),
                 lambda: apply(not_a_channel, None, rho),
                 lambda: choi_matrix(not_a_channel)):
        with pytest.raises(TypeError, match="expected a channel, got EigenvalueVector"):
            call()
    m = canonical_mub(5)
    for call in (lambda: kraus_terms(c3, m), lambda: apply(c3, m, rho)):
        with pytest.raises(ValueError, match=r"^basis set \(d=5, n=6\) does not match "
                                             r"channel d=3$"):
            call()
    # a short set never reaches kraus_terms: it is refused when it is made
    with pytest.raises(ValueError, match=r"^bases must have shape \(4, 3, 3\), got "
                                         r"\(3, 3, 3\)$"):
        MubSet(3, canonical_mub(3).bases[:3])
    w = gpc_to_weyl(c3)
    for call in (lambda: kraus_terms(w, canonical_mub(3)),
                 lambda: apply(w, canonical_mub(3), rho)):
        with pytest.raises(ValueError, match=r"^basis set \(d=3\) given for a WeylChannel"):
            call()
    with pytest.raises(ValueError, match="state shape"):
        apply(c3, canonical_mub(3), np.eye(2))
    # a raw stack of bases is not a checked set, and is refused by type
    # before the channel or the dimension is looked at
    bases = canonical_mub(3).bases
    for call in (lambda: kraus_terms(c3, bases), lambda: superoperator(c3, bases),
                 lambda: apply(c3, bases, rho), lambda: holevo_estimate(c3, bases),
                 lambda: kraus_terms(w, bases)):
        with pytest.raises(TypeError, match="^basis set must be a MubSet or None, "
                                            "got ndarray$"):
            call()


@pytest.mark.parametrize("entry", [gpc_to_weyl, kraus_probability_multiset,
                                   eigenvalues_from_probabilities, zeta_components_p_form])
@pytest.mark.parametrize("make", [
    lambda: gpc_to_weyl(GeneralizedPauliChannel(3, [0.2, 0.3, 0.25, 0.15, 0.1])),
    lambda: EigenvalueVector(3, [0.1] * 4),
], ids=["weyl-d3", "eigenvalues"])
def test_probability_view_entries_take_a_generalized_pauli_channel_only(entry, make):
    # a WeylChannel has a dimension and probabilities too, but its d^2 weights
    # are not the d+2 mixing probabilities
    x = make()
    with pytest.raises(TypeError, match="^expected a GeneralizedPauliChannel, "
                                        f"got {type(x).__name__}$"):
        entry(x)


def test_kraus_terms_basis_route_requires_a_prime_power_set_of_mubs():
    # both sets are refused when they are made, so no Kraus route ever sees them:
    # seven copies of the standard basis look like a d = 6 set by shape alone
    with pytest.raises(UnsupportedDimensionError,
                       match=r"^no basis construction for d=6 \(prime power required\)$"):
        MubSet(6, np.stack([np.eye(6)] * 7))
    repeated = canonical_mub(5).bases.copy()
    repeated[3] = repeated[2]
    with pytest.raises(ValueError, match=r"^basis set \(d=5\) is not mutually unbiased$"):
        MubSet(5, repeated)


def test_basis_route_never_rechecks_a_made_set(monkeypatch):
    import sys

    from gpchannels.oracle import SearchConfig, holevo_estimate

    # a set is checked once, when it is made; after that no Kraus route, the
    # channel action or the search may run verify_mub again
    m = MubSet(3, build_mubs(3).bases)
    c = GeneralizedPauliChannel(3, [0.2, 0.3, 0.25, 0.15, 0.1])
    rho = random_density(np.random.default_rng(4), 3)
    cfg = SearchConfig(samples=8, seed=1, refinement_iterations=20)

    def results():
        return (*kraus_terms(c, m), superoperator(c, m), apply(c, m, rho),
                holevo_estimate(c, m, cfg))

    before = results()

    def refuse(bases):
        raise AssertionError("verify_mub ran on a set that was already made")

    patched = [name for name, module in list(sys.modules.items())
               if name.partition(".")[0] == "gpchannels" and hasattr(module, "verify_mub")]
    for name in patched:
        monkeypatch.setattr(sys.modules[name], "verify_mub", refuse)
    assert "gpchannels.mub" in patched
    after = results()
    assert all(np.array_equal(a, b) for a, b in zip(before, after))


def test_kraus_terms_basis_route_weights_are_the_multiset():
    c = GeneralizedPauliChannel(5, np.random.default_rng(3).dirichlet(np.ones(7)))
    m = canonical_mub(5)
    weights, ops = kraus_terms(c, m)
    assert np.array_equal(weights, kraus_probability_multiset(c))
    assert np.array_equal(ops[0], np.eye(5))
    assert np.array_equal(ops[1 + 4 * 2 + 3], unitary_u(m, 3, 4))  # alpha 3, k 4


@pytest.mark.parametrize("d", (2, 3, 4, 5, 7, 8, 9))
def test_kraus_terms_basis_route_order_is_alpha_then_k(d):
    rng = np.random.default_rng([20261019, d])
    c = GeneralizedPauliChannel(d, rng.dirichlet(np.ones(d + 2)))
    m = canonical_mub(d)
    ops = kraus_terms(c, m)[1]
    omega = np.exp(2j * np.pi / d)
    for alpha in range(1, d + 2):
        vecs = m.basis(alpha)
        for k in range(1, d):
            expect = sum(omega ** (k * l) * np.outer(vecs[l], vecs[l].conj())
                         for l in range(d))
            assert np.abs(ops[1 + (alpha - 1) * (d - 1) + (k - 1)] - expect).max() <= 1e-14


def test_gpc_to_weyl_dim4_round_trip(rng):
    p = rng.dirichlet(np.ones(6))
    c = GeneralizedPauliChannel(4, p)
    w = gpc_to_weyl(c)
    assert w.dimension == 4
    assert w.parts == 2
    # weights: identity once, each family spread over 3 labels
    weights, ops = weyl_kraus_terms(w)
    assert weights.size == 16
    assert np.allclose(weights.sum(), 1.0, atol=1e-12)
    rho = random_density(rng, 4)
    out = apply(w, None, rho)
    assert np.trace(out) == pytest.approx(1.0, abs=1e-12)
    m = canonical_mub(4)
    assert np.allclose(out, apply(c, m, rho), atol=1e-10)


def test_gpc_to_weyl_rejects_unsupported_dimension():
    for d in (6, 10, 12):
        c = GeneralizedPauliChannel(d, np.full(d + 2, 1.0 / (d + 2)))
        with pytest.raises(UnsupportedDimensionError, match=rf"d={d} "):
            gpc_to_weyl(c)


@pytest.mark.parametrize("d, p, n", [(2, 2, 1), (4, 2, 2), (5, 5, 1), (8, 2, 3), (9, 3, 2)])
def test_gpc_to_weyl_spreads_each_weight_over_its_labels(d, p, n):
    probs = np.random.default_rng([20261018, d]).dirichlet(np.ones(d + 2))
    w = gpc_to_weyl(GeneralizedPauliChannel(d, probs))
    assert (w.local_dimension, w.parts) == (p, n)
    assert w.probabilities[0] == probs[0]
    assert np.array_equal(w.probabilities[weyl_labels(d)],
                          np.repeat(probs[1:, None] / (d - 1.0), d - 1, axis=1))


def test_kraus_probability_multiset_layout():
    c = GeneralizedPauliChannel(2, REF_PROBS)
    mult = kraus_probability_multiset(c)
    assert mult.size == 4
    assert mult[0] == pytest.approx(0.25)
    assert np.allclose(np.sort(mult), [0.0, 0.25, 0.25, 0.5])


def test_weyl_kraus_terms_are_unitary():
    w = gpc_to_weyl(GeneralizedPauliChannel(3, np.full(5, 0.2)))
    weights, ops = weyl_kraus_terms(w)
    assert weights.size == 9 and ops.shape == (9, 3, 3)
    for u in ops:
        assert np.allclose(u @ u.conj().T, np.eye(3), atol=1e-12)


def test_tensor_weights_are_kron():
    a = gpc_to_weyl(GeneralizedPauliChannel(2, REF_PROBS))
    pair = tensor(a, a)
    assert pair.dimension == 4
    assert np.allclose(pair.probabilities, np.kron(a.probabilities, a.probabilities))


@pytest.mark.parametrize("d", (2, 3, 4))
def test_tensor_acts_factor_by_factor(d):
    # unequal factors, so swapping them inside tensor changes the channel
    rng = np.random.default_rng([20261020, d])
    a, b = (GeneralizedPauliChannel(d, rng.dirichlet(np.ones(d + 2))) for _ in range(2))
    rho, sigma = random_density(rng, d), random_density(rng, d)
    got = apply(tensor(a, b), None, np.kron(rho, sigma))
    expect = np.kron(apply(a, None, rho), apply(b, None, sigma))
    assert np.abs(got - expect).max() <= 1e-14


def test_tensor_accepts_gpc_inputs():
    c = GeneralizedPauliChannel(2, REF_PROBS)
    pair = tensor(c, c)
    assert pair.dimension == 4
    assert pair.probabilities.size == 16
    qutrit = GeneralizedPauliChannel(3, [0.2, 0.3, 0.25, 0.15, 0.1])
    with pytest.raises(ValueError, match="local dimensions differ: 2 vs 3$"):
        tensor(c, qutrit)


def test_choi_matrix_properties(rng):
    c = GeneralizedPauliChannel(3, rng.dirichlet(np.ones(5)))
    choi = choi_matrix(c)
    assert choi.shape == (9, 9)
    assert np.trace(choi) == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.eigvalsh(choi).min() >= -1e-12


def test_choi_spectrum_is_weight_multiset(rng):
    c = GeneralizedPauliChannel(3, rng.dirichlet(np.ones(5)))
    evs = np.sort(np.linalg.eigvalsh(choi_matrix(c)))
    expect = np.sort(kraus_probability_multiset(c))
    assert np.allclose(evs, expect, atol=1e-9)


def _mub_route_kraus(c):
    d = c.dimension
    m = canonical_mub(d)
    p = c.probabilities
    weights = [p[0]] + [p[a] / (d - 1.0) for a in range(1, d + 2) for _ in range(1, d)]
    ops = [np.eye(d, dtype=complex)] + [
        unitary_u(m, a, k) for a in range(1, d + 2) for k in range(1, d)]
    return np.asarray(weights), np.asarray(ops)


def _gram_case(case):
    """(Weyl channel or None, weights, operators) for one kernel test case."""
    rng = np.random.default_rng(20261018)
    if case == "two_copies_d3":
        c3 = GeneralizedPauliChannel(3, rng.dirichlet(np.ones(5)))
        w = tensor(c3, c3)
    elif case == "d4":
        w = gpc_to_weyl(GeneralizedPauliChannel(4, rng.dirichlet(np.ones(6))))
    elif case == "weyl_zero_weights":
        sparse = np.zeros(9)
        sparse[[0, 4, 7]] = rng.dirichlet(np.ones(3))
        w = WeylChannel(3, 1, sparse)
    else:
        return None, *_mub_route_kraus(GeneralizedPauliChannel(5, rng.dirichlet(np.ones(7))))
    return w, *weyl_kraus_terms(w)


@pytest.mark.parametrize("case", ["two_copies_d3", "d4", "weyl_zero_weights",
                                  "mub_route_d5"])
def test_weighted_gram_matches_outer_product_sum(case):
    w, weights, ops = _gram_case(case)
    dim = ops.shape[1]
    if case == "weyl_zero_weights":
        assert weights.size == 3 < dim * dim
    expect = np.zeros((dim * dim, dim * dim), dtype=complex)
    for weight, u in zip(weights, ops):
        v = u.ravel()
        expect += weight * np.outer(v, v.conj())
    gram = _weighted_gram(weights, ops)
    assert np.abs(gram - expect).max() <= 1e-15
    choi = gram / dim if w is None else choi_matrix(w)
    assert np.abs(choi - expect / dim).max() <= 1e-15
    assert np.abs(choi - choi.conj().T).max() <= 1e-15
    assert abs(np.trace(choi) - 1.0) <= 1e-15


CHOI_CASES = ([("single", d, zeros) for d in (2, 3, 4, 5, 7, 8, 9) for zeros in (0, 2)]
              + [("pair", d, 0) for d in (2, 3, 4, 5)] + [("pair", 3, 2)])


def _choi_case(kind, d, zeros):
    """A seeded channel on d (kind "single") or two copies of one (kind
    "pair"), with `zeros` basis weights set to zero."""
    rng = np.random.default_rng([20261021, d, zeros])
    p = rng.dirichlet(np.ones(d + 2))
    p[1 + rng.choice(d + 1, size=zeros, replace=False)] = 0.0
    c = GeneralizedPauliChannel(d, p / p.sum())
    return c if kind == "single" else tensor(c, c)


def _vec_shifts(ch):
    """Digitwise shift j - i mod p of every row-major vec index i*D + j."""
    p, n = prime_power(ch.dimension)
    dim = ch.dimension
    digits = np.arange(dim)[:, None] // p ** np.arange(n) % p
    shift = (digits[None, :, :] - digits[:, None, :]) % p
    return (shift @ p ** np.arange(n)).ravel()


@pytest.mark.parametrize("kind,d,zeros", CHOI_CASES)
def test_choi_matrix_is_shift_block_diagonal_outer_product_sum(kind, d, zeros):
    ch = _choi_case(kind, d, zeros)
    dim = ch.dimension
    expect = np.zeros((dim * dim, dim * dim), dtype=complex)
    weights, ops = kraus_terms(ch)
    for weight, u in zip(weights, ops):
        v = u.ravel()
        # the zero entries of vec(U_k) add exact zeros; skip them for speed
        nz = np.flatnonzero(v)
        expect[np.ix_(nz, nz)] += weight * np.outer(v[nz], v[nz].conj())
    expect /= dim
    choi = choi_matrix(ch)
    shifts = _vec_shifts(ch)
    off_block = shifts[:, None] != shifts[None, :]
    assert np.all(choi[off_block] == 0.0)
    assert np.abs(choi - expect).max() <= 1e-15


@pytest.mark.parametrize("kind,d,zeros", CHOI_CASES)
def test_choi_block_spectra_are_the_choi_spectrum(kind, d, zeros):
    ch = _choi_case(kind, d, zeros)
    blocks = choi_blocks(ch)
    assert blocks.shape == (ch.dimension,) * 3
    # reference: every block from the row sums of all D^2 products
    w = gpc_to_weyl(ch) if isinstance(ch, GeneralizedPauliChannel) else ch
    p, n, dim = w.local_dimension, w.parts, w.dimension
    labels = np.arange(dim * dim).reshape((p,) * (2 * n))
    labels = labels.transpose(*range(1, 2 * n, 2), *range(0, 2 * n, 2)).reshape(dim, dim)
    rows = _displacement_products(p, n, labels.ravel()).sum(axis=2).reshape(dim, dim, dim)
    weighted = rows.transpose(0, 2, 1) * w.probabilities[labels][:, None, :]
    assert np.array_equal(blocks, weighted @ rows.conj() / dim)
    choi = choi_matrix(ch)
    shifts = _vec_shifts(ch)
    for b, block in enumerate(blocks):
        idx = np.flatnonzero(shifts == b)
        assert np.abs(block - choi[np.ix_(idx, idx)]).max() <= 1e-15
    evs = np.sort(np.linalg.eigvalsh(blocks), axis=None)
    assert np.abs(evs - np.linalg.eigvalsh(choi)).max() <= 1e-14


def test_classical_map_rows_are_stochastic():
    e = EigenvalueVector(3, [0.4, 0.2, 0.1, 0.0])
    for alpha in range(1, 5):
        t = classical_map_t(e, alpha)
        assert t.shape == (3, 3)
        assert np.allclose(t.sum(axis=1), 1.0, atol=1e-12)
        assert t.min() >= -1e-12


def test_classical_map_rows_stack_every_basis(cp_sampler, rng):
    lams = cp_sampler(4, 6, rng)
    rows = _classical_map_rows(lams)
    assert rows.shape == (6, 5, 4, 4)
    for i, lam in enumerate(lams):
        e = EigenvalueVector(4, lam)
        for alpha in range(1, 6):
            assert np.array_equal(rows[i, alpha - 1], classical_map_t(e, alpha))


def test_classical_map_structure():
    lam = 0.5
    e = EigenvalueVector(2, [lam, 0.0, -0.5])
    t = classical_map_t(e, 1)
    assert np.allclose(t, [[0.75, 0.25], [0.25, 0.75]], atol=1e-15)
    for alpha in (0, 4):
        with pytest.raises(ValueError, match=f"basis label {alpha} out of range 1..3$"):
            classical_map_t(e, alpha)


def test_weyl_channel_validates_size():
    with pytest.raises(ValueError):
        WeylChannel(2, 1, [0.5, 0.5])
    with pytest.raises(UnsupportedDimensionError, match="local_dimension must be >= 2, got 1$"):
        WeylChannel(1, 1, [1.0])
    with pytest.raises(ValueError, match="parts must be >= 1, got 0$"):
        WeylChannel(2, 0, [1.0])
    with pytest.raises(UnsupportedDimensionError,
                       match="local_dimension must be an integer, got 2.5$"):
        WeylChannel(2.5, 1, [0.25] * 4)
    with pytest.raises(ValueError, match="parts must be an integer, got 1.9$"):
        WeylChannel(2, 1.9, [0.25] * 4)


def test_canonical_mub_caches_and_covers_dim4():
    assert canonical_mub(4).n_bases == 5
    assert canonical_mub(3) is canonical_mub(3)
    for d in (6, 10, 12):
        with pytest.raises(UnsupportedDimensionError, match=rf"d={d} "):
            canonical_mub(d)
