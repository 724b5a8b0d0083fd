import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gpchannels import capacity
from gpchannels.capacity import (
    bounds_batch,
    capacity_bounds,
    capacity_from_fidelity,
    channel_fidelity_extremes_rows,
    holevo_lower_bound,
    holevo_lower_via_classical,
    holevo_upper_bound,
    holevo_upper_bound_weyl,
    pauli_classical_capacity,
    transition_row_entropies,
    zeta_components_p_form,
    zeta_vector,
)
from gpchannels.channels import (
    EigenvalueVector,
    GeneralizedPauliChannel,
    canonical_mub,
    classical_map_t,
    eigenvalues_from_probabilities,
    gpc_to_weyl,
    probabilities_from_eigenvalues,
    sample_cp_eigenvalues,
    superoperator,
    tensor,
)
from gpchannels.dynamics import (
    PauliTrajectory,
    RateSpec,
    capacity_trajectory,
    eigenvalue_trajectory,
    non_p_divisible_capacity_witness,
)
from gpchannels.errors import NotCompletelyPositiveError, UnsupportedDimensionError
from gpchannels.numerics import _xlogx
from references import majorizes

LN2, LN3, LN5 = np.log(2.0), np.log(3.0), np.log(5.0)
REF = GeneralizedPauliChannel(2, [0.25, 0.5, 0.25, 0.0])
REF_EIGS = eigenvalues_from_probabilities(REF)


def test_reference_lower_bound_value():
    low, alpha = holevo_lower_bound(REF_EIGS)
    assert low == pytest.approx(0.75 * LN3 - LN2, abs=1e-12)
    assert alpha == 1  # largest-magnitude eigenvalue sits in basis 1


def test_reference_upper_bound_value():
    up, comps = holevo_upper_bound(REF_EIGS)
    assert up == pytest.approx(0.75 * LN3 - LN2, abs=1e-12)
    assert np.allclose(comps.zeta, [0.75, 0.25], atol=1e-12)


def test_lower_bound_routes_agree(cp_sampler, rng):
    for d in (2, 3, 4):
        for lam in cp_sampler(d, 30, rng):
            e = EigenvalueVector(d, lam)
            a, _ = holevo_lower_bound(e)
            b = holevo_lower_via_classical(e)
            assert a == pytest.approx(b, abs=1e-10)


def test_bounds_reject_noncp_input():
    with pytest.raises(NotCompletelyPositiveError):
        holevo_lower_bound(EigenvalueVector(2, [0.9, 0.9, -0.9]))
    with pytest.raises(NotCompletelyPositiveError):
        holevo_upper_bound(EigenvalueVector(2, [0.9, 0.9, -0.9]))


def test_zeta_vector_blocks():
    mult = [0.25, 0.5, 0.25, 0.0]
    assert np.allclose(zeta_vector(mult), [0.75, 0.25])
    for weights in ([0.5, 0.5], [0.5, 0.25, 0.25]):
        with pytest.raises(ValueError,
                           match=rf"^need a square number of weights, got {len(weights)}$"):
            zeta_vector(weights)


def test_zeta_components_sum_to_one(cp_sampler, rng):
    for d in (2, 3, 4, 5):
        for lam in cp_sampler(d, 20, rng):
            _, comps = holevo_upper_bound(EigenvalueVector(d, lam))
            assert comps.zeta.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(np.diff(comps.zeta) <= 1e-12)  # non-increasing
            assert 1 <= comps.region <= d


def test_zeta_matches_sorted_multiset(cp_sampler, rng):
    # closed-form blocks against brute-force sort-and-sum
    for d in (2, 3, 4, 5, 7):
        for lam in cp_sampler(d, 20, rng):
            e = EigenvalueVector(d, lam)
            c = probabilities_from_eigenvalues(e)
            mult = np.concatenate([[c.probabilities[0]],
                                   np.repeat(c.probabilities[1:] / (d - 1), d - 1)])
            _, comps = holevo_upper_bound(e)
            assert np.allclose(comps.zeta, zeta_vector(mult), atol=1e-12)


def test_p_form_and_lambda_form_agree(cp_sampler, rng):
    for d in (2, 3, 4, 5):
        for lam in cp_sampler(d, 20, rng):
            e = EigenvalueVector(d, lam)
            a = holevo_upper_bound(e)[1]
            b = zeta_components_p_form(probabilities_from_eigenvalues(e))
            assert a.region == b.region
            assert np.allclose(a.zeta, b.zeta, atol=1e-12)
            assert np.allclose(a.plain_blocks, b.plain_blocks, atol=1e-12)
            assert np.allclose(a.shifted_blocks, b.shifted_blocks, atol=1e-12)
            assert np.allclose(a.straddle_blocks, b.straddle_blocks, atol=1e-12)


@pytest.mark.parametrize("d", (2, 3, 4, 5, 7))
def test_zeta_majorizes_every_output_spectrum(d):
    # the premise of chi_up: the grouped weights majorize the output spectrum of
    # every pure input, so ln d - H(zeta) bounds the Holevo quantity from above
    rng = np.random.default_rng([20261025, d])
    basis_states = canonical_mub(d).bases.reshape(-1, d)
    for i in range(40):
        p = rng.dirichlet(np.ones(d + 2))
        if i % 2:  # CP boundary: one or two basis weights zero
            p[1 + rng.choice(d + 1, size=1 + i % 4 // 2, replace=False)] = 0.0
        c = GeneralizedPauliChannel(d, p / p.sum())
        zeta = bounds_batch(eigenvalues_from_probabilities(c).values[None, :]).zeta[0]
        raw = rng.standard_normal((20, d)) + 1j * rng.standard_normal((20, d))
        states = np.concatenate([basis_states,
                                 raw / np.linalg.norm(raw, axis=1, keepdims=True)])
        rho = (states[:, :, None] * states.conj()[:, None, :]).reshape(len(states), -1)
        outputs = (rho @ superoperator(c).T).reshape(-1, d, d)
        spectra = np.linalg.eigvalsh(outputs)
        failed = [k for k, spectrum in enumerate(spectra) if not majorizes(zeta, spectrum)]
        assert not failed, f"channel {i}: zeta does not majorize states {failed}"


def test_region_boundary_continuity():
    # sum of eigenvalues equal to one of them: adjacent assemblies coincide
    # dyadic entries keep the boundary sums exact in floating point
    cases = [
        (3, [0.25, 0.125, -0.0625, -0.1875], 1, 2),         # sum = lambda_2
        (3, [0.25, 0.0625, -0.125, -0.3125], 2, 3),         # sum = lambda_3
        (4, [0.25, 0.09375, 0.03125, -0.125, -0.21875], 2, 3),  # sum = lambda_3
    ]
    for d, lam, r_low, r_high in cases:
        e = EigenvalueVector(d, lam)
        assert abs(e.values.sum() - np.sort(e.values)[::-1][r_high - 1]) < 1e-15
        _, comps = holevo_upper_bound(e)
        assert comps.region == r_low  # ties resolve downward
        assert np.allclose(comps.zeta_for_region(r_low),
                           comps.zeta_for_region(r_high), atol=1e-10)


def test_zeta_for_region_range_check():
    _, comps = holevo_upper_bound(REF_EIGS)
    with pytest.raises(ValueError):
        comps.zeta_for_region(0)
    with pytest.raises(ValueError):
        comps.zeta_for_region(3)


def test_weyl_route_matches_closed_form(cp_sampler, rng):
    for d in (2, 3, 5):
        for lam in cp_sampler(d, 10, rng):
            e = EigenvalueVector(d, lam)
            up, _ = holevo_upper_bound(e)
            w = gpc_to_weyl(probabilities_from_eigenvalues(e))
            assert up == pytest.approx(holevo_upper_bound_weyl(w), abs=1e-12)


def test_bounds_are_ordered(cp_sampler, rng):
    for d in (2, 3, 4, 5):
        for lam in cp_sampler(d, 50, rng):
            b = capacity_bounds(EigenvalueVector(d, lam))
            assert b.chi_low <= b.chi_up + 1e-9
            assert 0.0 <= b.chi_low <= np.log(d) + 1e-12


def test_qubit_bounds_always_coincide(cp_sampler, rng):
    for lam in cp_sampler(2, 100, rng):
        b = capacity_bounds(EigenvalueVector(2, lam))
        assert b.coincide
        assert b.exact_capacity == pytest.approx(b.chi_low, abs=1e-12)


def test_two_copy_reference_values():
    pair = tensor(REF, REF)
    assert np.allclose(zeta_vector(pair.probabilities),
                       [10 / 16, 5 / 16, 1 / 16, 0.0], atol=1e-12)
    up_pair = holevo_upper_bound_weyl(pair)
    assert up_pair == pytest.approx(15 / 16 * LN5 - 11 / 8 * LN2, abs=1e-12)
    up_single, _ = holevo_upper_bound(REF_EIGS)
    assert up_pair > 2 * up_single + 1e-3  # strictly superadditive here


@pytest.mark.parametrize("make", [
    lambda: GeneralizedPauliChannel(2, [0.25, 0.5, 0.25, 0.0]),
    lambda: GeneralizedPauliChannel(3, [0.2, 0.3, 0.25, 0.15, 0.1]),
    lambda: EigenvalueVector(3, [0.1] * 4),
], ids=["gpc-d2", "gpc-d3", "eigenvalues"])
def test_weyl_upper_bound_takes_a_weyl_channel_only(make):
    # a GeneralizedPauliChannel's mixing probabilities are not its Kraus weights
    x = make()
    with pytest.raises(TypeError, match=f"^expected a WeylChannel, got {type(x).__name__}$"):
        holevo_upper_bound_weyl(x)


def test_depolarizing_capacity_exact():
    # all eigenvalues equal: both bounds collapse to the same expression
    d, lam = 3, 0.4
    e = EigenvalueVector(d, [lam] * (d + 1))
    cap = capacity_bounds(e).exact_capacity
    a = (1 + (d - 1) * lam) / d
    expect = a * np.log(d * a) + (1 - a) * np.log(d * (1 - a) / (d - 1))
    assert cap == pytest.approx(expect, abs=1e-12)


def test_exact_capacity_none_when_gap():
    e = EigenvalueVector(3, [0.5, 0.2, 0.1, 0.1])
    b = capacity_bounds(e)
    assert not b.coincide and b.exact_capacity is None


@pytest.mark.parametrize("lam, gap", [
    ([1 / 6 - 2e-4] + [1 / 6] * 4, 3.6e-8),
    ([0.1998] + [0.2] * 3, 1.7e-8),
])
def test_bound_gap_between_the_tolerances_does_not_coincide(lam, gap):
    # a gap of a few 1e-8 lies inside 1e-6 but outside COINCIDENCE_TOL
    b = bounds_batch(np.array([lam]))
    assert abs((b.chi_up[0] - b.chi_low[0]) / gap - 1.0) <= 0.05
    assert not b.coincide[0] and np.isnan(b.exact_capacity[0])


def test_pauli_closed_form_qubit_only():
    with pytest.raises(ValueError):
        pauli_classical_capacity(EigenvalueVector(3, [0.1, 0.1, 0.1, 0.1]))


def test_fidelity_extremes_and_capacity():
    (f_min,), (f_max,) = channel_fidelity_extremes_rows(REF_EIGS.values[None, :])
    assert f_min == pytest.approx(0.25)
    assert f_max == pytest.approx(0.75)
    # here |min| = max so both fidelities give the same capacity
    assert capacity_from_fidelity(f_min) == pytest.approx(
        pauli_classical_capacity(REF_EIGS), abs=1e-12)
    assert capacity_from_fidelity(f_max) == pytest.approx(
        pauli_classical_capacity(REF_EIGS), abs=1e-12)


def test_capacity_from_fidelity_domain():
    assert capacity_from_fidelity(1.0) == pytest.approx(LN2, abs=1e-15)
    assert capacity_from_fidelity(0.5) == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(ValueError):
        capacity_from_fidelity(1.2)


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=30, deadline=None)
def test_upper_bound_between_zero_and_max(seed):
    rng = np.random.default_rng(seed)
    lam = sample_cp_eigenvalues(3, 1, rng)[0]
    up, _ = holevo_upper_bound(EigenvalueVector(3, lam))
    assert -1e-12 <= up <= LN3 + 1e-12


def _lambdas_from_probs(p):
    d = p.size - 2
    return (d * (p[0] + p[1:]) - 1.0) / (d - 1.0)


@st.composite
def cp_batches(draw, dims=(2, 3, 4, 5, 7)):
    """(d, rows): CP eigenvalue rows at a prime power d from dims mixing interior
    channels with the boundary inputs: lambda = 1, lambda = -1/(d-1), zero
    weights (CP boundary) and integer weights, whose ties tie the region sort."""
    d = draw(st.sampled_from(dims))
    kinds = draw(st.lists(st.sampled_from(["interior", "zeros", "edge", "ties"]),
                          min_size=1, max_size=12))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    rows = []
    for kind in kinds:
        if kind == "ties":
            k = np.array(draw(st.lists(st.integers(min_value=0, max_value=3),
                                       min_size=d + 2, max_size=d + 2)), dtype=float)
            k[0] += k.sum() == 0
            p = k / k.sum()
        elif kind == "edge":
            # identity, a pure basis channel, p_0 + p_a = 1, p_0 = p_a = 0
            p = np.zeros(d + 2)
            a = 1 + int(rng.integers(d + 1))
            variant = draw(st.integers(min_value=0, max_value=3))
            if variant == 0:
                p[0] = 1.0
            elif variant == 1:
                p[a] = 1.0
            elif variant == 2:
                p[0] = rng.uniform()
                p[a] = 1.0 - p[0]
            else:
                rest = [i for i in range(1, d + 2) if i != a]
                p[rest] = rng.dirichlet(np.ones(d))
        else:
            p = rng.dirichlet(np.ones(d + 2))
            if kind == "zeros":
                p[rng.choice(d + 2, size=int(rng.integers(1, 3)), replace=False)] = 0.0
                p /= p.sum()
        rows.append(_lambdas_from_probs(p))
    return d, np.array(rows)


@given(cp_batches())
@settings(max_examples=150, deadline=None)
def test_bounds_batch_matches_scalar_wrappers(batch):
    d, lams = batch
    b = bounds_batch(lams)
    assert b.chi_low.shape == b.chi_up.shape == (lams.shape[0],)
    for i, lam in enumerate(lams):
        e = EigenvalueVector(d, lam)
        low, alpha = holevo_lower_bound(e)
        up, comps = holevo_upper_bound(e)
        single = capacity_bounds(e)
        assert abs(b.chi_low[i] - low) <= 1e-15
        assert abs(b.chi_up[i] - up) <= 1e-15
        assert b.maximizing_alpha[i] == alpha == single.maximizing_alpha
        assert b.region[i] == comps.region
        assert bool(b.coincide[i]) == single.coincide
        assert np.max(np.abs(b.zeta[i] - comps.zeta)) <= 1e-15
        exact = single.exact_capacity
        if exact is None:
            assert d > 2 and np.isnan(b.exact_capacity[i])
        else:
            assert abs(b.exact_capacity[i] - exact) <= 1e-15
        if d == 2:
            assert abs(b.exact_capacity[i] - pauli_classical_capacity(e)) <= 1e-15
        assert b.chi_low[i] <= b.chi_up[i] + 1e-9


_BATCH_FIELDS = ("chi_low", "maximizing_alpha", "chi_up", "region", "zeta", "plain_blocks",
                 "shifted_blocks", "straddle_blocks", "coincide", "exact_capacity")


@given(cp_batches((2, 3, 4, 5, 7, 8, 9)))
@settings(max_examples=150, deadline=None)
def test_bounds_batch_rows_have_the_same_bits_alone_and_stacked(batch):
    d, lams = batch
    b = bounds_batch(lams)
    for i in range(lams.shape[0]):
        one = bounds_batch(lams[i:i + 1])
        for field in _BATCH_FIELDS:
            assert getattr(one, field).tobytes() == getattr(b, field)[i:i + 1].tobytes(), field
    # the bounds share one x ln x pass; each has the bits of a pass of its own
    terms = capacity._basis_terms(capacity._checked_rows(lams))
    assert b.chi_low.tobytes() == terms.max(axis=1).tobytes()
    assert b.maximizing_alpha.tobytes() == (np.argmax(terms, axis=1) + 1).tobytes()
    assert b.chi_up.tobytes() == (np.log(d) + _xlogx(b.zeta).sum(axis=1)).tobytes()


def test_bounds_batch_names_first_noncp_row(rng):
    lams = sample_cp_eigenvalues(3, 5, rng)
    lams[3] = [0.9, 0.9, 0.9, -0.5]  # inside the box, sum above 1 + 3 min
    with pytest.raises(NotCompletelyPositiveError, match=r"^row 3: "):
        bounds_batch(lams)


def test_bounds_batch_names_first_row_outside_box(rng):
    lams = sample_cp_eigenvalues(2, 4, rng)
    lams[2, 0] = 1.5
    lams[3, 1] = np.nan
    with pytest.raises(ValueError, match=r"^row 2: eigenvalues outside"):
        bounds_batch(lams)
    lams[2, 0] = 0.0
    with pytest.raises(ValueError, match=r"^row 3: eigenvalues must be finite"):
        bounds_batch(lams)


def test_bounds_batch_checks_shape():
    with pytest.raises(ValueError):
        bounds_batch([0.5, 0.0, -0.5])
    with pytest.raises(UnsupportedDimensionError):
        bounds_batch([[0.5, 0.5]])
    assert bounds_batch(np.empty((0, 4))).chi_low.shape == (0,)


def test_bounds_refuse_dimensions_without_basis_set():
    # d = 6 twice: the per-dimension table is cached, a refusal must not be
    for d in (6, 10, 12, 6):
        lam = np.full(d + 1, 0.01)
        for call in (lambda: bounds_batch(lam[None, :]),
                     lambda: capacity_bounds(EigenvalueVector(d, lam)),
                     lambda: holevo_lower_via_classical(EigenvalueVector(d, lam))):
            with pytest.raises(UnsupportedDimensionError,
                               match=f"^no basis construction for d={d} "):
                call()


def test_capacity_trajectory_matches_per_step_closed_form():
    traj = capacity_trajectory(
        eigenvalue_trajectory(non_p_divisible_capacity_witness(), 3.0, 301))
    per_step = [pauli_classical_capacity(EigenvalueVector(2, lam)) for lam in traj.lambdas]
    assert np.array_equal(traj.capacity, per_step)


_DIP = RateSpec((0.25, ((0.0, 0.8, 1.0, 1.4, 1.6, 3.0), (2.5, 2.5, -0.8, -0.8, 2.5, 2.5)),
                 0.15))


def _negative_dominant():
    times = np.linspace(0.0, 2.0, 401)
    lams = np.stack([-0.6 + 0.15 * times, np.full(401, 0.1), np.full(401, 0.1)], axis=1)
    return PauliTrajectory(times, lams, cp_everywhere=True, p_divisible=False)


def _saturated():
    # unitary rows, |lambda| = 1 everywhere, then the identity and a plateau
    lams = np.array([[1.0, 1.0, 1.0], [1.0, -1.0, -1.0], [-1.0, 1.0, -1.0],
                     [-1.0, -1.0, 1.0], [1.0, 1.0, 1.0], [1.0, 0.2, 0.2], [1.0, 0.0, 0.0]])
    return PauliTrajectory(np.arange(7.0), lams, cp_everywhere=True, p_divisible=False)


_RATES = {"witness": non_p_divisible_capacity_witness(),
          "constant": RateSpec.constant(0.5, 0.3, 0.2),
          "plateau": RateSpec.constant(0.9, 0.0, 0.0),
          "dip": _DIP}


_HAND_BUILT = {"negative-dominant": _negative_dominant, "saturated": _saturated}


@pytest.mark.parametrize("kind, steps", [
    pytest.param(kind, steps, id=f"{kind}-{steps}") for kind in _RATES for steps in (301, 15001)
] + [pytest.param(kind, None, id=kind) for kind in _HAND_BUILT])
def test_capacity_trajectory_is_bounds_batch_exact_capacity(kind, steps):
    # the trajectory reads the per-basis terms alone; the full bounds agree
    if steps is None:
        traj = _HAND_BUILT[kind]()
    else:
        traj = eigenvalue_trajectory(_RATES[kind], 3.0, steps)
    bounds = bounds_batch(traj.lambdas)
    assert bounds.coincide.all()
    assert np.array_equal(capacity_trajectory(traj).capacity, bounds.exact_capacity)


@given(cp_batches(), st.sampled_from([1, 2]))
@settings(max_examples=100, deadline=None)
def test_transition_row_entropies_match_kron_loops(batch, copies):
    d, lams = batch
    got = transition_row_entropies(lams, copies)
    assert got.shape == lams.shape
    for i, lam in enumerate(lams):
        e = EigenvalueVector(d, lam)
        for alpha in range(1, d + 2):
            t = classical_map_t(e, alpha)
            row = (t if copies == 1 else np.kron(t, t))[0]
            row = row[row > 0]
            assert abs(got[i, alpha - 1] + np.sum(row * np.log(row))) <= 1e-12


@pytest.mark.parametrize("copies", [1, 2])
def test_transition_row_entropies_of_the_identity_are_positive_zero(copies):
    # lambda = 1 maps every basis vector to itself: a pure row, entropy +0.0
    entropies = transition_row_entropies(np.ones((1, 3)), copies)
    assert np.array_equal(entropies, np.zeros((1, 3)))
    assert not np.signbit(entropies).any()


def test_transition_row_entropies_checks_copies():
    for copies, message in ((3, r"^copies 3 out of range 1\.\.2$"),
                            (True, r"^copies must be an integer, got True$"),
                            (2.0, r"^copies must be an integer, got 2\.0$")):
        with pytest.raises(ValueError, match=message):
            transition_row_entropies(np.zeros((1, 3)), copies)


def test_fidelity_rows_form_matches_scalar_forms(cp_sampler, rng):
    lams = cp_sampler(2, 50, rng)
    f_min, f_max = channel_fidelity_extremes_rows(lams)
    caps = capacity_from_fidelity(np.stack([f_min, f_max]))
    assert caps.shape == (2, 50)
    for i, lam in enumerate(lams):
        (lo,), (hi,) = channel_fidelity_extremes_rows(lam[None, :])
        assert (lo, hi) == (f_min[i], f_max[i])
        assert (capacity_from_fidelity(lo), capacity_from_fidelity(hi)) == tuple(caps[:, i])
    assert type(capacity_from_fidelity(0.3)) is float


def test_fidelity_forms_keep_their_errors():
    with pytest.raises(ValueError, match=r"^fidelity extremes need d=2, got d=3$"):
        channel_fidelity_extremes_rows(np.full((1, 4), 0.1))
    with pytest.raises(ValueError, match=r"^fidelity extremes need d=2, got d=3$"):
        channel_fidelity_extremes_rows(np.zeros((2, 4)))
    with pytest.raises(NotCompletelyPositiveError, match=r"^eigenvalues \["):
        channel_fidelity_extremes_rows([[0.9, 0.9, -0.9]])
    with pytest.raises(NotCompletelyPositiveError, match=r"^row 1: "):
        channel_fidelity_extremes_rows([[0.5, 0.0, -0.5], [0.9, 0.9, -0.9]])
    with pytest.raises(ValueError, match=r"^fidelity 1.2 outside \[0, 1\]$"):
        capacity_from_fidelity(1.2)
    with pytest.raises(ValueError, match=r"^entry 1: fidelity -0.5 outside \[0, 1\]$"):
        capacity_from_fidelity(np.array([0.5, -0.5, 2.0]))


@pytest.mark.parametrize("lam, low, up", [
    ([-1 / 9] + [1 / 6] * 4, 0.03810, 0.12163),
    ([-0.09375] + [0.125] * 5, 0.02817, 0.11396),
])
def test_one_value_families_outside_the_checked_subregions_keep_a_gap(lam, low, up):
    # one odd eigenvalue, negative, with the others positive: neither of the
    # sub-regions where the bounds of these families are known to meet
    b = bounds_batch(np.array([lam]))
    assert abs(b.chi_low[0] - low) <= 1e-5 and abs(b.chi_up[0] - up) <= 1e-5
    assert not b.coincide[0] and np.isnan(b.exact_capacity[0])
    assert capacity_bounds(EigenvalueVector(len(lam) - 1, lam)).exact_capacity is None
