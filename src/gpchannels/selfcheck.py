"""Regression battery of the closed-form identities the library implements.

Each check recomputes an identity through at least two code paths (or
against an independent numerical route) and reports pass/fail.  `CHECKS`
is the one registry: the CLI runs it as `verify --suite paper` and the
acceptance tests parametrize over it.

This module is the battery and its fixtures only, and only verify imports
it.  The sampler its checks draw from is channels.sample_cp_eigenvalues,
imported here, so selfcheck.sample_cp_eigenvalues names the same function.
"""

import functools
from typing import Callable, List, NamedTuple

import numpy as np

from .capacity import (
    _transition_row_entropies,
    bounds_batch,
    capacity_from_fidelity,
    channel_fidelity_extremes_rows,
    holevo_upper_bound_weyl,
    zeta_vector,
)
from .channels import (
    EigenvalueVector,
    GeneralizedPauliChannel,
    _cp_rows,
    apply,
    canonical_mub,
    choi_matrix,
    classical_map_t,
    eigenvalues_from_probabilities,
    fujiwara_algoet_margin,
    gpc_to_weyl,
    is_completely_positive,
    kraus_probability_multiset,
    probabilities_from_eigenvalues,
    probability_rows,
    sample_cp_eigenvalues,
    tensor,
)
from .dynamics import (
    RateSpec,
    capacity_trajectory,
    eigenvalue_trajectory,
    non_p_divisible_capacity_witness,
    ode_eigenvalue_oracle,
    p_divisibility_check,
)
from .mub import (
    check_weyl_correspondence,
    prime_power,
    unitary_u,
    weyl_labels,
)

LN2 = float(np.log(2.0))
LN3 = float(np.log(3.0))
LN5 = float(np.log(5.0))

REFERENCE_QUBIT_PROBS = np.array([0.25, 0.5, 0.25, 0.0])
REFERENCE_QUBIT_LAMBDAS = np.array([0.5, 0.0, -0.5])
REFERENCE_CHI_UP = 0.75 * LN3 - LN2
REFERENCE_TWO_COPY_CHI_UP = 15.0 / 16.0 * LN5 - 11.0 / 8.0 * LN2
REFERENCE = GeneralizedPauliChannel(2, REFERENCE_QUBIT_PROBS)
REFERENCE_EIGS = eigenvalues_from_probabilities(REFERENCE)


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str


_REGISTERED: List[Callable[[], CheckResult]] = []


def _check(name: str):
    """Register a check that returns (passed, detail) under its verify name."""
    def register(fn):
        @functools.wraps(fn)
        def run() -> CheckResult:
            passed, detail = fn()
            return CheckResult(name, bool(passed), detail)
        _REGISTERED.append(run)
        return run
    return register


def _rng(position: int):
    # one stream per check, keyed by its 1-based position in CHECKS, so a
    # check draws the same inputs alone or in the suite
    return np.random.default_rng([20240817, position])


def _random_qutrit(rng):
    lam = sample_cp_eigenvalues(3, 1, rng)[0]
    return lam, probabilities_from_eigenvalues(EigenvalueVector(3, lam))


def _constant_rate_trajectory(rates, t_max: float, steps: int):
    """Trajectory under constant rates and its deviation from the closed form
    lambda_a(t) = exp(-(G - g_a) t), G the sum of the rates."""
    traj = capacity_trajectory(
        eigenvalue_trajectory(RateSpec.constant(*rates), t_max, steps))
    g = np.asarray(rates)
    expect = np.exp(-np.outer(traj.times, g.sum() - g))
    return traj, float(np.max(np.abs(traj.lambdas - expect)))


@_check("probability/eigenvalue map round trip")
def check_round_trip():
    back = probabilities_from_eigenvalues(REFERENCE_EIGS)
    err = max(
        np.max(np.abs(REFERENCE_EIGS.values - REFERENCE_QUBIT_LAMBDAS)),
        np.max(np.abs(back.probabilities - REFERENCE_QUBIT_PROBS)),
    )
    return err <= 1e-12, f"max error {err:.2e}"


@_check("reference channel on the CP boundary")
def check_reference_on_cp_boundary():
    margin = fujiwara_algoet_margin(REFERENCE_EIGS)
    ok = is_completely_positive(REFERENCE_EIGS) and abs(margin) <= 1e-12
    return ok, f"margin {margin:.2e}"


# the prime powers on which the basis construction is checked
BASIS_DIMS = (2, 3, 4, 5, 7, 8, 9)


@_check("displacement label sets commute and partition")
def check_label_sets_partition():
    bad = []
    for d in BASIS_DIMS:
        p, n = prime_power(d)
        labels = weyl_labels(d)
        digits = np.stack(np.unravel_index(labels, (p,) * (2 * n)), axis=-1)
        a, b = digits[..., 0::2], digits[..., 1::2]
        form = (np.einsum("sxi,syi->sxy", b, a) - np.einsum("sxi,syi->sxy", a, b)) % p
        if form.any() or not np.array_equal(np.sort(labels, axis=None),
                                            np.arange(1, d * d)):
            bad.append(d)
    return not bad, f"d in {BASIS_DIMS}, failing {bad}"


@_check("bases diagonalize their displacement labels")
def check_displacement_correspondence():
    bad = [d for d in BASIS_DIMS if not check_weyl_correspondence(canonical_mub(d))]
    return not bad, f"d in {BASIS_DIMS}, failing {bad}"


@_check("constructed bases are unbiased")
def check_bases_unbiased():
    # a MubSet passed verify_mub when it was made; these overlaps are a second route
    worst = 0.0
    for m in map(canonical_mub, BASIS_DIMS):
        n, d = m.n_bases, m.dimension
        overlaps = np.abs(np.einsum("aik,bjk->abij", m.bases, m.bases.conj())) ** 2
        target = np.where(np.eye(n, dtype=bool)[:, :, None, None], np.eye(d), 1.0 / d)
        worst = max(worst, float(np.max(np.abs(overlaps - target))))
    return worst <= 1e-9, f"max overlap deviation {worst:.2e}"


@_check("basis unitaries are channel eigenvectors")
def check_unitaries_are_eigenvectors():
    lam3, c3 = _random_qutrit(_rng(6))
    m3 = canonical_mub(3)
    worst = 0.0
    for alpha in range(1, 5):
        for k in range(1, 3):
            u = unitary_u(m3, alpha, k)
            worst = max(worst, np.max(np.abs(apply(c3, m3, u) - lam3[alpha - 1] * u)))
    return worst <= 1e-10, f"max error {worst:.2e}"


@_check("basis projectors mix with the stated weights")
def check_projector_weights():
    lam3, c3 = _random_qutrit(_rng(7))
    m3 = canonical_mub(3)
    worst = 0.0
    for alpha in range(1, 5):
        lam = lam3[alpha - 1]
        for k in range(3):
            p_k = m3.projector(alpha, k)
            expect = (1.0 + 2.0 * lam) / 3.0 * p_k + (1.0 - lam) / 3.0 * (np.eye(3) - p_k)
            worst = max(worst, np.max(np.abs(apply(c3, m3, p_k) - expect)))
    return worst <= 1e-10, f"max error {worst:.2e}"


@_check("induced transition matrix value")
def check_transition_matrix():
    t = classical_map_t(EigenvalueVector(2, [0.5, 0.5, 0.5]), 1)
    err = np.max(np.abs(t - np.array([[0.75, 0.25], [0.25, 0.75]])))
    return err <= 1e-12, f"max error {err:.2e}"


@_check("reference upper bound equals (3/4)ln3 - ln2")
def check_reference_upper_bound():
    up_lambda = bounds_batch(REFERENCE_EIGS.values[None, :]).chi_up[0]
    up_weyl = holevo_upper_bound_weyl(gpc_to_weyl(REFERENCE))
    err = max(abs(up_lambda - REFERENCE_CHI_UP), abs(up_weyl - REFERENCE_CHI_UP))
    return err <= 1e-12, f"max error {err:.2e}"


@_check("two-copy grouped weights and upper bound")
def check_two_copy_upper_bound():
    pair = tensor(REFERENCE, REFERENCE)
    zeta = zeta_vector(pair.probabilities)
    up_pair = holevo_upper_bound_weyl(pair)
    err = max(
        np.max(np.abs(zeta - np.array([10.0, 5.0, 1.0, 0.0]) / 16.0)),
        abs(up_pair - REFERENCE_TWO_COPY_CHI_UP),
    )
    gap = up_pair - 2.0 * REFERENCE_CHI_UP
    return (err <= 1e-12 and gap > 1e-3,
            f"max error {err:.2e}, non-additivity gap {gap:.4f}")


@_check("qubit bounds coincide with the closed form")
def check_qubit_bounds_coincide():
    lams = sample_cp_eigenvalues(2, 200, _rng(11))
    b = bounds_batch(lams)
    via = LN2 - _transition_row_entropies(lams).min(axis=1)
    worst = max(np.max(np.abs(b.chi_up - b.chi_low)),
                np.max(np.abs(b.exact_capacity - b.chi_low)),
                np.max(np.abs(via - b.chi_low)))
    return worst <= 1e-9, f"max spread {worst:.2e}"


@_check("one-parameter families give exact capacity")
def check_one_parameter_families():
    rng = _rng(12)
    worst = 0.0
    for d in (3, 5):
        lam_max = rng.uniform(0.0, 1.0, 20)
        lam_min = rng.uniform(0.0, lam_max)
        lam_neg = rng.uniform(-1.0 / (d - 1.0), 0.0, 20)
        lam_mid = rng.uniform(lam_neg, 0.0)
        rows = np.concatenate([np.column_stack([lam_max] + [lam_min] * d),
                               np.column_stack([lam_mid] * d + [lam_neg])])
        keep = _cp_rows(rows)
        b = bounds_batch(rows[keep])
        # the capacity of the odd eigenvalue's basis, via its transition matrix
        odd = np.repeat([0, d], 20)[keep]
        exact = np.log(d) - _transition_row_entropies(rows[keep])[np.arange(odd.size), odd]
        worst = max(worst, np.max(np.abs(b.chi_low - exact)),
                    np.max(np.abs(b.chi_up - b.chi_low)))
    return worst <= 1e-10, f"max error {worst:.2e}"


@_check("lower bound weakly additive on two copies")
def check_lower_bound_weak_additivity():
    rng = _rng(13)
    worst = 0.0
    for d in (2, 3):
        lams = sample_cp_eigenvalues(d, 100, rng)
        direct = 2.0 * np.log(d) - _transition_row_entropies(lams, copies=2).min(axis=1)
        worst = max(worst, np.max(np.abs(direct - 2.0 * bounds_batch(lams).chi_low)))
    return worst <= 1e-10, f"max gap {worst:.2e} on 2x100 channels"


@_check("region conditions agree across parametrizations")
def check_region_conditions():
    lams = sample_cp_eigenvalues(3, 200, _rng(14))
    p = probability_rows(lams)
    left = p[:, :1] - p[:, 1:] / 2.0
    right = lams.sum(axis=1, keepdims=True) - lams
    bad = ((np.abs(right) > 1e-9) & (np.sign(left) != np.sign(right))).any(axis=1)
    return not bad.any(), f"{int(bad.sum())} of {len(lams)} rows disagree"


@_check("Kraus weight multiset structure")
def check_kraus_multiset():
    _, c3 = _random_qutrit(_rng(15))
    mult = kraus_probability_multiset(c3)
    ok = (
        mult.size == 9
        and abs(mult.sum() - 1.0) <= 1e-12
        and abs(mult[0] - c3.probabilities[0]) <= 1e-15
        and np.allclose(mult[1:], np.repeat(c3.probabilities[1:] / 2.0, 2))
    )
    return ok, ""


@_check("fidelity form of the qubit capacity")
def check_fidelity_form():
    lams = sample_cp_eigenvalues(2, 1000, _rng(16))
    f_min, f_max = channel_fidelity_extremes_rows(lams)
    f_star = np.where(np.abs(lams.min(axis=1)) >= lams.max(axis=1), f_min, f_max)
    worst = np.max(np.abs(capacity_from_fidelity(f_star)
                          - bounds_batch(lams).exact_capacity))
    return worst <= 1e-12, f"max error {worst:.2e} on 1000 channels"


@_check("Choi spectrum equals the weight multiset")
def check_choi_spectrum():
    evs = np.sort(np.linalg.eigvalsh(choi_matrix(REFERENCE)))[::-1]
    expect = np.sort(kraus_probability_multiset(REFERENCE))[::-1]
    err = np.max(np.abs(evs - expect))
    return err <= 1e-9, f"max error {err:.2e}"


@_check("Markovian rates keep capacity non-increasing")
def check_markovian_monotone():
    divisible = True
    fixture = rise = mismatch = 0.0
    for rates, t_max, steps in (((0.5, 0.5, 0.5), 3.0, 601),
                                ((0.4, 0.1, 0.0), 3.0, 601),
                                ((0.5, 0.3, 0.2), 4.0, 801)):
        traj, err = _constant_rate_trajectory(rates, t_max, steps)
        divisible = divisible and p_divisibility_check(traj)
        fixture = max(fixture, err)
        rise = max(rise, np.max(np.diff(traj.capacity)))
        # the finite-difference reference is only second order; skip the
        # early window where the capacity still has a steep log-type bend
        mask = traj.cdot_formula_valid & (traj.times >= 0.5)
        mask[-1] = False
        mismatch = max(mismatch, np.max(np.abs(traj.cdot_formula[mask]
                                               - traj.cdot_fd[mask])))
    ok = divisible and fixture <= 1e-12 and rise <= 1e-10 and mismatch <= 1e-4
    return ok, (f"P divisible {divisible}, fixture error {fixture:.2e}, "
                f"max rise {rise:.2e}, derivative mismatch {mismatch:.2e}")


@_check("single-rate dynamics pin capacity at ln 2")
def check_single_rate_plateau():
    traj, fixture = _constant_rate_trajectory((0.7, 0.0, 0.0), 3.0, 201)
    err = np.max(np.abs(traj.capacity - LN2))
    return (err <= 1e-12 and fixture <= 1e-12,
            f"max error {err:.2e}, fixture error {fixture:.2e}")


@_check("quadrature agrees with generator integration")
def check_quadrature_vs_ode():
    witness = non_p_divisible_capacity_witness()
    traj = eigenvalue_trajectory(witness, 3.0, 301)
    err = np.max(np.abs(traj.lambdas - ode_eigenvalue_oracle(witness, 3.0, 301)))
    return err <= 1e-6, f"max error {err:.2e}"


@_check("witness: monotone capacity without P divisibility")
def check_witness():
    traj = capacity_trajectory(
        eigenvalue_trajectory(non_p_divisible_capacity_witness(), 3.0, 301))
    divisible = p_divisibility_check(traj)
    rise = np.max(np.diff(traj.capacity))
    return (not divisible and rise <= 1e-10 and traj.cp_everywhere,
            f"max rise {rise:.2e}, P divisible {divisible}, "
            f"CP everywhere {traj.cp_everywhere}")


# in registration order, which is the order verify prints
CHECKS = tuple(_REGISTERED)


def run_formula_suite() -> List[CheckResult]:
    """Run every registered check, in the order verify prints them."""
    return [check() for check in CHECKS]
