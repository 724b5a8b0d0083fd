"""Acceptance gate: every check of `verify --suite paper` (selfcheck.CHECKS)
plus the criteria that verify does not run.  Each test prints a
[PASS]/[FAIL] line with the measured numbers at the pinned tolerances."""

import numpy as np
import pytest

from gpchannels.capacity import (
    _assemble_zeta,
    bounds_batch,
    holevo_lower_bound,
    holevo_upper_bound,
    zeta_components_p_form,
)
from gpchannels.channels import (
    EigenvalueVector,
    GeneralizedPauliChannel,
    _kraus_superoperator,
    canonical_mub,
    eigenvalues_from_probabilities,
    fujiwara_algoet_margin,
    kraus_terms,
    probabilities_from_eigenvalues,
)
from gpchannels.cli import main
from gpchannels.mub import build_mubs
from gpchannels.oracle import SearchConfig, holevo_estimate
from gpchannels.selfcheck import (
    CHECKS,
    REFERENCE,
    REFERENCE_CHI_UP,
    run_formula_suite,
    sample_cp_eigenvalues,
)


def _rng(num):
    # one stream per criterion, so its inputs do not depend on which tests ran
    return np.random.default_rng([20260814, num])


def _report(label, ok, detail):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{tag}] {label}{suffix}")
    assert ok, f"{label} failed{suffix}"


@pytest.mark.parametrize("check", CHECKS, ids=lambda check: check.__name__)
def test_verify_check(check):
    _report(*check())


def test_checks_independent_of_order():
    suite = run_formula_suite()
    assert [check() for check in CHECKS[::-1]][::-1] == suite


def test_criterion_03_bound_ordering_random_channels():
    rng = _rng(3)
    worst_order = -np.inf
    worst_qubit = 0.0
    for d in (2, 3, 4, 5):
        b = bounds_batch(sample_cp_eigenvalues(d, 1000, rng))
        worst_order = max(worst_order, np.max(b.chi_low - b.chi_up))
        if d == 2:
            worst_qubit = np.max(np.abs(b.chi_up - b.chi_low))
    ok = worst_order <= 1e-9 and worst_qubit <= 1e-9
    _report("criterion 03: bound ordering on 4x1000 random channels", ok,
            f"max chi_low-chi_up {worst_order:.3e} <= 1e-9, "
            f"max qubit gap {worst_qubit:.3e} <= 1e-9")


def test_criterion_05_cp_criteria_equivalent():
    rng = _rng(5)
    checked = 0
    agree = True
    one_sided = []
    for d in (2, 3, 4, 5, 7, 8, 9):
        # the operators do not depend on the channel's weights
        flat = GeneralizedPauliChannel(d, np.full(d + 2, 1.0 / (d + 2)))
        ops = kraus_terms(flat, build_mubs(d))[1]
        lo = -1.0 / (d - 1)
        if d <= 3:
            rows = rng.uniform(lo, 1.0, size=(1000, d + 1))
        else:
            # box draws are almost never CP from d = 8 on, so half the rows
            # are drawn from the CP region
            rows = np.concatenate([rng.uniform(lo, 1.0, size=(150, d + 1)),
                                   sample_cp_eigenvalues(d, 150, rng)])
        verdicts = set()
        for lam in rows:
            e = EigenvalueVector(d, lam)
            margin = fujiwara_algoet_margin(e)
            if abs(margin) <= 1e-9:
                continue
            checked += 1
            total = lam.sum()
            p_min = min((1 + (d - 1) * total) / d**2,
                        ((d - 1) * (1 + d * lam - total) / d**2).min())
            # the Choi state from the multipliers, with no p-map: reshuffled,
            # it is the superoperator over d, whose eigenoperators are the
            # Kraus unitaries, with multiplier 1 (identity) or lambda_alpha
            # (basis alpha), so it is the superoperator of the multipliers
            # over d^2 on the same Kraus set
            multipliers = np.concatenate([[1.0], np.repeat(lam, d - 1)])
            choi = _kraus_superoperator(multipliers / d**2, ops)
            choi_min = float(np.linalg.eigvalsh(choi).min())
            agree &= (margin > 0) == (p_min >= 0) == (choi_min >= -1e-9)
            verdicts.add(margin > 0)
        if verdicts != {True, False}:
            one_sided.append(d)
    _report("criterion 05: CP conditions agree across all three criteria",
            agree and not one_sided,
            f"{checked} off-boundary samples at d = 2-9, all consistent; "
            f"d with one verdict only: {one_sided}")


def test_criterion_06_search_estimate_sandwich():
    rng = _rng(6)
    cfg = SearchConfig(grid_resolution=256)
    est_ref = holevo_estimate(REFERENCE, cfg=cfg)
    err_ref = abs(est_ref - REFERENCE_CHI_UP)
    worst_low = np.inf
    worst_up = -np.inf
    for lam in sample_cp_eigenvalues(2, 100, rng):
        e = EigenvalueVector(2, lam)
        c = probabilities_from_eigenvalues(e)
        low, _ = holevo_lower_bound(e)
        up, _ = holevo_upper_bound(e)
        est = holevo_estimate(c, cfg=cfg)
        worst_low = min(worst_low, est - low)
        worst_up = max(worst_up, est - up)
    ok = err_ref <= 1e-4 and worst_low >= -1e-4 and worst_up <= 1e-6
    _report("criterion 06: grid search sandwiched by the closed-form bounds", ok,
            f"reference error {err_ref:.3e} <= 1e-4, "
            f"min est-low {worst_low:.3e} >= -1e-4, "
            f"max est-up {worst_up:.3e} <= 1e-6")


def _sandwich_channels(d):
    # 10 rows at d >= 8, where each search costs most
    lams = sample_cp_eigenvalues(d, 30 if d <= 7 else 10, np.random.default_rng(9))
    return [probabilities_from_eigenvalues(EigenvalueVector(d, lam)) for lam in lams]


@pytest.mark.parametrize("route", ["weyl", "mub"])
@pytest.mark.parametrize("d", [2, 3, 4, 5, 7, 8, 9])
def test_search_sandwiched_on_every_route(d, route):
    channels = _sandwich_channels(d)
    lams = np.array([eigenvalues_from_probabilities(c).values for c in channels])
    b = bounds_batch(lams)
    m = canonical_mub(d) if route == "mub" else None
    est = np.array([holevo_estimate(c, m) for c in channels])
    worst_low = np.min(est - b.chi_low)
    worst_up = np.max(est - b.chi_up)
    ok = worst_low >= -1e-12 and worst_up <= 1e-12
    _report(f"search sandwiched by the bounds, d={d}, {route} route, "
            f"{len(channels)} channels", ok,
            f"min est-low {worst_low:.3e} >= -1e-12, max est-up {worst_up:.3e} <= 1e-12")


@pytest.mark.parametrize("route", ["weyl", "mub"])
def test_search_estimate_above_chi_low_witnesses(route):
    # channels where chi_low is not the capacity: the search finds more
    worst = 0.0
    for lam, expect in (([-1 / 9] + [1 / 6] * 4, 0.038362),
                        ([-0.09375] + [0.125] * 5, 0.029969)):
        d = len(lam) - 1
        c = probabilities_from_eigenvalues(EigenvalueVector(d, lam))
        m = canonical_mub(d) if route == "mub" else None
        worst = max(worst, abs(holevo_estimate(c, m) - expect))
    _report(f"search pins the chi_low < chi witnesses, {route} route", worst <= 1e-5,
            f"max |est - pinned| {worst:.3e} <= 1e-5")


def test_criterion_07_block_forms_agree_and_are_continuous():
    rng = _rng(7)
    worst = 0.0
    for d in (2, 3, 4, 5, 7):
        for lam in sample_cp_eigenvalues(d, 200, rng):
            e = EigenvalueVector(d, lam)
            a = holevo_upper_bound(e)[1]
            b = zeta_components_p_form(probabilities_from_eigenvalues(e))
            if a.region != b.region:
                worst = np.inf
                continue
            worst = max(
                worst,
                np.max(np.abs(a.zeta - b.zeta)),
                np.max(np.abs(a.plain_blocks - b.plain_blocks)),
                np.max(np.abs(a.shifted_blocks - b.shifted_blocks)),
                np.max(np.abs(a.straddle_blocks - b.straddle_blocks)),
            )
    boundary = 0.0
    # dyadic entries keep the boundary sums exact in floating point
    for d, lam, r_lo, r_hi in (
        (3, [0.25, 0.125, -0.0625, -0.1875], 1, 2),
        (3, [0.25, 0.0625, -0.125, -0.3125], 2, 3),
        (4, [0.25, 0.09375, 0.03125, -0.125, -0.21875], 2, 3),
    ):
        comps = holevo_upper_bound(EigenvalueVector(d, lam))[1]
        col = np.arange(1, d + 1)
        blocks = comps.plain_blocks, comps.shifted_blocks, comps.straddle_blocks
        boundary = max(boundary, np.max(np.abs(
            _assemble_zeta(col, r_lo, *blocks) - _assemble_zeta(col, r_hi, *blocks))))
    ok = worst <= 1e-12 and boundary <= 1e-10
    _report("criterion 07: eigenvalue and probability block forms agree", ok,
            f"max form difference {worst:.3e} <= 1e-12, "
            f"max boundary jump {boundary:.3e} <= 1e-10")


def test_criterion_11_cli_verify_and_deterministic_sweep(capsys):
    code = main(["verify", "--suite", "paper"])
    verify_out = capsys.readouterr().out
    n_checks = verify_out.count("[PASS]")
    main(["random-sweep", "--d", "4", "--count", "8", "--seed", "3"])
    first = capsys.readouterr().out
    main(["random-sweep", "--d", "4", "--count", "8", "--seed", "3"])
    second = capsys.readouterr().out
    ok = code == 0 and n_checks >= 15 and first == second and len(first) > 0
    _report("criterion 11: CLI verify suite green and sweep deterministic", ok,
            f"verify exit {code}, {n_checks} checks, sweep byte-identical "
            f"{first == second}")
