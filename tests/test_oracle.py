import os
import subprocess
import sys

import numpy as np
import pytest

import gpchannels

from gpchannels.capacity import holevo_lower_bound, holevo_upper_bound
from gpchannels.channels import (
    EigenvalueVector,
    GeneralizedPauliChannel,
    canonical_mub,
    eigenvalues_from_probabilities,
    gpc_to_weyl,
    kraus_terms,
    probabilities_from_eigenvalues,
    require_cp,
    superoperator,
)
from gpchannels.errors import NotCompletelyPositiveError
from gpchannels.mub import build_mubs_prime
from gpchannels.selfcheck import sample_cp_eigenvalues
from gpchannels.numerics import von_neumann_entropy
from gpchannels.oracle import (
    SearchConfig,
    SearchResult,
    _angles_to_state,
    _output_entropies,
    _params_to_state,
    _polish,
    _qubit_grid,
    _qubit_grid_projectors,
    additivity_report,
    cp_oracle_choi,
    holevo_estimate,
    min_output_entropy,
    search_output_entropy,
)

REF = GeneralizedPauliChannel(2, [0.25, 0.5, 0.25, 0.0])
REF_CAPACITY = 0.75 * np.log(3.0) - np.log(2.0)


def test_search_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(grid_resolution=4)
    with pytest.raises(ValueError):
        SearchConfig(samples=-1)
    with pytest.raises(ValueError):
        SearchConfig(refinement_iterations=-5)


@pytest.mark.parametrize("field, value", [
    ("grid_resolution", 16.5),
    ("grid_resolution", 16.0),
    ("samples", 32.0),
    ("seed", 1.5),
    ("seed", "3"),
    ("refinement_iterations", 10.0),
    ("refinement_iterations", True),
])
def test_search_config_requires_integers(field, value):
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        SearchConfig(**{field: value})


def test_search_config_accepts_numpy_integers():
    cfg = SearchConfig(grid_resolution=np.int64(16), samples=np.int32(8),
                       seed=np.uint8(3), refinement_iterations=np.int64(5))
    assert min_output_entropy(REF, cfg=cfg) >= 0.0


def test_cp_oracle_matches_margin(cp_sampler, rng):
    for lam in cp_sampler(3, 20, rng):
        c = probabilities_from_eigenvalues(EigenvalueVector(3, lam))
        assert cp_oracle_choi(c)


def test_min_output_entropy_identity_channel():
    c = GeneralizedPauliChannel(2, [1.0, 0.0, 0.0, 0.0])
    assert min_output_entropy(c, cfg=SearchConfig(grid_resolution=16)) == pytest.approx(
        0.0, abs=1e-10)


def test_min_output_entropy_depolarizing_qubit():
    # all-equal eigenvalues: every pure input gives the same output spectrum
    lam = 0.3
    c = probabilities_from_eigenvalues(EigenvalueVector(2, [lam] * 3))
    expect = -((1 + lam) / 2) * np.log((1 + lam) / 2) - ((1 - lam) / 2) * np.log(
        (1 - lam) / 2)
    got = min_output_entropy(c, cfg=SearchConfig(grid_resolution=16))
    assert got == pytest.approx(expect, abs=1e-10)


def test_grid_refinement_never_increases_minimum():
    prev = None
    for res in (16, 32, 64):
        cfg = SearchConfig(grid_resolution=res, refinement_iterations=0)
        val = min_output_entropy(REF, cfg=cfg)
        if prev is not None:
            assert val <= prev + 1e-15  # finer grids contain the coarser points
        prev = val


def test_holevo_estimate_sandwich_qubit(cp_sampler, rng):
    cfg = SearchConfig(grid_resolution=64)
    for lam in cp_sampler(2, 10, rng):
        e = EigenvalueVector(2, lam)
        c = probabilities_from_eigenvalues(e)
        low, _ = holevo_lower_bound(e)
        up, _ = holevo_upper_bound(e)
        est = holevo_estimate(c, cfg=cfg)
        assert est <= up + 1e-9
        assert est >= low - 1e-6


def test_holevo_estimate_reference_channel():
    est = holevo_estimate(REF, cfg=SearchConfig(grid_resolution=128))
    assert est == pytest.approx(REF_CAPACITY, abs=1e-6)


def test_holevo_estimate_qutrit_with_seeded_bases(cp_sampler, rng):
    m = canonical_mub(3)
    cfg = SearchConfig(samples=64, seed=5)
    for lam in cp_sampler(3, 5, rng):
        e = EigenvalueVector(3, lam)
        c = probabilities_from_eigenvalues(e)
        low, _ = holevo_lower_bound(e)
        up, _ = holevo_upper_bound(e)
        est = holevo_estimate(c, m, cfg)
        assert est <= up + 1e-9   # grouped weights majorize every output
        assert est >= low - 1e-6  # the best basis vector is a warm start


def test_min_output_entropy_accepts_weyl_channel():
    w = gpc_to_weyl(REF)
    a = min_output_entropy(w, cfg=SearchConfig(grid_resolution=32))
    b = min_output_entropy(REF, cfg=SearchConfig(grid_resolution=32))
    assert a == pytest.approx(b, abs=1e-12)


def test_additivity_report_reference_channel():
    rep = additivity_report(REF)
    assert rep.dimension == 2
    assert rep.chi_low == pytest.approx(REF_CAPACITY, abs=1e-12)
    assert rep.chi_up == pytest.approx(REF_CAPACITY, abs=1e-12)
    # lower bound is weakly additive, upper bound is not
    assert rep.lower_gap == pytest.approx(0.0, abs=1e-10)
    assert rep.upper_gap < -1e-3
    assert rep.chi_up_tensor == pytest.approx(
        15 / 16 * np.log(5.0) - 11 / 8 * np.log(2.0), abs=1e-12)
    assert rep.chi_grid_estimate is None
    payload = rep.to_json()
    assert payload["d"] == 2
    assert len(payload["tensor_row_entropies"]) == 3


def test_additivity_report_with_estimate():
    rep = additivity_report(REF, SearchConfig(grid_resolution=32))
    assert rep.chi_grid_estimate == pytest.approx(REF_CAPACITY, abs=1e-4)


def test_additivity_lower_gap_vanishes_elsewhere(cp_sampler, rng):
    for d in (2, 3):
        for lam in cp_sampler(d, 10, rng):
            c = probabilities_from_eigenvalues(EigenvalueVector(d, lam))
            rep = additivity_report(c)
            assert abs(rep.lower_gap) < 1e-10


def test_estimate_never_beats_upper_bound_qutrit(cp_sampler, rng):
    # structural: ln d - found entropy <= ln d - H(zeta)
    cfg = SearchConfig(samples=32, seed=11)
    for lam in cp_sampler(3, 5, rng):
        e = EigenvalueVector(3, lam)
        c = probabilities_from_eigenvalues(e)
        up, _ = holevo_upper_bound(e)
        assert holevo_estimate(c, cfg=cfg) <= up + 1e-9


@pytest.mark.parametrize("d", [2, 3, 4, 5])
@pytest.mark.parametrize("route", ["weyl", "mub"])
def test_superoperator_entropies_match_kraus_sum(d, route, cp_sampler):
    rng = np.random.default_rng([20261018, d])
    lam = cp_sampler(d, 1, rng)[0]
    c = probabilities_from_eigenvalues(EigenvalueVector(d, lam))
    m = canonical_mub(d) if route == "mub" else None
    weights, ops = kraus_terms(c, m)
    raw = rng.standard_normal((40, d)) + 1j * rng.standard_normal((40, d))
    states = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    expect = []
    for psi in states:
        rho = np.outer(psi, psi.conj())
        out = sum(w * u @ rho @ u.conj().T for w, u in zip(weights, ops))
        expect.append(von_neumann_entropy(out))
    got = _output_entropies(states, superoperator(c, m))
    assert np.abs(got - np.asarray(expect)).max() <= 1e-12


def test_weyl_channel_rejects_basis_set():
    c3 = probabilities_from_eigenvalues(EigenvalueVector(3, [0.5, 0.2, 0.1, 0.0]))
    cfg = SearchConfig(samples=8, refinement_iterations=0)
    for m in (build_mubs_prime(5), canonical_mub(3)):
        with pytest.raises(ValueError, match="basis set"):
            holevo_estimate(gpc_to_weyl(c3), m, cfg)


def test_holevo_estimate_accepts_channel_within_sum_tolerance():
    # the weights sum to 1 - 5e-10, inside the constructor's tolerance; the
    # eigenvalues miss the Fujiwara-Algoet conditions by 7.5e-10, but weights
    # on unitaries make a channel that is CP by construction
    c = GeneralizedPauliChannel(3, [0.0, 0.4, 0.3, 0.3 - 5e-10, 0.0])
    with pytest.raises(NotCompletelyPositiveError, match="margin -7.500e-10"):
        require_cp(eigenvalues_from_probabilities(c))
    assert cp_oracle_choi(c)
    normalized = GeneralizedPauliChannel(3, c.probabilities / c.probabilities.sum())
    cfg = SearchConfig(samples=32, refinement_iterations=20)
    for m in (None, canonical_mub(3)):
        est = holevo_estimate(c, m, cfg)
        assert abs(est - holevo_estimate(normalized, m, cfg)) <= 1e-8


def test_qubit_grid_is_cached_and_read_only():
    grid = _qubit_grid(16)
    assert _qubit_grid(16) is grid
    assert grid.shape == (17 * 32, 2)
    with pytest.raises(ValueError):
        grid[0, 0] = 0.0
    rho = _qubit_grid_projectors(16)
    assert _qubit_grid_projectors(16) is rho
    assert np.array_equal(rho, [np.outer(psi, psi.conj()).ravel() for psi in grid])
    with pytest.raises(ValueError):
        rho[0, 0] = 0.0


_LAZY_SCIPY = """
import math
import sys
import gpchannels, gpchannels.cli
loaded = sorted(m for m in sys.modules if m.startswith("scipy"))
assert not loaded, loaded
from gpchannels import (GeneralizedPauliChannel, RateSpec, SearchConfig,
                        canonical_mub, holevo_estimate, ode_eigenvalue_oracle)
est = holevo_estimate(GeneralizedPauliChannel(2, [0.25, 0.5, 0.25, 0.0]),
                      cfg=SearchConfig(grid_resolution=16))
assert abs(est - (0.75 * math.log(3.0) - math.log(2.0))) < 1e-6
c3 = GeneralizedPauliChannel(3, [0.4, 0.3, 0.1, 0.1, 0.1])
for m in (None, canonical_mub(3)):
    holevo_estimate(c3, m, SearchConfig(samples=16, refinement_iterations=20))
loaded = sorted(m for m in sys.modules if m.startswith("scipy"))
assert not loaded, loaded  # the polish is numpy, scipy.optimize included
lams = ode_eigenvalue_oracle(RateSpec.constant(0.5, 0.3, 0.2), 1.0, 11)
assert lams.shape == (11, 3)
print("ok")
"""


def test_package_and_cli_import_without_scipy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(gpchannels.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _LAZY_SCIPY], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


def _entropy_objective(d, route):
    """Batch entropy objective of a seeded channel, as the search builds it."""
    rng = np.random.default_rng([20261019, d])
    lam = sample_cp_eigenvalues(d, 1, rng)[0]
    c = probabilities_from_eigenvalues(EigenvalueVector(d, lam))
    sup = superoperator(c, canonical_mub(d) if route == "mub" else None)
    to_state = _angles_to_state if d == 2 else _params_to_state
    return lambda pts: _output_entropies(to_state(pts), sup)


def _scipy_polish(objective, x0, iterations):
    from scipy.optimize import minimize  # reference implementation, tests only

    return minimize(lambda x: objective(x[None, :])[0], x0, method="Nelder-Mead",
                    options={"maxiter": iterations, "xatol": 1e-12, "fatol": 1e-14})


def _assert_polish_matches_scipy(objective, x0, iterations):
    x, fun, nit, converged = _polish(objective, x0, SearchConfig(
        refinement_iterations=iterations))
    for i, start in enumerate(x0):
        res = _scipy_polish(objective, start, iterations)
        assert nit[i] == res.nit
        assert converged[i] == (res.status == 0)
        assert abs(fun[i] - res.fun) <= 1e-12
        assert np.abs(x[i] - res.x).max() <= 1e-12


@pytest.mark.parametrize("d", [2, 3, 4, 5])
@pytest.mark.parametrize("route", ["weyl", "mub"])
def test_polish_matches_scipy_nelder_mead(d, route):
    objective = _entropy_objective(d, route)
    rng = np.random.default_rng([20261020, d])
    x0 = rng.standard_normal((3, 2 if d == 2 else 2 * d))
    x0[0, 0] = 0.0  # a zero coordinate takes the 0.00025 simplex step
    _assert_polish_matches_scipy(objective, x0, 200)


def test_polish_matches_scipy_through_shrink_steps():
    objective = _entropy_objective(2, "weyl")
    sizes = []

    def counting(pts):
        sizes.append(len(pts))
        return objective(pts)

    x0 = np.array([[0.3, 1.1]])
    _assert_polish_matches_scipy(counting, x0, 200)
    # one start, two coordinates: the candidate calls have 4 rows, a shrink 2
    assert 2 in sizes


def test_polish_single_iteration_keeps_initial_simplex():
    objective = _entropy_objective(3, "mub")
    x0 = np.random.default_rng(20261021).standard_normal((3, 6))
    _assert_polish_matches_scipy(objective, x0, 1)
    _, fun, nit, converged = _polish(objective, x0, SearchConfig(refinement_iterations=1))
    assert list(nit) == [1, 1, 1] and not converged.any()


@pytest.mark.parametrize("d", [2, 3, 5])
def test_polish_starts_do_not_interact(d):
    objective = _entropy_objective(d, "weyl")
    x0 = np.random.default_rng([20261022, d]).standard_normal((3, 2 if d == 2 else 2 * d))
    cfg = SearchConfig(refinement_iterations=150)
    x, fun, nit, converged = _polish(objective, x0, cfg)
    for i in range(3):
        xi, fi, ni, ci = _polish(objective, x0[i:i + 1], cfg)
        assert abs(fun[i] - fi[0]) <= 1e-14
        assert np.abs(x[i] - xi[0]).max() <= 1e-14
        assert nit[i] == ni[0] and converged[i] == ci[0]


def test_params_to_state_rows_and_tiny_norm_fallback():
    x = np.array([[3.0, 0.0, 0.0, 4.0], [1e-13, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]])
    states = _params_to_state(x)
    assert np.allclose(states[0], [0.6, 0.8j], atol=1e-15)
    assert np.array_equal(states[1:], [[1.0, 0.0], [1.0, 0.0]])
    angles = _angles_to_state(np.array([[0.0, 1.0], [np.pi, 0.5]]))
    assert np.allclose(angles, [[1.0, 0.0], [0.0, np.exp(0.5j)]], atol=1e-15)


def test_output_entropies_do_not_depend_on_batch():
    objective = _entropy_objective(3, "weyl")
    pts = np.random.default_rng(20261023).standard_normal((9, 6))
    whole = objective(pts)
    assert np.array_equal(whole, np.concatenate([objective(pts[i:i + 1]) for i in range(9)]))
    assert np.array_equal(whole, np.concatenate([objective(pts[:4]), objective(pts[4:])]))


def _kraus_entropy(channel, m, state):
    weights, ops = kraus_terms(channel, m)
    rho = np.outer(state, state.conj())
    return von_neumann_entropy(sum(w * u @ rho @ u.conj().T for w, u in zip(weights, ops)))


def test_search_output_entropy_reference_qubit():
    cfg = SearchConfig(grid_resolution=64)
    res = search_output_entropy(REF, cfg=cfg)
    assert isinstance(res, SearchResult)
    assert res.entropy == min_output_entropy(REF, cfg=cfg)
    assert res.entropy == min(res.grid_entropy, res.polished_entropy)
    assert np.log(2.0) - res.entropy == pytest.approx(REF_CAPACITY, abs=1e-9)
    assert res.polished_entropy <= res.grid_entropy  # polished from the grid minimum
    assert res.state.shape == (2,)
    assert np.linalg.norm(res.state) == pytest.approx(1.0, abs=1e-15)
    assert _kraus_entropy(REF, None, res.state) == pytest.approx(res.entropy, abs=1e-12)
    assert len(res.iterations) == len(res.converged) == 1
    assert 1 < res.iterations[0] < cfg.refinement_iterations
    assert res.converged == (True,)


def test_search_output_entropy_without_polish_and_with_three_starts():
    res = search_output_entropy(REF, cfg=SearchConfig(grid_resolution=64,
                                                      refinement_iterations=0))
    assert res.polished_entropy is None and res.entropy == res.grid_entropy
    assert res.iterations == () and res.converged == ()
    grid = _qubit_grid(64)
    assert any(np.array_equal(res.state, row) for row in grid)
    # the best basis is the second one, which no start on this route contains
    c3 = probabilities_from_eigenvalues(EigenvalueVector(3, [0.1, 0.5, 0.2, 0.0]))
    cfg = SearchConfig(samples=16, refinement_iterations=30)
    res = search_output_entropy(c3, None, cfg)
    assert len(res.iterations) == len(res.converged) == 3
    assert all(1 < it <= 30 for it in res.iterations)
    assert res.polished_entropy < res.grid_entropy  # the state is the polished one
    assert res.state.shape == (3,)
    assert np.linalg.norm(res.state) == pytest.approx(1.0, abs=1e-15)
    assert _kraus_entropy(c3, None, res.state) == pytest.approx(res.entropy, abs=1e-12)
