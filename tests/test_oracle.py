import logging
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import gpchannels

from gpchannels.capacity import bounds_batch, holevo_lower_bound, holevo_upper_bound
from gpchannels.channels import (
    EigenvalueVector,
    GeneralizedPauliChannel,
    WeylChannel,
    canonical_mub,
    choi_matrix,
    cp_rows,
    eigenvalues_from_probabilities,
    fujiwara_algoet_margin,
    gpc_to_weyl,
    kraus_superoperator,
    kraus_terms,
    probabilities_from_eigenvalues,
    require_cp,
    sample_cp_eigenvalues,
    superoperator,
    tensor,
)
from gpchannels.errors import NotCompletelyPositiveError
from gpchannels.mub import build_mubs, prime_power
from gpchannels.numerics import CLAMP_TOL
from gpchannels.oracle import (
    SearchConfig,
    SearchResult,
    _gradient_matrices,
    _output_entropies,
    _pauli_transfer,
    _polish,
    _qubit_grid,
    _qubit_grid_bloch,
    cp_oracle_choi,
    holevo_estimate,
    search_output_entropy,
)
from references import von_neumann_entropy

REF = GeneralizedPauliChannel(2, [0.25, 0.5, 0.25, 0.0])
REF_CAPACITY = 0.75 * np.log(3.0) - np.log(2.0)


def test_search_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(grid_resolution=4)
    with pytest.raises(ValueError):
        SearchConfig(samples=-1)
    with pytest.raises(ValueError):
        SearchConfig(refinement_iterations=-5)
    with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
        SearchConfig(seed=-1)


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
    assert search_output_entropy(REF, cfg=cfg).entropy >= 0.0


def test_cp_oracle_matches_margin(cp_sampler, rng):
    for lam in cp_sampler(3, 20, rng):
        c = probabilities_from_eigenvalues(EigenvalueVector(3, lam))
        assert cp_oracle_choi(c)


@pytest.mark.parametrize("d", (8, 9))
def test_cp_oracle_matches_margin_on_prime_powers(d):
    # probabilities, not eigenvalue rows: zeroing weights puts rows 4-7 on
    # the CP boundary
    rng = np.random.default_rng([20261018, d])
    probs = rng.dirichlet(np.ones(d + 2), size=8)
    probs[4:6, 0] = 0.0
    probs[6:, 1:3] = 0.0
    probs /= probs.sum(axis=1, keepdims=True)
    for i, p in enumerate(probs):
        c = GeneralizedPauliChannel(d, p)
        margin = fujiwara_algoet_margin(eigenvalues_from_probabilities(c))
        choi_min = np.linalg.eigvalsh(choi_matrix(c)).min()
        assert cp_oracle_choi(c) and margin >= -CLAMP_TOL
        if i >= 4:  # a zero weight puts the channel on the CP boundary
            assert abs(margin) <= 1e-12 and abs(choi_min) <= 1e-12
        else:
            assert margin > 1e-6 and choi_min > 1e-9


def test_min_output_entropy_identity_channel():
    c = GeneralizedPauliChannel(2, [1.0, 0.0, 0.0, 0.0])
    res = search_output_entropy(c, cfg=SearchConfig(grid_resolution=16))
    assert res.entropy == pytest.approx(0.0, abs=1e-10)


@pytest.mark.parametrize("d", [2, 3])
def test_identity_channel_output_entropy_is_positive_zero(d):
    # a pure output's entropy is +0.0: 0 minus the x ln x sum, not its negation
    identity = GeneralizedPauliChannel(d, [1.0] + [0.0] * (d + 1))
    entropy = search_output_entropy(identity).entropy
    assert entropy == 0.0 and math.copysign(1.0, entropy) == 1.0


def test_min_output_entropy_depolarizing_qubit():
    # all-equal eigenvalues: every pure input gives the same output spectrum
    lam = 0.3
    c = probabilities_from_eigenvalues(EigenvalueVector(2, [lam] * 3))
    expect = -((1 + lam) / 2) * np.log((1 + lam) / 2) - ((1 - lam) / 2) * np.log(
        (1 - lam) / 2)
    got = search_output_entropy(c, cfg=SearchConfig(grid_resolution=16)).entropy
    assert got == pytest.approx(expect, abs=1e-10)


def test_grid_refinement_never_increases_minimum():
    prev = None
    for res in (16, 32, 64):
        cfg = SearchConfig(grid_resolution=res, refinement_iterations=0)
        val = search_output_entropy(REF, cfg=cfg).entropy
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
    a = search_output_entropy(w, cfg=SearchConfig(grid_resolution=32)).entropy
    b = search_output_entropy(REF, cfg=SearchConfig(grid_resolution=32)).entropy
    assert a == pytest.approx(b, abs=1e-12)


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
    for m in (build_mubs(5), canonical_mub(3)):
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


_PAULIS = (np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]),
           np.array([[1, 0], [0, -1]]))


def _bloch(rho):
    return np.array([np.trace(s @ rho).real for s in _PAULIS])


def _random_unitaries(k, rng):
    return np.linalg.qr(rng.standard_normal((k, 2, 4)).view(complex))[0]


def test_qubit_grid_is_cached_and_read_only():
    grid = _qubit_grid(16)
    assert _qubit_grid(16) is grid
    assert grid.shape == (17 * 32, 2)
    with pytest.raises(ValueError):
        grid[0, 0] = 0.0
    bloch = _qubit_grid_bloch(16)
    assert _qubit_grid_bloch(16) is bloch
    expect = [[(psi.conj() @ s @ psi).real for s in _PAULIS] for psi in grid]
    assert np.abs(bloch.T - expect).max() <= 1e-15
    with pytest.raises(ValueError):
        bloch[0, 0] = 0.0


def test_pauli_transfer_maps_bloch_vectors():
    # random unitaries, not Paulis: T is then not symmetric, so a transposed
    # T would fail here, which a Pauli channel's diagonal T cannot show
    rng = np.random.default_rng(20261115)
    for k in (1, 2, 3, 5):
        weights = rng.dirichlet(np.ones(k))
        ops = _random_unitaries(k, rng)
        t = _pauli_transfer(kraus_superoperator(weights, ops))[1:, 1:]
        assert np.abs(t - t.T).max() > 0.05
        for psi in _random_states(6, 2, [20261116, k]):
            rho = np.outer(psi, psi.conj())
            out = sum(w * u @ rho @ u.conj().T for w, u in zip(weights, ops))
            got = t @ _bloch(rho)
            assert np.abs(got - _bloch(out)).max() <= 1e-14
            assert abs(got @ got - _bloch(out) @ _bloch(out)) <= 1e-14


@pytest.mark.parametrize("route", ["weyl", "mub", "asymmetric"])
def test_pauli_transfer_is_trace_preserving_and_unital(route):
    # the purity ranking reads only the 3 x 3 block: it needs T's trace row
    # and column to be (1, 0, 0, 0)
    for seed in range(5):
        t = _pauli_transfer(superoperator(*_seeded_channel(2, route, [20261117, seed])))
        assert np.abs(t[0] - [1, 0, 0, 0]).max() <= 1e-15
        assert np.abs(t[:, 0] - [1, 0, 0, 0]).max() <= 1e-15


_PURITY_EDGES = [
    [1.0, 1.0, 1.0],      # the identity: every output pure
    [1.0, 0.3, 0.3],      # lambda = 1 edges
    [1.0, -1.0, -1.0],
    [-1.0, 0.4, -0.4],    # lambda = -1 entries, on the CP boundary
    [-0.6, -0.4, 0.0],    # zero weights: p = (0, 0.2, 0.3, 0.5)
    [1.0, 0.0, 0.0],      # p = (0.5, 0.5, 0, 0)
    [0.3, 0.3, 0.3],      # depolarizing ties
    [0.0, 0.0, 0.0],
    [-1 / 3, -1 / 3, -1 / 3],
    [0.5, 0.5, 0.1],
]


@pytest.mark.parametrize("resolution", [16, 64, 256])
def test_purity_ranked_grid_entropy_is_the_grid_minimum(resolution):
    grid = _qubit_grid(resolution)
    rho = (grid[:, :, None] * grid.conj()[:, None, :]).reshape(-1, 4)
    cfg = SearchConfig(grid_resolution=resolution, refinement_iterations=0)
    for lam in _PURITY_EDGES:
        c = probabilities_from_eigenvalues(EigenvalueVector(2, lam))
        # U rho U^dagger is (U (x) conj(U)) vec(rho) on row-major vec
        sup = sum(w * np.kron(u, u.conj()) for w, u in zip(*kraus_terms(c)))
        evs = np.clip(np.linalg.eigvalsh((rho @ sup.T).reshape(-1, 2, 2)), 0.0, None)
        ents = -np.sum(evs * np.log(np.where(evs > 0.0, evs, 1.0)), axis=1)
        res = search_output_entropy(c, None, cfg)
        assert abs(res.grid_entropy - ents.min()) <= 1e-14, lam


_LAZY_SCIPY = """
import math
import sys
import gpchannels, gpchannels.cli
loaded = sorted(m for m in sys.modules if m.startswith("scipy"))
assert not loaded, loaded
from gpchannels import (GeneralizedPauliChannel, RateSpec, SearchConfig,
                        canonical_mub, cp_oracle_choi, holevo_estimate,
                        ode_eigenvalue_oracle, tensor)
est = holevo_estimate(GeneralizedPauliChannel(2, [0.25, 0.5, 0.25, 0.0]),
                      cfg=SearchConfig(grid_resolution=16))
assert abs(est - (0.75 * math.log(3.0) - math.log(2.0))) < 1e-6
c3 = GeneralizedPauliChannel(3, [0.4, 0.3, 0.1, 0.1, 0.1])
for m in (None, canonical_mub(3)):
    holevo_estimate(c3, m, SearchConfig(samples=16, refinement_iterations=20))
loaded = sorted(m for m in sys.modules if m.startswith("scipy"))
assert not loaded, loaded  # the polish is numpy, scipy.optimize included
assert cp_oracle_choi(c3) and cp_oracle_choi(tensor(c3, c3))
loaded = sorted(m for m in sys.modules if m.startswith("scipy"))
assert not loaded, loaded  # the Choi oracle is numpy too
lams = ode_eigenvalue_oracle(RateSpec.constant(0.5, 0.3, 0.2), 1.0, 11)
assert lams.shape == (11, 3)
loaded = sorted(m for m in sys.modules if m.startswith("scipy"))
assert not loaded, loaded  # the ODE oracle's integrator is numpy as well
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


_BLOCKED_SCIPY = """
import sys
sys.modules["scipy"] = None  # any import of scipy or a submodule now fails
from gpchannels.cli import main
sys.exit(main(["verify", "--suite", "paper"]))
"""


def test_verify_runs_with_scipy_blocked():
    src = os.path.dirname(os.path.dirname(os.path.abspath(gpchannels.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _BLOCKED_SCIPY], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "21/21 checks passed"


def _seeded_channel(d, route, seed):
    """(channel, basis set) of a seeded channel on one Kraus route.

    "asymmetric" is a WeylChannel with random weights on every displacement
    product; unlike a generalized Pauli channel's, its Phi is not
    self-adjoint, so it tells Phi^dagger from Phi.
    """
    rng = np.random.default_rng(seed)
    if route == "asymmetric":
        return WeylChannel(*prime_power(d), rng.dirichlet(np.ones(d * d))), None
    lam = sample_cp_eigenvalues(d, 1, rng)[0]
    c = probabilities_from_eigenvalues(EigenvalueVector(d, lam))
    return c, canonical_mub(d) if route == "mub" else None


def _seeded_sup(d, route):
    """Superoperator of a seeded channel, as the search builds it."""
    return superoperator(*_seeded_channel(d, route, [20261019, d]))


def _random_states(n, d, seed):
    raw = np.random.default_rng(seed).standard_normal((n, 2 * d)).view(complex)
    return raw / np.linalg.norm(raw, axis=1, keepdims=True)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
@pytest.mark.parametrize("route", ["weyl", "mub", "asymmetric"])
def test_gradient_matrices_use_the_adjoint_channel(d, route):
    c, m = _seeded_channel(d, route, [20261024, d])
    sup = superoperator(c, m)
    rng = np.random.default_rng([20261025, d])
    # <Y, Phi(X)> = <Phi^dagger(Y), X> with Phi = rows @ sup.T and
    # Phi^dagger = rows @ sup.conj() on row-major vec rows
    x, y = (rng.standard_normal((5, 2 * d * d)).view(complex) for _ in range(2))
    lhs = np.sum(y.conj() * (x @ sup.T), axis=1)
    rhs = np.sum((y @ sup.conj()).conj() * x, axis=1)
    assert np.abs(lhs - rhs).max() <= 1e-12
    # A = sum_k w_k U_k^dagger log(Phi(psi psi^dagger)) U_k
    weights, ops = kraus_terms(c, m)
    states = _random_states(4, d, [20261028, d])
    got = _gradient_matrices(states, sup)
    for psi, a in zip(states, got):
        rho = np.outer(psi, psi.conj())
        w, v = np.linalg.eigh(sum(wk * u @ rho @ u.conj().T for wk, u in zip(weights, ops)))
        log_out = (v * np.log(w)) @ v.conj().T
        expect = sum(wk * u.conj().T @ log_out @ u for wk, u in zip(weights, ops))
        assert np.abs(a - expect).max() <= 1e-12


@pytest.mark.parametrize("d", [2, 3, 5])
@pytest.mark.parametrize("route", ["weyl", "mub", "asymmetric"])
def test_each_polish_step_lowers_entropy_by_its_gap(d, route):
    sup = _seeded_sup(d, route)
    states = _random_states(3, d, [20261026, d])
    before = _output_entropies(states, sup)
    for _ in range(25):
        states, iterations, converged, gaps = _polish(states, sup, 1)
        after = _output_entropies(states, sup)
        assert list(iterations) == [1, 1, 1]
        assert np.all(gaps >= -1e-14)
        moved = ~converged  # a certified start stays where it is
        assert np.all(after[moved] <= before[moved] - gaps[moved] + 1e-14)
        assert np.array_equal(after[converged], before[converged])
        before = after


@pytest.mark.parametrize("d", [2, 3, 5, 7, 9])
def test_polish_certifies_pure_outputs_at_once(d):
    # the identity channel: every output is pure and every state stationary;
    # the clamped zero eigenvalues must not blow the gap's rounding past 1e-13
    sup = superoperator(GeneralizedPauliChannel(d, [1.0] + [0.0] * (d + 1)), None)
    states = _random_states(20, d, [20261027, d])
    final, nit, converged, gaps = _polish(states, sup, 5)
    assert np.array_equal(final, states)
    assert np.all(nit == 1) and converged.all() and np.abs(gaps).max() <= 1e-13


@pytest.mark.parametrize("d", [2, 3, 5])
def test_polish_starts_do_not_interact(d):
    sup = _seeded_sup(d, "weyl")
    states = _random_states(3, d, [20261022, d])
    final, nit, converged, gaps = _polish(states, sup, 150)
    for i in range(3):
        fi, ni, ci, gi = _polish(states[i:i + 1], sup, 150)
        assert np.array_equal(final[i], fi[0])
        assert nit[i] == ni[0] and converged[i] == ci[0] and gaps[i] == gi[0]


def _scipy_nelder_mead(sup, state, iterations):
    """scipy's Nelder-Mead on the output entropy, over (Re psi, Im psi)."""
    from scipy.optimize import minimize  # reference implementation, tests only

    d = state.shape[0]

    def objective(x):
        psi = x[:d] + 1j * x[d:]
        return _output_entropies((psi / np.linalg.norm(psi))[None, :], sup)[0]

    x0 = np.concatenate([state.real, state.imag])
    return minimize(objective, x0, method="Nelder-Mead",
                    options={"maxiter": iterations, "xatol": 1e-12, "fatol": 1e-14}).fun


@pytest.mark.scipy_reference
@pytest.mark.parametrize("d", [2, 3, 4, 5])
@pytest.mark.parametrize("route", ["weyl", "mub"])
def test_polish_matches_scipy_nelder_mead(d, route):
    # from the same starts, the polish at 200 iterations ends no higher than
    # scipy's Nelder-Mead at 200, and Nelder-Mead started at a polished state
    # finds nothing lower: the certified states are local minima
    sup = _seeded_sup(d, route)
    states = _random_states(3, d, [20261020, d])
    final, nit, converged, gaps = _polish(states, sup, 200)
    assert converged.all() and np.all(nit < 200)
    polished = _output_entropies(final, sup)
    for start, state, entropy in zip(states, final, polished):
        assert entropy <= _scipy_nelder_mead(sup, start, 200) + 1e-12
        assert _scipy_nelder_mead(sup, state, 400) >= entropy - 1e-12


def test_output_entropies_do_not_depend_on_batch():
    sup = _seeded_sup(3, "weyl")
    states = _random_states(9, 3, 20261023)
    whole = _output_entropies(states, sup)
    singles = [_output_entropies(states[i:i + 1], sup) for i in range(9)]
    assert np.array_equal(whole, np.concatenate(singles))
    halves = [_output_entropies(states[:4], sup), _output_entropies(states[4:], sup)]
    assert np.array_equal(whole, np.concatenate(halves))


# The hard set: channels whose minimum output entropy is not attained on a
# basis vector.  The 3 widest-gap (chi_up - chi_low) rows of 4000 qutrit rows
# drawn with default_rng(5) by the sampler that sample_cp_eigenvalues used
# before it mapped Dirichlet rows (uniform on the eigenvalue box, kept where
# CP), and the 2 widest-gap rows of each two-value family (k eigenvalues mu,
# the other d + 1 - k lambda, on the CP part of a 121 x 121 grid of
# [-1/(d-1), 1]^2) at (d, k) = (4, 2), (5, 2) and (5, 3).  The entropies are the lockstep Nelder-Mead search's at
# refinement_iterations=5000 on the (Weyl, basis-set) routes, where every
# start had converged.
HARD_SET = [
    (3, [-0.3205384413357397, 0.34021340114905363, 0.32853609817611895,
         -0.3198565631237488], (0.9702479505794932, 0.9702479505794932)),
    (3, [-0.4447580106720623, -0.03855795897890979, -0.43761279988916246,
         0.5852651237596704], (0.7812557501537478, 0.7812557501537478)),
    (3, [-0.32005316353387436, 0.31186821010120014, 0.34469846568405227,
         -0.3065123844411158], (0.9735909790709287, 0.973590979070929)),
    (4, [0.35555555555555546] * 2 + [-0.28888888888888886] * 3,
     (1.0975129255657454, 1.0975129255657454)),
    (4, [0.36666666666666664] * 2 + [-0.26666666666666666] * 3,
     (1.0961509758519725, 1.0961509758519725)),
    (5, [0.375] * 2 + [-0.25] * 4, (1.3407783707986003, 1.3407783707986005)),
    (5, [0.38541666666666663] * 2 + [-0.22916666666666666] * 4,
     (1.3408329971517934, 1.3408329971517934)),
    (5, [-0.1875] * 3 + [0.20833333333333331] * 3,
     (1.5154948864097684, 1.5154948864097684)),
    (5, [0.20833333333333331] * 3 + [-0.1875] * 3,
     (1.5076723069698277, 1.5076723069698277)),
]


def _hard_channel(row):
    d, lam, _ = HARD_SET[row]
    return probabilities_from_eigenvalues(EigenvalueVector(d, lam))


@pytest.mark.parametrize("route", ["weyl", "mub"])
def test_search_reaches_hard_set_minima(route):
    for row, (d, _, expect) in enumerate(HARD_SET):
        m = canonical_mub(d) if route == "mub" else None
        res = search_output_entropy(_hard_channel(row), m)
        reference = expect[route == "mub"]
        assert abs(res.entropy - reference) <= 1e-10, (row, res.entropy - reference)


def test_unconverged_search_logs_a_warning(caplog):
    with caplog.at_level(logging.WARNING, logger="gpchannels"):
        res = search_output_entropy(_hard_channel(0), cfg=SearchConfig(
            refinement_iterations=1))
    assert res.converged == (False, False, False)
    [record] = caplog.records
    assert record.name == "gpchannels.oracle" and record.levelno == logging.WARNING
    message = record.getMessage()
    assert "d=3" in message and "after 1 iterations" in message and "gap" in message
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="gpchannels"):
        res = search_output_entropy(_hard_channel(0))
    assert caplog.records == [] and all(res.converged)


@pytest.mark.parametrize("d", [3, 5, 7])
def test_search_does_not_warn_when_a_warm_start_holds_the_minimum(d, caplog):
    # near-identity dephasing: a basis vector has output entropy 0, while the
    # polished random starts stop uncertified on the flat landscape around it
    p = np.zeros(d + 2)
    p[:2] = 0.999, 0.001
    c = GeneralizedPauliChannel(d, p)
    for m in (None, canonical_mub(d)):
        with caplog.at_level(logging.WARNING, logger="gpchannels"):
            res = search_output_entropy(c, m, SearchConfig(samples=16))
        assert res.entropy == res.grid_entropy == 0.0 < res.polished_entropy
        assert not any(res.converged)
    assert caplog.records == []


@pytest.mark.parametrize("d", [3, 4, 5, 7, 8, 9])
def test_both_routes_share_their_warm_starts(d):
    # the vectors of canonical_mub(d) on both routes: degenerate eigenspaces
    # of prime-power displacement products get the basis vectors, not the
    # arbitrary eigenbasis of an eig, and the best of them attains chi_low
    m = canonical_mub(d)
    cfg = SearchConfig(samples=0, refinement_iterations=0)
    lams = sample_cp_eigenvalues(d, 20, np.random.default_rng([17, d]))
    for lam, low in zip(lams, bounds_batch(lams).chi_low):
        c = probabilities_from_eigenvalues(EigenvalueVector(d, lam))
        weyl = search_output_entropy(c, None, cfg).grid_entropy
        assert abs(weyl - search_output_entropy(c, m, cfg).grid_entropy) <= 1e-12
        assert abs(np.log(d) - weyl - low) <= 1e-12


def test_displacement_route_reaches_chi_low_at_d9():
    # a vector of the best basis attains chi_low, and it is a warm start
    lams = sample_cp_eigenvalues(9, 8, np.random.default_rng([7, 9]))
    est = [holevo_estimate(probabilities_from_eigenvalues(EigenvalueVector(9, lam)))
           for lam in lams]
    assert np.min(est - bounds_batch(lams).chi_low) >= -1e-12


def _coinciding_rows(d, count):
    # one eigenvalue the largest, the others equal and >= 0: the bounds meet
    rng = np.random.default_rng([5, d])
    rows = []
    while len(rows) < count:
        b = rng.uniform(0.0, 0.4)
        lam = np.full(d + 1, b)
        lam[rng.integers(d + 1)] = rng.uniform(b, 1.0)
        if cp_rows(lam[None])[0]:
            rows.append(lam)
    return np.array(rows)


@pytest.mark.parametrize("d, lams", [
    (2, sample_cp_eigenvalues(2, 12, np.random.default_rng(5))),
    (3, _coinciding_rows(3, 6)),
    (4, _coinciding_rows(4, 6)),
], ids=["d2", "d3", "d4"])
def test_two_copy_search_is_twice_the_capacity(d, lams):
    # chi(Phi (x) Phi) = 2 chi(Phi): King's additivity for unital qubit
    # channels, and weak additivity of chi_low where the bounds meet
    b = bounds_batch(lams)
    assert b.coincide.all()
    cfg = SearchConfig(samples=1000, refinement_iterations=500, seed=3)
    for lam, chi in zip(lams, b.exact_capacity):
        c = probabilities_from_eigenvalues(EigenvalueVector(d, lam))
        assert abs(holevo_estimate(tensor(c, c), cfg=cfg) - 2.0 * chi) <= 1e-12


@pytest.mark.parametrize("d", [3, 4, 5, 8, 9])
def test_basis_warm_starts_match_the_eig_route(d):
    # the basis vectors in place of the d^3 eigenvectors of every basis-set
    # Kraus operator: the best warm start keeps its entropy
    m = canonical_mub(d)
    cfg = SearchConfig(samples=0, refinement_iterations=0)
    for lam in sample_cp_eigenvalues(d, 10, np.random.default_rng([20261119, d])):
        c = probabilities_from_eigenvalues(EigenvalueVector(d, lam))
        weights, ops = kraus_terms(c, m)
        vecs = np.linalg.eig(ops)[1].transpose(0, 2, 1).reshape(-1, d)
        vecs = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
        old = _output_entropies(vecs, kraus_superoperator(weights, ops)).min()
        assert abs(search_output_entropy(c, m, cfg).grid_entropy - old) <= 1e-15


def test_search_builds_the_kraus_set_once(monkeypatch):
    calls = []

    def counted(channel, m=None):
        calls.append(m)
        return kraus_terms(channel, m)

    monkeypatch.setattr(gpchannels.channels, "kraus_terms", counted)
    for m in (None, canonical_mub(3)):
        search_output_entropy(_hard_channel(0), m, SearchConfig(samples=4,
                                                                refinement_iterations=2))
    assert len(calls) == 2


_SILENT = """
from gpchannels import GeneralizedPauliChannel, SearchConfig, search_output_entropy
from gpchannels.cli import main
c = GeneralizedPauliChannel(3, {probs!r})
res = search_output_entropy(c, cfg=SearchConfig(refinement_iterations=1))
assert not any(res.converged)
main(["bounds", "--d", "2", "--lambdas", "0.5,0,-0.5"])
"""


def test_warning_and_cli_are_silent_by_default():
    src = os.path.dirname(os.path.dirname(os.path.abspath(gpchannels.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    script = _SILENT.format(probs=_hard_channel(0).probabilities.tolist())
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout.strip()


def _kraus_entropy(channel, m, state):
    weights, ops = kraus_terms(channel, m)
    rho = np.outer(state, state.conj())
    return von_neumann_entropy(sum(w * u @ rho @ u.conj().T for w, u in zip(weights, ops)))


def test_search_output_entropy_reference_qubit():
    cfg = SearchConfig(grid_resolution=64)
    res = search_output_entropy(REF, cfg=cfg)
    assert isinstance(res, SearchResult)
    assert res.entropy == min(res.grid_entropy, res.polished_entropy)
    assert np.log(2.0) - res.entropy == pytest.approx(REF_CAPACITY, abs=1e-9)
    assert res.polished_entropy <= res.grid_entropy  # polished from the grid minimum
    assert res.state.shape == (2,)
    assert np.linalg.norm(res.state) == pytest.approx(1.0, abs=1e-15)
    assert _kraus_entropy(REF, None, res.state) == pytest.approx(res.entropy, abs=1e-12)
    assert len(res.iterations) == len(res.converged) == 1
    assert res.iterations == (1,)  # the grid minimum is exact; certified at once
    assert res.converged == (True,)


def test_search_output_entropy_without_polish_and_with_three_starts():
    res = search_output_entropy(REF, cfg=SearchConfig(grid_resolution=64,
                                                      refinement_iterations=0))
    assert res.polished_entropy is None and res.entropy == res.grid_entropy
    assert res.iterations == () and res.converged == ()
    grid = _qubit_grid(64)
    assert any(np.array_equal(res.state, row) for row in grid)
    # a hard-set channel: its minimum is not on a basis vector
    c3 = _hard_channel(0)
    cfg = SearchConfig(samples=16, refinement_iterations=30)
    res = search_output_entropy(c3, None, cfg)
    assert len(res.iterations) == len(res.converged) == 3
    assert all(1 < it <= 30 for it in res.iterations)
    assert res.polished_entropy < res.grid_entropy  # the state is the polished one
    assert res.state.shape == (3,)
    assert np.linalg.norm(res.state) == pytest.approx(1.0, abs=1e-15)
    assert _kraus_entropy(c3, None, res.state) == pytest.approx(res.entropy, abs=1e-12)
