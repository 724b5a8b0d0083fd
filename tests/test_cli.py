import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import gpchannels
from gpchannels import channels, selfcheck
from gpchannels.capacity import bounds_batch
from gpchannels.channels import sample_cp_eigenvalues
from gpchannels.cli import build_parser, main

LN2 = np.log(2.0)

VERIFY_CHECK_NAMES = [
    "probability/eigenvalue map round trip",
    "reference channel on the CP boundary",
    "displacement label sets commute and partition",
    "bases diagonalize their displacement labels",
    "constructed bases are unbiased",
    "basis unitaries are channel eigenvectors",
    "basis projectors mix with the stated weights",
    "induced transition matrix value",
    "reference upper bound equals (3/4)ln3 - ln2",
    "two-copy grouped weights and upper bound",
    "qubit bounds coincide with the closed form",
    "one-parameter families give exact capacity",
    "lower bound weakly additive on two copies",
    "region conditions agree across parametrizations",
    "Kraus weight multiset structure",
    "fidelity form of the qubit capacity",
    "Choi spectrum equals the weight multiset",
    "Markovian rates keep capacity non-increasing",
    "single-rate dynamics pin capacity at ln 2",
    "quadrature agrees with generator integration",
    "witness: monotone capacity without P divisibility",
]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bounds_json_keys(capsys):
    code, out, _ = run(capsys, "bounds", "--d", "2", "--lambdas", "0.5,0,-0.5")
    assert code == 0
    payload = json.loads(out)
    assert list(payload) == ["d", "lambdas", "chi_low", "chi_up", "coincide",
                             "capacity", "alpha_star", "units"]
    assert payload["units"] == "nats"
    assert payload["coincide"] is True
    assert payload["capacity"] == pytest.approx(0.75 * np.log(3) - LN2, abs=1e-12)


def test_bounds_accepts_probabilities(capsys):
    code, out, _ = run(capsys, "bounds", "--d", "2", "--probs", "0.25,0.5,0.25,0")
    assert code == 0
    assert json.loads(out)["lambdas"] == pytest.approx([0.5, 0.0, -0.5])


def test_bounds_bits_scaling(capsys):
    _, out_nats, _ = run(capsys, "bounds", "--d", "3", "--lambdas", "0.5,0.2,0.1,0.1")
    _, out_bits, _ = run(capsys, "bounds", "--d", "3", "--lambdas", "0.5,0.2,0.1,0.1",
                         "--bits")
    nats = json.loads(out_nats)
    bits = json.loads(out_bits)
    assert bits["units"] == "bits"
    assert bits["chi_low"] == pytest.approx(nats["chi_low"] / LN2, rel=1e-12)
    assert bits["chi_up"] == pytest.approx(nats["chi_up"] / LN2, rel=1e-12)
    assert bits["capacity"] is None and nats["capacity"] is None


def test_bounds_rejects_noncp(capsys):
    code, _, err = run(capsys, "bounds", "--d", "2", "--lambdas", "0.9,0.9,-0.9")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("command", ["bounds", "zeta"])
def test_capacity_commands_refuse_dimensions_without_basis_set(capsys, command):
    code, out, err = run(capsys, command, "--d", "6", "--lambdas", ",".join(["0.1"] * 7))
    assert (code, out) == (2, "")
    assert err == "error: no basis construction for d=6 (prime power required)\n"


def test_cp_check_reports_bad_sum_as_a_float(capsys):
    code, out, err = run(capsys, "cp-check", "--d", "3", "--probs", "0.2,0.2,0.2,0.2,0.3")
    assert (code, out) == (2, "")
    assert err == "error: probabilities sum to 1.1, expected 1\n"


def test_bounds_rejects_wrong_length(capsys):
    code, _, err = run(capsys, "bounds", "--d", "3", "--lambdas", "0.5,0.2")
    assert code == 2
    assert "eigenvalues" in err


def test_bounds_rejects_garbage_floats(capsys):
    code, _, err = run(capsys, "bounds", "--d", "2", "--lambdas", "a,b,c")
    assert code == 2


def test_channel_group_is_required():
    with pytest.raises(SystemExit) as exc:
        main(["bounds", "--d", "2"])
    assert exc.value.code == 2


def test_channel_group_is_exclusive():
    with pytest.raises(SystemExit) as exc:
        main(["bounds", "--d", "2", "--lambdas", "0,0,0", "--probs", "1,0,0,0"])
    assert exc.value.code == 2


def test_cp_check_reports_noncp_without_failing(capsys):
    code, out, _ = run(capsys, "cp-check", "--d", "2", "--lambdas", "0.9,0.9,-0.9")
    assert code == 0
    payload = json.loads(out)
    assert payload["completely_positive"] is False
    assert payload["margin"] < 0
    assert "probabilities" not in payload


def test_cp_check_reports_probabilities_when_cp(capsys):
    code, out, _ = run(capsys, "cp-check", "--d", "2", "--probs", "0.25,0.5,0.25,0")
    assert code == 0
    payload = json.loads(out)
    assert payload["completely_positive"] is True
    assert payload["probabilities"] == pytest.approx([0.25, 0.5, 0.25, 0.0])


def test_cp_check_has_no_bits_option(capsys):
    # the margin has no unit
    with pytest.raises(SystemExit) as exc:
        main(["cp-check", "--d", "2", "--lambdas", "0.5,0,-0.5", "--bits"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --bits" in capsys.readouterr().err


def test_zeta_output(capsys):
    code, out, _ = run(capsys, "zeta", "--d", "2", "--lambdas", "0.5,0,-0.5")
    assert code == 0
    payload = json.loads(out)
    assert payload["region"] == 1
    assert payload["zeta"] == pytest.approx([0.75, 0.25])
    assert payload["chi_up"] + payload["entropy"] == pytest.approx(LN2, abs=1e-12)


def test_dynamics_csv_shape(capsys):
    code, out, _ = run(capsys, "dynamics", "--gamma1", "0.5", "--gamma2", "0.5",
                       "--gamma3", "0.5", "--t-max", "1", "--steps", "5")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "t,lambda1,lambda2,lambda3,capacity_nats,p_divisible_so_far"
    assert len(lines) == 6
    first = lines[1].split(",")
    assert len(first) == 6
    assert float(first[0]) == 0.0
    assert first[5] == "1"
    # constant rates: lambda columns are exp(-t)
    last = lines[-1].split(",")
    assert float(last[1]) == pytest.approx(np.exp(-1.0), abs=1e-12)


def test_dynamics_table_rates_flip_divisibility_flag(capsys):
    code, out, _ = run(
        capsys, "dynamics",
        "--gamma1", "0:3,0.9:3,1.1:-1,1.5:-1,1.7:3,3:3",
        "--gamma2", "0.2", "--gamma3", "0.2",
        "--t-max", "3", "--steps", "61")
    assert code == 0
    flags = [line.split(",")[5] for line in out.strip().split("\n")[1:]]
    assert flags[0] == "1"
    assert flags[-1] == "0"
    assert "0" in flags and "1" in flags
    # once broken the flag stays broken
    assert "".join(flags).find("10") == "".join(flags).rfind("10")


def test_dynamics_writes_file(tmp_path, capsys):
    target = tmp_path / "traj.csv"
    code, out, _ = run(capsys, "dynamics", "--gamma1", "1", "--gamma2", "1",
                       "--gamma3", "1", "--t-max", "1", "--steps", "3",
                       "--output", str(target))
    assert code == 0
    assert out == ""
    text = target.read_text()
    assert text.startswith("t,lambda1")
    assert text.endswith("\n")
    assert "\r" not in text


def test_dynamics_output_to_a_missing_directory_exits_2(tmp_path, capsys):
    target = tmp_path / "missing" / "traj.csv"
    code, out, err = run(capsys, "dynamics", "--gamma1", "1", "--gamma2", "1",
                         "--gamma3", "1", "--t-max", "1", "--steps", "3",
                         "--output", str(target))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and str(target) in err


@pytest.mark.parametrize("args, message", [
    (("--gamma1", "1e308", "--gamma2", "1e308", "--gamma3", "0"),
     "map eigenvalues are not finite at t=0.01"),
    (("--gamma1", "0.1", "--gamma2", "0.1", "--gamma3", "0.1", "--t-max", "1e-320"),
     "t_max=1e-320, steps=301: times not strictly increasing"),
])
def test_dynamics_refuses_inputs_that_overflow_or_collapse_the_grid(capsys, args, message):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "dynamics", *args)
    assert (code, out, caught, err) == (2, "", [], f"error: {message}\n")


@pytest.mark.parametrize("flag, text", [("--gamma1", "a:b"), ("--gamma2", "x"),
                                        ("--gamma3", "0:1,2")])
def test_dynamics_names_the_rate_it_cannot_read(capsys, flag, text):
    rates = {"--gamma1": "0.1", "--gamma2": "0.1", "--gamma3": "0.1", flag: text}
    code, out, err = run(capsys, "dynamics", *(part for item in rates.items()
                                               for part in item))
    assert (code, out) == (2, "")
    assert err == (f"error: {flag} expects a float or a table t:v,t:v,..., "
                   f"got {text!r}\n")


@pytest.mark.parametrize("t_max", ["1e200", "1e308"])
def test_dynamics_runs_up_to_the_largest_t_max(capsys, t_max):
    # numpy RuntimeWarnings are errors under this suite's filterwarnings
    code, out, err = run(capsys, "dynamics", "--gamma1", "0.1", "--gamma2", "0.1",
                         "--gamma3", "0.1", "--t-max", t_max)
    assert (code, err) == (0, "")
    assert out.strip().split("\n")[-1] == f"{float(t_max):.12g},0,0,0,0,1"


def test_dynamics_rejects_cp_violation(capsys):
    code, _, err = run(capsys, "dynamics", "--gamma1", "-1", "--gamma2", "0",
                       "--gamma3", "0.2", "--t-max", "1", "--steps", "11")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("t_max", ["inf", "nan"])
def test_dynamics_rejects_non_finite_t_max(capsys, t_max):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "dynamics", "--gamma1", "0.1", "--gamma2", "0.1",
                             "--gamma3", "0.1", "--t-max", t_max)
    assert (code, out, caught) == (2, "", [])
    assert err == f"error: t_max must be positive and finite, got {t_max}\n"


def test_verify_suite_passes(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "paper")
    assert code == 0
    # every check by name, in order: a dropped or renamed check shows here
    assert out.splitlines() == ([f"[PASS] {name}" for name in VERIFY_CHECK_NAMES]
                                + ["21/21 checks passed"])
    assert len(set(VERIFY_CHECK_NAMES)) == len(VERIFY_CHECK_NAMES)


def test_random_sweep_deterministic(capsys):
    args = ("random-sweep", "--d", "3", "--count", "4", "--seed", "42")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second
    lines = first.strip().split("\n")
    assert lines[0] == "index,lambda1,lambda2,lambda3,lambda4,chi_low,chi_up,coincide"
    assert len(lines) == 5


def test_random_sweep_rejects_negative_seed(capsys):
    code, out, err = run(capsys, "random-sweep", "--d", "3", "--count", "4", "--seed", "-1")
    assert (code, out) == (2, "")
    assert err == "error: --seed must be >= 0, got -1\n"


def test_random_sweep_default_seed_is_zero(capsys):
    _, default, _ = run(capsys, "random-sweep", "--d", "2", "--count", "3")
    _, zero, _ = run(capsys, "random-sweep", "--d", "2", "--count", "3", "--seed", "0")
    assert default == zero


def test_random_sweep_rejects_negative_count(capsys):
    code, out, err = run(capsys, "random-sweep", "--d", "3", "--count", "-1")
    assert code == 2
    assert out == ""
    assert "--count" in err


def test_random_sweep_zero_count_prints_header_only(capsys):
    code, out, _ = run(capsys, "random-sweep", "--d", "3", "--count", "0")
    assert code == 0
    assert out == "index,lambda1,lambda2,lambda3,lambda4,chi_low,chi_up,coincide\n"


def test_random_sweep_is_byte_identical_across_processes():
    # two fresh interpreters: nothing cached in this process can make the
    # seeded sweep look reproducible
    src = os.path.dirname(os.path.dirname(os.path.abspath(gpchannels.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    argv = [sys.executable, "-m", "gpchannels.cli", "random-sweep",
            "--d", "5", "--count", "200", "--seed", "7"]
    first, second = (subprocess.run(argv, env=env, capture_output=True, timeout=120)
                     for _ in range(2))
    assert (first.returncode, first.stderr) == (0, b""), first.stderr
    assert len(first.stdout.splitlines()) == 201
    assert (second.returncode, second.stdout) == (0, first.stdout)


_LOADED = """
import contextlib, io, json, sys
def loaded():
    return json.dumps(sorted(m for m in sys.modules if m.startswith("gpchannels.")))
import gpchannels
print(loaded())
from gpchannels.cli import main
for argvs in ([["bounds", "--d", "3", "--lambdas", "0.5,0.2,0.1,0.1"],
               ["zeta", "--d", "2", "--lambdas", "0.5,0,-0.5"],
               ["cp-check", "--d", "2", "--probs", "0.25,0.5,0.25,0"]],
              [["random-sweep", "--d", "3", "--count", "5", "--seed", "1"]], [["verify"]]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert all(main(argv) == 0 for argv in argvs)
    print(loaded())
"""


def test_cold_cli_imports_only_what_its_command_runs():
    # a fresh interpreter: this process has loaded every module already
    src = os.path.dirname(os.path.dirname(os.path.abspath(gpchannels.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _LOADED], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    package, closed_forms, sweep, verify = map(json.loads, proc.stdout.splitlines())
    assert package == []
    for name in ("oracle", "dynamics", "selfcheck"):
        assert "gpchannels." + name not in closed_forms
    # the sampler lives beside the map it wraps, not in the verify battery
    assert not {"gpchannels.selfcheck", "gpchannels.dynamics"} & set(sweep)
    assert {"gpchannels.selfcheck", "gpchannels.dynamics"} <= set(verify)
    assert selfcheck.sample_cp_eigenvalues is channels.sample_cp_eigenvalues


def test_random_sweep_rejects_unsupported_dimension(capsys):
    code, out, err = run(capsys, "random-sweep", "--d", "6", "--count", "1")
    assert (code, out) == (2, "")
    assert err == "error: no basis construction for d=6 (prime power required)\n"


def test_random_sweep_at_d7_prints_bounds_batch(capsys):
    code, out, _ = run(capsys, "random-sweep", "--d", "7", "--count", "20", "--seed", "7")
    lams = sample_cp_eigenvalues(7, 20, np.random.default_rng(7))
    b = bounds_batch(lams)
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == ",".join(["index"] + [f"lambda{a}" for a in range(1, 9)]
                                + ["chi_low", "chi_up", "coincide"])
    assert lines[1:] == [
        ",".join([str(i)] + ["%.12g" % v for v in (*lam, b.chi_low[i], b.chi_up[i])]
                 + [str(int(b.coincide[i]))])
        for i, lam in enumerate(lams)
    ]


def test_parser_prog_name():
    assert build_parser().prog == "gpchannels"
