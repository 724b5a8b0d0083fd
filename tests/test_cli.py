import json

import numpy as np
import pytest

from gpchannels.cli import build_parser, main

LN2 = np.log(2.0)


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


def test_dynamics_rejects_cp_violation(capsys):
    code, _, err = run(capsys, "dynamics", "--gamma1", "-1", "--gamma2", "0",
                       "--gamma3", "0.2", "--t-max", "1", "--steps", "11")
    assert code == 2
    assert "error:" in err


def test_verify_suite_passes(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "paper")
    assert code == 0
    lines = out.strip().split("\n")
    assert all(line.startswith("[PASS]") for line in lines[:-1])
    assert "checks passed" in lines[-1]


def test_random_sweep_deterministic(capsys):
    args = ("random-sweep", "--d", "3", "--count", "4", "--seed", "42")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second
    lines = first.strip().split("\n")
    assert lines[0] == "index,lambda1,lambda2,lambda3,lambda4,chi_low,chi_up,coincide"
    assert len(lines) == 5


def test_random_sweep_seed_from_environment(monkeypatch, capsys):
    monkeypatch.setenv("GPC_SEED", "42")
    _, via_env, _ = run(capsys, "random-sweep", "--d", "3", "--count", "4")
    _, via_flag, _ = run(capsys, "random-sweep", "--d", "3", "--count", "4",
                         "--seed", "42")
    assert via_env == via_flag


def test_random_sweep_rejects_negative_count(capsys):
    code, out, err = run(capsys, "random-sweep", "--d", "3", "--count", "-1")
    assert code == 2
    assert out == ""
    assert "--count" in err


def test_random_sweep_zero_count_prints_header_only(capsys):
    code, out, _ = run(capsys, "random-sweep", "--d", "3", "--count", "0")
    assert code == 0
    assert out == "index,lambda1,lambda2,lambda3,lambda4,chi_low,chi_up,coincide\n"


def test_random_sweep_rejects_unsupported_dimension():
    with pytest.raises(SystemExit) as exc:
        main(["random-sweep", "--d", "7", "--count", "1"])
    assert exc.value.code == 2


def test_parser_prog_name():
    assert build_parser().prog == "gpchannels"
