"""Command line front end.

Entropic quantities are reported in nats unless --bits is given, which
bounds and zeta take; cp-check's margin has no unit, and the dynamics CSV
always stores nats (the column name says so).

dynamics and the self-checks are imported by the commands that run them,
so a cold bounds, zeta, cp-check or random-sweep process loads neither;
random-sweep's sampler lives in channels.
"""

import argparse
import json
import sys
from typing import List, Optional

import numpy as np

from .capacity import bounds_batch
from .channels import (
    EigenvalueVector,
    GeneralizedPauliChannel,
    eigenvalues_from_probabilities,
    fujiwara_algoet_margin,
    is_completely_positive,
    probabilities_from_eigenvalues,
    sample_cp_eigenvalues,
)
from .numerics import _require_in_range

LN2 = float(np.log(2.0))


def _floats(text: str) -> List[float]:
    try:
        return [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise ValueError(f"expected comma separated floats, got {text!r}")


def _fmt(value: float) -> str:
    return "%.12g" % value


def _channel_from_args(args) -> EigenvalueVector:
    if args.lambdas is not None:
        return EigenvalueVector(args.d, _floats(args.lambdas))
    probs = _floats(args.probs)
    return eigenvalues_from_probabilities(GeneralizedPauliChannel(args.d, probs))


def _add_channel_arguments(parser, bits: bool) -> None:
    parser.add_argument("--d", type=int, required=True,
                        help="subsystem dimension")
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--lambdas",
                       help="d+1 channel eigenvalues, comma separated")
    group.add_argument("--probs",
                       help="d+2 mixing probabilities, comma separated")
    if bits:
        parser.add_argument("--bits", action="store_true",
                            help="report entropic quantities in bits")


def _emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, indent=2) + "\n")


def _cmd_bounds(args) -> int:
    eigs = _channel_from_args(args)
    b = bounds_batch(eigs.values[None, :])
    scale = LN2 if args.bits else 1.0
    exact = float(b.exact_capacity[0])
    _emit({
        "d": args.d,
        "lambdas": [float(v) for v in eigs.values],
        "chi_low": float(b.chi_low[0]) / scale,
        "chi_up": float(b.chi_up[0]) / scale,
        "coincide": bool(b.coincide[0]),
        "capacity": None if np.isnan(exact) else exact / scale,
        "alpha_star": int(b.maximizing_alpha[0]),
        "units": "bits" if args.bits else "nats",
    })
    return 0


def _cmd_cp_check(args) -> int:
    eigs = _channel_from_args(args)
    margin = fujiwara_algoet_margin(eigs)
    payload = {
        "d": args.d,
        "lambdas": [float(v) for v in eigs.values],
        "completely_positive": is_completely_positive(eigs),
        "margin": margin,
    }
    if payload["completely_positive"]:
        probs = probabilities_from_eigenvalues(eigs)
        payload["probabilities"] = [float(v) for v in probs.probabilities]
    _emit(payload)
    return 0


def _cmd_zeta(args) -> int:
    eigs = _channel_from_args(args)
    b = bounds_batch(eigs.values[None, :])
    value = float(b.chi_up[0])
    scale = LN2 if args.bits else 1.0
    _emit({
        "d": args.d,
        "region": int(b.region[0]),
        "zeta": [float(v) for v in b.zeta[0]],
        "entropy": (float(np.log(args.d)) - value) / scale,
        "chi_up": value / scale,
        "units": "bits" if args.bits else "nats",
    })
    return 0


def _parse_rate(flag: str, text: str):
    # either a plain float or a sampled table "t:v,t:v,..."
    try:
        if ":" not in text:
            return float(text)
        pairs = [part.partition(":")[::2] for part in text.split(",")]
        return [float(t) for t, _ in pairs], [float(v) for _, v in pairs]
    except ValueError:
        raise ValueError(f"{flag} expects a float or a table t:v,t:v,..., got {text!r}")


def _cmd_dynamics(args) -> int:
    from .dynamics import (RateSpec, capacity_trajectory, eigenvalue_trajectory,
                           p_divisible_so_far)

    rates = RateSpec(tuple(_parse_rate(f"--gamma{j}", getattr(args, f"gamma{j}"))
                           for j in (1, 2, 3)))
    traj = capacity_trajectory(eigenvalue_trajectory(rates, args.t_max, args.steps))
    lines = ["t,lambda1,lambda2,lambda3,capacity_nats,p_divisible_so_far"]
    table = np.column_stack([traj.times, traj.lambdas, traj.capacity])
    for row, flag in zip(table, p_divisible_so_far(traj.lambdas)):
        lines.append(",".join(_fmt(v) for v in row) + f",{int(flag)}")
    text = "\n".join(lines) + "\n"
    if args.output:
        with open(args.output, "w", newline="\n") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


def run_formula_suite():
    """selfcheck.run_formula_suite, the checks verify runs; selfcheck is
    imported by the first call."""
    from .selfcheck import run_formula_suite as suite

    return suite()


def _cmd_verify(args) -> int:
    results = run_formula_suite()
    failures = 0
    for res in results:
        tag = "PASS" if res.passed else "FAIL"
        suffix = f" ({res.detail})" if res.detail and not res.passed else ""
        print(f"[{tag}] {res.name}{suffix}")
        failures += 0 if res.passed else 1
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return 0 if failures == 0 else 1


def _cmd_random_sweep(args) -> int:
    d = args.d
    _require_in_range("--count", args.count, 0)
    _require_in_range("--seed", args.seed, 0)
    rng = np.random.default_rng(args.seed)
    samples = sample_cp_eigenvalues(d, args.count, rng)
    bounds = bounds_batch(samples)
    header = ["index"] + [f"lambda{a}" for a in range(1, d + 2)]
    header += ["chi_low", "chi_up", "coincide"]
    lines = [",".join(header)]
    for i, lam in enumerate(samples):
        row = [str(i)] + [_fmt(v) for v in lam]
        row += [_fmt(bounds.chi_low[i]), _fmt(bounds.chi_up[i]),
                str(int(bounds.coincide[i]))]
        lines.append(",".join(row))
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gpchannels",
        description="Capacity bounds for mixtures of mutually unbiased "
                    "basis unitaries.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bounds", help="Holevo capacity bounds of one channel")
    _add_channel_arguments(p, bits=True)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("cp-check", help="complete positivity test")
    _add_channel_arguments(p, bits=False)
    p.set_defaults(func=_cmd_cp_check)

    p = sub.add_parser("zeta", help="grouped weight vector behind the upper bound")
    _add_channel_arguments(p, bits=True)
    p.set_defaults(func=_cmd_zeta)

    p = sub.add_parser("dynamics", help="qubit eigenvalue and capacity trajectory")
    p.add_argument("--gamma1", required=True,
                   help="rate: a float or a table t:v,t:v,...")
    p.add_argument("--gamma2", required=True)
    p.add_argument("--gamma3", required=True)
    p.add_argument("--t-max", type=float, default=3.0)
    p.add_argument("--steps", type=int, default=301)
    p.add_argument("--output", help="write CSV here instead of stdout")
    p.set_defaults(func=_cmd_dynamics)

    p = sub.add_parser("verify", help="run the built-in identity checks")
    p.add_argument("--suite", choices=["paper"], default="paper")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("random-sweep", help="bounds for random channels as CSV")
    p.add_argument("--d", type=int, required=True,
                   help="subsystem dimension, a prime power")
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--seed", type=int, default=0, help="random seed")
    p.set_defaults(func=_cmd_random_sweep)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    # OSError: an --output path that cannot be written; its message names it
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
