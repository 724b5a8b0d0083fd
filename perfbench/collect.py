"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/collect.py --workloads sweep,oracle --seeds 1-10 --seconds 20
    python3 perfbench/collect.py --seeds 1-10 --out perfbench/baseline.json

Runs are sequential, one process at a time, from the repository root.  For
every metric it prints the median, the quartiles (statistics.quantiles,
n=4) and the spread (q3 - q1) / median, next to the bound of BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    env = next((json.loads(line.split(" ", 2)[2]) for line in lines
                if line.startswith("# environment ")), None)
    return json.loads(lines[-1]), env, wall


def summarise(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf"), "values": values}


def main(argv=None):
    with open("BENCHMARK.json") as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the summary as JSON here")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    summary = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        runs, walls = [], []
        for seed in _seeds(args.seeds):
            result, env, wall = run_once(workload, seed, args.seconds, args.trace)
            summary.setdefault("environment", env)
            runs.append(result)
            walls.append(wall)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
        metrics = {}
        for name in runs[0]["metrics"]:
            stats = summarise([r["metrics"][name]["value"] for r in runs])
            stats["unit"] = runs[0]["metrics"][name]["unit"]
            metrics[name] = stats
            if name in bounds or args.trace:
                bound = bounds.get(name)
                flag = "" if bound is None else (
                    " ok" if stats["spread"] < bound / 3 else
                    " WIDE" if stats["spread"] >= bound else " within bound")
                print(f"  {name:28s} median {stats['median']:.6g} {stats['unit']}  "
                      f"q1 {stats['q1']:.6g}  q3 {stats['q3']:.6g}  "
                      f"spread {stats['spread']:.3f}  bound {bound}{flag}", flush=True)
        summary["workloads"][workload] = {
            "runs": len(runs),
            "max_run_wall_s": max(walls),
            "all_correct": all(r["correct"] for r in runs),
            "metrics": metrics,
        }
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(summary, handle, indent=1)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
