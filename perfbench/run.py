"""Benchmark of gpchannels.  Run from the repository root:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

With `--trace 0` the last line of standard output is a JSON object with the
end-to-end metrics; with `--trace 1` it holds the per-layer metrics and the
tracing overhead.  The lines before it are the environment, input-property
and latency record.  See perfbench/NOTES.md for the workloads and metrics.
"""

import time

_T0 = time.perf_counter()  # the set-up clock starts before any import

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from array import array  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: a few inputs per class, for the smoke test")
    parser.add_argument("--setup-probe", action="store_true",
                        help="internal: set up once, print the seconds it took, exit")
    return parser.parse_args(argv)


def _import_package():
    """Import gpchannels from ./src of the current directory, and nothing else."""
    pkg = os.path.join(ROOT, "src", "gpchannels")
    if not os.path.isfile(os.path.join(pkg, "__init__.py")):
        sys.exit(f"perfbench: no src/gpchannels in {ROOT}; run from the repository root")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import gpchannels

    if os.path.dirname(os.path.abspath(gpchannels.__file__)) != pkg:
        sys.exit(f"perfbench: imported gpchannels from {gpchannels.__file__}, not {pkg}")


def main(argv=None):
    args = _parse(argv)
    _import_package()
    import harness
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    make = workloads.WORKLOADS[args.workload]

    if args.setup_probe:
        make(args.seed, args.scale).warm_up()
        setup = time.perf_counter() - _T0
        speed = harness.Speed()
        speed.update(force=True, repeats=7)
        print(repr(setup), repr(speed.kernel_seconds[-1]))
        return 0

    speed = harness.Speed()
    tracer = harness.Tracer() if args.trace else None
    if tracer is None:
        work = make(args.seed, args.scale)
        work.warm_up()
    else:
        tracer.factor = speed.update(force=True)
        with tracer.installed(workloads.SETUP_PATCHES):
            tracer.active = True
            work = make(args.seed, args.scale)
            work.warm_up()
            tracer.active = False

    probes = 1 if args.scale == "tiny" else harness.SETUP_PROBES
    setup_seconds, raw_setup, import_ms = harness.setup_probes(
        ROOT, args.workload, args.seed, args.scale, probes, importtime=bool(args.trace))

    log = harness.PassLog()
    if tracer is None:
        harness.run_passes(work, args.seconds, log, speed)
        traced_log = None
    else:
        harness.run_passes(work, args.seconds / 2.0, log, speed)
        traced_log = harness.PassLog()
        work.tracer = tracer
        with tracer.installed(workloads.trace_patches()):
            traced_passes = harness.run_passes(work, args.seconds / 2.0, traced_log, speed,
                                               tracer)

    ops = log.op_seconds + (traced_log.op_seconds if traced_log else array("d"))
    attempted = log.attempted + (traced_log.attempted if traced_log else 0)
    failed = log.failed + (traced_log.failed if traced_log else 0)
    errors = log.errors + (traced_log.errors if traced_log else [])

    if tracer is None:
        metrics = {
            "setup_s": statistics.median(setup_seconds),
            "pass_s": statistics.median(log.pass_seconds),
            "op_p50_ms": statistics.median(log.op_seconds) * 1e3,
            "op_tail_ms": harness.percentile(log.op_seconds, work.tail_pct) * 1e3,
            "peak_rss_mb": harness.peak_rss_mb(children=args.workload == "cli"),
        }
        metrics = {name: (value, harness.END_TO_END[name]) for name, value in metrics.items()}
    else:
        metrics = {}
        for name in workloads.TRACED_CALLS:
            per = 1 if name in workloads.SETUP_CALLS else traced_passes
            metrics.update(tracer.call_metrics(name, per))
        metrics.update(work.derived(tracer, traced_passes))
        for name, samples in tracer.extra.items():
            import_ms.setdefault(name, []).extend(samples)
        for name, samples in import_ms.items():
            metrics[name] = (statistics.median(samples), "ms")
        untraced = statistics.median(log.pass_seconds)
        metrics["trace.overhead_pct"] = (
            (statistics.median(traced_log.pass_seconds) - untraced) / untraced * 100.0, "%")
        metrics["gate.accuracy_err"] = (float(work.accuracy_err), "abs")
        for name, unit in workloads.per_layer_names().items():
            metrics.setdefault(name, (0.0, unit))

    n = len(ops)
    tail = harness.percentile(ops, work.tail_pct)
    beyond = sum(1 for x in ops if x > tail)
    lines = [
        f"# perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace} scale={args.scale}",
        "# environment " + json.dumps(harness.environment_record(ROOT)),
        "# inputs " + json.dumps(work.record(), default=float),
        "# op classes " + json.dumps({
            cls: {"n": len(ds), "p50_ms": round(statistics.median(ds) * 1e3, 4)}
            for cls, ds in sorted(log.op_class_seconds.items())}),
        f"# op_tail_ms is p{work.tail_pct:g} of n={n} operations ({beyond} beyond it); "
        f"passes={len(log.pass_seconds) + (len(traced_log.pass_seconds) if traced_log else 0)}",
        f"# setup_s samples {[round(s, 4) for s in setup_seconds]} reference s, "
        f"{[round(s, 4) for s in raw_setup]} wall s",
        f"# wall clock: pass_s {statistics.median(log.raw_pass_seconds):.6g} s, "
        f"op_p50_ms {statistics.median(log.raw_op_seconds) * 1e3:.6g} ms, "
        f"op_tail_ms {harness.percentile(log.raw_op_seconds, work.tail_pct) * 1e3:.6g} ms; "
        f"calibration kernel median {statistics.median(speed.kernel_seconds) * 1e3:.4g} ms "
        f"(reference {harness.CAL_REFERENCE_S * 1e3:g} ms, {len(speed.kernel_seconds)} samples)",
        f"# failed_frac {failed / max(attempted, 1):.6g} ({failed}/{attempted}); "
        f"accuracy_err {work.accuracy_err:.3e}",
    ]
    lines += [f"# error {message}" for message in errors]
    lines += [f"{name} {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    harness.emit(result, lines)
    return 0


if __name__ == "__main__":
    sys.exit(main())
