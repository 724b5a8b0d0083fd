"""Timing loop, tracer, statistics and environment record of the benchmark.

Nothing here knows a workload; `workloads.py` supplies the inputs, the
operations and the correctness gate.
"""

import json
import os
import platform
import resource
import subprocess
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# End-to-end metrics: name -> unit.  Every workload reports all of them.
END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

# Suffixes of a traced call: per-pass call count, per-pass busy time,
# median call latency, per-pass failed calls.
CALL_SUFFIXES = (("calls", "count"), ("busy_ms", "ms"), ("p50_us", "us"),
                 ("failed", "count"))

SETUP_PROBES = 3

# The speed of a shared machine drifts by up to 2x over seconds (measured on
# a 2-CPU container: the same work took 15-33 ms in successive 5 s windows,
# in CPU time as in wall time).  Timings are therefore reported in reference
# seconds: raw seconds times CAL_REFERENCE_S over the current time of a fixed
# calibration kernel, re-measured between operations at least every
# CAL_INTERVAL_S.  On a machine where the kernel takes CAL_REFERENCE_S a
# reference second is a wall-clock second.  Raw wall times go to the record.
CAL_REFERENCE_S = 1.6e-3
CAL_INTERVAL_S = 0.1


def percentile(samples, q):
    """Nearest-rank percentile: the value of an actual sample."""
    return float(np.percentile(np.asarray(samples, dtype=float), q,
                               method="inverted_cdf"))


def calibration_kernel():
    """Fixed mix of interpreter work and small numpy calls, like the library's."""
    x = np.linspace(0.1, 1.0, 64)
    acc = 0.0
    for i in range(150):
        y = np.sort(x * (i % 7 + 1))[::-1]
        acc += float(np.sum(y * np.log(y)))
        acc += sum(j * 1e-9 for j in range(20))
    return acc


class Speed:
    """Current machine speed as reference seconds per raw second."""

    def __init__(self):
        self.factor = 1.0
        self.kernel_seconds = []
        self._last = float("-inf")

    def update(self, force=False, repeats=3):
        clock = time.perf_counter
        if force or clock() - self._last >= CAL_INTERVAL_S:
            runs = []
            for _ in range(repeats):
                start = clock()
                calibration_kernel()
                runs.append(clock() - start)
            kernel = float(np.median(runs))
            self.kernel_seconds.append(kernel)
            self.factor = CAL_REFERENCE_S / kernel
            self._last = clock()
        return self.factor


class Tracer:
    """In-memory spans recorded around calls into the library.

    `installed` swaps module attributes for timing wrappers and restores
    the originals when its block ends.  Spans are (name, seconds, ok)
    per call, recorded only while `active` is set, in reference seconds at
    the current `factor`; nothing is written until the run ends.
    """

    def __init__(self):
        self.durations = defaultdict(list)
        self.failures = defaultdict(int)
        self.extra = defaultdict(list)
        self.active = False
        self.factor = 1.0

    def record(self, name, seconds, ok=True):
        self.durations[name].append(seconds * self.factor)
        if not ok:
            self.failures[name] += 1

    def wrap(self, namer, fn):
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            name = namer if isinstance(namer, str) else namer(*args, **kwargs)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                tracer.record(name, clock() - start, ok=False)
                raise
            tracer.record(name, clock() - start)
            return out

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self, patches):
        saved = []
        try:
            for namer, module, attr in patches:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(namer, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def call_metrics(self, name, passes):
        """The four per-call metrics of `name`, normalised per traced pass."""
        ds = self.durations.get(name, [])
        per = max(passes, 1)
        values = {
            "calls": len(ds) / per,
            "busy_ms": sum(ds) * 1e3 / per,
            "p50_us": float(np.median(ds)) * 1e6 if ds else 0.0,
            "failed": self.failures.get(name, 0) / per,
        }
        return {f"{name}.{suffix}": (values[suffix], unit) for suffix, unit in CALL_SUFFIXES}


class PassLog:
    """Latencies of every operation and duration of every pass.

    `pass_seconds`, `op_seconds` and `op_class_seconds` are in reference
    seconds; `raw_pass_seconds` and `raw_op_seconds` are wall-clock seconds.
    Samples are packed doubles, so that the benchmark's own memory barely
    grows with the number of operations a faster program completes.
    """

    def __init__(self):
        self.pass_seconds = array("d")
        self.op_seconds = array("d")
        self.raw_pass_seconds = array("d")
        self.raw_op_seconds = array("d")
        self.op_class_seconds = defaultdict(lambda: array("d"))
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def merge_failure(self, message):
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)


def run_passes(workload, seconds, log, speed, tracer=None, min_passes=1):
    """Closed loop: run whole passes until `seconds` of wall time are measured.

    One caller issues each operation after the previous one returned.  The
    calibration kernel runs between operations, outside their timing.  A
    pass lasts the sum of its operations.  The outputs of a pass go to the
    workload's gate after the pass, so checking never counts as measured
    time.
    """
    clock = time.perf_counter
    ops = workload.ops()
    spent = 0.0
    passes = 0
    while passes < min_passes or spent < seconds:
        outputs = [None] * len(ops)
        raw_pass = ref_pass = 0.0
        for i, (cls, fn) in enumerate(ops):
            factor = speed.update()
            if tracer is not None:
                tracer.factor = factor
                tracer.active = True
            t0 = clock()
            try:
                outputs[i] = fn()
                ok = True
            except Exception as exc:  # a failed operation is counted, not fatal
                ok = False
                outputs[i] = exc
            dt = clock() - t0
            if tracer is not None:
                tracer.active = False
            if dt >= CAL_INTERVAL_S:
                # the speed may change during a long operation: average both ends
                factor = (factor + speed.update(force=True)) / 2.0
            raw_pass += dt
            ref_pass += dt * factor
            log.raw_op_seconds.append(dt)
            log.op_seconds.append(dt * factor)
            log.op_class_seconds[cls].append(dt * factor)
            log.attempted += 1
            if not ok:
                log.merge_failure(f"{cls}: {type(outputs[i]).__name__}: {outputs[i]}")
        log.raw_pass_seconds.append(raw_pass)
        log.pass_seconds.append(ref_pass)
        spent += raw_pass
        passes += 1
        for message in workload.check_pass(outputs):
            log.merge_failure(message)
    return passes


def peak_rss_mb(children=False):
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def import_times_ms(stderr_text):
    """Cumulative import times (ms) of the modules named in `-X importtime` output."""
    wanted = {"gpchannels": "cli.import.gpchannels_ms",
              "scipy.integrate": "cli.import.scipy_integrate_ms",
              "scipy.optimize": "cli.import.scipy_optimize_ms"}
    found = {}
    for line in stderr_text.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line.split("|")
        if len(parts) != 3:
            continue
        module = parts[2].strip()
        if module in wanted:
            try:
                found[wanted[module]] = int(parts[1]) / 1000.0
            except ValueError:
                continue
    return found


def child_env(root):
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def setup_probes(root, workload, seed, scale, count, importtime):
    """Set-up time of `count` fresh processes, and their import times.

    Each probe prints its raw set-up seconds and the calibration kernel's
    time measured right after; the kernel is also timed here right before
    the probe starts.  Returns (reference seconds, raw seconds, import times).
    """
    cmd = [sys.executable]
    if importtime:
        cmd += ["-X", "importtime"]
    cmd += [os.path.join(root, "perfbench", "run.py"), "--setup-probe",
            "--workload", workload, "--seed", str(seed), "--scale", scale]
    seconds, raw, imports = [], [], defaultdict(list)
    speed = Speed()
    for _ in range(count):
        speed.update(force=True)
        proc = subprocess.run(cmd, cwd=root, env=child_env(root), capture_output=True,
                              text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-400:]}")
        setup, kernel = (float(x) for x in proc.stdout.strip().splitlines()[-1].split())
        kernel = (kernel + speed.kernel_seconds[-1]) / 2.0  # before and after the probe
        raw.append(setup)
        seconds.append(setup * CAL_REFERENCE_S / kernel)
        for name, ms in import_times_ms(proc.stderr).items():
            imports[name].append(ms * CAL_REFERENCE_S / kernel)
    return seconds, raw, imports


def _blas_threads():
    """The BLAS thread setting as the environment gives it; read, never set."""
    keys = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    setting = {k: os.environ[k] for k in keys if k in os.environ}
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        name = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        name = "unknown"
    return {"library": name, "env": setting or "unset (library default)"}


def environment_record(root):
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(root, ".git")):
        proc = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {
        "commit": commit,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": _blas_threads(),
    }


def emit(result, lines):
    """Print the human-readable record, then the result as the last line."""
    for line in lines:
        print(line)
    print(json.dumps(result, sort_keys=False))
    sys.stdout.flush()
