"""The four benchmark workloads: inputs from a seed, operations, gate, record.

Inputs are generated here from the workload seed with numpy only; the
library receives nothing but the generated values.  Each operation is a
closure that looks library functions up through their module at call time,
so the traced run can swap in timing wrappers without touching the package.
"""

import json
import os
import subprocess
import sys
import time
from collections import Counter

import numpy as np

from gpchannels import capacity as cap
from gpchannels import channels as ch
from gpchannels import dynamics as dyn
from gpchannels import oracle as orc
from gpchannels import selfcheck

from harness import CALL_SUFFIXES, child_env, import_times_ms

# Calls traced by the benchmark, as <module>.<function>[.<class>].  Every
# traced run reports all of them; a workload that bypasses a layer reports
# zero calls for it.
TRACED_CALLS = (
    "channels.EigenvalueVector",
    "channels.require_cp",
    "capacity.capacity_bounds",
    "capacity.holevo_lower_bound",
    "capacity.holevo_upper_bound",
    "capacity.pauli_classical_capacity",
    "dynamics.eigenvalue_trajectory",
    "dynamics.capacity_trajectory",
    "dynamics.p_divisibility_check",
    "dynamics.ode_eigenvalue_oracle",
    "oracle.holevo_estimate.d2grid",
    "oracle.holevo_estimate.d3",
    "oracle.holevo_estimate.d5",
    "oracle.holevo_estimate.d4pair",
    "oracle.cp_oracle_choi.81",
    "oracle.cp_oracle_choi.625",
    "channels.gpc_to_weyl",
    "channels.weyl_kraus_terms",
    "channels.choi_matrix",
    "channels.tensor",
    "mub.canonical_mub",
    "selfcheck.run_formula_suite",
)

CLI_SUBCOMMANDS = ("bounds", "zeta", "cp-check", "random-sweep", "dynamics", "verify")

# Derived per-layer metrics: name -> unit.
DERIVED = {
    "capacity.capacity_bounds.us_per_channel": "us",
    "dynamics.capacity_trajectory.us_per_step": "us",
    "oracle.cp_oracle_choi.choi_bytes": "B",
    "oracle.cp_oracle_choi.einsum_macs": "count",
    "oracle.holevo_estimate.d2grid.states": "count",
    **{f"cli.{sub}.wall_ms": "ms" for sub in CLI_SUBCOMMANDS},
    "cli.import.gpchannels_ms": "ms",
    "cli.import.scipy_integrate_ms": "ms",
    "cli.import.scipy_optimize_ms": "ms",
    "trace.overhead_pct": "%",
    "gate.accuracy_err": "abs",
}

# Tolerances of the gate: the repository's own (tests and acceptance gate).
TOL_FORMS = 1e-12        # λ-form vs p-form blocks; closed form vs brute-force sort
TOL_LOWER_ROUTES = 1e-10  # lower bound vs transition-matrix route
TOL_ORDER = 1e-9         # chi_low <= chi_up; qubit bounds coincide
TOL_SANDWICH_LOW = 1e-4  # est >= low - 1e-4
TOL_SANDWICH_UP = 1e-6   # est <= up + 1e-6
TOL_ODE = 1e-6           # quadrature vs generator integration
TOL_FIXTURE = 1e-12      # constant-rate closed form
TOL_RISE = 1e-10         # capacity monotone
TOL_CSV = 1e-11          # values printed with %.12g

T_MAX = 3.0


def _rng(seed, key):
    return np.random.default_rng([int(seed), key])


def _cp_lambdas(rng, d, n):
    """Uniform CP eigenvalue vectors by rejection from the eigenvalue box."""
    lo = -1.0 / (d - 1.0)
    out = []
    while len(out) < n:
        batch = rng.uniform(lo, 1.0, size=(max(4 * n, 256), d + 1))
        total = batch.sum(axis=1)
        keep = (total >= lo) & (total <= 1.0 + d * batch.min(axis=1))
        out.extend(batch[keep])
    return np.asarray(out[:n])


def _lambdas_from_probs(p):
    d = p.size - 2
    return (d * (p[0] + p[1:]) - 1.0) / (d - 1.0)


def _fa_margin(lam):
    d = lam.size - 1
    total = lam.sum()
    return min(total + 1.0 / (d - 1.0), 1.0 + d * lam.min() - total)


def _one_parameter(lam, tol=1e-12):
    """All eigenvalues equal except at most one."""
    vals = np.sort(lam)
    return (vals[-2] - vals[0] <= tol) or (vals[-1] - vals[1] <= tol)


def _same(a, b):
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and np.array_equal(a, b)
    if isinstance(a, (tuple, list)):
        return (isinstance(b, (tuple, list)) and len(a) == len(b)
                and all(_same(x, y) for x, y in zip(a, b)))
    return a == b


class Workload:
    """Inputs, operations and gate of one workload.

    `ops()` returns (class, callable) pairs; the callables return the
    values the gate checks.  `check_pass` checks the first pass against the
    independent routes and every later pass for identical outputs.
    """

    name = ""
    tail_pct = 90.0

    def __init__(self, scale):
        self.tiny = scale == "tiny"
        self.reference = None
        self.accuracy_err = 0.0
        self.tracer = None

    def check_pass(self, outputs):
        """Gate messages for one pass; raised operations are counted by the loop."""
        failures = []
        if self.reference is None:
            self.reference = [self.comparable(out) for out in outputs]
            failures += self.check_first(outputs)
        else:
            for i, out in enumerate(outputs):
                if not isinstance(out, Exception) and not _same(
                        self.comparable(out), self.reference[i]):
                    failures.append(f"op {i}: output differs from the first pass")
        return failures

    def comparable(self, out):
        return out

    def derived(self, tracer, passes):
        return {}


def trace_patches():
    """Timing wrappers of the traced passes: (span name or namer, module, attribute).

    A function is patched in every module that looks it up, so calls made
    inside the library are traced as well as the benchmark's own.
    """
    return [
        ("channels.EigenvalueVector", ch, "EigenvalueVector"),
        ("channels.require_cp", cap, "require_cp"),
        ("channels.require_cp", orc, "require_cp"),
        ("capacity.capacity_bounds", cap, "capacity_bounds"),
        ("capacity.holevo_lower_bound", cap, "holevo_lower_bound"),
        ("capacity.holevo_upper_bound", cap, "holevo_upper_bound"),
        ("capacity.pauli_classical_capacity", cap, "pauli_classical_capacity"),
        ("capacity.pauli_classical_capacity", dyn, "pauli_classical_capacity"),
        ("dynamics.eigenvalue_trajectory", dyn, "eigenvalue_trajectory"),
        ("dynamics.capacity_trajectory", dyn, "capacity_trajectory"),
        ("dynamics.p_divisibility_check", dyn, "p_divisibility_check"),
        ("dynamics.ode_eigenvalue_oracle", dyn, "ode_eigenvalue_oracle"),
        (_estimate_class, orc, "holevo_estimate"),
        (_choi_class, orc, "cp_oracle_choi"),
        ("channels.gpc_to_weyl", ch, "gpc_to_weyl"),
        ("channels.gpc_to_weyl", orc, "gpc_to_weyl"),
        ("channels.weyl_kraus_terms", ch, "weyl_kraus_terms"),
        ("channels.weyl_kraus_terms", orc, "weyl_kraus_terms"),
        ("channels.choi_matrix", orc, "choi_matrix"),
        ("channels.tensor", ch, "tensor"),
    ]


# Traced during set-up rather than per pass; `canonical_mub` is defined in
# channels.py but does the basis construction of mub.py.
SETUP_PATCHES = [("mub.canonical_mub", ch, "canonical_mub")]
SETUP_CALLS = tuple(name for name, _, _ in SETUP_PATCHES)


def _estimate_class(channel, m=None, cfg=None):
    if isinstance(channel, ch.WeylChannel) and channel.parts == 2:
        return f"oracle.holevo_estimate.d{channel.dimension}pair"
    return ("oracle.holevo_estimate.d2grid" if channel.dimension == 2
            else f"oracle.holevo_estimate.d{channel.dimension}")


def _choi_class(channel):
    return f"oracle.cp_oracle_choi.{channel.dimension ** 2}"


# --------------------------------------------------------------------- sweep

SWEEP_DIMS = (2, 3, 4, 5, 7)


class Sweep(Workload):
    """Closed-form bounds over seeded CP channels and the boundary inputs."""

    name = "sweep"
    tail_pct = 99.0
    KINDS = ("interior", "cp_boundary", "lambda_edge", "one_parameter", "ties")

    def __init__(self, seed, scale):
        super().__init__(scale)
        rng = _rng(seed, 1)
        counts = (dict(interior=3, cp_boundary=1, lambda_edge=4, one_parameter=1, ties=1)
                  if self.tiny else
                  dict(interior=300, cp_boundary=30, lambda_edge=20,
                       one_parameter=30, ties=20))
        self.inputs = []  # (d, kind, lambdas)
        for d in SWEEP_DIMS:
            for lam in _cp_lambdas(rng, d, counts["interior"]):
                self.inputs.append((d, "interior", lam))
            for _ in range(counts["cp_boundary"]):
                p = rng.dirichlet(np.ones(d + 2))
                p[rng.choice(d + 2, size=int(rng.integers(1, 3)), replace=False)] = 0.0
                self.inputs.append((d, "cp_boundary", _lambdas_from_probs(p / p.sum())))
            for i in range(counts["lambda_edge"]):
                self.inputs.append((d, "lambda_edge", self._edge(rng, d, i % 4)))
            for _ in range(counts["one_parameter"]):
                x = rng.dirichlet(np.ones(3))
                p = np.full(d + 2, x[2] / d)
                p[0] = x[0]
                p[1 + int(rng.integers(d + 1))] = x[1]
                self.inputs.append((d, "one_parameter", _lambdas_from_probs(p)))
            for _ in range(counts["ties"]):
                k = rng.integers(0, 3, size=d + 2)
                k[int(rng.integers(d + 2))] += 1
                self.inputs.append((d, "ties", _lambdas_from_probs(k / k.sum())))

    @staticmethod
    def _edge(rng, d, variant):
        """λ = 1 and λ = -1/(d-1) entries: identity, p_0 + p_a = 1, p_0 = p_a = 0."""
        p = np.zeros(d + 2)
        a = 1 + int(rng.integers(d + 1))
        if variant == 0:
            p[0] = 1.0
        elif variant == 1:
            p[a] = 1.0
        elif variant == 2:
            p[0] = rng.uniform()
            p[a] = 1.0 - p[0]
        else:
            rest = [i for i in range(1, d + 2) if i != a]
            p[rest] = rng.dirichlet(np.ones(d))
        return _lambdas_from_probs(p)

    def warm_up(self):
        for d in SWEEP_DIMS:
            cap.capacity_bounds(ch.EigenvalueVector(d, np.zeros(d + 1)))

    def ops(self):
        def op(d, lam):
            return cap.capacity_bounds(ch.EigenvalueVector(d, lam))
        return [(f"d{d}", (lambda d=d, lam=lam: op(d, lam))) for d, _, lam in self.inputs]

    def comparable(self, b):
        if isinstance(b, Exception):
            return b
        return (b.chi_low, b.chi_up, b.coincide, b.exact_capacity, b.maximizing_alpha)

    def check_first(self, outputs):
        failures = []
        self.regions = Counter()
        self.region_mismatch = 0
        self.coincide = 0
        worst = 0.0
        for i, ((d, kind, lam), b) in enumerate(zip(self.inputs, outputs)):
            if isinstance(b, Exception):
                continue
            e = ch.EigenvalueVector(d, lam)
            c = ch.probabilities_from_eigenvalues(e)
            up, comps = cap.holevo_upper_bound(e)
            pform = cap.zeta_components_p_form(c)
            brute = cap.holevo_upper_bound_weyl(ch.gpc_to_weyl(c))
            classical = cap.holevo_lower_via_classical(e)
            self.regions[(d, comps.region)] += 1
            self.region_mismatch += int(comps.region != pform.region)
            self.coincide += int(b.coincide)
            form_err = float(np.max(np.abs(comps.zeta - pform.zeta)))
            up_err = abs(b.chi_up - brute)
            low_err = abs(b.chi_low - classical)
            worst = max(worst, form_err, up_err, low_err)
            problems = []
            if form_err > TOL_FORMS:
                problems.append(f"λ/p block forms differ by {form_err:.3e}")
            if up_err > TOL_FORMS:
                problems.append(f"closed form vs brute-force sort {up_err:.3e}")
            if low_err > TOL_LOWER_ROUTES:
                problems.append(f"lower bound vs transition route {low_err:.3e}")
            if b.chi_low > b.chi_up + TOL_ORDER:
                problems.append(f"chi_low {b.chi_low} > chi_up {b.chi_up}")
            if d == 2 and abs(b.chi_up - b.chi_low) > TOL_ORDER:
                problems.append("qubit bounds do not coincide")
            if problems:
                failures.append(f"sweep d={d} {kind} #{i}: " + "; ".join(problems))
        self.accuracy_err = worst
        return failures

    def record(self):
        n = len(self.inputs)
        lams = [lam for _, _, lam in self.inputs]
        regions = {}
        for (d, r), count in sorted(getattr(self, "regions", {}).items()):
            regions.setdefault(f"d{d}", {})[f"r{r}"] = count
        return {
            "channels_per_pass": n,
            "dimension_mix": dict(Counter(f"d{d}" for d, _, _ in self.inputs)),
            "constructed_kinds": dict(Counter(k for _, k, _ in self.inputs)),
            "share_cp_boundary": sum(abs(_fa_margin(x)) <= 1e-12 for x in lams) / n,
            "share_lambda_edge": sum(
                bool(np.any(np.isclose(x, 1.0, atol=1e-12, rtol=0))
                     or np.any(np.isclose(x, -1.0 / (x.size - 2), atol=1e-12, rtol=0)))
                for x in lams) / n,
            "share_one_parameter": sum(_one_parameter(x) for x in lams) / n,
            "share_tied_eigenvalues": sum(np.unique(x).size < x.size for x in lams) / n,
            "share_coinciding_bounds": getattr(self, "coincide", 0) / n,
            "region_counts": regions,
            "share_region_differs_lambda_vs_p_form": getattr(self, "region_mismatch", 0) / n,
        }

    def derived(self, tracer, passes):
        ds = tracer.durations.get("capacity.capacity_bounds", [])
        return {"capacity.capacity_bounds.us_per_channel":
                (sum(ds) / len(ds) * 1e6 if ds else 0.0, "us")}


# -------------------------------------------------------------------- oracle

REF_PROBS = np.array([0.25, 0.5, 0.25, 0.0])


class Oracle(Workload):
    """Brute-force output-entropy search and Choi positivity on two copies."""

    name = "oracle"
    tail_pct = 90.0

    def __init__(self, seed, scale):
        super().__init__(scale)
        rng = _rng(seed, 2)
        self.cfg = orc.SearchConfig(grid_resolution=256)
        n_qubit, n_qudit = (1, 1) if self.tiny else (3, 4)
        choi = ((3, 1),) if self.tiny else ((3, 3), (5, 1))
        self.specs = []  # (class, dimension, kind, lambdas, route)
        self.specs.append(("d2grid", 2, "reference", _lambdas_from_probs(REF_PROBS), None))
        for lam in _cp_lambdas(rng, 2, n_qubit):
            self.specs.append(("d2grid", 2, "interior", lam, None))
        for d in (3, 5):
            qudits = [("interior", lam) for lam in _cp_lambdas(rng, d, n_qudit)]
            x = rng.dirichlet(np.ones(3))
            p = np.full(d + 2, x[2] / d)
            p[0], p[1 + int(rng.integers(d + 1))] = x[0], x[1]
            qudits.append(("one_parameter", _lambdas_from_probs(p)))
            for kind, lam in qudits:
                for route in ("weyl", "mub"):
                    self.specs.append((f"d{d}", d, kind, lam, route))
        self.specs.append(("d4pair", 2, "reference_pair", _lambdas_from_probs(REF_PROBS), None))
        for d, count in choi:
            for lam in _cp_lambdas(rng, d, count):
                self.specs.append((f"choi{d ** 4}", d, "interior", lam, None))

    def _channel(self, d, lam):
        # probabilities are derived once per input here, outside any timed call
        return ch.probabilities_from_eigenvalues(ch.EigenvalueVector(d, lam))

    def warm_up(self):
        self.mubs = {d: ch.canonical_mub(d) for d in (3, 5)}
        self.channels = [self._channel(d, lam) for _, d, _, lam, _ in self.specs]
        for d in (2, 3, 5):
            ch.gpc_to_weyl(self.channels[[s[1] for s in self.specs].index(d)])
        small = [i for i, s in enumerate(self.specs) if s[0] == "choi81"]
        if small:
            c = self.channels[small[0]]
            orc.cp_oracle_choi(ch.tensor(c, c))

    def ops(self):
        cfg = self.cfg
        out = []
        for (cls, d, kind, lam, route), c in zip(self.specs, self.channels):
            if cls == "d4pair":
                fn = (lambda c=c: orc.holevo_estimate(ch.tensor(c, c), None, cfg))
            elif cls.startswith("choi"):
                fn = (lambda c=c: orc.cp_oracle_choi(ch.tensor(c, c)))
            else:
                m = self.mubs[d] if route == "mub" else None
                fn = (lambda c=c, m=m: orc.holevo_estimate(c, m, cfg))
            out.append((cls if route is None else f"{cls}.{route}", fn))
        return out

    def check_first(self, outputs):
        failures = []
        worst = 0.0
        self.weyl_route_low_gap = 0.0
        for i, ((cls, d, kind, lam, route), c, out) in enumerate(
                zip(self.specs, self.channels, outputs)):
            if isinstance(out, Exception):
                continue
            e = ch.EigenvalueVector(d, lam)
            if cls.startswith("choi"):
                expect = ch.is_completely_positive(e)
                if out != expect:
                    failures.append(f"oracle {cls} #{i}: Choi verdict {out} "
                                    f"!= Fujiwara-Algoet {expect}")
                continue
            low, _ = cap.holevo_lower_bound(e)
            up, _ = cap.holevo_upper_bound(e)
            if cls == "d4pair":
                low = 2.0 * low
                up = cap.holevo_upper_bound_weyl(ch.tensor(c, c))
            problems = []
            if out > up + TOL_SANDWICH_UP:
                problems.append(f"estimate {out} above upper bound {up}")
            # The lower side is asserted where the search has a warm start
            # that contains the best basis: the qubit grid, the basis-set
            # route and the product reference pair.  The displacement route
            # for d >= 3 has none; its shortfall is recorded, not gated.
            if route == "weyl":
                self.weyl_route_low_gap = min(self.weyl_route_low_gap, out - low)
            elif out < low - TOL_SANDWICH_LOW:
                problems.append(f"estimate {out} below lower bound {low}")
            if abs(up - low) <= TOL_ORDER:
                worst = max(worst, abs(out - low))
            if problems:
                failures.append(f"oracle {cls} {kind} #{i}: " + "; ".join(problems))
        self.accuracy_err = worst
        return failures

    def _choi_sizes(self):
        return [d ** 4 for cls, d, *_ in self.specs if cls.startswith("choi")]

    def record(self):
        return {
            "ops_per_pass": dict(Counter(
                cls if route is None else f"{cls}.{route}"
                for cls, _, _, _, route in self.specs)),
            "kinds": dict(Counter(kind for _, _, kind, _, _ in self.specs)),
            "grid_resolution": self.cfg.grid_resolution,
            "qubit_grid_states": self._grid_states(),
            "choi_matrix_sides": self._choi_sizes(),
            "choi_bytes_per_pass": sum(n * n * 16 for n in self._choi_sizes()),
            "weyl_route_min_est_minus_low": getattr(self, "weyl_route_low_gap", 0.0),
        }

    def _grid_states(self):
        r = self.cfg.grid_resolution
        return (r + 1) * 2 * r

    def derived(self, tracer, passes):
        sides = self._choi_sizes()
        # Kraus count = nonzero two-copy weights; interior inputs have all d^4.
        macs = sum(n * n * n for n in sides)
        return {
            "oracle.cp_oracle_choi.choi_bytes": (float(sum(n * n * 16 for n in sides)), "B"),
            "oracle.cp_oracle_choi.einsum_macs": (float(macs), "count"),
            "oracle.holevo_estimate.d2grid.states": (float(self._grid_states()), "count"),
        }


# ------------------------------------------------------------------ dynamics

class Dynamics(Workload):
    """Qubit trajectories: quadrature, capacity per step, divisibility, ODE."""

    name = "dynamics"
    tail_pct = 90.0

    def __init__(self, seed, scale):
        super().__init__(scale)
        rng = _rng(seed, 3)
        if self.tiny:
            long_steps, plan = 3001, dict(long=("dip",), short=("witness", "markov"),
                                          ode=("witness",))
        else:
            long_steps, plan = 15001, dict(
                long=("witness", "dip", "markov", "dip"),
                short=("witness",) + ("markov",) * 7 + ("dip",) * 8,
                ode=("witness", "dip", "dip", "dip"))
        self.specs = []  # (class, kind, RateSpec, steps, rates-description)
        for cls, steps in (("long", long_steps), ("short", 301), ("ode", 301)):
            for kind in plan[cls]:
                self.specs.append((cls, kind, self._spec(rng, kind), steps))

    @staticmethod
    def _dip_table(rng):
        """A rate table with a negative dip; knots on multiples of 0.01."""
        while True:
            base = rng.uniform(1.5, 3.5)
            dip = -rng.uniform(0.3, 1.5)
            t1 = round(rng.uniform(0.5, 1.2), 2)
            ramp, hold, back = (round(rng.uniform(lo, hi), 2)
                                for lo, hi in ((0.1, 0.3), (0.1, 0.6), (0.1, 0.3)))
            times = np.array([0.0, t1, t1 + ramp, t1 + ramp + hold,
                              t1 + ramp + hold + back, T_MAX])
            values = np.array([base, base, dip, dip, base, base])
            consts = rng.uniform(0.1, 0.4, size=2)
            # exact cumulative integrals on a grid holding every knot
            grid = np.linspace(0.0, T_MAX, 3001)
            g1 = np.interp(grid, times, values)
            cum1 = np.concatenate([[0.0], np.cumsum((g1[1:] + g1[:-1]) / 2 * 1e-3)])
            cum2, cum3 = consts[0] * grid, consts[1] * grid
            lam = np.exp(-np.stack([cum2 + cum3, cum1 + cum3, cum1 + cum2], axis=1))
            margin = 1.0 + 2.0 * lam.min(axis=1) - lam.sum(axis=1)
            if lam.max() <= 1.0 and margin.min() >= -1e-12:
                order = rng.permutation(3)
                rates = [(times, values), float(consts[0]), float(consts[1])]
                return tuple(rates[j] for j in order)

    def _spec(self, rng, kind):
        if kind == "witness":
            return dyn.non_p_divisible_capacity_witness()
        if kind == "markov":
            return dyn.RateSpec(tuple(float(g) for g in rng.uniform(0.05, 1.0, size=3)))
        return dyn.RateSpec(self._dip_table(rng))

    def warm_up(self):
        spec = self.specs[0][2]
        dyn.p_divisibility_check(dyn.capacity_trajectory(
            dyn.eigenvalue_trajectory(spec, T_MAX, 31)))
        dyn.ode_eigenvalue_oracle(spec, T_MAX, 31)

    def ops(self):
        def chain(spec, steps):
            traj = dyn.capacity_trajectory(dyn.eigenvalue_trajectory(spec, T_MAX, steps))
            return traj, dyn.p_divisibility_check(traj)
        out = []
        for cls, kind, spec, steps in self.specs:
            if cls == "ode":
                out.append((cls, lambda spec=spec, steps=steps:
                            dyn.ode_eigenvalue_oracle(spec, T_MAX, steps)))
            else:
                out.append((cls, lambda spec=spec, steps=steps: chain(spec, steps)))
        return out

    def comparable(self, out):
        if isinstance(out, tuple):
            traj, pdiv = out
            return (traj.lambdas, traj.capacity, pdiv)
        return out

    def check_first(self, outputs):
        failures = []
        worst = 0.0
        self.non_p_divisible = 0
        for i, ((cls, kind, spec, steps), out) in enumerate(zip(self.specs, outputs)):
            if isinstance(out, Exception):
                continue
            problems = []
            if cls == "ode":
                quad = dyn.eigenvalue_trajectory(spec, T_MAX, steps).lambdas
                err = float(np.max(np.abs(out - quad)))
                worst = max(worst, err)
                if err > TOL_ODE:
                    problems.append(f"ODE vs quadrature {err:.3e}")
            else:
                traj, pdiv = out
                rise = float(np.max(np.diff(traj.capacity)))
                self.non_p_divisible += int(not pdiv)
                if pdiv != traj.p_divisible:
                    problems.append("p_divisibility_check disagrees with the trajectory")
                if not traj.cp_everywhere:
                    problems.append("trajectory leaves the CP region")
                if kind == "witness" and (pdiv or rise > TOL_RISE):
                    problems.append(f"witness: P-divisible {pdiv}, capacity rise {rise:.3e}")
                if kind == "markov":
                    g = np.array([spec.rates[j][1] for j in range(3)])
                    exact = np.exp(-np.outer(traj.times, g.sum() - g))
                    fix = float(np.max(np.abs(traj.lambdas - exact)))
                    worst = max(worst, fix)
                    if not pdiv or rise > TOL_RISE or fix > TOL_FIXTURE:
                        problems.append(f"Markov: P-divisible {pdiv}, rise {rise:.3e}, "
                                        f"closed-form error {fix:.3e}")
            if problems:
                failures.append(f"dynamics {cls} {kind} #{i}: " + "; ".join(problems))
        self.accuracy_err = worst
        return failures

    def _trajectory_steps(self):
        return sum(steps for cls, _, _, steps in self.specs if cls != "ode")

    def record(self):
        return {
            "ops_per_pass": dict(Counter(cls for cls, *_ in self.specs)),
            "steps": {cls: sorted({s for c, _, _, s in self.specs if c == cls})
                      for cls in ("long", "short", "ode")},
            "trajectory_steps_per_pass": self._trajectory_steps(),
            "kinds": dict(Counter(f"{cls}.{kind}" for cls, kind, _, _ in self.specs)),
            "non_p_divisible_trajectories": getattr(self, "non_p_divisible", 0),
        }

    def derived(self, tracer, passes):
        ds = tracer.durations.get("dynamics.capacity_trajectory", [])
        steps = self._trajectory_steps() * max(passes, 1)
        return {"dynamics.capacity_trajectory.us_per_step":
                (sum(ds) * 1e6 / steps if ds else 0.0, "us")}


# ----------------------------------------------------------------------- cli

def _floats_arg(values):
    return ",".join(repr(float(v)) for v in values)


class Cli(Workload):
    """Cold `python -m gpchannels.cli` processes, one at a time.

    Each pass calls `bounds`, `zeta` and `cp-check` on two seeded channels
    and `random-sweep`, `dynamics` and `verify` once.  The six single-channel
    calls cost about one import each; they are two thirds of the calls, so
    the median falls inside that class instead of on the boundary between
    two subcommands.  About twenty calls fit into a 20 s
    run, so the highest percentile with ten calls beyond it is the median.
    """

    name = "cli"
    tail_pct = 50.0

    def __init__(self, seed, scale):
        super().__init__(scale)
        rng = _rng(seed, 4)
        self.root = os.getcwd()
        self.env = child_env(self.root)
        self.calls = []  # (subcommand, argv, eigenvalues or None)
        for sub in ("bounds", "zeta", "cp-check"):
            for _ in range(2):
                d = int(rng.choice(SWEEP_DIMS))
                lam = (rng.uniform(-1.0 / (d - 1), 1.0, size=d + 1) if sub == "cp-check"
                       else _cp_lambdas(rng, d, 1)[0])
                # "--lambdas=" keeps a leading minus sign from reading as an option
                self.calls.append((sub, [sub, "--d", str(d), "--lambdas=" + _floats_arg(lam)],
                                   lam))
        self.sweep_d = int(rng.choice((2, 3, 4, 5)))
        self.sweep_count = 20 if self.tiny else 400
        self.sweep_seed = int(rng.integers(2 ** 31))
        self.calls.append(("random-sweep", [
            "random-sweep", "--d", str(self.sweep_d), "--count", str(self.sweep_count),
            "--seed", str(self.sweep_seed)], None))
        self.rates = Dynamics._dip_table(rng)
        self.steps = 31 if self.tiny else 301
        self.calls.append(("dynamics", ["dynamics"] + [
            f"--gamma{j + 1}={self._rate_arg(r)}" for j, r in enumerate(self.rates)]
            + ["--t-max", repr(T_MAX), "--steps", str(self.steps)], None))
        self.calls.append(("verify", ["verify", "--suite", "paper"], None))

    @staticmethod
    def _rate_arg(rate):
        if isinstance(rate, float):
            return repr(rate)
        return ",".join(f"{float(t)!r}:{float(v)!r}" for t, v in zip(*rate))

    def _command(self, argv):
        if self.tracer is not None and self.tracer.active:
            return [sys.executable, "-X", "importtime",
                    os.path.join(self.root, "perfbench", "clitrace.py")] + argv
        return [sys.executable, "-m", "gpchannels.cli"] + argv

    def _call(self, sub, argv):
        start = time.perf_counter()
        proc = subprocess.run(self._command(argv), cwd=self.root, env=self.env,
                              capture_output=True, text=True, timeout=120)
        wall = time.perf_counter() - start
        tracer = self.tracer
        if tracer is not None and tracer.active:
            tracer.record(f"cli.{sub}.wall", wall, proc.returncode == 0)
            for name, ms in import_times_ms(proc.stderr).items():
                tracer.extra[name].append(ms * tracer.factor)
            for line in proc.stderr.splitlines():
                if line.startswith("PERFBENCH_SPANS "):
                    for name, seconds in json.loads(line.split(" ", 1)[1]):
                        tracer.record(name, seconds)
        return proc.returncode, proc.stdout

    def warm_up(self):
        """Nothing: each subprocess is cold by design, and the import done by
        this process has already compiled the package's byte code."""

    def ops(self):
        return [(sub, lambda sub=sub, argv=argv: self._call(sub, argv))
                for sub, argv, _ in self.calls]

    def check_first(self, outputs):
        failures = []
        errs = [0.0]
        for (sub, argv, lam), out in zip(self.calls, outputs):
            if isinstance(out, Exception):
                continue
            code, stdout = out
            if code != 0:
                failures.append(f"cli {sub}: exit code {code}")
                continue
            try:
                problem = getattr(self, "_check_" + sub.replace("-", "_"))(stdout, lam, errs)
            except (ValueError, KeyError, IndexError) as exc:
                problem = f"unreadable output ({exc})"
            if problem:
                failures.append(f"cli {sub}: {problem}")
        index = [sub for sub, _, _ in self.calls].index("random-sweep")
        tracer, self.tracer = self.tracer, None
        try:
            again = self._call("random-sweep", self.calls[index][1])
        finally:
            self.tracer = tracer
        if again != outputs[index]:
            failures.append("cli random-sweep: output not byte-identical across calls")
        self.accuracy_err = max(errs)
        return failures

    def _check_bounds(self, stdout, lam, errs):
        got = json.loads(stdout)
        e = ch.EigenvalueVector(got["d"], lam)
        c = ch.probabilities_from_eigenvalues(e)
        low = cap.holevo_lower_via_classical(e)
        up = cap.holevo_upper_bound_weyl(ch.gpc_to_weyl(c))
        errs += [abs(got["chi_low"] - low), abs(got["chi_up"] - up)]
        if abs(got["chi_low"] - low) > TOL_LOWER_ROUTES or abs(got["chi_up"] - up) > TOL_FORMS:
            return f"bounds differ from the independent routes ({low}, {up})"
        return None

    def _check_zeta(self, stdout, lam, errs):
        got = json.loads(stdout)
        e = ch.EigenvalueVector(got["d"], lam)
        pform = cap.zeta_components_p_form(ch.probabilities_from_eigenvalues(e))
        err = float(np.max(np.abs(np.array(got["zeta"]) - pform.zeta)))
        errs.append(err)
        return f"zeta differs from the p-form by {err:.3e}" if err > TOL_FORMS else None

    def _check_cp_check(self, stdout, lam, errs):
        got = json.loads(stdout)
        margin = _fa_margin(np.clip(lam, -1.0 / (got["d"] - 1), 1.0))
        errs.append(abs(got["margin"] - margin))
        if (got["completely_positive"] != (margin >= -1e-12)
                or abs(got["margin"] - margin) > TOL_FORMS):
            return f"verdict/margin {got['completely_positive']}/{got['margin']} vs {margin}"
        return None

    def _check_random_sweep(self, stdout, lam, errs):
        d = self.sweep_d
        lams = selfcheck.sample_cp_eigenvalues(d, self.sweep_count,
                                               np.random.default_rng(self.sweep_seed))
        lines = ["index," + ",".join(f"lambda{a}" for a in range(1, d + 2))
                 + ",chi_low,chi_up,coincide"]
        for i, row in enumerate(lams):
            b = cap.capacity_bounds(ch.EigenvalueVector(d, row))
            lines.append(",".join([str(i)] + ["%.12g" % v for v in row]
                                  + ["%.12g" % b.chi_low, "%.12g" % b.chi_up,
                                     str(int(b.coincide))]))
        expect = "\n".join(lines) + "\n"
        return None if stdout == expect else "CSV differs from the in-process bounds"

    def _check_dynamics(self, stdout, lam, errs):
        rows = np.array([[float(v) for v in line.split(",")]
                         for line in stdout.strip().splitlines()[1:]])
        traj = dyn.eigenvalue_trajectory(dyn.RateSpec(self.rates), T_MAX, self.steps)
        lam_err = float(np.max(np.abs(rows[:, 1:4] - traj.lambdas)))
        star = np.abs(traj.lambdas).max(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            exact = 0.5 * (np.where(star < 1, (1 + star) * np.log1p(star)
                                    + (1 - star) * np.log1p(-star), 2 * np.log(2.0)))
        cap_err = float(np.max(np.abs(rows[:, 4] - exact)))
        rises = np.concatenate([[False], np.any(np.diff(traj.lambdas, axis=0)
                                                > dyn.P_DIVISIBILITY_TOL, axis=1)])
        flags_ok = np.array_equal(rows[:, 5].astype(int),
                                  (~np.cumsum(rises).astype(bool)).astype(int))
        errs += [lam_err, cap_err]
        if lam_err > TOL_CSV or cap_err > TOL_CSV or not flags_ok:
            return f"CSV vs quadrature: λ {lam_err:.3e}, capacity {cap_err:.3e}, flags {flags_ok}"
        return None

    def _check_verify(self, stdout, lam, errs):
        lines = stdout.strip().splitlines()
        passed = sum(line.startswith("[PASS]") for line in lines)
        if (any(line.startswith("[FAIL]") for line in lines) or passed < 15
                or lines[-1] != f"{passed}/{passed} checks passed"):
            return f"verify reported {lines[-1]!r}"
        return None

    def record(self):
        return {
            "calls_per_pass": [sub for sub, _, _ in self.calls],
            "dimensions": [int(argv[2]) for sub, argv, _ in self.calls
                           if sub in ("bounds", "zeta", "cp-check", "random-sweep")],
            "cp_check_inputs_cp": [bool(_fa_margin(lam) >= -1e-12)
                                   for sub, _, lam in self.calls if sub == "cp-check"],
            "random_sweep_count": self.sweep_count,
            "dynamics_steps": self.steps,
        }

    def derived(self, tracer, passes):
        out = {}
        for sub in CLI_SUBCOMMANDS:
            ds = tracer.durations.get(f"cli.{sub}.wall", [])
            out[f"cli.{sub}.wall_ms"] = (float(np.median(ds)) * 1e3 if ds else 0.0, "ms")
        return out


WORKLOADS = {w.name: w for w in (Sweep, Oracle, Dynamics, Cli)}


def per_layer_names():
    """Every per-layer metric a traced run reports: name -> unit."""
    names = {f"{call}.{suffix}": unit
             for call in TRACED_CALLS for suffix, unit in CALL_SUFFIXES}
    names.update(DERIVED)
    return names

