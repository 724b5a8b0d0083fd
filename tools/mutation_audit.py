"""Mutation audit: every seeded single edit of src/ must make tier-1 fail.

Run from anywhere, with the test dependencies installed:

    python tools/mutation_audit.py

For each mutation the script copies src/, tests/ and pyproject.toml to a
temporary directory, applies the edit there and runs tier-1 with -x -q, the
copied src/ first on PYTHONPATH.  A mutant is killed when tier-1 fails and
survives when it passes.  The script exits 1 when an old text does not occur
exactly once in its file, when a mutant survives that KNOWN_SURVIVORS does
not list, or when a listed survivor is killed: the list only shrinks, and
since a known survivor lives only while the copy passes tier-1, its verdict
also shows that the copy runs.  It uses the standard library only and never
writes to the repository.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src", "gpchannels")
# a hung mutant counts as killed after this many seconds
TIMEOUT_S = 900

# (name, file under src/gpchannels, old text, new text)
MUTATIONS = [
    ("FA margin 1 + d*min -> 1 + (d-1)*min", "channels.py",
     "1.0 + d * lams.min(axis=1) - total", "1.0 + (d - 1) * lams.min(axis=1) - total"),
    ("basis term 1 + (d-1)L -> 1 + dL", "capacity.py",
     "yield 1.0 + (d - 1.0) * lams", "yield 1.0 + d * lams"),
    ("region tie > -> >=", "capacity.py",
     "(lam[:, 1:d] > total)", "(lam[:, 1:d] >= total)"),
    ("P_DIVISIBILITY_TOL 1e-10 -> 1e-3", "dynamics.py",
     "P_DIVISIBILITY_TOL = 1e-10", "P_DIVISIBILITY_TOL = 1e-3"),
    ("Frank-Wolfe _GAP_TOL 1e-13 -> 1e-6", "oracle.py",
     "_GAP_TOL = 1e-13", "_GAP_TOL = 1e-6"),
    ("cp_oracle_choi threshold -> -1", "oracle.py",
     ">= -CLAMP_TOL)", ">= -1.0)"),
    ("tensor factor order swapped", "channels.py",
     "np.kron(wa.probabilities, wb.probabilities)",
     "np.kron(wb.probabilities, wa.probabilities)"),
    ("COINCIDENCE_TOL 1e-9 -> 1e-6", "capacity.py",
     "COINCIDENCE_TOL = 1e-9", "COINCIDENCE_TOL = 1e-6"),
    ("cdot_formula_valid gap 1e-9 -> 1e-3", "dynamics.py",
     "(top - middle > 1e-9)", "(top - middle > 1e-3)"),
    ("MubSet skips verify_mub", "mub.py",
     "if not verify_mub(bases):", "if False:"),
    ("RateSpec accepts a bool", "dynamics.py",
     "            if _is_real(entry):",
     "            if _is_real(entry) or isinstance(entry, bool):"),
    ("warm starts transposed", "oracle.py",
     "(m or canonical_mub(dim)).bases.reshape(-1, dim)",
     "(m or canonical_mub(dim)).bases.transpose(0, 2, 1).reshape(-1, dim)"),
    ("prime_power skips _require_integer", "mub.py",
     '    _require_integer("dimension", d, UnsupportedDimensionError)\n', ""),
    ("_require_in_range skips _require_integer", "numerics.py",
     "    _require_integer(name, value, error)\n", ""),
    ("weyl_labels cache untyped", "mub.py",
     "@lru_cache(maxsize=None, typed=True)\ndef weyl_labels(",
     "@lru_cache(maxsize=None)\ndef weyl_labels("),
    ("canonical_mub cache untyped", "channels.py",
     "@lru_cache(maxsize=None, typed=True)\ndef canonical_mub(",
     "@lru_cache(maxsize=None)\ndef canonical_mub("),
    ("dynamics label sets in forward order", "dynamics.py",
     "weyl_labels(2)[::-1, 0]", "weyl_labels(2)[:, 0]"),
    ("RateSpec takes any container", "dynamics.py",
     "        if not (isinstance(self.rates, (tuple, list))\n"
     "                or isinstance(self.rates, np.ndarray) and self.rates.ndim == 1):",
     "        if False:"),
    ("kraus_terms takes any basis set", "channels.py",
     "    if not isinstance(m, MubSet):", "    if False:"),
    ("ODE growth safety 0.9 -> 0.8", "dynamics.py",
     "min(10.0, 0.9 * err ** -0.2)", "min(10.0, 0.8 * err ** -0.2)"),
    ("ODE step grows right after a rejection", "dynamics.py",
     "h_abs *= min(1.0, factor) if rejected else factor", "h_abs *= factor"),
    ("ODE steps stop only at t_end", "dynamics.py",
     "stops = sorted({k for k in knots if t < k < t_end} | {t_end})", "stops = [t_end]"),
    ("_real_array accepts complex dtypes", "numerics.py",
     'value.dtype.kind in "iuf"', 'value.dtype.kind in "iufc"'),
    ("EigenvalueVector converts on its own", "channels.py",
     'vals = _real_array("eigenvalues", self.values).ravel()',
     "vals = np.array(self.values, dtype=float).ravel()"),
    ("capacity_from_fidelity converts on its own", "capacity.py",
     'arr = _real_array("fidelities", f)', "arr = np.asarray(f, dtype=float)"),
    ("apply converts on its own", "channels.py",
     'rho = _complex_array("state", rho)', "rho = np.asarray(rho, dtype=complex)"),
    ("MubSet converts on its own", "mub.py",
     'np.array(_complex_array("bases", self.bases))', "np.array(self.bases, dtype=complex)"),
    ("trajectory takes fewer than 2 times", "dynamics.py",
     "        if times.size < 2:\n"
     '            raise ValueError(f"need at least 2 times, got {times.size}")\n', ""),
    ("trajectory takes one time", "dynamics.py",
     '        if times.size < 2:\n            raise ValueError(f"need at least 2 times',
     '        if times.size < 1:\n            raise ValueError(f"need at least 2 times'),
    ("trajectory outputs remade on every read", "dynamics.py",
     "    @cached_property\n", "    @property\n"),
    ("trajectory entries take any object", "dynamics.py",
     "    if not isinstance(traj, PauliTrajectory):", "    if False:"),
    ("per-dimension table skips require_prime_power", "capacity.py",
     "    require_prime_power(d)\n    k = np.arange(", "    k = np.arange("),
    ("eigenvalue box check never fails", "channels.py",
     "    if not inside.all():\n        i = int(np.argmin(inside.all(axis=1)))",
     "    if False:\n        i = int(np.argmin(inside.all(axis=1)))"),
    ("zeta slice of the shared x ln x pass off by one", "capacity.py",
     "xlx[:, 2 * d + 2:]", "xlx[:, 2 * d + 1:]"),
    ("one export under the wrong module", "__init__.py",
     '"unitary_u", "verify_mub", "weyl_labels"),\n    "oracle": ("SearchConfig", ',
     '"unitary_u", "weyl_labels"),\n    "oracle": ("SearchConfig", "verify_mub", '),
    ("cli imports dynamics at module level", "cli.py",
     "from .numerics import _require_in_range\n",
     "from .dynamics import RateSpec  # noqa: F401\nfrom .numerics import _require_in_range\n"),
    ("lambda* ties go to the last column", "dynamics.py",
     "np.where((ma >= mb) & (ma >= mc), a, np.where(mb >= mc, b, c))",
     "np.where((ma > mb) & (ma > mc), a, np.where(mb > mc, b, c))"),
    ("verify_mub converts on its own", "mub.py",
     'bases = _complex_array("bases", bases)', "bases = np.asarray(bases, dtype=complex)"),
    ("entropy of a pure input -0.0", "numerics.py",
     "return 0.0 - _xlogx(p).sum(axis=axis)", "return -_xlogx(p).sum(axis=axis)"),
    ("Weyl phase omega^{mk} -> omega^{ml}", "mub.py",
     "np.exp(2j * np.pi * m * k / p)", "np.exp(2j * np.pi * m * l / p)"),
    ("correspondence tests the diagonal", "mub.py",
     "t * (1.0 - np.eye(d))", "t * np.eye(d)"),
    ("search starts left unnormalized", "oracle.py",
     "        states /= np.linalg.norm(states, axis=1, keepdims=True)\n", ""),
    ("row maps take any batch shape", "channels.py",
     "    if rows.ndim != 2:", "    if False:"),
    ("eigenvalue_rows skips the sum check", "channels.py",
     " & (np.abs(total - 1.0) <= VALIDATION_TOL)", ""),
    ("ODE step never underflows", "dynamics.py",
     "min_step = 10.0 * (", "min_step = 0.0 * ("),
    ("ODE stage inputs drop y from the fused row", "dynamics.py",
     "coefs = np.ones((7, 7))", "coefs = np.zeros((7, 7))"),
    ("dense-output weight digit", "dynamics.py",
     "-8048581381 / 2820520608", "-8048581391 / 2820520608"),
    ("dense-output step lookup off by one", "dynamics.py",
     'side="left"', 'side="right"'),
    ("dense output skips a step that covers one grid time", "dynamics.py",
     "        if upto > done:", "        if upto > done + 1:"),
    ("dense output keeps every step", "dynamics.py",
     "        if upto > done:", "        if True:"),
    ("public alias of a row kernel", "channels.py",
     "def _require_cp_rows(", "cp_rows = _cp_rows\n\n\ndef _require_cp_rows("),
    ("trajectory reads every row as CP", "dynamics.py",
     "return bool(_cp_rows(self.lambdas).all())", "return True"),
    ("trajectory times in any order", "dynamics.py",
     "np.isfinite(times).all() and (times[1:] > times[:-1]).all()",
     "np.isfinite(times).all()"),
    ("kraus_probability_multiset takes any channel", "channels.py",
     "    d = _require_gpc(c).dimension\n    p = c.probabilities",
     "    d = c.dimension\n    p = c.probabilities"),
    ("a falsy search config runs the default", "oracle.py",
     "    if cfg is None:", "    if not cfg:"),
    ("trajectory capacity of the middle magnitude", "dynamics.py",
     "capacity = _basis_terms(np.minimum(top, 1.0), 2)",
     "capacity = _basis_terms(np.minimum(middle, 1.0), 2)"),
    ("trajectory capacity skips the clamp to 1", "dynamics.py",
     "_basis_terms(np.minimum(top, 1.0), 2)", "_basis_terms(top, 2)"),
    ("time derivative always takes the uneven formula", "dynamics.py",
     "    if (dx == dx[0]).all():", "    if False:"),
    ("time derivative's last edge over the first spacing", "dynamics.py",
     "(rows[:, -1] - rows[:, -2]) / dx[-1]", "(rows[:, -1] - rows[:, -2]) / dx[0]"),
    ("eigenvalue_trajectory takes any rate object", "dynamics.py",
     'naming its type,\n    before the grid is checked.\n    """\n    _require_rates(r)\n',
     'naming its type,\n    before the grid is checked.\n    """\n'),
]

# mutants that survive today, each with the ROADMAP item that will mend it;
# this list only shrinks
KNOWN_SURVIVORS = {
    "cp_oracle_choi threshold -> -1":
        "ROADMAP item 2: the Choi oracle takes eigenvalue rows, CP or not",
}


def check_edits(mutations) -> list:
    """The problems that stop the audit: an old text that does not occur
    exactly once in its file."""
    problems = []
    for name, filename, old, _ in mutations:
        count = (ROOT / PACKAGE / filename).read_text().count(old)
        if count != 1:
            problems.append(f"{name}: old text occurs {count} times in {filename}")
    return problems


def first_failure(output: str) -> str:
    for line in output.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" - ")[0]
    return ""


def run_mutant(filename: str, old: str, new: str):
    """(killed, first failing test or reason) for one edit, in a fresh copy."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", copy)
        target = copy / PACKAGE / filename
        text = target.read_text()
        if text.count(old) != 1:
            raise RuntimeError(f"{filename} changed during the audit")
        target.write_text(text.replace(old, new))
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [str(copy / "src"), os.environ.get("PYTHONPATH")])))
        where = subprocess.run(
            [sys.executable, "-c", "import gpchannels; print(gpchannels.__file__)"],
            cwd=copy, env=env, capture_output=True, text=True)
        if not where.stdout.startswith(str(copy)):
            raise RuntimeError(f"the copy is not the package imported: {where.stdout!r} "
                               f"{where.stderr[-500:]!r}")
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"],
                cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return True, f"timed out after {TIMEOUT_S} s"
        if proc.returncode == 0:
            return False, ""
        return True, first_failure(proc.stdout) or f"pytest exit code {proc.returncode}"


def main() -> int:
    problems = check_edits(MUTATIONS)
    for problem in problems:
        print(f"error: {problem}")
    if problems:
        return 1
    start = time.perf_counter()
    unexpected = []
    for name, filename, old, new in MUTATIONS:
        t0 = time.perf_counter()
        killed, detail = run_mutant(filename, old, new)
        took = time.perf_counter() - t0
        if killed and name in KNOWN_SURVIVORS:
            # also the baseline check: a known survivor lives only while the
            # unmutated copy passes tier-1
            print(f"KILLED    {name} ({detail}, {took:.1f} s): a known survivor, "
                  "remove it from KNOWN_SURVIVORS", flush=True)
            unexpected.append(name)
        elif killed:
            print(f"killed    {name} ({detail}, {took:.1f} s)", flush=True)
        elif name in KNOWN_SURVIVORS:
            print(f"survived  {name} (known: {KNOWN_SURVIVORS[name]}, {took:.1f} s)",
                  flush=True)
        else:
            print(f"SURVIVED  {name} (not a known survivor, {took:.1f} s)", flush=True)
            unexpected.append(name)
    print(f"{len(MUTATIONS)} mutants, {len(unexpected)} unexpected verdicts, "
          f"{time.perf_counter() - start:.0f} s")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
