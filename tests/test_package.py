import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
import types

import pytest

import gpchannels

# names that left the package because nothing in it called them, by the module
# that defined them
REMOVED = {
    "AdditivityReport": "oracle",
    "InvalidStateError": "errors",
    "additivity_report": "oracle",
    "channel_from_json": "channels",
    "check_density_matrix": "numerics",
    "majorizes": "numerics",
    "min_output_entropy": "oracle",
    "shannon_entropy": "numerics",
    "von_neumann_entropy": "numerics",
    "weyl_operator": "mub",
}

# kernels that read no input of their own, made private to the module that
# defines them; each has a checked public counterpart
PRIVATE = {
    "classical_map_rows": "channels",
    "clip_eigenvalue_rows": "channels",
    "cp_margin_rows": "channels",
    "cp_rows": "channels",
    "displacement_products": "mub",
    "kraus_superoperator": "channels",
    "p_divisible_so_far": "dynamics",
    "require_cp_rows": "channels",
    "transition_row_entropies": "capacity",
    "weighted_gram": "channels",
}

# public entries that are not exports but read and check their own input
CHECKED_ENTRIES = {
    "capacity": {"channel_fidelity_extremes_rows"},
    "channels": {"eigenvalue_rows", "probability_rows", "sample_cp_eigenvalues"},
    "cli": {"build_parser", "main", "run_formula_suite"},
    "mub": {"require_prime_power"},
    "numerics": {"as_distribution"},
}


def test_all_is_the_sorted_public_surface():
    names = gpchannels.__all__
    assert names == sorted(set(names))
    for name in names:
        assert getattr(gpchannels, name) is not None, name
    # the package binds an export when it is first used, so the loop above
    # has bound them all; the export table and __all__ then name the same
    # things: every public name the package binds, its modules aside
    bound = {name for name, value in vars(gpchannels).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert bound == set(names)


@pytest.mark.parametrize("name", gpchannels.__all__)
def test_every_export_is_documented_where_it_is_defined(name):
    # the package re-exports its own objects, under the names they are defined
    # with, each with a docstring
    value = getattr(gpchannels, name)
    assert value.__module__.startswith("gpchannels.")
    assert getattr(sys.modules[value.__module__], name) is value
    assert inspect.getdoc(value)


@pytest.mark.parametrize("name", list(REMOVED))
def test_removed_names_are_gone(name):
    assert name not in gpchannels.__all__
    assert not hasattr(gpchannels, name)
    assert not hasattr(importlib.import_module("gpchannels." + REMOVED[name]), name)


@pytest.mark.parametrize("name", list(PRIVATE))
def test_unchecked_kernels_are_private(name):
    module = importlib.import_module("gpchannels." + PRIVATE[name])
    assert not hasattr(module, name)
    assert callable(getattr(module, "_" + name))


def test_zeta_components_has_no_region_reassembly():
    from gpchannels.capacity import ZetaComponents

    assert not hasattr(ZetaComponents, "zeta_for_region")


@pytest.mark.parametrize("module", [info.name for info in pkgutil.iter_modules(
    gpchannels.__path__)])
def test_public_functions_and_classes_are_exports_or_checked_entries(module):
    # a public name either is an export, which reads its input through the
    # package's checks, or is listed above; selfcheck's public names are its
    # registered checks and their result type
    mod = importlib.import_module("gpchannels." + module)
    defined = {name for name, value in vars(mod).items()
               if not name.startswith("_") and callable(value)
               and getattr(value, "__module__", None) == mod.__name__}
    allowed = {name for name in gpchannels.__all__
               if getattr(gpchannels, name).__module__ == mod.__name__}
    allowed |= CHECKED_ENTRIES.get(module, set())
    if module == "selfcheck":
        allowed |= {check.__name__ for check in mod.CHECKS} | {"CheckResult"}
    assert defined == allowed


def test_dir_lists_every_export_and_loads_no_submodule():
    # a fresh interpreter: this process has loaded every module already
    src = os.path.dirname(os.path.dirname(os.path.abspath(gpchannels.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    script = ("import json, sys, gpchannels; names = dir(gpchannels); print(json.dumps(["
              "sorted(set(gpchannels.__all__) - set(names)), "
              "sorted(m for m in sys.modules if m.startswith('gpchannels.'))]))")
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[], []]
