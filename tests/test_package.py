import importlib
import inspect
import json
import os
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
