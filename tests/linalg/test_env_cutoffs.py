"""``auto``'s backend cutoffs are constants, whatever the environment says.

An order is cached under its configuration and domain alone, so nothing
outside that key may move ``auto``'s choice of backend: the dense
cutoff follows the installed leg, and variables named like the old
``REPRO_*_CUTOFF`` overrides are ignored.
"""

import json
import os
import subprocess
import sys

from repro.core import SpectralConfig
from repro.geometry import Grid
from repro.linalg import backends as backend_registry
from repro.service import OrderingService

SRC_DIR = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "..", "src"))


def _run_child(snippet, env_extra=None):
    env = {name: value for name, value in os.environ.items()
           if not name.startswith("REPRO_")}
    env.update(env_extra or {})
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, "-c", snippet],
                          capture_output=True, text=True, env=env)


def _resolved_dense_cutoff(prelude=""):
    return _run_child(prelude + "from repro.linalg import backends as b; "
                      "print(b.DENSE_CUTOFF)")


# Makes importlib report scipy as not installed, as on the numpy-only leg.
_SCIPY_NOT_INSTALLED = (
    "import importlib.util as u; _find = u.find_spec; "
    "u.find_spec = lambda name, *a: "
    "None if name == 'scipy' else _find(name, *a); ")


def test_dense_default_follows_the_installed_leg():
    import importlib.util

    installed = importlib.util.find_spec("scipy") is not None
    out = _resolved_dense_cutoff()
    assert out.returncode == 0, out.stderr
    assert int(out.stdout.split()[0]) == (
        backend_registry.SCIPY_DENSE_CUTOFF if installed
        else backend_registry.NUMPY_DENSE_CUTOFF)
    out = _resolved_dense_cutoff(prelude=_SCIPY_NOT_INSTALLED)
    assert out.returncode == 0, out.stderr
    assert int(out.stdout.split()[0]) == backend_registry.NUMPY_DENSE_CUTOFF


def test_import_repro_does_not_import_scipy():
    out = _resolved_dense_cutoff(prelude=(
        "import sys, repro, repro.core, repro.linalg; "
        "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy']"
        "; "))
    assert out.returncode == 0, out.stderr


_MOORE = SpectralConfig(connectivity="moore")

_ORDER_MOORE_GRID = (
    "import json; "
    "from repro.core import SpectralConfig; "
    "from repro.geometry import Grid; "
    "from repro.service import OrderingService; "
    "a = OrderingService().grid_artifact(Grid((40, 40)), "
    "SpectralConfig(connectivity='moore')); "
    "print(json.dumps([a.backend, a.order.permutation.tolist()]))")


def test_environment_does_not_steer_auto():
    """A child told to lower every old cutoff orders like this process.

    The multilevel override used to hand this 1,600-vertex grid to the
    approximation, whose permutation differs from the exact one, and
    store it under the same key as the exact order.
    """
    out = _run_child(_ORDER_MOORE_GRID, {
        "REPRO_MULTILEVEL_CUTOFF": "1000",
        "REPRO_DENSE_CUTOFF": "4",
        "REPRO_LOBPCG_CUTOFF": "8",
    })
    assert out.returncode == 0, out.stderr
    backend, permutation = json.loads(out.stdout)
    here = OrderingService().grid_artifact(Grid((40, 40)), _MOORE)
    assert backend == here.backend != "multilevel"
    assert permutation == here.order.permutation.tolist()


def test_auto_policy_respects_dense_cutoff(monkeypatch):
    monkeypatch.setattr(backend_registry, "DENSE_CUTOFF", 10)
    assert backend_registry.resolve_auto(10, 1) == "dense"
    assert backend_registry.resolve_auto(11, 1) in ("scipy", "lanczos")
