"""Tests for the REPRO_*_CUTOFF environment overrides (backends.py)."""

import subprocess
import sys

import pytest

from repro.errors import ConfigurationError, InvalidParameterError
from repro.linalg import cutoff_from_env
from repro.linalg import backends as backend_registry


def test_default_when_absent(monkeypatch):
    monkeypatch.delenv("REPRO_DENSE_CUTOFF", raising=False)
    assert cutoff_from_env("REPRO_DENSE_CUTOFF", 1024) == 1024


def test_empty_value_means_default(monkeypatch):
    monkeypatch.setenv("REPRO_MULTILEVEL_CUTOFF", "   ")
    assert cutoff_from_env("REPRO_MULTILEVEL_CUTOFF", 7) == 7


def test_valid_override(monkeypatch):
    monkeypatch.setenv("REPRO_DENSE_CUTOFF", " 2048 ")
    assert cutoff_from_env("REPRO_DENSE_CUTOFF", 1024) == 2048


@pytest.mark.parametrize("bad", ["abc", "1.5", "-3", "0", "1e6", "nan"])
def test_invalid_values_rejected(monkeypatch, bad):
    monkeypatch.setenv("REPRO_DENSE_CUTOFF", bad)
    with pytest.raises(ConfigurationError) as excinfo:
        cutoff_from_env("REPRO_DENSE_CUTOFF", 1024)
    # The message names the offending variable and the requirement.
    assert "REPRO_DENSE_CUTOFF" in str(excinfo.value)
    assert "positive integer" in str(excinfo.value)


def test_configuration_error_is_an_invalid_parameter_error(monkeypatch):
    """Handlers written against the old exception type keep working."""
    monkeypatch.setenv("REPRO_LOBPCG_CUTOFF", "-1")
    with pytest.raises(InvalidParameterError):
        cutoff_from_env("REPRO_LOBPCG_CUTOFF", 4096)


def test_valid_lobpcg_override(monkeypatch):
    monkeypatch.setenv("REPRO_LOBPCG_CUTOFF", "512")
    assert cutoff_from_env("REPRO_LOBPCG_CUTOFF", 4096) == 512


def _resolved_cutoffs(env_extra, prelude=""):
    import os

    env = {name: value for name, value in os.environ.items()
           if not name.startswith("REPRO_")}
    env.update(env_extra)
    src_dir = os.path.abspath(
        os.path.join(os.path.dirname(__file__), "..", "..", "src"))
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    snippet = (prelude + "from repro.linalg import backends as b; "
               "print(b.DENSE_CUTOFF); print(b.MULTILEVEL_CUTOFF); "
               "print(b.LOBPCG_CUTOFF)")
    out = subprocess.run([sys.executable, "-c", snippet],
                         capture_output=True, text=True, env=env)
    return out


# Makes importlib report scipy as not installed, as on the numpy-only leg.
_SCIPY_NOT_INSTALLED = (
    "import importlib.util as u; _find = u.find_spec; "
    "u.find_spec = lambda name, *a: "
    "None if name == 'scipy' else _find(name, *a); ")


def test_dense_default_follows_the_installed_leg():
    import importlib.util

    installed = importlib.util.find_spec("scipy") is not None
    out = _resolved_cutoffs({})
    assert out.returncode == 0, out.stderr
    assert int(out.stdout.split()[0]) == (
        backend_registry.SCIPY_DENSE_CUTOFF if installed
        else backend_registry.NUMPY_DENSE_CUTOFF)
    out = _resolved_cutoffs({}, prelude=_SCIPY_NOT_INSTALLED)
    assert out.returncode == 0, out.stderr
    assert int(out.stdout.split()[0]) == backend_registry.NUMPY_DENSE_CUTOFF


def test_dense_override_wins_on_both_legs():
    for prelude in ("", _SCIPY_NOT_INSTALLED):
        out = _resolved_cutoffs({"REPRO_DENSE_CUTOFF": "300"},
                                prelude=prelude)
        assert out.returncode == 0, out.stderr
        assert out.stdout.split()[0] == "300"


def test_import_repro_does_not_import_scipy():
    out = _resolved_cutoffs({}, prelude=(
        "import sys, repro, repro.core, repro.linalg; "
        "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy']"
        "; "))
    assert out.returncode == 0, out.stderr


def test_overrides_take_effect_at_import():
    out = _resolved_cutoffs({"REPRO_DENSE_CUTOFF": "77",
                             "REPRO_MULTILEVEL_CUTOFF": "99999",
                             "REPRO_LOBPCG_CUTOFF": "2048"})
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["77", "99999", "2048"]


def test_invalid_override_fails_loudly_at_import():
    out = _resolved_cutoffs({"REPRO_MULTILEVEL_CUTOFF": "soon"})
    assert out.returncode != 0
    assert "REPRO_MULTILEVEL_CUTOFF" in out.stderr


def test_auto_policy_respects_dense_cutoff(monkeypatch):
    monkeypatch.setattr(backend_registry, "DENSE_CUTOFF", 10)
    assert backend_registry.resolve_auto(10, 1) == "dense"
    assert backend_registry.resolve_auto(11, 1) in ("scipy", "lanczos")
