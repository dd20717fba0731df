"""Unit tests for snap_ties and symmetric_grid_probe."""

import numpy as np
import pytest

import repro.core.spectral as spectral_module
from repro.core import snap_ties, symmetric_grid_probe
from repro.geometry import Grid


# ----------------------------------------------------------------------
# snap_ties
# ----------------------------------------------------------------------
def test_snap_ties_groups_close_values():
    values = np.array([0.0, 1e-12, 0.5, 0.5 + 1e-12, 1.0])
    groups = snap_ties(values)
    assert groups[0] == groups[1]
    assert groups[2] == groups[3]
    assert len(set(groups)) == 3


def test_snap_ties_preserves_order():
    values = np.array([0.3, 0.1, 0.2])
    groups = snap_ties(values)
    assert list(groups) == [2, 0, 1]


def test_snap_ties_all_distinct():
    values = np.arange(10, dtype=float)
    assert list(snap_ties(values)) == list(range(10))


def test_snap_ties_all_equal():
    values = np.full(5, 3.14)
    assert list(snap_ties(values)) == [0] * 5


def test_snap_ties_empty_and_singleton():
    assert list(snap_ties(np.array([]))) == []
    assert list(snap_ties(np.array([7.0]))) == [0]


def test_snap_ties_zero_tol_keeps_float_distinctions(monkeypatch):
    # Values tie only when their gap is at most SNAP_TOL, never above it.
    monkeypatch.setattr(spectral_module, "SNAP_TOL", 0.0)
    values = np.array([0.0, 1e-15])
    assert len(set(snap_ties(values))) == 2


# ----------------------------------------------------------------------
# symmetric_grid_probe
# ----------------------------------------------------------------------
def test_probe_is_unit_and_centered():
    probe = symmetric_grid_probe(Grid((4, 6)))
    assert np.linalg.norm(probe) == pytest.approx(1.0)
    assert probe.sum() == pytest.approx(0.0, abs=1e-12)


def test_probe_invariant_under_axis_permutation():
    grid = Grid((5, 5, 5))
    probe = symmetric_grid_probe(grid).reshape(5, 5, 5)
    assert np.allclose(probe, probe.transpose(1, 0, 2))
    assert np.allclose(probe, probe.transpose(2, 1, 0))


def test_probe_monotone_along_diagonal():
    grid = Grid((4, 4))
    probe = symmetric_grid_probe(grid).reshape(4, 4)
    diagonal = [probe[i, i] for i in range(4)]
    assert diagonal == sorted(diagonal)


def test_probe_single_cell_grid():
    probe = symmetric_grid_probe(Grid((1, 1)))
    assert probe.shape == (1,)
    assert probe[0] == 0.0


def test_probe_degenerate_one_wide_axes():
    probe = symmetric_grid_probe(Grid((1, 5)))
    assert np.linalg.norm(probe) == pytest.approx(1.0)
