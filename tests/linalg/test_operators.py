"""Tests for repro.linalg.operators — the solvers' block helpers."""

import numpy as np
import pytest

from repro.errors import DimensionError
from repro.linalg.operators import (
    canonical_in_span,
    deflation_matrix,
    orthonormalize_block,
)


# ----------------------------------------------------------------------
# deflation_matrix
# ----------------------------------------------------------------------
def test_deflation_matrix_from_sequence():
    d = deflation_matrix([np.ones(4), np.arange(4.0)], 4)
    assert d.shape == (4, 2)
    assert np.array_equal(d[:, 0], np.ones(4))


def test_deflation_matrix_empty():
    d = deflation_matrix((), 5)
    assert d.shape == (5, 0)


def test_deflation_matrix_passthrough_2d():
    block = np.eye(3)[:, :2]
    assert deflation_matrix(block, 3).shape == (3, 2)


def test_deflation_matrix_shape_validation():
    with pytest.raises(DimensionError):
        deflation_matrix([np.ones(3)], 4)


# ----------------------------------------------------------------------
# orthonormalize_block
# ----------------------------------------------------------------------
def test_orthonormalize_block_basic():
    rng = np.random.default_rng(4)
    block = rng.normal(size=(20, 3))
    q = orthonormalize_block(block)
    assert q.shape == (20, 3)
    assert np.allclose(q.T @ q, np.eye(3), atol=1e-12)


def test_orthonormalize_block_against():
    rng = np.random.default_rng(5)
    against = np.linalg.qr(rng.normal(size=(20, 2)))[0]
    block = rng.normal(size=(20, 3))
    q = orthonormalize_block(block, against=against)
    assert np.abs(against.T @ q).max() < 1e-12


def test_orthonormalize_block_drops_dependent_columns():
    v = np.arange(10.0)
    block = np.column_stack([v, 2 * v, np.ones(10)])
    q = orthonormalize_block(block)
    assert q.shape[1] == 2


def test_orthonormalize_block_collapsed():
    against = np.ones((6, 1)) / np.sqrt(6)
    block = np.ones((6, 2))  # entirely inside the projected-out span
    q = orthonormalize_block(block, against=against)
    assert q.shape[1] == 0


# ----------------------------------------------------------------------
# canonical_in_span
# ----------------------------------------------------------------------
def test_canonical_in_span_sign_follows_probe():
    rng = np.random.default_rng(6)
    basis = np.linalg.qr(rng.normal(size=(15, 2)))[0]
    probe = rng.normal(size=15)
    v = canonical_in_span(basis, probe)
    assert np.linalg.norm(v) == pytest.approx(1.0)
    assert probe @ v > 0
    # Basis rotation does not change the canonical vector.
    angle = 0.3
    rot = np.array([[np.cos(angle), -np.sin(angle)],
                    [np.sin(angle), np.cos(angle)]])
    v2 = canonical_in_span(basis @ rot, probe)
    assert np.allclose(v, v2, atol=1e-12)


def test_canonical_in_span_orthogonal_probe_fallback():
    basis = np.eye(4)[:, :1]
    probe = np.eye(4)[:, 1]  # exactly orthogonal to the span
    v = canonical_in_span(basis, probe)
    assert np.linalg.norm(v) == pytest.approx(1.0)
    assert abs(abs(v[0]) - 1.0) < 1e-12
