"""Tests for repro.service.store (the on-disk artifact tier)."""

import json

import numpy as np
import pytest

from repro.core import LinearOrder, SpectralConfig
from repro.errors import InvalidParameterError
from repro.service import ArtifactStore, OrderArtifact
from repro.service.store import STORE_VERSION


def _artifact(key="ab12", n=9):
    return OrderArtifact(
        key=key,
        config=SpectralConfig(),
        domain="grid(3, 3)",
        order=LinearOrder(np.random.default_rng(7).permutation(n)),
        lambda2=0.25,
        multiplicity=2,
        backend="dense",
        residual=1e-12,
        eigenvalues=(0.25, 0.25, 0.5),
        solver_calls=1,
    )


def test_round_trip(tmp_path):
    store = ArtifactStore(tmp_path)
    artifact = _artifact()
    store.save(artifact)
    loaded = store.load("ab12")
    assert loaded is not None
    assert loaded.order == artifact.order
    assert loaded.config == artifact.config
    assert loaded.domain == artifact.domain
    assert loaded.lambda2 == pytest.approx(0.25)
    assert loaded.multiplicity == 2
    assert loaded.backend == "dense"
    assert loaded.eigenvalues == pytest.approx((0.25, 0.25, 0.5))
    assert loaded.source == "disk"
    assert loaded.solver_calls == 0  # loads never cost a solve


def test_missing_key_is_a_miss(tmp_path):
    store = ArtifactStore(tmp_path)
    assert store.load("beef") is None
    assert store.load_failures == 0  # absence is not corruption


def test_meta_without_permutation_counts_as_failure(tmp_path):
    """A crash between the two writes leaves a half artifact; that is
    corruption (counted), not a cold miss (regression test)."""
    store = ArtifactStore(tmp_path)
    store.save(_artifact())
    (tmp_path / "ab12.npy").unlink()
    assert store.load("ab12") is None
    assert store.load_failures == 1


def test_corrupt_metadata_is_a_miss(tmp_path):
    store = ArtifactStore(tmp_path)
    store.save(_artifact())
    (tmp_path / "ab12.json").write_text("{not json")
    assert store.load("ab12") is None
    assert store.load_failures == 1


def test_version_mismatch_is_a_miss(tmp_path):
    store = ArtifactStore(tmp_path)
    store.save(_artifact())
    meta = json.loads((tmp_path / "ab12.json").read_text())
    meta["version"] = STORE_VERSION + 1
    (tmp_path / "ab12.json").write_text(json.dumps(meta))
    assert store.load("ab12") is None
    assert store.load_failures == 1


def test_key_mismatch_is_a_miss(tmp_path):
    """A renamed/copied artifact file cannot be served under a new key."""
    store = ArtifactStore(tmp_path)
    store.save(_artifact())
    (tmp_path / "ab12.json").rename(tmp_path / "cd34.json")
    (tmp_path / "ab12.npy").rename(tmp_path / "cd34.npy")
    assert store.load("cd34") is None
    assert store.load_failures == 1


def test_corrupt_permutation_is_a_miss(tmp_path):
    store = ArtifactStore(tmp_path)
    store.save(_artifact())
    (tmp_path / "ab12.npy").write_bytes(b"\x00" * 16)
    assert store.load("ab12") is None
    assert store.load_failures == 1


def test_truncated_permutation_is_a_miss(tmp_path):
    store = ArtifactStore(tmp_path)
    store.save(_artifact(n=9))
    # A valid .npy of the wrong length (metadata says n=9).
    with open(tmp_path / "ab12.npy", "wb") as handle:
        np.save(handle, np.arange(4, dtype=np.int64))
    assert store.load("ab12") is None
    assert store.load_failures == 1


def test_swapped_permutation_entries_are_a_miss(tmp_path):
    """A still-valid permutation that is not the saved one fails the
    checksum instead of being served."""
    store = ArtifactStore(tmp_path)
    store.save(_artifact(n=9))
    permutation = np.load(tmp_path / "ab12.npy")
    permutation[[0, 1]] = permutation[[1, 0]]
    with open(tmp_path / "ab12.npy", "wb") as handle:
        np.save(handle, permutation)
    assert store.load("ab12") is None
    assert store.load_failures == 1


def test_keys_listing_and_delete(tmp_path):
    store = ArtifactStore(tmp_path)
    assert store.keys() == [] and len(store) == 0
    store.save(_artifact(key="aa"))
    store.save(_artifact(key="bb"))
    assert store.keys() == ["aa", "bb"]
    assert "aa" in store and "cc" not in store
    assert store.delete("aa")
    assert not store.delete("aa")
    assert store.keys() == ["bb"]


def test_non_hex_keys_rejected(tmp_path):
    store = ArtifactStore(tmp_path)
    for bad in ("../escape", "ABCD", "a b", ""):
        with pytest.raises(InvalidParameterError):
            store.load(bad)


def test_no_temp_files_left_behind(tmp_path):
    store = ArtifactStore(tmp_path)
    store.save(_artifact())
    leftovers = [p.name for p in tmp_path.iterdir()
                 if p.suffix == ".tmp"]
    assert leftovers == []
