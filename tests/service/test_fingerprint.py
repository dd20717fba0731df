"""Tests for repro.service.fingerprint (cache-key stability)."""

import itertools
import subprocess
import sys

import numpy as np
import pytest

from repro.core import SpectralConfig
from repro.errors import InvalidParameterError
from repro.geometry import Grid, PointSet
from repro.graph import grid_graph, path_graph
from repro.linalg.backends import BACKENDS
from repro.service import (
    config_fingerprint,
    domain_fingerprint,
    graph_fingerprint,
    grid_fingerprint,
    order_key,
    points_fingerprint,
    shard_of_domain,
)


# ----------------------------------------------------------------------
# Determinism
# ----------------------------------------------------------------------
def test_config_fingerprint_deterministic_within_process():
    a = SpectralConfig(weight="inverse_manhattan", radius=2)
    b = SpectralConfig(weight="inverse_manhattan", radius=2)
    assert config_fingerprint(a) == config_fingerprint(b)


SUBPROCESS_SNIPPET = """\
from repro.core import SpectralConfig
from repro.geometry import Grid
from repro.service import config_fingerprint, grid_fingerprint, order_key
config = SpectralConfig(weight="inverse_manhattan", radius=2,
                        backend="lanczos")
print(config_fingerprint(config))
print(grid_fingerprint(Grid((17, 5, 3))))
print(order_key(config, grid_fingerprint(Grid((17, 5, 3)))))
"""


def _fingerprints_in_subprocess(hash_seed: str):
    import os

    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    src_dir = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src_dir) + os.pathsep + \
        env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", SUBPROCESS_SNIPPET],
        capture_output=True, text=True, env=env, check=True,
    )
    return out.stdout.split()


def test_fingerprints_stable_across_processes():
    """The digests cannot depend on interpreter hash randomization."""
    first = _fingerprints_in_subprocess("0")
    second = _fingerprints_in_subprocess("424242")
    assert first == second
    # ... and they match the current process too.
    config = SpectralConfig(weight="inverse_manhattan", radius=2,
                            backend="lanczos")
    grid_digest = grid_fingerprint(Grid((17, 5, 3)))
    assert first == [config_fingerprint(config), grid_digest,
                     order_key(config, grid_digest)]


# ----------------------------------------------------------------------
# Collision freedom
# ----------------------------------------------------------------------
def test_distinct_configs_never_collide():
    variants = [
        SpectralConfig(connectivity=c, radius=r, weight=w, backend=b)
        for c, r, w, b in itertools.product(
            ("orthogonal", "moore"), (1, 2),
            ("unit", "inverse_manhattan"), BACKENDS,
        )
    ]
    digests = [config_fingerprint(v) for v in variants]
    assert len(set(digests)) == len(variants)


def test_field_rename_cannot_alias():
    # The serialization is name=value per field, so a value moving from
    # one field to another changes the digest.
    a = SpectralConfig(connectivity="moore", weight="unit")
    b = SpectralConfig(connectivity="unit", weight="moore")  # nonsense
    assert config_fingerprint(a) != config_fingerprint(b)


def test_grid_fingerprints_by_shape():
    assert grid_fingerprint(Grid((4, 4))) == grid_fingerprint(Grid((4, 4)))
    assert grid_fingerprint(Grid((4, 4))) != grid_fingerprint(Grid((4, 5)))
    assert grid_fingerprint(Grid((16,))) != grid_fingerprint(Grid((4, 4)))


def test_graph_fingerprints_by_content():
    a = path_graph(10)
    b = path_graph(10)
    assert graph_fingerprint(a) == graph_fingerprint(b)
    assert graph_fingerprint(a) != graph_fingerprint(path_graph(11))
    # Same structure, different weights -> different content.  (At
    # radius 1, "inverse_manhattan" degenerates to unit weights, so the
    # gaussian model is the discriminating choice here.)
    grid = Grid((4, 4))
    unit = grid_graph(grid)
    weighted = grid_graph(grid, weight="gaussian")
    assert unit.structure_fingerprint() == weighted.structure_fingerprint()
    assert graph_fingerprint(unit) != graph_fingerprint(weighted)


def test_points_fingerprint_canonicalizes_cells():
    grid = Grid((8, 8))
    a = points_fingerprint(grid, [5, 1, 3, 3, 1])
    b = points_fingerprint(grid, np.array([1, 3, 5]))
    assert a == b
    assert a != points_fingerprint(grid, [1, 3, 6])
    assert a != points_fingerprint(Grid((8, 9)), [1, 3, 5])


def test_domain_dispatch_and_validation():
    grid = Grid((3, 3))
    assert domain_fingerprint(grid) == grid_fingerprint(grid)
    points = PointSet(grid, [5, 1, 3])
    assert domain_fingerprint(points) == points_fingerprint(grid, [1, 3, 5])
    graph = path_graph(4)
    assert domain_fingerprint(graph) == graph_fingerprint(graph)
    with pytest.raises(InvalidParameterError):
        domain_fingerprint("not a domain")
    with pytest.raises(InvalidParameterError):
        config_fingerprint({"weight": "unit"})


@pytest.mark.parametrize("domain, shards", [
    (Grid((12, 12)), [1, 0, 4, 3, 15]),
    (PointSet(Grid((8, 8)), [9, 1, 3, 2]), [0, 1, 2, 4, 10]),
    (path_graph(6), [0, 2, 0, 4, 2]),
], ids=["grid", "points", "graph"])
def test_shard_routing_is_pinned(domain, shards):
    """Routing reads the domain fingerprint, so a fleet keeps the shard
    assignment (and the per-shard stores it warmed) across releases."""
    assert [shard_of_domain(domain, n) for n in (2, 3, 5, 7, 16)] == shards


def test_domain_and_config_keys_compose():
    config_a = SpectralConfig()
    config_b = SpectralConfig(weight="inverse_manhattan")
    grid_a = grid_fingerprint(Grid((4, 4)))
    grid_b = grid_fingerprint(Grid((5, 4)))
    keys = {order_key(c, d) for c in (config_a, config_b)
            for d in (grid_a, grid_b)}
    assert len(keys) == 4
