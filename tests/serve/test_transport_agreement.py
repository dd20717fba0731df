"""The process and socket fronts return :class:`SpectralLPM`'s permutation.

The in-process half of this property lives in
``tests/service/test_front_agreement.py``; here its random grids and
graphs cross a worker pipe (``ProcessPoolFrontend``) and a socket
(``RemoteFrontend`` to a ``SpectralServer``), on every exact backend
plus ``multilevel`` and ``auto``.  One fleet and one server serve the
whole module, so an example pays no spawn.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ProcessPoolFrontend
from repro.core import SpectralConfig, SpectralLPM
from repro.net import RemoteFrontend, SpectralServer
from repro.service import ShardedIndexFrontend

from tests.service.test_front_agreement import (
    BACKENDS,
    configs,
    graphs,
    grids,
)

pytestmark = [pytest.mark.multiproc, pytest.mark.net]


@pytest.fixture(scope="module")
def pool():
    with ProcessPoolFrontend(shards=2) as front:
        yield front


@pytest.fixture(scope="module")
def remote():
    with SpectralServer(ShardedIndexFrontend(shards=2),
                        dispatchers=2) as server:
        host, port = server.address
        with RemoteFrontend(host, port, read_timeout=60) as client:
            yield client


@settings(max_examples=30)
@given(grid=grids(), config=configs())
def test_pool_and_remote_order_a_grid_like_spectral_lpm(pool, remote,
                                                        grid, config):
    reference = SpectralLPM.from_config(config).order_grid(grid)
    assert pool.order_grid(grid, config) == reference
    assert remote.order_grid(grid, config) == reference


@settings(max_examples=30)
@given(graph=graphs(), backend=st.sampled_from(BACKENDS))
def test_pool_and_remote_order_a_graph_like_spectral_lpm(pool, remote,
                                                         graph, backend):
    config = SpectralConfig(backend=backend)
    reference = SpectralLPM.from_config(config).order_graph(graph)
    assert pool.order_graph(graph, config) == reference
    assert remote.order_graph(graph, config) == reference
