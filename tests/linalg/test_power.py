"""Tests for repro.linalg.power."""

import numpy as np
import pytest

from repro.errors import InvalidParameterError
from repro.linalg import deterministic_start


def test_deterministic_start_reproducible_and_unit():
    a = deterministic_start(10)
    b = deterministic_start(10)
    assert np.array_equal(a, b)
    assert np.linalg.norm(a) == pytest.approx(1.0)
    c = deterministic_start(10, salt=1)
    assert not np.array_equal(a, c)
    with pytest.raises(InvalidParameterError):
        deterministic_start(0)
