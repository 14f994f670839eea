"""Shared heavy fixtures; built once per session and only on demand."""

import os
from pathlib import Path

import numpy as np
import pytest

import parabgmt
from parabgmt.generators import (
    gen_cantor_segments,
    gen_quartic_cantor,
    gen_regular_defeater,
    gen_vertical_cantor,
    gen_weierstrass_graph,
)


@pytest.fixture
def child_pythonpath(monkeypatch):
    """Child Python processes import the parabgmt these tests import."""
    src = str(Path(parabgmt.__file__).resolve().parents[1])
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


@pytest.fixture(scope="session")
def weier_c1():
    """Strongly oscillating graph cloud over [0, 1], 50001 atoms."""
    return gen_weierstrass_graph(n=1, c0=1.0, K=50, resolution=2e-5)


@pytest.fixture(scope="session")
def defeater6():
    """Depth-6 recursive equal-pair rescaling, the slowest fixture."""
    return gen_regular_defeater(depth=6, c0=0.33, K=48)


@pytest.fixture(scope="session")
def cantor83():
    """Nested diagonal segment construction, 72000 atoms."""
    return gen_cantor_segments(n_seq=(2, 3, 4, 30), depth=4, points_per_segment=100)


@pytest.fixture(scope="session")
def vcantor():
    """Nested vertical squares with staggered columns, 98304 atoms."""
    return gen_vertical_cantor(n_seq=(2, 4, 6, 8, 10), depth=5, rows=64, cols=2)


@pytest.fixture(scope="session")
def quartic14():
    """Quartically flat graph over a fat Cantor set, 32768 atoms."""
    return gen_quartic_cantor(depth=14)


@pytest.fixture(scope="session")
def square600k():
    """Uniform cloud on the unit square of P^1."""
    return np.random.default_rng(42).random((600000, 2))
