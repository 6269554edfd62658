"""Field snapshot round trips."""

import numpy as np
import pytest

from reproflow.fields import Grid, ScalarField, VectorField
from reproflow.snapshots import load, save_scalar, save_vector


def test_vector_round_trip(tmp_path):
    grid = Grid("square", 12)
    rng = np.random.default_rng(0)
    w = VectorField(grid, rng.standard_normal(grid.shape_u()),
                    rng.standard_normal(grid.shape_v()))
    path = tmp_path / "w.npz"
    save_vector(str(path), w, t=0.75)
    back, t = load(str(path))
    assert t == 0.75
    assert back.grid == grid
    assert np.array_equal(back.u, w.u)
    assert np.array_equal(back.v, w.v)


def test_scalar_round_trip_keeps_location(tmp_path):
    grid = Grid("square", 16)
    rng = np.random.default_rng(1)
    for loc, shape in (("center", grid.shape_center()), ("node", grid.shape_node())):
        s = ScalarField(grid, rng.standard_normal(shape), loc=loc)
        path = tmp_path / f"s_{loc}.npz"
        save_scalar(str(path), s, t=2.0)
        back, t = load(str(path))
        assert t == 2.0
        assert back.loc == loc
        assert back.grid == grid
        assert np.array_equal(back.values, s.values)


def test_load_rejects_junk(tmp_path):
    path = tmp_path / "junk.npz"
    np.savez(str(path), nonsense=np.arange(3))
    with pytest.raises(Exception):
        load(str(path))
