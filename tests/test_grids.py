"""Grid container and its axis convention."""

import numpy as np
import pytest

from kinetic_flow.errors import ValidationError
from kinetic_flow.grids import GridFunction, grid_axis


def test_grid_axis_periodic_convention():
    ax = grid_axis(2.0, 8)
    assert ax[0] == -2.0
    assert ax[-1] < 2.0          # right endpoint excluded, periodic wrap
    assert np.allclose(np.diff(ax), 0.5)


def test_from_callable_and_kinds():
    f = GridFunction.from_callable(lambda X, V: X + 2 * V, 3.0, 16, ("x", "v"))
    assert f.values.shape == (16, 16)
    assert f.axes_of_kind("x") == (0,)
    assert f.axes_of_kind("v") == (1,)
    assert f.is_scalar
    assert np.isclose(f.cell_volume, (6.0 / 16) ** 2)


def test_constructor_validation():
    with pytest.raises(ValidationError):
        GridFunction(np.zeros((4, 5)), 2.0, ("x", "v"))     # ragged grid
    with pytest.raises(ValidationError):
        GridFunction(np.zeros((4, 4)), -1.0, ("x", "v"))
