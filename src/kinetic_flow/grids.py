"""Periodic tensor grids and sampled functions on them.

A GridFunction stores samples of a function on a uniform tensor grid over the
periodic box [-L, L)^k.  Axes are labelled as position ('x') or velocity ('v')
axes; the split is what the anisotropic operators key on.  Values may carry
trailing component dimensions (vector fields); the grid axes always come
first.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ValidationError

__all__ = ["GridFunction", "fourier_multiply", "grid_axis", "grid_mesh"]


def grid_axis(box_half_width, points_per_axis):
    """Return the 1-d coordinate array for one axis of the periodic box."""
    L = float(box_half_width)
    n = int(points_per_axis)
    if not (np.isfinite(L) and L > 0):
        raise ValidationError(f"box_half_width must be finite and positive, got {L}")
    if n < 2:
        raise ValidationError(f"points_per_axis must be >= 2, got {n}")
    return -L + (2.0 * L / n) * np.arange(n)


def grid_mesh(box_half_width, points_per_axis, num_axes):
    """Meshgrid (ij indexing) of num_axes copies of the axis coordinates."""
    ax = grid_axis(box_half_width, points_per_axis)
    return np.meshgrid(*([ax] * num_axes), indexing="ij")


def fourier_multiply(values, mult, axes):
    """Apply the Fourier multiplier ``mult`` over ``axes`` of ``values``.

    ``values`` is transformed by fftn over ``axes``, multiplied by ``mult``
    (shaped over the leading grid axes, broadcast over trailing component
    axes), transformed back and returned as its real part.
    """
    mult = mult.reshape(mult.shape + (1,) * (values.ndim - mult.ndim))
    return np.fft.ifftn(np.fft.fftn(values, axes=axes) * mult, axes=axes).real


@dataclass
class GridFunction:
    """Function samples on a uniform periodic tensor grid.

    Parameters
    ----------
    values : ndarray
        Shape ``(n,)*k + component_shape``; the first ``len(axis_kinds)``
        axes are grid axes.
    box_half_width : float
        Half-width L of the periodic box [-L, L) on every axis.
    axis_kinds : tuple of str
        One of 'x' or 'v' per grid axis, e.g. ('x', 'v') for a d=1 phase
        space slice.
    """

    values: np.ndarray
    box_half_width: float
    axis_kinds: tuple

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        self.axis_kinds = tuple(self.axis_kinds)
        k = len(self.axis_kinds)
        if k == 0:
            raise ValidationError("at least one grid axis required")
        for kind in self.axis_kinds:
            if kind not in ("x", "v"):
                raise ValidationError(f"axis kind must be 'x' or 'v', got {kind!r}")
        if self.values.ndim < k:
            raise ValidationError(
                f"values has {self.values.ndim} axes but {k} grid axes declared"
            )
        n = self.values.shape[0]
        if any(self.values.shape[i] != n for i in range(k)):
            raise ValidationError(
                f"grid axes must share one points_per_axis, got {self.values.shape[:k]}"
            )
        if n < 2:
            raise ValidationError("points_per_axis must be >= 2")
        self.box_half_width = float(self.box_half_width)
        if not (np.isfinite(self.box_half_width) and self.box_half_width > 0):
            raise ValidationError("box_half_width must be finite and positive")

    # -- geometry ---------------------------------------------------------

    @property
    def num_grid_axes(self):
        return len(self.axis_kinds)

    @property
    def points_per_axis(self):
        return self.values.shape[0]

    @property
    def spacing(self):
        return 2.0 * self.box_half_width / self.points_per_axis

    @property
    def cell_volume(self):
        return self.spacing ** self.num_grid_axes

    @property
    def component_shape(self):
        return self.values.shape[self.num_grid_axes:]

    @property
    def is_scalar(self):
        return self.component_shape == ()

    def axis_coordinates(self):
        return grid_axis(self.box_half_width, self.points_per_axis)

    def mesh(self):
        return grid_mesh(self.box_half_width, self.points_per_axis, self.num_grid_axes)

    def wavenumbers(self):
        """Angular wavenumbers along one axis, fftfreq ordering."""
        n = self.points_per_axis
        return 2.0 * np.pi * np.fft.fftfreq(n, d=self.spacing)

    def mode_vectors(self):
        """Wavenumbers of each grid axis, shaped to broadcast over the grid."""
        k = self.wavenumbers()
        g = self.num_grid_axes
        return [k.reshape((1,) * a + (-1,) + (1,) * (g - a - 1)) for a in range(g)]

    def axes_of_kind(self, kind):
        return tuple(i for i, a in enumerate(self.axis_kinds) if a == kind)

    # -- construction -----------------------------------------------------

    @classmethod
    def from_callable(cls, fn, box_half_width, points_per_axis, axis_kinds):
        """Sample ``fn(*coords)`` on the grid (fn must broadcast)."""
        mesh = grid_mesh(box_half_width, points_per_axis, len(axis_kinds))
        values = np.asarray(fn(*mesh), dtype=float)
        return cls(values, box_half_width, tuple(axis_kinds))

    def with_values(self, values):
        return replace(self, values=np.asarray(values, dtype=float))
