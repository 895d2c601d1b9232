"""Coefficient library and mollification."""

import hashlib
import platform

import numpy as np
import pytest
import scipy

from kinetic_flow import fields
from kinetic_flow.errors import ValidationError
from kinetic_flow.fields import (
    CONVOLVE_CHUNK_BYTES,
    CoefficientField,
    library_field,
    mollified,
    smooth_plateau,
    _mollifier_rule,
    _smooth_step,
)
from kinetic_flow.grids import GridFunction
from kinetic_flow.spaces import lp_norm

LIBRARY = ("free", "constant-sigma-smooth-b", "langevin", "hoelder-drift",
           "anisotropic-sigma")


def drift_grid(field, n=96, box=4.0):
    def fn(X, V):
        return field.drift(0.0, np.stack([X, V], axis=-1))
    return GridFunction.from_callable(fn, box, n, ("x", "v"))


# ---------------------------------------------------------------------------
# plateau cutoff


def test_smooth_step_endpoints_and_scalars():
    assert _smooth_step(-1.0) == 0.0
    assert _smooth_step(0.0) == 0.0
    assert _smooth_step(1.0) == 1.0
    assert _smooth_step(2.0) == 1.0
    xs = np.linspace(-0.5, 1.5, 41)
    arr = _smooth_step(xs)
    # scalar calls agree with the vectorized path elementwise
    assert np.array_equal(arr, np.array([_smooth_step(float(x)) for x in xs]))
    assert np.all(np.diff(arr) >= 0.0)


def test_band_only_smooth_step_matches_where_formula():
    def where_formula(t):
        t = np.asarray(t, dtype=float)
        band = (t > 0.0) & (t < 1.0)
        tb = np.where(band, t, 0.5)
        lo = np.exp(-1.0 / tb)
        hi = np.exp(-1.0 / (1.0 - tb))
        return np.where(band, lo / (lo + hi), np.where(t >= 1.0, 1.0, 0.0))

    rng = np.random.default_rng(4)
    xs = rng.uniform(-0.5, 1.5, size=(37, 23))
    xs[0, :4] = [0.0, 1.0, -3.0, 7.0]
    for t in (xs, xs[:, ::3], np.array([0.0, 1.0]), np.array(0.25),
              np.array(0.0), np.array(1.0), np.array(-2.0), 0.75):
        got, want = _smooth_step(t), where_formula(t)
        assert got.shape == want.shape
        assert np.array_equal(got, want)


def test_smooth_plateau_shape():
    r = np.linspace(0.0, 5.0, 101)
    cut = smooth_plateau(r, 2.0, 4.0)
    assert np.all(cut[r <= 2.0] == 1.0)
    assert np.all(cut[r >= 4.0] == 0.0)
    assert np.all((cut >= 0.0) & (cut <= 1.0))
    with pytest.raises(ValidationError):
        smooth_plateau(r, 4.0, 2.0)


# ---------------------------------------------------------------------------
# library


def test_library_membership_and_rejection():
    for name in LIBRARY:
        f = library_field(name, 1)
        assert f.name == name
        assert f.dim == 1
    with pytest.raises(ValidationError):
        library_field("nonexistent", 1)
    with pytest.raises(ValidationError):
        library_field("free", 1, bogus=3.0)


def test_library_order_is_fixed():
    # error messages list the library in this order
    assert fields.LIBRARY == LIBRARY


# (python, numpy, scipy) the library digest was recorded with
PINNED_VERSIONS = ("3.11.7", "2.4.6", "1.17.1")
LIBRARY_SHA1 = "f0b5b4b31590c0178a53725849a54462133e220e"


def test_library_field_bits_are_pinned():
    # drift, sigma and a of every library field at d = 1 and 2, with the
    # default and with custom kappa/support_radius, plus the mollified
    # field at n = 4 (d = 1), hashed bit for bit
    h = hashlib.sha1()
    for d in (1, 2):
        z = 2.5 * np.random.default_rng(d).normal(size=(64, 2 * d))
        for name in LIBRARY:
            for params in ({}, {"kappa": 1.7, "support_radius": 3.0}):
                f = library_field(name, d, **params)
                for g in [f] + ([mollified(f, 4)] if d == 1 else []):
                    for arr in (g.drift(0.0, z), g.sigma(0.0, z),
                                g.generator_a(0.0, z)):
                        h.update(np.ascontiguousarray(arr, dtype=float).tobytes())
    versions = (platform.python_version(), np.__version__, scipy.__version__)
    if h.hexdigest() != LIBRARY_SHA1 and versions != PINNED_VERSIONS:
        pytest.xfail(f"library digest differs under python/numpy/scipy "
                     f"{versions}; pinned under {PINNED_VERSIONS}")
    assert h.hexdigest() == LIBRARY_SHA1


def test_free_field_is_trivial():
    f = library_field("free", 1)
    z = np.random.default_rng(0).normal(size=(17, 2))
    assert np.all(f.drift(0.0, z) == 0.0)
    assert np.array_equal(f.constant_sigma, np.eye(1))
    assert np.allclose(f.generator_a(), 0.5 * np.eye(1))


def test_kappa_scales_drift_linearly():
    z = np.random.default_rng(1).normal(size=(23, 2))
    for name in ("hoelder-drift", "langevin", "constant-sigma-smooth-b"):
        b1 = library_field(name, 1, kappa=1.0).drift(0.0, z)
        b3 = library_field(name, 1, kappa=3.0).drift(0.0, z)
        assert np.allclose(b3, 3.0 * b1, rtol=1e-12)


def test_drift_compact_support():
    for name in ("hoelder-drift", "constant-sigma-smooth-b",
                 "anisotropic-sigma"):
        f = library_field(name, 1)
        far = np.array([[f.support_radius + 1.0, 0.0],
                        [0.0, -(f.support_radius + 2.0)]])
        assert np.all(f.drift(0.0, far) == 0.0)


def test_hoelder_profile_on_axis():
    f = library_field("hoelder-drift", 1)
    # inside the plateau the drift is sign(x) |x|^(2/3)
    x = np.array([0.5, -0.5, 1.0, -1.7])
    z = np.stack([x, np.zeros(4)], axis=-1)
    assert np.allclose(f.drift(0.0, z)[:, 0],
                       np.sign(x) * np.abs(x) ** (2.0 / 3.0), rtol=1e-12)


def test_coefficient_field_validation():
    zero = lambda t, z: np.zeros(np.asarray(z).shape[:-1] + (1,))
    sig = lambda t, z: np.broadcast_to(np.eye(1),
                                       np.asarray(z).shape[:-1] + (1, 1))
    with pytest.raises(ValidationError):
        CoefficientField(0, zero, sig, 1.0)
    with pytest.raises(ValidationError):
        CoefficientField(1, zero, sig, -1.0)
    f = CoefficientField(1, zero, sig, 1.0)
    with pytest.raises(ValidationError):
        f.generator_a()        # non-constant sigma needs a state


# ---------------------------------------------------------------------------
# mollification


def test_mollified_keeps_constant_sigma_exact():
    base = library_field("constant-sigma-smooth-b", 1)
    m = mollified(base, 4)
    z = np.random.default_rng(2).normal(size=(31, 2))
    assert np.all(m.sigma(0.0, z) == np.eye(1))


def test_mollification_commutes_with_translation():
    sig = lambda t, z: np.broadcast_to(np.eye(1),
                                       np.asarray(z).shape[:-1] + (1, 1))

    def sin_drift(t, z):
        z = np.asarray(z, dtype=float)
        return np.sin(z[..., :1] + 0.3 * z[..., 1:])

    tau = np.array([0.4, -0.7])
    base = CoefficientField(1, sin_drift, sig, 50.0, "custom", np.eye(1))
    shifted = CoefficientField(
        1, lambda t, z: sin_drift(t, np.asarray(z) + tau), sig, 50.0,
        "custom", np.eye(1))
    z = np.random.default_rng(3).normal(size=(40, 2))
    lhs = mollified(base, 6).drift(0.0, z + tau)
    rhs = mollified(shifted, 6).drift(0.0, z)
    assert np.abs(lhs - rhs).max() <= 1e-10


def test_drift_gap_nonincreasing_in_n():
    base = library_field("hoelder-drift", 1)
    bg = drift_grid(base)
    gaps = []
    for n in (2, 4, 8, 16):
        mg = drift_grid(mollified(base, n))
        gaps.append(lp_norm(bg.with_values(mg.values - bg.values), 4))
    assert all(a >= b - 1e-12 for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 0.05 * gaps[0]


def test_sigma_sup_gap_nonincreasing_in_n():
    base = library_field("anisotropic-sigma", 1)
    z = np.random.default_rng(1).uniform(-3, 3, size=(500, 2))
    gaps = [np.abs(mollified(base, n).sigma(0.0, z)
                   - base.sigma(0.0, z)).max() for n in (2, 4, 8, 16)]
    assert all(a >= b - 1e-12 for a, b in zip(gaps, gaps[1:]))


def unchunked(m, fn, z, value_ndim):
    """The full quadrature in one pass, the reference for every fast path."""
    nodes, weights = _mollifier_rule(m.phase_dim)
    vals = fn(0.0, np.asarray(z)[..., None, :] - nodes / m.n)
    w = weights.reshape((-1,) + (1,) * value_ndim)
    return np.sum(vals * w, axis=vals.ndim - value_ndim - 1)


def bits(a):
    # -0.0 and +0.0 compare equal as floats but not as bits
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


def test_chunked_convolution_matches_unchunked():
    nodes, _ = _mollifier_rule(2)
    chunk = CONVOLVE_CHUNK_BYTES // nodes.nbytes
    rng = np.random.default_rng(5)
    shapes = [(2,), (chunk - 1, 2), (chunk, 2), (chunk + 1, 2), (3, 7, 2)]
    for name in ("hoelder-drift", "anisotropic-sigma"):
        base = library_field(name, 1)
        m = mollified(base, 4)
        for shape in shapes:
            z = rng.uniform(-5.0, 5.0, size=shape)
            assert np.array_equal(bits(m.drift(0.0, z)),
                                  bits(unchunked(m, base.drift, z, 1)))
            if name == "anisotropic-sigma":
                assert np.array_equal(bits(m.sigma(0.0, z)),
                                      bits(unchunked(m, base.sigma, z, 2)))


def region_states(field, n, d, rng):
    """States inside the plateau, in the band and wholly outside the
    support of ``field`` mollified at level n, plus one non-finite row."""
    reach = 1.0 / n    # the nodes lie inside the unit ball
    r_in, r_out = 0.5 * field.support_radius, field.support_radius
    radii = np.concatenate([
        rng.uniform(0.0, max(r_in - reach, 0.0), 6),      # plateau, if any
        rng.uniform(r_in - reach, r_out + reach, 6),      # band
        r_out + reach + rng.uniform(0.0, 2.0, 6),         # outside
    ])
    dirs = rng.normal(size=(radii.size, 2 * d))
    z = radii[:, None] * dirs / np.linalg.norm(dirs, axis=-1, keepdims=True)
    # outside rows with x1 < 0 pin the +0.0 of an all-signed-zero sum
    far = z[12:]
    far[:, 0] = -np.abs(far[:, 0])
    return np.concatenate([z, [[np.nan] + [0.0] * (2 * d - 1)]])


@pytest.mark.parametrize("name,d", [(name, 1) for name in LIBRARY]
                         + [("hoelder-drift", 2), ("langevin", 2)])
def test_mollified_drift_fast_paths_match_full_quadrature_bitwise(name, d):
    rng = np.random.default_rng(17)
    num_nodes = len(_mollifier_rule(2 * d)[0])
    for kappa in (1.0, 0.05, -3.0):
        base = library_field(name, d, kappa=kappa)
        full_drift, evaluated = base.drift, []

        def counted(t, z):
            evaluated.append(z.shape[0] * z.shape[1])
            return full_drift(t, z)

        base.drift = counted
        for n in (1, 2, 4, 64, 256):
            m = mollified(base, n)
            z = region_states(base, n, d, rng)
            evaluated.clear()
            got = m.drift(0.0, z)
            want = unchunked(m, full_drift, z, 1)
            assert np.array_equal(bits(got), bits(want)), (kappa, n)
            # the outside rows are +0.0, not merely zero
            assert np.all(bits(got[12:-1]) == 0)
            # only the band rows and the NaN row reach the base drift; at
            # n = 1 the free field's node ball never fits in its plateau
            band_rows = 7 if 0.5 * base.support_radius >= 1.0 / n else 13
            assert sum(evaluated) == band_rows * num_nodes, (kappa, n)


def test_mollified_rejects_bad_level():
    base = library_field("hoelder-drift", 1)
    with pytest.raises(ValidationError):
        mollified(base, 0)
