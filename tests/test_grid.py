import importlib.machinery
import importlib.util
import math
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from qnls.grid import (
    BALL_VOLUME_5,
    Field,
    RadialGrid,
    SPHERE_AREA_4,
    UniformGrid,
    _scipy_extension,
    unit_ball_volume,
)

from conftest import radial_dirichlet_reference, run_python


def test_make_uniform_grid_spacing():
    g = UniformGrid(1, 8, 2 * np.pi)
    assert g.h == pytest.approx(np.pi / 4, rel=1e-15)
    g2 = UniformGrid(2, 16, 10.0)
    assert g2.size == 256
    assert g2.h == pytest.approx(0.625, rel=1e-15)
    assert g2.h * g2.n == g2.L


@pytest.mark.parametrize("m", [0, 3])
def test_a_radial_grid_needs_four_nodes(m):
    with pytest.raises(ValueError, match="at least 4 radial nodes"):
        RadialGrid(m, 10.0)


def test_uniform_grid_rejects_bad_input():
    with pytest.raises(ValueError):
        UniformGrid(1, 12, 1.0)       # not a power of two
    with pytest.raises(ValueError):
        UniformGrid(1, 4, 1.0)        # below minimum size
    with pytest.raises(ValueError):
        UniformGrid(4, 16, 1.0)       # dimension out of range
    with pytest.raises(ValueError):
        UniformGrid(1, 16, -2.0)
    # an infinite box gave h = inf, and a snapshot header could carry one
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="box length"):
            UniformGrid(1, 8, bad)
        with pytest.raises(ValueError, match="cutoff"):
            RadialGrid(8, bad)
    # r_max^5 (the quadrature weights) and (m / r_max)^2 (the stencils) stay at most 1e300
    for m, r_max in ((64, 1e300), (64, 1.01e60), (64, 63.9 * 1e-150), (2**20, 1e-145)):
        with pytest.raises(ValueError, match=r"r_max\^5 and \(m / r_max\)\^2"):
            RadialGrid(m, r_max)
    RadialGrid(64, 1e60), RadialGrid(64, 64 * 1e-150), RadialGrid(2**20, 2**20 * 1e-150)
    # L^3 (the cell volume, the squared distances) and (n / L)^2 (|k|^2) stay at most 1e300
    for d, n in ((1, 8), (3, 8), (2, 1024)):
        for L in (n * 1e-150, 1e100):
            UniformGrid(d, n, L)
        below, above = math.nextafter(n * 1e-150, 0.0), math.nextafter(1e100, math.inf)
        for L in (below, above, 1e300, 1e-300):
            with pytest.raises(ValueError, match=r"L\^3 and \(n / L\)\^2"):
                UniformGrid(d, n, L)


def test_transform_constant_is_dc_only():
    g = UniformGrid(1, 32, 2 * np.pi)
    spec = g.fft(np.ones(32, dtype=complex))
    assert abs(spec[0]) > 0
    assert np.max(np.abs(spec[1:])) < 1e-14 * abs(spec[0])


def test_transform_plane_wave_single_coefficient():
    g = UniformGrid(1, 32, 5.0)
    x = g.axis()
    spec = g.fft(np.exp(1j * (2 * np.pi / g.L) * x))
    mask = np.ones(32, dtype=bool)
    mask[1] = False
    assert abs(spec[1]) > 1.0
    assert np.max(np.abs(spec[mask])) < 1e-12 * abs(spec[1])


@pytest.mark.parametrize("d,n", [(1, 64), (2, 32), (3, 16)])
def test_transform_round_trip(d, n):
    rng = np.random.default_rng(0)
    g = UniformGrid(d, n, 7.3)
    vals = rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape)
    back = g.ifft(g.fft(vals))
    assert np.max(np.abs(back - vals)) < 1e-12 * np.max(np.abs(vals))


def test_parseval_under_fixed_normalization():
    rng = np.random.default_rng(1)
    g = UniformGrid(2, 32, 3.0)
    vals = rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape)
    phys = np.sum(np.abs(vals) ** 2) * g.h**g.d
    spec = np.sum(np.abs(g.fft(vals)) ** 2) * g.h**g.d
    assert spec == pytest.approx(phys, rel=1e-12)


@pytest.mark.parametrize("d, n", [(1, 64), (2, 32), (3, 8)])
def test_dirichlet_matches_spectral_gradient(d, n):
    # random data fills the Nyquist mode, which both sides must zero alike
    rng = np.random.default_rng(2)
    g = UniformGrid(d, n, 5.0)
    vals = rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape)
    direct = sum(np.sum(np.abs(c) ** 2) for c in g.gradient(vals)) * g.h**g.d
    assert g.dirichlet(vals) == pytest.approx(direct, rel=1e-13)


def test_distance_is_min_image():
    g = UniformGrid(2, 16, 8.0)
    x, y = g.coords()
    for s in ([4.0, 4.0], [0.5, 7.5], [9.0, -3.0]):
        dx = np.minimum(np.abs(x - s[0] % g.L), g.L - np.abs(x - s[0] % g.L))
        dy = np.minimum(np.abs(y - s[1] % g.L), g.L - np.abs(y - s[1] % g.L))
        assert np.max(np.abs(g.distance(s) - np.hypot(dx, dy))) < 1e-13
    # the signed displacement lies in [-L/2, L/2), is congruent to x - s
    # mod L, and distance is its norm bit for bit
    for d in (1, 2, 3):
        g = UniformGrid(d, 8, 6.0)
        for s in ([3.0] * d, [0.5, 5.9, 1.2][:d], [9.0, -3.0, 13.4][:d]):
            disp = g.displacement(s)
            for x, z, sj in zip(g.coords(), disp, s):
                assert np.all((z >= -g.L / 2) & (z < g.L / 2))
                turns = (x - sj - z) / g.L
                assert np.max(np.abs(turns - np.round(turns))) < 1e-13
            assert np.array_equal(g.distance(s), np.sqrt(sum(z**2 for z in disp)))


@pytest.mark.parametrize("d, n", [(1, 64), (2, 16)])
def test_convolve_matches_circular_sum(d, n):
    rng = np.random.default_rng(3)
    g = UniformGrid(d, n, 7.0)
    kernel = rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape)
    values = rng.normal(size=(2, *g.shape)) + 1j * rng.normal(size=(2, *g.shape))
    direct = np.zeros_like(values)
    for shift in np.ndindex(*g.shape):
        # k(x - y) at y = x - shift is the kernel sample at node `shift`
        direct += kernel[shift] * np.roll(values, shift, axis=tuple(range(1, d + 1)))
    direct *= g.h**d
    got = g.convolve(kernel, values)
    assert np.max(np.abs(got - direct)) < 1e-13 * np.max(np.abs(direct))


def test_gradient_plane_wave_exact():
    g = UniformGrid(1, 64, 11.0)
    x = g.axis()
    k = 2 * np.pi / g.L
    f = np.exp(1j * k * x)
    (df,) = g.gradient(f)
    assert np.max(np.abs(df - 1j * k * f)) < 1e-12


def test_laplacian_plane_wave_exact_and_batched():
    g = UniformGrid(2, 32, 9.0)
    x, y = g.coords()
    k = 2 * np.pi / g.L
    f = np.exp(1j * k * (3 * x - 2 * y))
    lap = g.laplacian(f)
    assert np.max(np.abs(lap + 13 * k**2 * f)) < 1e-11
    pair = g.laplacian(np.array((f, np.sin(x) + 0j)))
    assert np.array_equal(pair[0], lap)
    assert np.array_equal(pair[1], g.laplacian(np.sin(x) + 0j))


def test_gradient_constant_zero():
    g = UniformGrid(2, 16, 4.0)
    (dx, dy) = g.gradient(np.full(g.shape, 2.5 + 0j))
    assert np.max(np.abs(dx)) < 1e-13
    assert np.max(np.abs(dy)) < 1e-13


def test_gradient_sine_closed_form():
    g = UniformGrid(1, 128, 6.0)
    x = g.axis()
    (df,) = g.gradient(np.sin(4 * np.pi * x / g.L).astype(complex))
    expected = (4 * np.pi / g.L) * np.cos(4 * np.pi * x / g.L)
    assert np.max(np.abs(df - expected)) < 1e-10


def test_radial_grid_nodes_positive_increasing():
    g = RadialGrid(64, 10.0)
    r = g.nodes()
    assert np.all(r > 0)
    assert np.all(np.diff(r) > 0)
    assert r[0] == pytest.approx(g.dr / 2)


def test_integrate_uniform_constant():
    g = UniformGrid(1, 64, 2 * np.pi)
    assert g.integrate(np.ones(64)) == pytest.approx(2 * np.pi, rel=1e-14)


def test_integrate_radial_ball_volume():
    # f = 1 on r <= 1 integrates to the unit-ball volume 8 pi^2 / 15
    g = RadialGrid(4096, 1.0)
    vol = g.integrate(np.ones(4096))
    assert vol == pytest.approx(BALL_VOLUME_5, abs=1e-4)
    # and f = r^-4 recovers the sphere-area constant
    area = g.integrate(g.nodes() ** -4.0)
    assert area == pytest.approx(SPHERE_AREA_4, abs=1e-4)


def test_integrate_gaussian_matches_quadrature_oracle():
    # oracle: int e^{-x^2} dx = sqrt(pi) = 1.7724538509055159 (scipy.quad)
    g = UniformGrid(1, 1024, 40.0)
    x = g.axis()
    val = g.integrate(np.exp(-((x - 20.0) ** 2)))
    assert val == pytest.approx(1.7724538509055159, abs=1e-10)


def test_unit_ball_volume_values():
    assert unit_ball_volume(1) == pytest.approx(2.0)
    assert unit_ball_volume(2) == pytest.approx(np.pi)
    assert unit_ball_volume(5) == pytest.approx(BALL_VOLUME_5)


def test_field_shape_mismatch_rejected():
    g = UniformGrid(1, 16, 1.0)
    with pytest.raises(ValueError):
        Field(g, np.zeros(17, dtype=complex))


def _uniform_formulas(g):
    """Each cached accessor's value, by the expression it evaluated on every call before caching."""
    ax = np.arange(g.n) * g.h
    k = 2.0 * np.pi * np.fft.fftfreq(g.n, d=g.h)
    kd = k.copy()
    kd[g.n // 2] = 0.0
    return {
        "axis": [ax],
        "coords": np.meshgrid(*([ax] * g.d), indexing="ij"),
        "wavenumbers": [k],
        "k2": [sum(km**2 for km in np.meshgrid(*([k] * g.d), indexing="ij"))],
        "derivative_wavenumbers": np.meshgrid(*([kd] * g.d), indexing="ij"),
    }


def _as_list(value):
    return value if isinstance(value, list) else [value]


def _assert_cached_read_only(grid, formulas):
    for name, want in formulas.items():
        first = _as_list(getattr(grid, name)())
        second = _as_list(getattr(grid, name)())
        assert len(first) == len(want), name
        for a, b, w in zip(first, second, want):
            assert np.array_equal(a, w), name
            assert a is b, name
            with pytest.raises(ValueError):
                a[...] = 0.0


@pytest.mark.parametrize("d, n", [(1, 64), (2, 16), (3, 8)])
def test_uniform_grid_constants_are_shared_and_read_only(d, n):
    g = UniformGrid(d, n, 7.3)
    _assert_cached_read_only(g, _uniform_formulas(g))


def test_radial_grid_nodes_are_shared_and_read_only():
    g = RadialGrid(100, 13.0)
    _assert_cached_read_only(g, {"nodes": [(np.arange(g.m) + 0.5) * g.dr]})


@pytest.mark.parametrize("d, n", [(1, 64), (2, 16), (3, 8)])
def test_cached_quadratures_keep_their_bits(d, n):
    rng = np.random.default_rng(d)
    g = UniformGrid(d, n, 7.3)
    vals = rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape)
    kd = _uniform_formulas(g)["derivative_wavenumbers"]
    k2 = sum(km**2 for km in kd)
    want = float(np.sum(k2 * np.abs(g.fft(vals)) ** 2) * g.h**g.d)
    assert g.dirichlet(vals) == want
    assert g.dirichlet(vals) == want            # again, from the filled cache
    real = rng.normal(size=(2, *g.shape))
    for w in (real, real + 1j * rng.normal(size=(2, *g.shape))):
        # the last d axes are reduced: one value per field, each with its own call's bits
        assert g.integrate(w).tobytes() == np.array([g.integrate(w[0]), g.integrate(w[1])]).tobytes()
        assert g.dirichlet(w).tobytes() == np.array([g.dirichlet(w[0]), g.dirichlet(w[1])]).tobytes()

    rg = RadialGrid(64 * d, 5.0 * d)
    vals = rng.normal(size=rg.m) + 1j * rng.normal(size=rg.m)
    r = (np.arange(rg.m) + 0.5) * rg.dr
    for f in (vals, vals.real):
        want = SPHERE_AREA_4 * np.sum(f * r**4) * rg.dr
        assert rg.integrate(f) == want
        assert rg.integrate(f) == want


@pytest.mark.parametrize("m", [4, 5, 1024])
def test_radial_quadratures_of_a_stacked_pair_keep_the_one_field_bits(m):
    g = RadialGrid(m, 9.0)
    rng = np.random.default_rng(m)
    real = rng.normal(size=(2, m))
    cplx = real + 1j * rng.normal(size=(2, m))
    for w in (real, cplx, np.abs(cplx) ** 2):
        # the last axis is reduced: one value per field, each with its own call's bits
        assert g.integrate(w).tobytes() == np.array([g.integrate(w[0]), g.integrate(w[1])]).tobytes()
        assert g.dirichlet(w).tobytes() == np.array([g.dirichlet(w[0]), g.dirichlet(w[1])]).tobytes()
    for f in cplx:
        # an imaginary part that is not zero keeps the bits of the stencil's true division
        assert g.dirichlet(f) == radial_dirichlet_reference(g, f)
    for f in real:
        # float samples run in real arithmetic with the bits of the complex
        # formula on the same samples with a +0.0 or a -0.0 imaginary part
        plus, minus = f + 0j, np.conj(f + 0j)
        assert np.signbit(minus.imag).all() and not np.signbit(plus.imag).any()
        assert g.dirichlet(f) == radial_dirichlet_reference(g, plus) == radial_dirichlet_reference(g, minus)
        assert g.dirichlet(plus) == g.dirichlet(minus) == g.dirichlet(f)


@pytest.mark.parametrize("m", [4, 5, 1024, 2048])
def test_radial_integrate_has_the_bits_of_np_sum(m):
    # np.add.reduce is what np.sum runs, without its dispatch
    g = RadialGrid(m, 9.0)
    rng = np.random.default_rng(m)
    real = rng.normal(size=(2, m))
    for w in (real, real + 1j * rng.normal(size=(2, m)), real[0], real[0] + 0j):
        want = SPHERE_AREA_4 * np.sum(w * g.nodes() ** 4, axis=-1) * g.dr
        assert np.array_equal(g.integrate(w), want)
        assert g.integrate(w).dtype == want.dtype


def test_filled_caches_keep_equality_and_hash():
    pairs = [(UniformGrid(d, 16, 4.0), UniformGrid(d, 16, 4.0)) for d in (1, 2, 3)]
    pairs.append((RadialGrid(32, 6.0), RadialGrid(32, 6.0)))
    for filled, fresh in pairs:
        for name in ("axis", "coords", "wavenumbers", "k2", "derivative_wavenumbers", "nodes"):
            if hasattr(filled, name):
                getattr(filled, name)()
        filled.dirichlet(np.ones(filled.shape))
        filled.integrate(np.ones(filled.shape))
        assert filled == fresh
        assert hash(filled) == hash(fresh)
        assert {filled: 1}[fresh] == 1


def test_bindings_import_before_scipy_and_stay_scipys_own():
    # qnls loads pocketfft and LAPACK by file before scipy's packages exist;
    # importing the packages afterwards re-exports those very functions
    out = run_python("""
import sys
import numpy as np
import qnls.grid as g, qnls.ground_state as gs
assert not any(m.startswith("scipy") for m in sys.modules), sorted(sys.modules)
import scipy.fft, scipy.linalg
from scipy.linalg import lapack
grid = g.UniformGrid(2, 16, 5.0)
x, y = np.random.default_rng(3).normal(size=(2, 2, 16, 16))
z = x + 1j * y
print(np.array_equal(grid.fft(z), scipy.fft.fftn(z, axes=(-2, -1), norm="ortho")),
      np.array_equal(grid.ifft(z.real), scipy.fft.ifftn(z.real, axes=(-2, -1), norm="ortho")),
      g._c2c is scipy.fft._pocketfft.pypocketfft.c2c,
      gs._lapack.dgbtrf is lapack.dgbtrf, gs._lapack.dgbtrs is lapack.dgbtrs,
      scipy.linalg._flapack.dgbtrf is lapack.dgbtrf)
""")
    assert out.split() == ["True"] * 6


def test_bindings_after_scipy_are_its_modules():
    out = run_python("""
import scipy.fft, scipy.linalg
from scipy.fft._pocketfft import pypocketfft
from scipy.linalg import _flapack
import qnls.grid as g, qnls.ground_state as gs
print(g._c2c is pypocketfft.c2c, gs._lapack is _flapack)
""")
    assert out.split() == ["True", "True"]


def test_extension_loader_returns_none_when_it_cannot_load(tmp_path, monkeypatch):
    ext = importlib.machinery.EXTENSION_SUFFIXES[0]
    (tmp_path / "broken").mkdir()
    (tmp_path / "broken" / f"_garbled{ext}").write_bytes(b"not a shared object")
    monkeypatch.setattr(importlib.util, "find_spec",
                        lambda name: SimpleNamespace(submodule_search_locations=[str(tmp_path)]))
    for name in ("scipy.broken._garbled", "scipy.broken._missing"):
        assert _scipy_extension(name) is None
        assert name not in sys.modules
    monkeypatch.setattr(importlib.util, "find_spec", lambda name: None)   # no scipy installed
    assert _scipy_extension("scipy.linalg._flapack_missing") is None


# transforms on complex and real input in d = 1 and 2, two banded solves
# and a small ground-state profile, hashed
_BINDING_OUTPUTS = """
import hashlib
import numpy as np
import qnls.grid as g
from qnls.ground_state import _banded_solver, petviashvili_solve
rng = np.random.default_rng(11)
outs = []
for d, n in ((1, 64), (2, 16)):
    grid = g.UniformGrid(d, n, 5.0)
    z = rng.normal(size=(2, *grid.shape)) + 1j * rng.normal(size=(2, *grid.shape))
    outs += [grid.fft(z), grid.ifft(z), grid.fft(z.real), grid.ifft(z.real)]
for l in (2, 4):
    band = rng.normal(size=(2 * l + 1, 40))
    band[l] += 10.0
    outs.append(_banded_solver(band, l)(rng.normal(size=40)))
outs.append(petviashvili_solve(g.RadialGrid(256, 12.0)).phi)
print(g._c2c is None, hashlib.sha256(b"".join(o.tobytes() for o in outs)).hexdigest())
"""


def test_public_fallbacks_keep_the_bits():
    # with no extension suffix the loader finds no file: the transforms go
    # through scipy.fft and the banded solves through scipy.linalg.lapack
    direct = run_python(_BINDING_OUTPUTS).split()
    fallback = run_python("import importlib.machinery\n"
                          "importlib.machinery.EXTENSION_SUFFIXES = []\n" + _BINDING_OUTPUTS).split()
    assert direct[0] == "False" and fallback[0] == "True"
    assert fallback[1] == direct[1]
