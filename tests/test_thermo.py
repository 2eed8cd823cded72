import math
import os
import subprocess
import sys

import numpy as np
import pytest

from reslab import schottky as sk
from reslab import abelian, thermo, transfer, zeros

from oracles import pressure_curve

# delta at lmax 16 and the default tolerance, recorded from scipy's brentq
RECORDED_DELTA = {
    "symmetric3": 0.2515811641598957,
    "sl2z-pair": 0.39391966002121476,
    "sl2z-crossed": 0.5434342722006534,
}
# delta at lmax 12 and 32 and the default tolerance, recorded from the
# largest modulus of the full complex spectrum (np.linalg.eigvals)
RECORDED_DELTA_BY_LMAX = {
    ("symmetric3", 12): 0.25158116415987636,
    ("symmetric3", 32): 0.2515811641598762,
    ("sl2z-pair", 12): 0.3939196600211279,
    ("sl2z-pair", 32): 0.3939196600212155,
    ("sl2z-crossed", 12): 0.5434342722006258,
    ("sl2z-crossed", 32): 0.5434342722006524,
}
PRESETS = ("cylinder", "symmetric3", "sl2z-pair", "sl2z-crossed")
# pressure evaluations per delta that brentq needed (P(0), P(1), its own two
# end-point evaluations, its steps and the final residual check)
BRENTQ_PRESSURE_CALLS = {"symmetric3": 10, "sl2z-pair": 11, "sl2z-crossed": 11}


@pytest.fixture(scope="module")
def cyl():
    return sk.preset("cylinder", t=3.0)


@pytest.fixture(scope="module")
def sym3():
    return sk.preset("symmetric3", t=6.0)


def test_cylinder_pressure_linear(cyl):
    ell = 2 * math.acosh(1.5)
    for sigma in (0.25, 0.5, 1.0):
        assert abs(thermo.pressure(cyl, sigma) + sigma * ell) < 1e-10


def test_cylinder_delta_zero(cyl):
    assert thermo.critical_exponent(cyl) == 0.0


def test_pressure_decreasing_and_convex(sym3):
    sigmas = np.linspace(0.0, 1.0, 9)
    vals = [thermo.pressure(sym3, s) for s in sigmas]
    diffs = np.diff(vals)
    assert np.all(diffs < 0)
    assert np.all(np.diff(diffs) > -1e-10)


def test_pressure_vanishes_at_delta(sym3):
    delta = thermo.critical_exponent(sym3)
    assert abs(thermo.pressure(sym3, delta)) < 1e-8


def test_delta_stability_in_lmax(sym3):
    d16 = thermo.critical_exponent(sym3, 16)
    d24 = thermo.critical_exponent(sym3, 24)
    assert abs(d16 - d24) < 1e-8


def test_delta_matches_real_determinant_zero(sym3):
    delta = thermo.critical_exponent(sym3)
    s, res, ok = zeros.refine_zero(sym3, transfer.TwistSpec.trivial(),
                                   complex(delta + 0.02, 0.0))
    assert ok
    assert abs(s - delta) < 1e-8


def test_pressure_linear_upper_bound(sym3):
    """P(sigma) <= a0 - sigma*b0 with b0 > 0: the chord over the sampled
    range dominates a convex decreasing function."""
    sigmas = np.linspace(0.0, 1.0, 5)
    vals = np.array([thermo.pressure(sym3, s) for s in sigmas])
    a0 = vals[0]
    b0 = (vals[0] - vals[-1]) / (sigmas[-1] - sigmas[0])
    assert b0 > 0
    assert np.all(vals <= a0 - sigmas * b0 + 1e-12)


def test_pressure_curve_object(sym3):
    curve = pressure_curve(sym3, [0.1, 0.3, 0.5])
    assert len(curve.samples) == 3
    assert abs(curve.delta - thermo.critical_exponent(sym3)) < 1e-12


def test_class_count_growth(sym3):
    """Primitive class count tracks e^{dT}/(dT) within a factor of 2."""
    for data in (sym3, sk.preset("sl2z-pair"), sk.preset("sl2z-crossed")):
        delta = thermo.critical_exponent(data)
        for T in (6.0, 8.0, 10.0):
            n = len(sk.primitive_geodesics(data, T, warn=[]))
            pred = math.exp(delta * T) / (delta * T)
            assert 0.5 < n / pred < 2.0


def test_pressure_rejects_small_lmax(sym3):
    with pytest.raises(ValueError):
        thermo.pressure(sym3, 0.5, lmax=2)


@pytest.mark.parametrize("name", sorted(RECORDED_DELTA))
def test_delta_matches_recorded_value(name):
    assert abs(thermo.critical_exponent(sk.preset(name), 16)
               - RECORDED_DELTA[name]) < 1e-13


@pytest.mark.parametrize("name, lmax", sorted(RECORDED_DELTA_BY_LMAX))
def test_delta_matches_the_full_spectrum_value(name, lmax):
    assert abs(thermo.critical_exponent(sk.preset(name), lmax)
               - RECORDED_DELTA_BY_LMAX[name, lmax]) < 1e-13


@pytest.mark.parametrize("name", PRESETS)
@pytest.mark.parametrize("lmax", [6, 8, 16, 32])
def test_pressure_is_the_log_spectral_radius_of_the_whole_matrix(name, lmax):
    """The Perron eigenvalue of the X+Y sector's real part is the spectral
    radius of the whole complex matrix."""
    data = sk.preset(name)
    for sigma in np.linspace(0.0, 1.0, 11):
        M = transfer.assemble(data, float(sigma), transfer.TwistSpec.trivial(), lmax)
        assert abs(thermo.pressure(data, sigma, lmax)
                   - math.log(transfer.spectral_radius(M))) < 1e-13, sigma


def _counting_eigvals(monkeypatch):
    calls = []
    eigvals = np.linalg.eigvals

    def counting(a):
        calls.append(a.shape)
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", counting)
    return calls


@pytest.mark.parametrize("A", [np.diag([-2.0, 1.0]),
                               1.5 * np.array([[math.cos(1.0), -math.sin(1.0)],
                                               [math.sin(1.0), math.cos(1.0)]])])
def test_perron_radius_falls_back_where_the_iteration_cannot_settle(A, monkeypatch):
    """A negative or complex dominant eigenvalue keeps the unit iterate
    moving, so the radius comes from the full spectrum."""
    calls = _counting_eigvals(monkeypatch)
    assert thermo._perron_radius(A) == np.max(np.abs(np.linalg.eigvals(A)))
    assert calls == [A.shape, A.shape]


@pytest.mark.parametrize("name", PRESETS)
def test_delta_takes_no_full_spectrum(name, monkeypatch):
    data = sk.preset(name)
    calls = _counting_eigvals(monkeypatch)
    thermo.critical_exponent(data, 16)
    assert calls == []


@pytest.mark.parametrize("name", sorted(RECORDED_DELTA))
def test_delta_needs_no_more_pressure_evaluations_than_brentq(name, monkeypatch):
    data = sk.preset(name)
    calls = []
    pressure = thermo.pressure

    def counting(*args):
        calls.append(args[1])
        return pressure(*args)

    monkeypatch.setattr(thermo, "pressure", counting)
    thermo.critical_exponent(data, 16)
    assert len(calls) <= BRENTQ_PRESSURE_CALLS[name]


@pytest.mark.parametrize("name", sorted(RECORDED_DELTA))
@pytest.mark.parametrize("lmax", [8, 16, 24])
def test_delta_stops_once_the_pressure_is_at_rounding_level(name, lmax, monkeypatch):
    """No pressure evaluation follows one whose |P| is at rounding level.
    sl2z-pair at lmax 8, 16 and 24 and sl2z-crossed at lmax 8 reach that
    level while the bracket is still wider than tol."""
    data = sk.preset(name)
    values = []
    pressure = thermo.pressure

    def recording(*args):
        values.append(pressure(*args))
        return values[-1]

    monkeypatch.setattr(thermo, "pressure", recording)
    thermo.critical_exponent(data, lmax)
    assert all(abs(p) > thermo._PRESSURE_ROUNDING for p in values[:-1])


def test_delta_without_sign_change_raises(sym3, monkeypatch):
    monkeypatch.setattr(thermo, "pressure", lambda data, sigma, lmax: 1.0 - 0.5 * sigma)
    with pytest.raises(ArithmeticError, match="no sign change"):
        thermo.critical_exponent(sym3)


def test_delta_iteration_cap_raises(sym3, monkeypatch):
    monkeypatch.setattr(thermo, "ROOT_MAXITER", 2)
    with pytest.raises(ArithmeticError, match="2 steps"):
        thermo.critical_exponent(sym3)


def test_delta_cache_computes_each_group_and_lmax_once(sym3, monkeypatch):
    lmaxes = []
    critical_exponent = thermo.critical_exponent

    def counting(data, lmax):
        lmaxes.append(lmax)
        return critical_exponent(data, lmax)

    monkeypatch.setattr(thermo, "critical_exponent", counting)
    zeros._delta_of.cache_clear()
    try:
        scan = abelian.nonvanishing_scan(sym3, grid_n=2, lmax=8)
        abelian.nonvanishing_scan(sym3, grid_n=3, lmax=8)
        for _ in range(2):
            zeros.euler_product(sym3, complex(1.5, 0.0), transfer.TwistSpec.trivial(),
                                max_word_len=2)
        assert zeros._delta_of(sym3, 8) == scan["delta"]
        assert lmaxes == [8, thermo.DEFAULT_LMAX]
    finally:
        zeros._delta_of.cache_clear()


def test_importing_the_cli_loads_no_scipy():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", "import sys, reslab.cli; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"
