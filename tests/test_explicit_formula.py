import math
import warnings

import numpy as np
import pytest

from reslab import explicit_formula as ef
from reslab import schottky as sk

from oracles import box_convolution_same, envelope_fit, fourier_grid, width_normalizer_sum


@pytest.fixture(scope="module")
def tf12():
    return ef.build_test_function(0.5, 12)


@pytest.fixture(scope="module")
def pair():
    return sk.preset("sl2z-pair")


def test_build_validation():
    with pytest.raises(ValueError):
        ef.build_test_function(0.5, 0)
    with pytest.raises(ValueError):
        ef.build_test_function(-0.1, 4)
    with pytest.raises(ValueError):
        ef.build_test_function(0.5, 12, grid_size=1 << 18)
    with pytest.raises(ValueError):
        # grid too coarse for the smallest width
        ef.build_test_function(0.5, 12, grid_size=256)


def test_mass_one(tf12):
    for J in (1, 2, 5, 12):
        tf = ef.build_test_function(0.5, J)
        assert abs(tf.mass() - 1.0) < 1e-10


def test_nonnegative_and_supported(tf12):
    assert np.all(tf12.values >= 0.0)
    assert tf12.support_radius < 1.0
    outside = np.abs(tf12.x) > tf12.support_radius
    assert np.all(tf12.values[outside] == 0.0)
    assert tf12(1.5) == 0.0 and tf12(-2.0) == 0.0


def test_even_symmetry(tf12):
    assert np.array_equal(tf12.values, tf12.values[::-1])


@pytest.mark.parametrize("grid_size", [1 << 12, 1 << 14, 1 << 16])
@pytest.mark.parametrize("J", [1, 2, 12, 16])
@pytest.mark.parametrize("eps", [0.05, 0.5, 5.0])
def test_matches_padded_grid_convolution(eps, J, grid_size):
    """The half-computed, mirrored convolution of the nonzero core agrees
    with convolving the whole zero-padded grid in mode="same"."""
    mu = ef._widths(eps, J)
    if mu[-1] < 2 * (2.0 / grid_size):
        with pytest.raises(ValueError, match="grid too coarse"):
            ef.build_test_function(eps, J, grid_size)
        return
    tf = ef.build_test_function(eps, J, grid_size)
    ref = box_convolution_same(eps, J, grid_size)
    support = ref != 0.0
    assert np.array_equal(tf.values != 0.0, support)
    assert np.max(np.abs(tf.values[support] - ref[support]) / ref[support]) <= 1e-14
    assert np.array_equal(tf.values, tf.values[::-1])
    assert abs(tf.mass() - 1.0) < 1e-10


def test_width_deficit_recorded(tf12):
    assert 0.0 < tf12.tail_deficit < 1.0
    assert abs(sum(tf12.widths) + tf12.tail_deficit - 1.0) < 1e-12
    assert all(a > b for a, b in zip(tf12.widths, tf12.widths[1:]))


@pytest.mark.parametrize("eps", [0.01, 0.05, 0.3, 0.5, 1.0, 2.0, 5.0, 50.0])
def test_width_normalizer_matches_term_by_term_sum(eps):
    """The Euler-Maclaurin tail reproduces the 2e6-term partial sum."""
    expected = width_normalizer_sum(eps, ef._TAIL_SUM_CUTOFF)
    assert abs(ef._width_normalizer(eps) - expected) <= 1e-15 * expected


def test_j1_single_box():
    tf = ef.build_test_function(0.5, 1)
    inside = np.abs(tf.x) < tf.widths[0] * 0.98
    height = 1.0 / (2 * tf.widths[0])
    assert np.abs(tf.values[inside] - height).max() < 1e-2 * height


def test_j2_trapezoid_corners():
    tf = ef.build_test_function(0.5, 2)
    mu1, mu2 = tf.widths
    assert abs(tf.support_radius - (mu1 + mu2)) < 1e-12
    # flat top of height 1/(2 mu1) on [-(mu1-mu2), mu1-mu2]
    flat = np.abs(tf.x) < (mu1 - mu2) * 0.95
    assert np.abs(tf.values[flat] - 1.0 / (2 * mu1)).max() < 1e-2 / (2 * mu1)


def test_fourier_at_zero(tf12):
    assert abs(tf12.fourier(np.array([0.0]))[0] - 1.0) < 1e-12


def test_fourier_closed_form_matches_grid_transform(tf12):
    xi = np.array([0.3, 1.0, 4.0, 15.0, 60.0])
    cf = tf12.fourier(xi)
    gr = fourier_grid(tf12, xi)
    assert np.abs(cf - gr).max() < 1e-5


def test_envelope_passes_j12(tf12):
    rep = ef.fourier_envelope_check(tf12)
    assert rep["passed"]
    assert rep["C2_certified"] > 0
    assert rep["C2_fit"] > 0


def test_envelope_fails_j1():
    rep = ef.fourier_envelope_check(ef.build_test_function(0.5, 1))
    assert not rep["passed"]


@pytest.mark.parametrize("eps,J", [(0.05, 1), (0.06, 12)])
def test_envelope_refuses_a_range_before_the_widest_box_decays(eps, J):
    """At eps <= 0.06 every box is narrower than 1/xi_min, so the constant
    is 0 at xi_min and the shape ratio would divide by it, or by a sample
    barely past 1/mu_1 where even a single box passes: the check refuses,
    without a division by zero."""
    tf = ef.build_test_function(eps, J)
    assert 10.0 * max(tf.widths) < 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="widest box"):
            ef.fourier_envelope_check(tf)


def test_envelope_never_passes_a_single_box():
    """From eps = 0.06 to 1 the single box, the slowest decay the check must
    reject, is refused or fails; just past 1/mu_1 (eps 0.08 to 0.1) its
    shape ratio is 1.69 to 0.25, above shape_ratio_min, so it is refused."""
    for eps in np.round(np.arange(0.06, 1.0 + 1e-9, 0.01), 2):
        tf = ef.build_test_function(float(eps), 1)
        try:
            rep = ef.fourier_envelope_check(tf)
        except ValueError as exc:
            assert "widest box" in str(exc)
            continue
        assert not rep["passed"], eps


def test_envelope_at_eps_from_015_is_the_unrefused_fit():
    """From eps = 0.15 up, which holds the default 0.5, the refusal rule
    never fires and the report is the plain fit's."""
    for eps in np.round(np.arange(0.15, 1.0 + 1e-9, 0.01), 2):
        for J in (8, 12):
            tf = ef.build_test_function(float(eps), J)
            assert ef.fourier_envelope_check(tf) == envelope_fit(tf), (eps, J)


def test_geodesic_sum_empty_below_shortest(pair, tf12):
    shortest = sk.primitive_geodesics(pair, 3.0, warn=[])[0].length
    assert ef.geodesic_sum(pair, shortest * 0.5, tf12) == 0.0


def test_geodesic_sum_trivial_real_positive(pair, tf12):
    for T in (4.0, 6.0, 8.0):
        val = ef.geodesic_sum(pair, T, tf12)
        assert abs(val.imag) == 0.0
        assert val.real > 0.0


def test_geodesic_sum_growth_exponent(pair, tf12):
    delta = 0.3939196600212
    Ts = np.arange(5.0, 10.0 + 1e-9, 1.0)
    vals = [ef.geodesic_sum(pair, float(t), tf12).real for t in Ts]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    slope = np.polyfit(Ts, np.log(vals), 1)[0]
    assert abs(slope - delta) < 0.15


def test_geodesic_sum_abelian_matches_bruteforce(pair, tf12):
    theta = (0.3, 0.1)
    T = 7.0
    val = ef.geodesic_sum(pair, T, tf12, character=ef.abelian_character(theta))
    total = 0.0 + 0.0j
    for c in sk.primitive_geodesics(pair, T, warn=[]):
        k = 1
        while k * c.length <= T:
            w = tf12(k * c.length / T)
            phase = np.exp(2j * np.pi * k * (theta[0] * c.homology[0]
                                             + theta[1] * c.homology[1]))
            total += phase * c.length / (1.0 - math.exp(-k * c.length)) * w
            k += 1
    assert abs(val - total) < 1e-12 * max(1.0, abs(total))


def test_geodesic_sum_incomplete_table_raises(pair, tf12):
    with pytest.raises(ValueError):
        ef.geodesic_sum(pair, 8.0, tf12, depth_cap=3)
