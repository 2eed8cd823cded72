import math

import numpy as np
import pytest

from reslab import abelian, schottky as sk, thermo, transfer, zeros
from reslab.abelian import AbelianQuotient
from reslab.transfer import TwistSpec


@pytest.fixture(scope="module")
def sym3():
    return sk.preset("symmetric3", t=6.0)


@pytest.fixture(scope="module")
def delta3(sym3):
    return thermo.critical_exponent(sym3)


def _geo(homology):
    return sk.GeodesicClass(word=(1,), length=1.0, trace=3.0,
                            homology=tuple(homology))


def test_character_trivial_alpha():
    q = AbelianQuotient((4, 3))
    for h in ((1, 0), (2, -1), (0, 5)):
        assert abs(abelian.character_of(q, (0, 0), _geo(h)) - 1.0) < 1e-15


def test_character_direct_value():
    q = AbelianQuotient((4, 1))
    v = abelian.character_of(q, (1, 0), _geo((1, 0)))
    assert abs(v - 1j) < 1e-15


def test_character_multiplicative():
    q = AbelianQuotient((5, 7))
    alpha = (2, 3)
    h1, h2 = (1, -2), (3, 4)
    combined = tuple(a + b for a, b in zip(h1, h2))
    v = abelian.character_of(q, alpha, _geo(h1)) * abelian.character_of(q, alpha, _geo(h2))
    assert abs(v - abelian.character_of(q, alpha, _geo(combined))) < 1e-12


def test_quotient_validation():
    with pytest.raises(ValueError):
        AbelianQuotient((0, 2))
    assert AbelianQuotient((3, 4)).order == 12


def test_trivial_quotient_gives_plain_zeros(sym3, delta3):
    rect = (delta3 - 0.04, delta3 + 0.04, -0.04, 0.04)
    out = abelian.cover_zeta_zeros(sym3, AbelianQuotient((1, 1)), rect)
    assert list(out.keys()) == [(0, 0)]
    rs = out[(0, 0)]
    assert rs.total_multiplicity == 1
    assert abs(rs.zeros[0][0] - delta3) < 1e-8


def test_order2_cover_matches_regular_twist(sym3, delta3):
    rect = (delta3 - 0.08, delta3 + 0.04, -0.05, 0.05)
    per_char = abelian.cover_zeta_zeros(sym3, AbelianQuotient((2, 1)), rect, lmax=14)
    union = sorted(z for rs in per_char.values() for (z, mult) in rs.zeros
                   for _ in range(mult))
    reg = zeros.resonances(sym3, TwistSpec.regular((2, 1)), rect, lmax=14)
    regs = sorted(z for (z, mult) in reg.zeros for _ in range(mult))
    assert len(union) == len(regs)
    for a, b in zip(union, regs):
        assert abs(a - b) < 1e-6


def test_delta_zero_only_from_trivial_character(sym3, delta3):
    rect = (delta3 - 0.01, delta3 + 0.01, -0.01, 0.01)
    out = abelian.cover_zeta_zeros(sym3, AbelianQuotient((2, 2)), rect)
    for alpha, rs in out.items():
        if alpha == (0, 0):
            assert rs.total_multiplicity == 1
        else:
            assert rs.total_multiplicity == 0


def test_quotient_order_cap(sym3):
    with pytest.raises(ValueError):
        abelian.cover_zeta_zeros(sym3, AbelianQuotient((65, 1)), (0, 1, 0, 1))


def test_nonvanishing_scan(sym3, delta3):
    scan = abelian.nonvanishing_scan(sym3, grid_n=16, delta=delta3)
    assert scan["residual_at_zero"] < 1e-8
    assert scan["min_offlattice"] > 1e-3
    assert scan["min_offlattice"] > 1e3 * scan["residual_at_zero"]


def test_modulus_field_symmetry(sym3, delta3):
    det = abelian._theta_det_factory(sym3, complex(delta3), 12)
    rng = np.random.default_rng(2)
    for _ in range(8):
        theta = rng.uniform(0, 1, size=2)
        a = abs(det(tuple(theta)))
        b = abs(det(tuple((-theta) % 1.0)))
        assert abs(a - b) < 1e-10


def test_theta_det_equals_twisted_placement():
    """Phases on the column slabs of the untwisted matrix give the same
    determinant, bit for bit, as placing every block with its character."""
    rng = np.random.default_rng(5)
    for data, lmax in ((sk.preset("symmetric3"), 16), (sk.preset("cylinder"), 12),
                       (sk.preset("sl2z-crossed"), 8)):
        s = complex(0.53, 0.2)
        det = abelian._theta_det_factory(data, s, lmax)
        blocks = transfer.assemble_blocks(data, s, lmax)
        for _ in range(20):
            theta = tuple(rng.uniform(-1.0, 2.0, size=data.m))
            expected = transfer.fredholm_det(transfer.blocks_to_matrix(
                data, blocks, lmax, TwistSpec.abelian(theta)))
            assert det(theta) == expected


def test_implicit_curve_properties(sym3, delta3):
    curve = abelian.implicit_curve(sym3, 0.05, grid_n=5, delta=delta3)
    phi0 = curve.lookup((0.0, 0.0))
    assert abs(phi0 - delta3) < 1e-8
    for theta, phi in curve.samples:
        assert abs(phi.imag) < 1e-7
        assert phi.real <= delta3 + 1e-9
        assert abs(phi - curve.lookup(tuple(-x for x in theta))) < 1e-8


def test_curve_hessian_negative_definite(sym3, delta3):
    H = abelian.curve_hessian(sym3, h=0.01, delta=delta3)
    eigs = np.linalg.eigvalsh(H)
    assert np.all(eigs < 0)


def test_quadratic_model(sym3, delta3):
    """phi(theta) = delta - Q(theta) + O(|theta|^3) with Q from the Hessian."""
    H = abelian.curve_hessian(sym3, h=0.01, delta=delta3)
    eps = 0.012
    curve = abelian.implicit_curve(sym3, eps, grid_n=3, delta=delta3)
    for theta, phi in curve.samples:
        t = np.array(theta)
        model = delta3 + 0.5 * t @ H @ t
        assert abs(phi.real - model) < 1e-4


def test_equidistribution_trend_small(sym3):
    res = abelian.equidistribution_experiment(
        sym3, [(8, 1), (16, 1), (32, 1)], lmax=10, fine=128)
    assert res.kolmogorov[0] >= res.kolmogorov[1] >= res.kolmogorov[2]
    assert res.counts[-1] > res.counts[0]
    # near-delta counting scales with the cover order
    ratios = [c / n for c, (n, _) in zip(res.counts, res.moduli_sequence)]
    assert max(ratios) / max(min(ratios), 1e-9) < 3.0


def test_reference_density_exponent(sym3):
    res = abelian.equidistribution_experiment(
        sym3, [(8, 1)], lmax=10, fine=256)
    assert -0.8 < res.density_exponent < -0.2
