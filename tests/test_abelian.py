import itertools
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from reslab import abelian, explicit_formula, schottky as sk, thermo, transfer, zeros
from reslab.abelian import AbelianQuotient
from reslab.transfer import TwistSpec

from oracles import full_grid_scan, kron_placement, source_unitaries, theta_det_factory


@pytest.fixture(scope="module")
def sym3():
    return sk.preset("symmetric3", t=6.0)


@pytest.fixture(scope="module")
def delta3(sym3):
    return thermo.critical_exponent(sym3)


def _geo(homology):
    return sk.GeodesicClass(word=(1,), length=1.0, trace=3.0,
                            homology=tuple(homology))


def _character(q, alpha, homology):
    """chi_alpha of the quotient q on a class with this homology vector:
    the abelian character at theta = alpha / N."""
    return explicit_formula.abelian_character(q.theta(alpha))(_geo(homology), 1)


def test_character_trivial_alpha():
    q = AbelianQuotient((4, 3))
    for h in ((1, 0), (2, -1), (0, 5)):
        assert abs(_character(q, (0, 0), h) - 1.0) < 1e-15


def test_character_direct_value():
    q = AbelianQuotient((4, 1))
    v = _character(q, (1, 0), (1, 0))
    assert abs(v - 1j) < 1e-15


def test_character_multiplicative():
    q = AbelianQuotient((5, 7))
    alpha = (2, 3)
    h1, h2 = (1, -2), (3, 4)
    combined = tuple(a + b for a, b in zip(h1, h2))
    v = _character(q, alpha, h1) * _character(q, alpha, h2)
    assert abs(v - _character(q, alpha, combined)) < 1e-12


def test_quotient_validation():
    with pytest.raises(ValueError):
        AbelianQuotient((0, 2))
    assert AbelianQuotient((3, 4)).order == 12
    assert AbelianQuotient((2 ** 32, 2 ** 32)).order == 2 ** 64


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


@pytest.mark.parametrize("kwargs", [{"grid_n": 0}, {"grid_n": 1},
                                    {"grid_n": 2, "exclusion": 0.6}])
def test_scan_with_no_off_lattice_point_is_rejected(sym3, delta3, kwargs):
    with pytest.raises(ValueError):
        abelian.nonvanishing_scan(sym3, delta=delta3, lmax=8, **kwargs)


def test_scan_rejects_a_complex_delta(sym3, delta3):
    for delta in (complex(delta3, 0.0), np.complex128(delta3)):
        with pytest.raises(TypeError):
            abelian.nonvanishing_scan(sym3, grid_n=4, delta=delta, lmax=8)


@pytest.mark.parametrize("delta", [math.inf, -math.inf, math.nan])
def test_scan_rejects_a_non_finite_delta(sym3, delta):
    with pytest.raises(ValueError):
        abelian.nonvanishing_scan(sym3, grid_n=4, delta=delta, lmax=8)


@pytest.mark.parametrize("name", ["cylinder", "symmetric3", "sl2z-pair", "sl2z-crossed"])
def test_scan_residual_is_the_lifted_determinant_at_zero(name):
    """The residual at theta = 0 is, bit for bit, the modulus of the LU
    determinant of the untwisted matrix lifted by theta = 0's letters,
    taken as one row of a batch of grid characters."""
    data = sk.preset(name)
    delta = zeros._delta_of(data, 16)
    scan = abelian.nonvanishing_scan(data, grid_n=6, delta=delta)
    base = transfer.assemble(data, complex(delta), TwistSpec.trivial(), 16)
    k = np.vstack((np.ones((3, data.m), int), np.zeros(data.m, int)))
    letters = transfer._character_letters(k / 6)[-1]
    assert scan["residual_at_zero"] == abs(transfer.fredholm_det(transfer._lift(base, letters)))


@pytest.mark.parametrize("name", ["symmetric3", "sl2z-crossed"])
def test_scan_at_delta_zero_stays_finite(name):
    """At s = 0 the determinant of each cyclic subgroup vanishes, so the
    block eliminated at theta_1 = 0 is singular to working precision; the
    scan still returns finite values without raising."""
    data = sk.preset(name)
    base = transfer.assemble(data, 0j, TwistSpec.trivial(), 12)
    nb = 13
    order = transfer._lattice_order(data.m, nb)
    block = np.eye(nb) - base[np.ix_(order[:nb], order[:nb])]
    assert np.linalg.cond(block) > 1e14
    scan = abelian.nonvanishing_scan(data, grid_n=4, delta=0.0, lmax=12)
    assert scan["eliminations"] > 0
    assert math.isfinite(scan["min_offlattice"]) and math.isfinite(scan["residual_at_zero"])


# The letter permutation of each group's disc involution, written out on
# characters: symmetric3 swaps and negates, sl2z-pair and the cylinder negate.
_PI = {"cylinder": lambda k: (-k[0],), "symmetric3": lambda k: (-k[1], -k[0]),
       "sl2z-pair": lambda k: (-k[0], -k[1]), "sl2z-crossed": None}


def _orbit_first(name, k, grid_n):
    """The first point in scan order of the grid point k's orbit under
    theta -> -theta and the involution's letter permutation."""
    orbit = {k, tuple(-c for c in k)}
    if _PI[name] is not None:
        orbit |= {_PI[name](c) for c in orbit}
    return min(tuple(c % grid_n for c in member) for member in orbit)


@pytest.mark.parametrize("name, grid_n, orbits", [
    ("symmetric3", 6, 12), ("symmetric3", 7, 15), ("symmetric3", 8, 20),
    ("symmetric3", 9, 24), ("symmetric3", 16, 72), ("sl2z-pair", 8, 33),
    ("sl2z-crossed", 3, 40), ("cylinder", 9, 4)])
def test_scan_matches_the_full_grid_oracle(name, grid_n, orbits, monkeypatch):
    """Same minimum and residual as one determinant per grid point, to
    1e-12 relative; the argmin is the first grid point, in scan order, of
    the oracle argmin's orbit under theta -> -theta and the involution's
    letter permutation; one leaf determinant per orbit, one block
    eliminated per distinct leading part of the orbits' first points, and
    one `fredholm_det`, at theta = 0."""
    data = sk.preset(name)
    delta = zeros._delta_of(data, 16)
    want = full_grid_scan(data, grid_n, delta)
    calls = []
    fredholm_det = transfer.fredholm_det

    def counting(M):
        calls.append(M.shape)
        return fredholm_det(M)

    monkeypatch.setattr(transfer, "fredholm_det", counting)
    got = abelian.nonvanishing_scan(data, grid_n=grid_n, delta=delta)
    assert len(calls) == 1
    assert got["orbits"] == orbits
    firsts = {_orbit_first(name, k, grid_n)
              for k in itertools.product(range(grid_n), repeat=data.m)
              if max(min(c, grid_n - c) for c in k) >= 0.05 * grid_n}
    assert len(firsts) == orbits
    assert got["eliminations"] == sum(len({k[:j] for k in firsts}) for j in range(1, data.m))
    for key in ("min_offlattice", "residual_at_zero"):
        assert abs(got[key] - want[key]) <= 1e-12 * want[key], key
    k = tuple(round(t * grid_n) for t in want["argmin"])
    assert got["argmin"] == tuple(c / grid_n for c in _orbit_first(name, k, grid_n))


def test_modulus_field_symmetry():
    """The identities the scan's orbits rest on, at random complex s and
    theta, to 1e-12 relative: det_{pi.theta}(s) = det_theta(s), pi the
    letter permutation of the disc involution, for the groups that have
    one, and det_{-theta}(conj s) = conj det_theta(s) for every preset, as
    all have real data.  At real s, |det| is thus constant on orbits."""
    rng = np.random.default_rng(2)
    for name, pi in _PI.items():
        data = sk.preset(name)
        involution = abelian._character_involution(data)
        assert (involution is None) == (pi is None)
        if pi is not None:
            index, sign = involution
            k = np.arange(1, data.m + 1)
            assert tuple(sign * k[index]) == pi(k)
        for _ in range(3):
            s = complex(rng.uniform(0.0, 1.0), rng.uniform(-3.0, 3.0))
            det = theta_det_factory(data, s, 12)
            mirror = theta_det_factory(data, s.conjugate(), 12)
            for _ in range(4):
                theta = rng.uniform(0.0, 1.0, size=data.m)
                v = det(tuple(theta))
                assert abs(mirror(tuple(-theta)) - v.conjugate()) <= 1e-12 * abs(v), name
                if pi is not None:
                    assert abs(det(pi(theta)) - v) <= 1e-12 * abs(v), name


def test_theta_det_equals_twisted_placement():
    """The untwisted matrix lifted by a character gives the same
    determinant, bit for bit, as placing every scalar block with its
    character by np.kron."""
    rng = np.random.default_rng(5)
    for data, lmax in ((sk.preset("symmetric3"), 16), (sk.preset("cylinder"), 12),
                       (sk.preset("sl2z-crossed"), 8)):
        s = complex(0.53, 0.2)
        det = theta_det_factory(data, s, lmax)
        for _ in range(20):
            theta = tuple(rng.uniform(-1.0, 2.0, size=data.m))
            unitaries = source_unitaries(data, TwistSpec.abelian(theta))
            expected = transfer.fredholm_det(kron_placement(data, s, lmax, unitaries))
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


def test_ks_distance_is_the_union_grid_maximum():
    """The Kolmogorov distance over the sorted joined samples equals the
    maximum over np.union1d of them, ties and shared points included."""
    rng = np.random.default_rng(3)
    for _ in range(20):
        emp = np.sort(rng.integers(0, 12, size=rng.integers(1, 9)) / 4)
        ref = np.sort(rng.integers(0, 12, size=rng.integers(1, 30)) / 4)
        grid = np.union1d(emp, ref)
        want = np.max(np.abs(np.searchsorted(emp, grid, side="right") / len(emp)
                             - np.searchsorted(ref, grid, side="right") / len(ref)))
        assert abelian._ks_distance(emp, ref) == want


def test_equidistribution_leaves_numpy_ma_unimported():
    """np.union1d's np.unique path imports numpy.ma, 15-30 ms in a fresh
    interpreter; a small experiment, KS distances included, loads none of it."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = ("import sys; from reslab import abelian, schottky as sk; "
            "r = abelian.equidistribution_experiment(sk.preset('symmetric3'), "
            "[(4, 1), (8, 1)], lmax=8, fine=32); "
            "print(min(r.counts) > 0 and len(r.reference_cdf) > 0, 'numpy.ma' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True).stdout
    assert out.split() == ["True", "False"]


def test_reference_density_exponent(sym3):
    """The exponent lies in its band and does not jump when every reference
    sample moves by one ulp: no sample sits on a bin edge.  Moving adjacent
    samples in opposite directions splits or merges the near-equal pairs
    that theta and 1 - theta give, which moved quantile-valued edges across
    a sample."""
    res = abelian.equidistribution_experiment(
        sym3, [(8, 1)], lmax=10, fine=256)
    assert -0.8 < res.density_exponent < -0.2
    ref = np.array([u for u, _ in res.reference_cdf])
    delta = zeros._delta_of(sym3, 12)
    assert abelian._density_exponent(ref, delta) == res.density_exponent
    alternate = np.where(np.arange(len(ref)) % 2 == 0, np.inf, -np.inf)
    for way in (np.inf, -np.inf, alternate, -alternate):
        moved = abelian._density_exponent(np.nextafter(ref, way), delta)
        assert abs(moved - res.density_exponent) <= 1e-12 * abs(res.density_exponent)
