import math

import numpy as np
import pytest

from reslab import schottky as sk
from reslab import thermo, transfer
from reslab.transfer import TwistSpec


@pytest.fixture(scope="module")
def cyl():
    return sk.preset("cylinder", t=3.0)


@pytest.fixture(scope="module")
def sym3():
    return sk.preset("symmetric3", t=6.0)


def _rand_unitary(rng, d):
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r))).conj()


def _scalar_block(data, s, lmax, i, j):
    """Reference: one (lmax+1)^2 block carrying basis functions on disc j to
    disc i, built from scratch, or None when inadmissible."""
    m = data.m
    a0 = (j + m) % (2 * m)
    if a0 == i:
        return None
    g = data.gen(a0 + 1)
    tgt = data.discs[i]
    src = data.discs[j]
    K = 4 * (lmax + 1)
    rho = 0.75 * tgt.radius
    z = tgt.center + rho * np.exp(2j * np.pi * np.arange(K) / K)
    den = g.c * z + g.d
    dv = 1.0 / den ** 2
    w = (g.a * z + g.b) / den
    dpow = np.exp(s * np.log(dv))
    ell = np.arange(lmax + 1)
    u = (w - src.center) / src.radius
    phi = (np.sqrt((ell[:, None] + 1) / np.pi) / src.radius) * u[None, :] ** ell[:, None]
    vals = dpow[None, :] * phi
    taylor = np.fft.fft(vals, axis=1)[:, : lmax + 1] / K
    taylor /= rho ** ell[None, :]
    coeff = taylor * (np.sqrt(np.pi / (ell + 1)) * tgt.radius ** (ell + 1))[None, :]
    return coeff.T


def test_batched_blocks_match_scalar_reference():
    """Blocks from the cached tables equal the per-block construction bit for
    bit, with several (group, lmax) keys live in the cache at once."""
    for name in ("cylinder", "symmetric3", "sl2z-pair", "sl2z-crossed"):
        data = sk.preset(name)
        for lmax in (2, 12, 16, 32):
            for s in (0.45, complex(0.3, 1.7), complex(0.7, -3.2)):
                blocks = transfer.assemble_blocks(data, s, lmax)
                n = 2 * data.m
                expected = {(i, j): _scalar_block(data, s, lmax, i, j)
                            for i in range(n) for j in range(n)}
                expected = {k: b for k, b in expected.items() if b is not None}
                assert list(blocks) == list(expected)
                for key, b in expected.items():
                    assert np.array_equal(blocks[key], b), (name, lmax, s, key)


def test_lmax_checked_before_data():
    with pytest.raises(ValueError):
        transfer.assemble_blocks(None, 0.5, 1)


def test_trivial_equals_zero_character(sym3):
    s = complex(0.7, 0.4)
    a = transfer.assemble(sym3, s, TwistSpec.trivial(), 10).mat
    b = transfer.assemble(sym3, s, TwistSpec.abelian([0.0, 0.0]), 10).mat
    assert np.array_equal(a, b)


def test_integer_character_equals_trivial(sym3):
    s = complex(0.7, -0.2)
    a = transfer.assemble(sym3, s, TwistSpec.trivial(), 10).mat
    b = transfer.assemble(sym3, s, TwistSpec.abelian([1.0, 2.0]), 10).mat
    assert np.allclose(a, b, atol=1e-13)


def test_block_sparsity(sym3):
    blocks = transfer.assemble_blocks(sym3, complex(0.5), 6)
    m = sym3.m
    for i in range(2 * m):
        for j in range(2 * m):
            connecting = (j + m) % (2 * m)
            assert (((i, j) in blocks)) == (connecting != i)


def test_unit_scalar_twist_preserves_block_singular_values(sym3):
    s = complex(0.5, 0.1)
    blocks = transfer.assemble_blocks(sym3, s, 10)
    theta = [0.37, 0.81]
    mats = TwistSpec.abelian(theta).letter_matrices(sym3.m)
    for (i, j), b in blocks.items():
        a0 = (j + sym3.m) % (2 * sym3.m)
        twisted = b * mats[a0][0, 0]
        sv0 = np.linalg.svd(b, compute_uv=False)
        sv1 = np.linalg.svd(twisted, compute_uv=False)
        assert np.allclose(sv0, sv1, atol=1e-12)


def test_block_placement_is_kronecker_layout(sym3):
    """Each (i, j) block of the twisted matrix is kron(b, u) for the unitary u
    of the connecting letter, bit for bit."""
    lmax = 6
    twist = TwistSpec.regular((2, 3))
    blocks = transfer.assemble_blocks(sym3, complex(0.4, 0.9), lmax)
    mats = twist.letter_matrices(sym3.m)
    side = (lmax + 1) * twist.dim
    n = 2 * sym3.m * side
    expected = np.zeros((n, n), dtype=complex)
    for (i, j), b in blocks.items():
        u = mats[(j + sym3.m) % (2 * sym3.m)]
        expected[i * side:(i + 1) * side, j * side:(j + 1) * side] = np.kron(b, u)
    got = transfer.blocks_to_matrix(sym3, blocks, lmax, twist)
    assert np.array_equal(got, expected)


def test_cylinder_closed_form(cyl):
    ell = 2 * math.acosh(1.5)
    s = complex(3.0, 0.7)
    fd = transfer.fredholm_det(transfer.assemble(cyl, s, TwistSpec.trivial(), 24))
    cf = np.prod([(1 - np.exp(-(s + k) * ell)) ** 2 for k in range(200)])
    assert abs(fd - cf) < 1e-10


def test_regular_twist_factorizes(sym3):
    """Order-q regular representation determinant equals the product of the
    q abelian character determinants."""
    s = complex(0.9, 0.3)
    for moduli in ((2, 1), (2, 2)):
        reg = transfer.fredholm_det(
            transfer.assemble(sym3, s, TwistSpec.regular(moduli), 12))
        prod = 1.0 + 0.0j
        for a0 in range(moduli[0]):
            for a1 in range(moduli[1]):
                theta = (a0 / moduli[0], a1 / moduli[1])
                prod *= transfer.fredholm_det(
                    transfer.assemble(sym3, s, TwistSpec.abelian(theta), 12))
        assert abs(reg - prod) / abs(prod) < 1e-8


def test_trace_identity_trivial(sym3):
    res = transfer.operator_trace_check(sym3, complex(0.6, 0.2),
                                        TwistSpec.trivial(), 24, 1)
    assert res < 1e-10


def test_trace_identity_abelian(sym3):
    res = transfer.operator_trace_check(sym3, complex(0.6, 0.2),
                                        TwistSpec.abelian([0.3, 0.1]), 16, 3)
    assert res < 1e-8


def test_trace_residual_decreases_in_lmax(sym3):
    s = complex(0.5, 0.0)
    res = [transfer.operator_trace_check(sym3, s, TwistSpec.trivial(), lm, 2)
           for lm in (8, 16, 24)]
    assert res[1] < res[0] and res[2] <= res[1]


def test_singular_values_basic(sym3):
    M = transfer.assemble(sym3, complex(0.5, 0.2), TwistSpec.trivial(), 12)
    sv = transfer.singular_values(M)
    assert np.all(sv >= 0)
    assert np.all(np.diff(sv) <= 1e-12)
    assert sv[0] >= transfer.spectral_radius(M) - 1e-10


def test_singular_value_slope_halves_for_dim2(sym3):
    rng = np.random.default_rng(3)
    s = complex(0.5, 0.0)
    tw2 = TwistSpec.matrix([_rand_unitary(rng, 2), _rand_unitary(rng, 2)])
    sv1 = transfer.singular_values(transfer.assemble(sym3, s, TwistSpec.trivial(), 24))
    sv2 = transfer.singular_values(transfer.assemble(sym3, s, tw2, 24))

    def slope(sv, lo, hi):
        k = np.arange(len(sv))
        mask = (k >= lo) & (k < hi) & (sv > 1e-13)
        return np.polyfit(k[mask], np.log(sv[mask]), 1)[0]

    s1 = slope(sv1, 5, 40)
    s2 = slope(sv2, 10, 80)
    assert abs(s2 / s1 - 0.5) < 0.125


def test_det_convergence_in_lmax(sym3, cyl):
    for data in (sym3, cyl):
        for s in (complex(0.3, 1.5), complex(-0.2, 0.4)):
            d1 = transfer.fredholm_det(transfer.assemble(data, s, TwistSpec.trivial(), 32))
            d2 = transfer.fredholm_det(transfer.assemble(data, s, TwistSpec.trivial(), 40))
            assert abs(d1 - d2) < 1e-10


def test_spectral_radius_matches_pressure(sym3):
    sigma = 0.4
    M = transfer.assemble(sym3, complex(sigma), TwistSpec.trivial(), 16)
    assert abs(math.log(transfer.spectral_radius(M)) - thermo.pressure(sym3, sigma)) < 1e-8


def test_unitary_twist_radius_bound(sym3):
    rng = np.random.default_rng(11)
    sigma = 0.4
    bound = math.exp(thermo.pressure(sym3, sigma))
    for tw in (TwistSpec.abelian([0.2, 0.7]),
               TwistSpec.matrix([_rand_unitary(rng, 2), _rand_unitary(rng, 2)]),
               TwistSpec.regular((3, 1))):
        M = transfer.assemble(sym3, complex(sigma), tw, 16)
        assert transfer.spectral_radius(M) <= bound + 1e-8


def test_theta_periodicity(sym3):
    s = complex(0.6, 0.1)
    a = transfer.assemble(sym3, s, TwistSpec.abelian([0.3, 0.4]), 8).mat
    b = transfer.assemble(sym3, s, TwistSpec.abelian([1.3, -0.6]), 8).mat
    assert np.allclose(a, b, atol=1e-13)


def test_conjugation_symmetry(sym3):
    s = complex(0.6, 0.8)
    theta = [0.15, 0.45]
    d1 = transfer.fredholm_det(transfer.assemble(sym3, s, TwistSpec.abelian(theta), 14))
    d2 = transfer.fredholm_det(
        transfer.assemble(sym3, s.conjugate(), TwistSpec.abelian([-t for t in theta]), 14))
    assert abs(d1.conjugate() - d2) < 1e-10


def test_twist_validation():
    with pytest.raises(ValueError):
        TwistSpec.matrix([np.array([[2.0, 0.0], [0.0, 1.0]])])
    with pytest.raises(ValueError):
        TwistSpec.regular((0, 2))


def test_lefschetz_empty_for_cylinder_even_mix(cyl):
    # m=1: closed words exist for every N; sanity check trace at N=2
    res = transfer.operator_trace_check(cyl, complex(1.0), TwistSpec.trivial(), 16, 2)
    assert res < 1e-10
