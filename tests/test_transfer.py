import inspect
import json
import math
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from itertools import product

import numpy as np
import pytest

from reslab import schottky as sk
from reslab import thermo, transfer, zeros
from reslab.transfer import TwistSpec

import oracles
from oracles import kron_placement, scalar_block, source_unitaries


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


def test_batched_blocks_match_scalar_reference():
    """Blocks from the cached series equal the per-block construction bit for
    bit, with several (group, lmax) keys live in the cache at once."""
    for name in ("cylinder", "symmetric3", "sl2z-pair", "sl2z-crossed"):
        data = sk.preset(name)
        for lmax in (2, 12, 16, 32):
            for s in (0.45, complex(0.3, 1.7), complex(0.7, -3.2)):
                blocks = transfer.assemble_blocks(data, s, lmax)
                n = 2 * data.m
                expected = {(i, j): scalar_block(data, s, lmax, i, j)
                            for i in range(n) for j in range(n)}
                expected = {k: b for k, b in expected.items() if b is not None}
                assert list(blocks) == list(expected)
                for key, b in expected.items():
                    assert np.array_equal(blocks[key], b), (name, lmax, s, key)


_PRESETS = ("cylinder", "symmetric3", "sl2z-pair", "sl2z-crossed")


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                    reason="long double is no wider than double here")
def test_closed_form_blocks_beat_the_sampled_dft():
    """Against the sampled folded DFT in long double with K = 16(lmax+1)
    samples, whose aliasing is far below double rounding, the blocks of
    `assemble` are off by at most 1e-14 of each block's largest entry, and
    by no more than the same DFT in double with K = 4(lmax+1), the engine
    that the Taylor series replaced: the largest such error over a
    matrix's blocks, for every preset at lmax 8, 16 and 32 and Im s up to
    10."""
    for name in _PRESETS:
        data = sk.preset(name)
        for lmax in (8, 16, 32):
            nb = lmax + 1
            for s in (0.45, complex(0.3, 1.7), complex(0.1, -2.5), complex(0.5, 10.0)):
                series = sampled = 0.0
                for (i, j), block in transfer.assemble_blocks(data, s, lmax).items():
                    ref = oracles.sampled_block(data, lmax, i, j, s, 16 * nb, np.clongdouble)
                    dft = oracles.sampled_block(data, lmax, i, j, s, 4 * nb, np.complex128)
                    top = np.max(np.abs(ref))
                    series = max(series, float(np.max(np.abs(block - ref)) / top))
                    sampled = max(sampled, float(np.max(np.abs(dft - ref)) / top))
                assert series <= 1e-14 and series <= sampled, (name, lmax, s, series, sampled)


def _character(data):
    return TwistSpec.abelian([0.137 * (k + 1) for k in range(data.m)])


def _twists(data, rng):
    """Trivial, a character, random 2x2 unitaries, and the regular twist of
    Z/2 x Z/3 x 1 x .. (Z/2 for m = 1)."""
    moduli = ((2, 3) + (1,) * data.m)[:data.m]
    return (TwistSpec.trivial(), _character(data),
            TwistSpec.matrix([_rand_unitary(rng, 2) for _ in range(data.m)]),
            TwistSpec.regular(moduli))


def test_engine_matches_kronecker_placement_bit_for_bit():
    """`assemble` gives exactly the np.kron placement of the scalar blocks,
    in a C-contiguous matrix, for the trivial twist, a character, a matrix
    twist and a regular twist (the last two up to lmax 16, where their
    matrices stay small)."""
    rng = np.random.default_rng(4)
    for name in _PRESETS:
        data = sk.preset(name)
        twists = _twists(data, rng)
        for lmax in (2, 4, 12, 16, 32):
            for s in (0.45, complex(0.3, 1.7), complex(0.6, 4.0)):
                for twist in twists if lmax <= 16 else twists[:2]:
                    expected = kron_placement(data, s, lmax, source_unitaries(data, twist))
                    got = transfer.assemble(data, s, twist, lmax)
                    assert np.array_equal(got, expected), (name, lmax, s, twist.kind)
                    assert got.flags.c_contiguous, (name, lmax, s, twist.kind)


def test_a_batch_of_s_is_the_scalar_matrices_bit_for_bit():
    """`assemble` at an array of s gives, row by row, exactly the matrices
    of one s at a time, whole and split, trivial and twisted, with the
    batch axis first and a sector axis always present; `fredholm_det` of
    an untwisted batch is the (s, sectors) array of the scalar matrices'
    determinants.  Twists of dimension
    above 1 are checked at lmax 8, where their matrices stay small.  The
    sl2z-pair variant has discs of two radii."""
    rng = np.random.default_rng(8)
    groups = [sk.preset(name) for name in _PRESETS]
    for data in groups + [sk.preset("sl2z-pair", B=((11, 60), (2, 11)))]:
        name = data.name
        twists = _twists(data, rng)
        for lmax in (8, 16, 32):
            s = np.array([complex(rng.uniform(-0.5, 1.0), rng.uniform(-8.0, 8.0))
                          for _ in range(3)])
            cases = [(TwistSpec.trivial(), True)] + [
                (twist, False) for twist in (twists if lmax == 8 else twists[:2])]
            for twist, sectors in cases:
                batch = transfer.assemble(data, s, twist, lmax, sectors=sectors)
                alone = [transfer.assemble(data, v, twist, lmax, sectors=sectors) for v in s]
                assert batch.ndim == 4 and len(batch) == len(s)
                for got, want in zip(batch, alone):
                    assert np.array_equal(got if want.ndim == 3 else got[0], want), (
                        name, lmax, twist.kind, sectors)
                if twist.kind == "trivial":
                    dets = transfer.fredholm_det(batch)
                    want = np.reshape([transfer.fredholm_det(M) for M in alone], (len(s), -1))
                    assert dets.shape == batch.shape[:2]
                    assert np.array_equal(dets, want), (name, lmax)


def test_discs_of_two_radii_give_the_scalar_blocks():
    """Discs of radius 1 and 1/2, built in one run, give the scalar
    reference blocks and their np.kron placement bit for bit, for every
    kind of twist."""
    data = sk.preset("sl2z-pair", B=((11, 60), (2, 11)))
    assert [d.radius for d in data.discs] == [1.0, 0.5, 1.0, 0.5]
    twists = _twists(data, np.random.default_rng(6))
    for lmax in (4, 16, 32):
        assert len(transfer._plan(data, lmax, False)[0]) == 1
        for s in (0.45, complex(0.3, 1.7)):
            blocks = transfer.assemble_blocks(data, s, lmax)
            for (i, j), b in blocks.items():
                assert np.array_equal(b, scalar_block(data, s, lmax, i, j)), (lmax, s)
            for twist in twists:
                expected = kron_placement(data, s, lmax, source_unitaries(data, twist))
                got = transfer.assemble(data, s, twist, lmax)
                assert np.array_equal(got, expected), (lmax, s, twist.kind)


def test_regular_det_is_the_product_of_character_dets(sym3):
    """make_det's regular determinant (one LU per character) agrees with the
    determinant of the Kronecker-placed regular matrix."""
    lmax = 12
    for moduli in ((2, 1), (3, 1), (2, 2), (4, 1)):
        twist = TwistSpec.regular(moduli)
        det = zeros.make_det(sym3, twist, lmax)
        for s in (complex(0.9, 0.3), complex(0.25, -1.1), 0.6):
            kron = transfer.fredholm_det(transfer.assemble(sym3, s, twist, lmax))
            assert abs(det(s) - kron) / abs(kron) < 1e-12, (moduli, s)
    with pytest.raises(ValueError, match="moduli must have dimension"):
        zeros.make_det(sym3, TwistSpec.regular((2,)), lmax)


def test_threads_assembling_at_once_match_a_serial_run():
    """Each thread works in its own buffers: eight threads assembling
    different presets and sizes at once, full matrices and sector stacks,
    give the serial matrices exactly."""
    jobs = [(name, lmax, s) for name in _PRESETS for lmax in (12, 32)
            for s in (complex(0.4, 2.0), 0.7)]

    def build(job):
        name, lmax, s = job
        data = sk.preset(name)
        return [transfer.assemble(data, s, tw, lmax)
                for tw in (TwistSpec.trivial(), _character(data))] + [
                    transfer.assemble(data, s, TwistSpec.trivial(), lmax, sectors=True)]

    transfer._plan.cache_clear()
    with ThreadPoolExecutor(max_workers=8) as pool:
        threaded = list(pool.map(build, jobs * 2))
    serial = [build(job) for job in jobs] * 2
    for a, b in zip(threaded, serial):
        assert all(np.array_equal(x, y) for x, y in zip(a, b))


def test_assembly_peak_memory_is_bounded_by_the_matrix():
    """A warmed assembly allocates little beyond the matrix it returns: the
    Taylor series run in reused per-thread buffers, not in fresh arrays, and a
    character adds only the lifted copy of the untwisted matrix."""
    data = sk.preset("sl2z-crossed")
    s = complex(0.5, 2.0)
    for twist in (TwistSpec.trivial(), _character(data)):
        transfer.assemble(data, s, twist, 32)
        tracemalloc.start()
        try:
            M = transfer.assemble(data, s, twist, 32)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * M.nbytes, (twist.kind, peak / M.nbytes)


def test_a_generator_pole_in_a_target_disc_is_refused():
    """With the cylinder's discs swapped, the pole of the letter that
    connects a pair lies inside that pair's target disc: |q| >= 1, the
    Taylor series diverge, and building the plan raises ValueError naming
    the pair, for the whole matrix and the split one alike."""
    cyl = sk.preset("cylinder")
    swapped = sk.SchottkyData(m=1, discs=cyl.discs[::-1], generators=cyl.generators)
    for split in (False, True):
        with pytest.raises(ValueError, match=r"letter 2 lies in the closed target disc 0: "
                                             r"the Taylor series of pair \(0, 0\) diverges"):
            transfer._plan(swapped, 8, split)


def test_lmax_checked_before_data():
    with pytest.raises(ValueError):
        transfer.assemble_blocks(None, 0.5, 1)


@pytest.mark.parametrize("name", ["cylinder", "symmetric3", "sl2z-pair", "sl2z-crossed"])
def test_character_dets_match_one_lifted_determinant_each(name):
    """Elimination along the character lattice gives every character's
    det(I - M D_theta) within 1e-12 relative of the LU of its lifted matrix,
    at delta and at real s from 0.05 to 0.3, for grid characters and random
    ones; it eliminates one block per distinct leading part of the
    characters, none for the cylinder (m = 1)."""
    data = sk.preset(name)
    rng = np.random.default_rng(7)
    grid = np.indices((3,) * data.m).reshape(data.m, -1).T[1:] / 3
    thetas = np.vstack((grid, rng.uniform(-1.0, 2.0, size=(5, data.m))))
    for s in (zeros._delta_of(data, 16), 0.05, 0.1, 0.2, 0.3):
        base = transfer.assemble(data, complex(s), TwistSpec.trivial(), 16)
        got, eliminated = transfer._character_dets(base, thetas)
        assert got.shape == (len(thetas),)
        for theta, det in zip(thetas, got):
            letters = transfer._character_letters(theta)
            want = transfer.fredholm_det(transfer._lift(base, letters))
            assert abs(det - want) <= 1e-12 * abs(want), (name, s, theta)
        assert eliminated == sum(len({tuple(t[:j]) for t in thetas}) for j in range(1, data.m))


def test_trivial_equals_zero_character(sym3):
    s = complex(0.7, 0.4)
    a = transfer.assemble(sym3, s, TwistSpec.trivial(), 10)
    b = transfer.assemble(sym3, s, TwistSpec.abelian([0.0, 0.0]), 10)
    assert np.array_equal(a, b)


def test_integer_character_equals_trivial(sym3):
    s = complex(0.7, -0.2)
    a = transfer.assemble(sym3, s, TwistSpec.trivial(), 10)
    b = transfer.assemble(sym3, s, TwistSpec.abelian([1.0, 2.0]), 10)
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
    """Block (i, j) of a twisted matrix is kron(b, u) for the unitary u of
    the connecting letter inv(j), bit for bit: the conjugate transpose of
    the given unitary of generator j+1 for j < m, that unitary itself for
    j >= m, and the cyclic shifts of Z/2 x Z/3 for the regular twist."""
    m, lmax, s = sym3.m, 6, complex(0.4, 0.9)
    rng = np.random.default_rng(8)
    given = [_rand_unitary(rng, 3) for _ in range(m)]
    by_source = [u.conj().T for u in given] + given
    assert np.array_equal(transfer.assemble(sym3, s, TwistSpec.matrix(given), lmax),
                          kron_placement(sym3, s, lmax, by_source))
    shift = [np.roll(np.eye(n), 1, axis=0) for n in (2, 3)]
    gens = [np.kron(shift[0], np.eye(3)), np.kron(np.eye(2), shift[1])]
    by_source = [g.T for g in gens] + gens
    assert np.array_equal(transfer.assemble(sym3, s, TwistSpec.regular((2, 3)), lmax),
                          kron_placement(sym3, s, lmax, by_source))


def test_regular_letters_are_shifts_of_one_coordinate():
    """Letter k of regular(moduli) moves the lexicographically indexed group
    element g to g + e_k, and letter m+k moves it back."""
    for moduli in ((2,), (2, 3), (4, 1), (1, 5, 1, 1), (2, 3, 2, 1)):
        twist = TwistSpec.regular(moduli)
        m, d = len(moduli), twist.dim
        mats = twist.letter_matrices(m)
        assert mats.shape == (2 * m, d, d)
        index = {g: t for t, g in enumerate(product(*[range(n) for n in moduli]))}
        for k in range(m):
            perm = np.zeros((d, d))
            for g, t in index.items():
                h = list(g)
                h[k] = (h[k] + 1) % moduli[k]
                perm[index[tuple(h)], t] = 1.0
            assert np.array_equal(mats[k], perm), (moduli, k)
            assert np.array_equal(mats[m + k], perm.T), (moduli, k)


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
    """|Tr M^2 - Lefschetz sum| falls strictly while it is far above
    rounding (about 1e-8, 1e-11, 1e-14 at lmax 4, 6, 8, against |Tr M^2|
    of about 0.18), then stays at the rounding floor; beyond lmax 10 it is
    a few ulp, so two such residuals are not compared with each other."""
    s = complex(0.5, 0.0)

    def res(lm):
        return transfer.operator_trace_check(sym3, s, TwistSpec.trivial(), lm, 2)

    converging = [res(lm) for lm in (4, 6, 8)]
    assert converging[0] > converging[1] > converging[2], converging
    assert res(16) <= 1e-15 and res(24) <= 1e-15


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
    a = transfer.assemble(sym3, s, TwistSpec.abelian([0.3, 0.4]), 8)
    b = transfer.assemble(sym3, s, TwistSpec.abelian([1.3, -0.6]), 8)
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
    with pytest.raises(ValueError):
        TwistSpec.matrix([])


def test_lefschetz_empty_for_cylinder_even_mix(cyl):
    # m=1: closed words exist for every N; sanity check trace at N=2
    res = transfer.operator_trace_check(cyl, complex(1.0), TwistSpec.trivial(), 16, 2)
    assert res < 1e-10


# -- the disc involution J(z) = c0 - z and its two sectors ------------------

_SPLIT = ("cylinder", "symmetric3", "sl2z-pair")


def test_disc_involution_of_the_presets():
    """sigma of each preset, computed once per group; sl2z-crossed has a
    symmetric disc set, but J does not conjugate its generators to
    letters."""
    got = {name: transfer._disc_involution(sk.preset(name)) for name in _PRESETS}
    assert got == {"cylinder": (1, 0), "symmetric3": (3, 2, 1, 0),
                   "sl2z-pair": (2, 3, 0, 1), "sl2z-crossed": None}
    # computed once per group: a second call returns the cached tuple
    for name in _PRESETS:
        assert transfer._disc_involution(sk.preset(name)) is got[name]


def test_sector_determinant_matches_the_full_matrix():
    """`fredholm_det` of the sector stack gives the two sector
    determinants, and their product is det(I - M) of the full matrix to
    1e-12 relative, at 20 random s per group and lmax; the sectors are
    half the size of M."""
    rng = np.random.default_rng(12)
    for name in _SPLIT:
        data = sk.preset(name)
        for lmax in (8, 16, 32):
            n = 2 * data.m * (lmax + 1)
            for _ in range(20):
                s = complex(rng.uniform(-0.5, 1.5), rng.uniform(-10.0, 10.0))
                stack = transfer.assemble(data, s, TwistSpec.trivial(), lmax, sectors=True)
                assert stack.shape == (2, n // 2, n // 2)
                full = oracles.fredholm_det(transfer.assemble(data, s, TwistSpec.trivial(), lmax))
                dets = transfer.fredholm_det(stack)
                assert dets.shape == (2,)
                assert abs(math.prod(dets.tolist()) - full) <= 1e-12 * abs(full), (name, lmax, s)


def _moved_cylinder():
    cyl = sk.preset("cylinder")
    left, right = cyl.discs
    moved = sk.Disc(right.center + 1e-3, right.radius)
    return sk.SchottkyData(m=1, discs=(left, moved), generators=cyl.generators)


def test_groups_without_the_involution_keep_todays_determinant():
    """sl2z-crossed and a cylinder with one disc moved by 1e-3 take no split:
    sectors=True returns the full matrix, and its determinant is the np.eye
    oracle's bit for bit."""
    for data in (sk.preset("sl2z-crossed"), _moved_cylinder()):
        assert transfer._disc_involution(data) is None
        for lmax in (8, 16):
            for s in (0.45, complex(0.3, 1.7)):
                full = transfer.assemble(data, s, TwistSpec.trivial(), lmax)
                got = transfer.assemble(data, s, TwistSpec.trivial(), lmax, sectors=True)
                assert np.array_equal(got, full) and got.flags.c_contiguous
                assert transfer.fredholm_det(got) == oracles.fredholm_det(full)


def test_twisted_matrices_ignore_the_sector_flag(sym3):
    s = complex(0.4, 1.1)
    for twist in (_character(sym3), TwistSpec.regular((2, 1))):
        assert np.array_equal(transfer.assemble(sym3, s, twist, 12, sectors=True),
                              transfer.assemble(sym3, s, twist, 12))


def test_group_file_with_the_involution_gets_the_split(sym3):
    copy = sk.load_group_json(json.dumps(sk.group_to_json(sym3)))
    assert copy is not sym3
    assert transfer._disc_involution(copy) == (3, 2, 1, 0)
    s = complex(0.3, 2.0)
    stack = transfer.assemble(copy, s, TwistSpec.trivial(), 16, sectors=True)
    assert stack.shape == (2, 34, 34)
    full = oracles.fredholm_det(transfer.assemble(copy, s, TwistSpec.trivial(), 16))
    dets = transfer.fredholm_det(stack)
    assert dets.shape == (2,)
    assert abs(math.prod(dets.tolist()) - full) <= 1e-12 * abs(full)


def test_cylinder_sectors_are_one_matrix_squared(cyl):
    """No pair of the cylinder crosses sectors, so M+ = M-: the stack
    repeats one matrix, `fredholm_det` gives that matrix's determinant for
    each sector, and their product is its square."""
    for lmax in (8, 16, 32):
        stack = transfer.assemble(cyl, complex(0.2, 3.0), TwistSpec.trivial(), lmax,
                                  sectors=True)
        assert np.array_equal(stack[0], stack[1])
        assert stack.strides[0] == 0
        half = oracles.fredholm_det(stack[0])
        dets = transfer.fredholm_det(stack)
        assert dets.tolist() == [half, half]
        assert math.prod(dets.tolist()) == half * half


def test_sector_spectral_radius_matches_the_full_one():
    for name in _SPLIT:
        data = sk.preset(name)
        for lmax in (8, 16, 32):
            for sigma in (0.0, 0.4, 1.0):
                full = transfer.spectral_radius(
                    transfer.assemble(data, sigma, TwistSpec.trivial(), lmax))
                split = transfer.spectral_radius(
                    transfer.assemble(data, sigma, TwistSpec.trivial(), lmax, sectors=True))
                assert abs(split - full) <= 1e-13 * full, (name, lmax, sigma)


def test_two_dimensional_fredholm_det_is_the_np_eye_oracle_bit_for_bit():
    rng = np.random.default_rng(5)
    for name in _PRESETS:
        data = sk.preset(name)
        for twist in _twists(data, rng):
            for s in (0.45, complex(0.3, 1.7)):
                M = transfer.assemble(data, s, twist, 12)
                assert transfer.fredholm_det(M) == oracles.fredholm_det(M), (name, twist.kind)


def test_sector_plan_calls_no_public_function(monkeypatch):
    """Building the split and unsplit plans calls no public function of
    transfer or schottky, so that a wrapper that counts such calls counts
    the same whether or not the plans were cached.  The unsplit plan has
    every disc as a representative and no block in Y."""
    groups = [sk.preset(name) for name in _PRESETS]

    def refuse(*args, **kwargs):
        raise AssertionError("public function called")

    for mod in (transfer, sk):
        for name in mod.__all__:
            if inspect.isfunction(getattr(mod, name)):
                monkeypatch.setattr(mod, name, refuse)
    transfer._plan.cache_clear()
    plans = [transfer._plan(data, 12, True) for data in groups]
    assert [plan is None for plan in plans] == [False, False, False, True]
    for data in groups:
        runs, reps, crossed, split = transfer._plan(data, 12, False)
        assert (reps, crossed, split) == (2 * data.m, False, False)
        assert not any(half.any() for *_, half, _ in runs)
