import cmath
import functools
import itertools
import math

import numpy as np
import pytest

from reslab import schottky as sk
from reslab import thermo, transfer, zeros
from reslab.transfer import TwistSpec

from oracles import counting, newton_refine, winding_points

TRIV = TwistSpec.trivial()


@pytest.fixture(scope="module")
def cyl():
    return sk.preset("cylinder", t=3.0)


@pytest.fixture(scope="module")
def sym3():
    return sk.preset("symmetric3", t=6.0)


@pytest.fixture(scope="module")
def delta3(sym3):
    return thermo.critical_exponent(sym3)


def test_euler_product_far_right_is_one(sym3):
    v = zeros.euler_product(sym3, complex(50.0, 0.0), TRIV, max_word_len=4)
    assert abs(v - 1.0) < 1e-12


def test_euler_product_refuses_left_of_margin(sym3, delta3):
    with pytest.raises(ValueError):
        zeros.euler_product(sym3, complex(delta3 + 0.05, 0.0), TRIV, delta=delta3)


def test_integer_character_euler_equals_trivial(sym3, delta3):
    s = complex(delta3 + 1.5, 0.8)
    a = zeros.euler_product(sym3, s, TRIV, max_word_len=6, delta=delta3)
    b = zeros.euler_product(sym3, s, TwistSpec.abelian([1.0, 3.0]),
                            max_word_len=6, delta=delta3)
    assert abs(a - b) < 1e-12


def test_det_euler_cross_oracle(sym3, delta3):
    rng = np.random.default_rng(5)
    for _ in range(5):
        s = complex(delta3 + 1.0, rng.uniform(-3, 3))
        fd = transfer.fredholm_det(transfer.assemble(sym3, s, TRIV, 32))
        ep = zeros.euler_product(sym3, s, TRIV, max_word_len=8, delta=delta3)
        assert abs(fd - ep) < 1e-10


def test_count_right_of_delta_is_zero(sym3, delta3):
    n = zeros.count_zeros(sym3, TRIV, (delta3 + 0.2, delta3 + 1.2, -0.5, 0.5))
    assert n == 0


def test_count_one_around_delta(sym3, delta3):
    n = zeros.count_zeros(sym3, TRIV, (delta3 - 0.05, delta3 + 0.05, -0.05, 0.05))
    assert n == 1


def test_cylinder_count_two_at_first_lattice_point(cyl):
    ell = 2 * math.acosh(1.5)
    im = 2 * math.pi / ell
    n = zeros.count_zeros(cyl, TRIV, (-0.2, 0.2, im - 0.2, im + 0.2), lmax=16)
    assert n == 2


def test_contour_too_close_raises(sym3, delta3):
    with pytest.raises(zeros.ContourError):
        zeros.count_zeros(sym3, TRIV, (delta3, delta3 + 0.5, -0.2, 0.2))


def test_refine_to_delta(sym3, delta3):
    s, res, ok = zeros.refine_zero(sym3, TRIV, complex(delta3 + 0.03, 0.01))
    assert ok and res < 1e-10
    assert abs(s - delta3) < 1e-8


def test_refine_cylinder_lattice_point(cyl):
    """The lattice point 2 pi i / l is a double zero of det and a simple
    zero of each sector factor det(I - X), which the secant refines."""
    ell = 2 * math.acosh(1.5)
    target = complex(0.0, 2 * math.pi / ell)
    det = zeros.make_det(cyl, TRIV, 16)
    s, res, ok = zeros.refine_zero(cyl, TRIV, target + complex(0.01, -0.02),
                                   det=lambda s: det.factors(s)[0])
    assert ok
    assert abs(s - target) < 1e-7


def test_refine_flags_zero_free_region(sym3, delta3):
    s, res, ok = zeros.refine_zero(sym3, TRIV, complex(delta3 + 2.0, 0.3))
    assert not ok or res >= 1e-10 or abs(s.real - (delta3 + 2.0)) > 1.0
    assert not (ok and res < 1e-10 and abs(s - complex(delta3 + 2.0, 0.3)) < 0.5)


def test_secant_matches_newton_with_fewer_determinants(cyl):
    """Starts 0.004-0.02 from delta on two presets at lmax 16 and 32, and
    from near 2 pi i / l on a cylinder sector factor, where that zero is
    simple: the secant lands on Newton's zero with about half its
    determinants (Newton spends 13 per call here)."""
    ell = 2 * math.acosh(1.5)
    sector = zeros.make_det(cyl, TRIV, 16)
    cases = [(lambda: lambda s: sector.factors(s)[0],
              complex(0.0, 2 * math.pi / ell) + complex(0.01, -0.02))]
    for name in ("symmetric3", "sl2z-pair"):
        data = sk.preset(name)
        delta = thermo.critical_exponent(data)
        for lmax in (16, 32):
            for k, r in enumerate(np.linspace(0.004, 0.02, 5)):
                angle = 2 * math.pi * (k + 0.3) / 5
                cases.append((functools.partial(zeros.make_det, data, TRIV, lmax),
                              delta + r * complex(math.cos(angle), math.sin(angle))))
    dets = 0
    for fresh, s0 in cases:
        det, calls = counting(fresh())
        s, _, ok = zeros.refine_zero(None, TRIV, s0, det=det)
        dets += len(calls)
        s_ref, _, ok_ref = newton_refine(fresh(), s0)
        assert ok and ok_ref
        assert abs(s - s_ref) < 1e-9
    assert dets / len(cases) <= 7


def test_refine_spends_at_most_its_budget(sym3, delta3):
    """Two starts plus 150 steps at most: from the zero-free start, and from
    0.2515811641598768 for the character (1/2, 0) at lmax 10, where |det| is
    about 0.98 and the secant runs out of steps.  That start is delta of
    the full untwisted matrix; the sector delta, 5e-16 below it, starts a
    trajectory that reaches the zero 0.17 + 0.955i instead, so the start is
    given as a number: the path of 150 unit-capped steps follows its last
    bit."""
    det, calls = counting(zeros.make_det(sym3, TRIV, 16))
    zeros.refine_zero(sym3, TRIV, complex(delta3 + 2.0, 0.3), det=det)
    assert len(calls) <= 152
    half = TwistSpec.abelian((0.5, 0.0))
    det, calls = counting(zeros.make_det(sym3, half, 10))
    _, _, ok = zeros.refine_zero(sym3, half, complex(0.2515811641598768), det=det)
    assert not ok
    assert len(calls) == 152


def test_cylinder_resonance_lattice(cyl):
    """The box of criterion 03, in at most 175 determinant lookups (965
    when every zero was found by bisection, 309 when the walk halved on the
    phase of the product, 281 with Simpson moments of the walk of the
    factors, 275 from 16 nodes an edge)."""
    ell = 2 * math.acosh(1.5)
    det, calls = counting(zeros.make_det(cyl, TRIV, 16))
    rs = zeros.resonances(cyl, TRIV, (-0.5, 0.5, 0.0, 7.0), det=det)
    assert len(calls) <= 175
    assert rs.contour_count == 6
    assert rs.total_multiplicity == 6
    assert len(rs.zeros) == 3
    expected = sorted(2 * math.pi * k / ell for k in range(3))
    got = sorted(z.imag for z, _ in rs.zeros)
    for e, g in zip(expected, got):
        assert abs(e - g) < 1e-7
    for z, mult in rs.zeros:
        assert mult == 2
        assert abs(z.real) < 1e-7
    assert all(r < 1e-8 for r in rs.residuals)


def test_double_zero_near_a_split_line(cyl):
    """An off-centre box whose bisection put split lines within 1e-6 of
    the double zero 2 pi i / l (ContourError after 1,968 lookups): one
    zero of multiplicity 2, in at most 85 lookups (129 from 16 nodes an
    edge), whose residual is |det| at the reported point."""
    det, calls = counting(zeros.make_det(cyl, TRIV, 16))
    rs = zeros.resonances(cyl, TRIV, (-0.2592, 0.1713, 1.2746, 4.9494), det=det)
    assert rs.unresolved == ()
    assert [m for _, m in rs.zeros] == [2]
    assert abs(rs.zeros[0][0] - 2j * math.pi / (2 * math.acosh(1.5))) < 1e-7
    assert len(calls) <= 85
    assert rs.residuals == (abs(det(rs.zeros[0][0])),)


def test_double_zero_next_to_an_edge(cyl):
    """The left edge passes 0.0123 from the double zero at s = 0, a simple
    zero of each cylinder sector: halving on the phase of the product
    missed a turn and gave one simple zero.  One zero of multiplicity 2,
    in at most 75 lookups (129 from 16 nodes an edge)."""
    det, calls = counting(zeros.make_det(cyl, TRIV, 16))
    rs = zeros.resonances(cyl, TRIV, (-0.0123, 0.4224, -2.318, 1.2657), det=det)
    assert rs.unresolved == () and rs.contour_count == 2
    assert [m for _, m in rs.zeros] == [2]
    assert abs(rs.zeros[0][0]) < 1e-7
    assert len(calls) <= 75


def test_multiple_zero_is_a_zero_of_the_truncated_determinant(cyl):
    """The double zero near 3 (2 pi i / l), located from two different
    boxes, is one point to 1e-12: the first moment of the small box
    around it, not where a search stopped.  At lmax 16 that point sits
    4.8e-7 off the lattice, at lmax 24 within 1e-10: the offset is the
    truncation's."""
    target = 3 * 2j * math.pi / (2 * math.acosh(1.5))
    for lmax, (lo, hi) in ((16, (4.7e-7, 4.9e-7)), (24, (0.0, 1e-10))):
        found = []
        for box in ((-0.5, 0.5, 8.0, 12.0), (-0.1, 0.2, 9.0, 10.5)):
            rs = zeros.resonances(cyl, TRIV, box, lmax=lmax)
            assert rs.unresolved == () and len(rs.zeros) == 1
            (z, mult), = rs.zeros
            assert mult == 2
            found.append(z)
        assert abs(found[0] - found[1]) < 1e-12
        assert lo <= abs(found[0] - target) < hi


def test_simple_real_zero_at_delta(sym3, delta3):
    rs = zeros.resonances(sym3, TRIV,
                          (delta3 - 0.04, delta3 + 0.04, -0.04, 0.04))
    assert rs.total_multiplicity == 1
    z, mult = rs.zeros[0]
    assert mult == 1
    assert abs(z - delta3) < 1e-8


def test_zero_set_conjugation_symmetric(cyl):
    rs = zeros.resonances(cyl, TRIV, (-0.5, 0.5, -4.0, 4.0), lmax=16)
    zs = sorted((round(z.real, 6), round(z.imag, 6)) for z, _ in rs.zeros)
    mirrored = sorted((re, round(-im, 6)) for re, im in zs)
    assert zs == mirrored


def test_zeros_on_one_vertical_line_come_by_imaginary_part(cyl):
    """The double zeros -2 pi i / l, 0 and 2 pi i / l of the cylinder have
    real parts that differ by rounding noise (about 2e-12 against 0): the
    zeros are sorted on the real part to 1e-9, then on the imaginary part,
    not in the order that noise gives."""
    rs = zeros.resonances(cyl, TRIV, (-0.5, 0.5, -4.0, 4.0), lmax=16)
    step = 2 * math.pi / (2 * math.acosh(1.5))
    assert [m for _, m in rs.zeros] == [2, 2, 2]
    for (z, _), want in zip(rs.zeros, (-step, 0.0, step)):
        assert abs(z - 1j * want) < 1e-7


def test_zero_count_stable_in_lmax(cyl):
    rect = (-0.5, 0.5, 0.0, 7.0)
    n16 = zeros.count_zeros(cyl, TRIV, (rect[0] - 1e-3, rect[1] + 1e-3,
                                        rect[2] - 1e-3, rect[3] + 1e-3), lmax=16)
    n24 = zeros.count_zeros(cyl, TRIV, (rect[0] - 1e-3, rect[1] + 1e-3,
                                        rect[2] - 1e-3, rect[3] + 1e-3), lmax=24)
    assert n16 == n24 == 6


def _scalar_factors(data, twist, lmax, s):
    """The factors of det(I - L_s) at one s straight from the engine: the
    sector determinants for the trivial twist (one for a group without the
    disc involution), else one LU of the untwisted matrix lifted by each
    character's letters (one character for an abelian or matrix twist), in
    character order."""
    if twist.kind == "trivial":
        return np.atleast_1d(transfer.fredholm_det(
            transfer.assemble(data, s, twist, lmax, sectors=True))).tolist()
    if twist.kind == "regular":
        letters = [TwistSpec.abelian(np.array(alpha) / twist.moduli).letter_matrices(data.m)
                   for alpha in itertools.product(*map(range, twist.moduli))]
    else:
        letters = [twist.letter_matrices(data.m)]
    base = transfer.assemble(data, s, TRIV, lmax)
    return [transfer.fredholm_det(transfer._lift(base, u)) for u in letters]


def _every_twist_kind(data, rng):
    m = data.m
    unitaries = [np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
                 for _ in range(m)]
    return [TRIV, TwistSpec.abelian([0.0] * m), TwistSpec.abelian(rng.uniform(0, 1, m)),
            TwistSpec.regular((3,) + (1,) * (m - 1)), TwistSpec.matrix(unitaries)]


def test_many_gives_the_scalar_determinants_bit_for_bit():
    """det.many fills the cache with exactly the values det(s) computes
    alone, for every twist kind on every preset at lmax 8 and 16 (the
    trivial twist also at 32), for a batch of one, of exactly one engine
    pass and of one pass and one more value: det.factors(s) is the engine's
    row of determinants at one s, and det(s) their product, left to
    right."""
    rng = np.random.default_rng(9)
    for name in ("cylinder", "symmetric3", "sl2z-pair", "sl2z-crossed"):
        data = sk.preset(name)
        for twist in _every_twist_kind(data, rng):
            for lmax in (8, 16, 32) if twist.kind == "trivial" else (8, 16):
                step = transfer._batch(data, lmax, sectors=twist.kind == "trivial")
                if twist.kind == "matrix":
                    step = max(1, step // twist.dim ** 2)
                for n in (1, step, step + 1):
                    pts = [complex(rng.uniform(-0.5, 1.0), rng.uniform(-8.0, 8.0))
                           for _ in range(n)]
                    batched = zeros.make_det(data, twist, lmax)
                    batched.many(pts)
                    alone = zeros.make_det(data, twist, lmax)
                    rows = [_scalar_factors(data, twist, lmax, s) for s in pts]
                    want = [math.prod(row) for row in rows]
                    for det in (batched, alone):
                        assert [list(det.factors(s)) for s in pts] == rows, (
                            name, twist.kind, lmax, n)
                        assert [det(s) for s in pts] == want, (name, twist.kind, lmax, n)


def test_a_twisted_contour_takes_its_base_nodes_in_a_few_passes(cyl, monkeypatch):
    """An abelian twist's nodes go through `assemble` in batches: on the
    cylinder at lmax 8 (25 values of s per pass) the whole count takes
    fewer engine passes than the contour has first-level nodes."""
    passes = []
    assemble = transfer.assemble

    def spy(*args, **kwargs):
        passes.append(args[1])
        return assemble(*args, **kwargs)

    monkeypatch.setattr(transfer, "assemble", spy)
    assert transfer._batch(cyl, 8, sectors=False) == 25
    rect = (-0.3, 0.3, 0.5, 2.5)
    assert zeros.count_zeros(cyl, TwistSpec.abelian([0.3]), rect, lmax=8) == 2
    assert 0 < len(passes) < 4 * zeros.FIRST_NODES


def test_winding_takes_the_same_points_with_or_without_many(cyl):
    """A det without many, which keeps its factors, is asked for the same
    points in the same order as one with many, and gives the same count; a
    functools.wraps wrapper keeps many and factors."""
    ell = 2 * math.acosh(1.5)
    rect = (-0.2, 0.2, 2 * math.pi / ell - 0.2, 2 * math.pi / ell + 0.2)
    runs = []
    for keep in (True, False):
        det = zeros.make_det(cyl, TRIV, 16)
        calls = []

        def counted(s, det=det):
            calls.append(s)
            return det(s)

        if keep:
            counted = functools.wraps(det)(counted)
            assert hasattr(counted, "many") and hasattr(counted, "factors")
        else:
            counted.factors = det.factors
        runs.append((zeros.count_zeros(cyl, TRIV, rect, det=counted), calls))
    assert runs[0] == runs[1]
    assert runs[0][0] == 2


def test_zero_on_a_base_node_raises_at_that_node(sym3, delta3):
    """delta is the midpoint of the second edge, a node at every level:
    the batched nodes and the plain walk stop at the same point with the
    same modulus."""
    rect = (delta3 - 0.5, delta3, -0.2, 0.2)
    seen = []
    plain = zeros.make_det(sym3, TRIV, 16)
    for det in (zeros.make_det(sym3, TRIV, 16), lambda s: plain(s)):
        with pytest.raises(zeros.ContourError) as err:
            zeros.count_zeros(sym3, TRIV, rect, det=det)
        seen.append((err.value.point, err.value.modulus))
    assert seen[0] == seen[1]
    assert seen[0][0] == complex(delta3, 0.0)


def test_negative_sub_count_raises(monkeypatch):
    """Each box is counted on its own walk, and a half of a split box
    counted -1 (by a winding made to answer so) is a ContourError, never a
    zero of multiplicity below 1; so are halves whose counts do not add up
    to the box's (here 0 and 1 for 2)."""
    winding, hankel = zeros._winding, zeros._hankel
    for wrong in (-1, 0):
        calls = []

        def second_wrong(walks):
            calls.append(walks)
            return wrong if len(calls) == 2 else winding(walks)

        def first_refused(moments, count, tol):
            return None if len(calls) == 1 else hankel(moments, count, tol)

        monkeypatch.setattr(zeros, "_winding", second_wrong)
        monkeypatch.setattr(zeros, "_hankel", first_refused)
        match = "negative zero count" if wrong < 0 else "do not add up"
        with pytest.raises(zeros.ContourError, match=match):
            zeros.resonances(None, TRIV, (0.0, 1.0, 0.0, 1.0),
                             det=_polynomial({0.3 + 0.4j: 1, 0.6 + 0.45j: 1}))


def test_a_cluster_next_to_an_edge_is_counted_and_found():
    """Four zeros 1e-3 apart, 3e-3 inside the bottom edge, turn the phase
    by nearly 4 pi within one step of the edge's first walk, where a phase
    test alone reads no turn (the fixed base subdivision counted 0 and
    then a negative count); |p'/p| at the step's ends sends the walk in,
    and all five zeros are found, each simple."""
    x0, width = -1e-3, 1.002
    xm = x0 + width * 2.5 / 16
    roots = [complex(xm + d * 1e-3, x0 + 3e-3) for d in (-1.5, -0.5, 0.5, 1.5)]
    roots.append(complex(0.75, 0.5))
    rs = zeros.resonances(None, TRIV, (0.0, 1.0, 0.0, 1.0),
                          det=_polynomial(dict.fromkeys(roots, 1)))
    assert rs.contour_count == 5 and [m for _, m in rs.zeros] == [1] * 5
    for z, _ in rs.zeros:
        assert min(abs(z - r) for r in roots) < 1e-12


def _polynomial(roots):
    """1e9 times the monic polynomial with the given roots, repeated by
    multiplicity: |det| stays above CONTOUR_MIN_MODULUS on a box of
    half-side MIN_CELL around a triple root."""
    flat = [r for r, mult in roots.items() for _ in range(mult)]
    return lambda s: 1e9 * complex(np.prod([s - r for r in flat]))


CLUSTERS = {complex(0.6, 0.5): 1, complex(-0.5, -0.4): 2, complex(-0.4, 0.6): 3}


def _sampled(monkeypatch):
    """The segments of every call that samples new edges
    (`zeros._edges`), in order: four round a box, one for a split line."""
    segments = []
    edges = zeros._edges

    def spy(det, new):
        segments.append(list(new))
        return edges(det, new)

    monkeypatch.setattr(zeros, "_edges", spy)
    return segments


def test_moments_from_the_winding_values_are_power_sums():
    """On a square of half-side 0.25 around each root, off its centre by
    0.02 + 0.01i, the winding counts the root's multiplicity, and the
    moments of the interpolants the winding took match the power sums
    m ((r - c) / scale)^k, s_0..s_3 (all a Hankel step needs for a double
    zero) to 1e-12."""
    det = _polynomial(CLUSTERS)
    for root, mult in CLUSTERS.items():
        c, half = root + complex(0.02, 0.01), 0.25
        walks = zeros._walked(zeros._sides(
            det, (c.real - half, c.real + half, c.imag - half, c.imag + half)))
        scale = half * math.sqrt(2)
        moments, _ = zeros._moments(walks, c, scale, 3)
        assert zeros._winding(walks) == mult
        power_sums = [mult * ((root - c) / scale) ** k for k in range(4)]
        assert np.max(np.abs(moments - power_sums)) < 1e-12


def test_hankel_step_gives_clusters_and_multiplicities(monkeypatch):
    """A simple, a double and a triple root in one box: the Hankel step on
    the box's own moments finds all three with their multiplicities, and
    the only other contours walked are the boxes of half-side MIN_CELL
    around the two multiple roots."""
    sampled = _sampled(monkeypatch)
    rs = zeros.resonances(None, TRIV, (-1.0, 1.0, -1.0, 1.0), det=_polynomial(CLUSTERS))
    assert rs.unresolved == () and rs.contour_count == 6
    assert sorted(m for _, m in rs.zeros) == [1, 2, 3]
    for z, mult in rs.zeros:
        root, = (r for r, m in CLUSTERS.items() if m == mult)
        assert abs(z - root) < 1e-12
    assert [len(segments) for segments in sampled] == [4, 4, 4]
    for (a, _), _, (c, _), _ in sampled[1:]:
        assert abs(c - a) == pytest.approx(2 * math.sqrt(2) * zeros.MIN_CELL)


def test_roots_closer_than_the_moments_resolve_take_the_rank_step(monkeypatch):
    """Two simple roots 1e-4 apart, which the Simpson moments could not
    tell from one double root, are two distinct zeros to the rank step
    on the interpolants' moments: both are found as simple zeros without
    a split, and the double root with them."""
    pair = {complex(-0.3 - 5e-5, 0.2): 1, complex(-0.3 + 5e-5, 0.2): 1, complex(0.5, -0.4): 2}
    sampled = _sampled(monkeypatch)
    rs = zeros.resonances(None, TRIV, (-1.0, 1.0, -1.0, 1.0), det=_polynomial(pair))
    assert rs.unresolved == () and len(rs.zeros) == 3
    for z, mult in rs.zeros:
        root, = (r for r in pair if abs(z - r) < 1e-12)
        assert mult == pair[root]
    assert [len(segments) for segments in sampled] == [4, 4]


def test_a_cluster_by_a_dyadic_split_line():
    """A simple root and a double one 7.8e-4 from another simple root, on
    the lines that split (-1, 1)^2 in halves again and again: a bisection
    cell's edge passed 5e-4 from three zeros and read a negative count.
    The rank step tells the three apart, and the box placing the double
    root is kept within half the distance to the next estimate."""
    r = complex(-0.5, -0.4)
    roots = {complex(0.3, 0.2): 1, r: 2, r + complex(6e-4, 5e-4): 1}
    rs = zeros.resonances(None, TRIV, (-1.0, 1.0, -1.0, 1.0), det=_polynomial(roots))
    assert rs.contour_count == 4 and len(rs.zeros) == 3
    for z, mult in rs.zeros:
        root, = (q for q in roots if abs(z - q) < 1e-12)
        assert mult == roots[root]


def test_a_double_root_is_placed_by_its_box_not_by_a_secant():
    """On 1e9 (s - r1)(s - r2)^2 (s - r3)^3 a box around the double root
    r2 gives r2 to 1e-12 with multiplicity 2.  A secant scaled by the
    multiplicity, started within 1e-6 of r2, stepped away to r3, and the
    bisection then placed r2 only to 2e-10."""
    r2 = complex(-0.25, -0.3)
    det = _polynomial({complex(0.45, -0.35): 1, r2: 2, complex(0.1, 0.55): 3})
    for box in ((-0.5, 0.0, -0.6, 0.0), (-0.3, -0.2, -0.35, -0.25)):
        rs = zeros.resonances(None, TRIV, box, det=det)
        (z, mult), = rs.zeros
        assert mult == 2 and abs(z - r2) < 1e-12


def test_an_edge_that_is_not_resolved_never_counts(sym3, delta3):
    """The bottom edge of this symmetric3 box runs along the real axis
    through delta, which is none of its nodes at any level: det is real
    there and its phase jumps by pi, so a count read from samples is not
    defined (a sampled min|p| answered 4).  The walk of the interpolant
    comes within CONTOUR_MIN_MODULUS of delta and raises.  A plain
    callable with a branch cut across an edge is not resolved by
    MAX_NODES nodes and raises too."""
    rect = (delta3 - 0.123, delta3 + 0.2, 0.0, 0.5)
    assert all(abs(x - delta3) > 1e-3 for x in (rect[0], rect[1], (rect[0] + rect[1]) / 2))
    with pytest.raises(zeros.ContourError) as err:
        zeros.count_zeros(sym3, TRIV, rect)
    assert abs(err.value.point - delta3) < 1e-6
    assert err.value.modulus < zeros.CONTOUR_MIN_MODULUS
    with pytest.raises(zeros.ContourError, match="no interpolant of 1024 nodes"):
        zeros.count_zeros(None, TRIV, (-1.0, 1.0, -1.0, 1.0),
                          det=lambda s: cmath.sqrt(s + 0.9))


def test_hankel_accepts_only_integer_weights():
    """Exact power sums of weights 1, 2, 3 give the points and the weights;
    weights 1.4, 0.6, 1 (rounding to integers that sum to N), weights 3
    and -1 (integers that sum to N) and a count above the number of points
    are refused."""
    points = [complex(0.3, 0.1), complex(-0.2, -0.4), complex(0.05, 0.5)]

    def power_sums(weights, count):
        return np.array([sum(m * p ** k for p, m in zip(points, weights))
                         for k in range(2 * count)])

    found = zeros._hankel(power_sums((1, 2, 3), 6), 6, 1e-12)
    assert sorted(m for _, m in found) == [1, 2, 3]
    for w, mult in found:
        assert abs(w - points[mult - 1]) < 1e-10
    assert zeros._hankel(power_sums((1.4, 0.6, 1.0), 3), 3, 1e-12) is None
    assert zeros._hankel(power_sums((3, -1), 2), 2, 1e-12) is None
    assert zeros._hankel(power_sums((1, 1, 1), 4), 4, 1e-12) is None


def test_the_rank_step_reads_the_distinct_zeros_from_the_singular_values():
    """H_0 of the power sums of a simple, a double and a triple point is of
    rank 3: the rank step solves 3 x 3 and gives the weights 1, 2, 3, with
    moments exact or off by 1e-9 and a threshold of 1e-6; a threshold above
    the third singular value reads fewer points, whose weights are not
    integers."""
    points = [complex(0.3, 0.1), complex(-0.2, -0.4), complex(0.05, 0.5)]
    exact = np.array([sum(m * p ** k for p, m in zip(points, (1, 2, 3))) for k in range(12)])
    noise = 1e-9 * np.exp(1j * np.arange(12))
    for moments in (exact, exact + noise):
        found = zeros._hankel(moments, 6, 1e-6)
        assert sorted(m for _, m in found) == [1, 2, 3]
        for w, mult in found:
            assert abs(w - points[mult - 1]) < 1e-6
    sv = np.linalg.svd(exact[np.add.outer(np.arange(6), np.arange(6))], compute_uv=False)
    assert zeros._hankel(exact, 6, 1.01 * sv[2]) is None


@pytest.mark.parametrize("case", ["duplicate", "small_box_count", "outside"])
def test_a_failed_check_sends_the_box_to_the_bisection(case, monkeypatch):
    """The work box's Hankel step is made to answer wrongly: two estimates
    that polish to one simple root; multiplicity 2 for a triple root, whose
    small box then counts 3; an estimate that polishes to a root outside
    the box.  Each is caught, the box is split, and the halves find the
    true zeros."""
    r1, r2, outside = complex(0.3, 0.2), complex(-0.41, -0.33), complex(1.5, 0.0)
    roots, fake = {
        "duplicate": ({r1: 1, r2: 2},
                      [(r1 + 1e-3, 1), (r1 - 1e-3, 1), (r2 - 7e-4 - 7e-4j, 2)]),
        "small_box_count": ({r1: 1, r2: 3}, [(r1 + 1e-3, 1), (r2 - 7e-4 - 7e-4j, 2)]),
        "outside": ({r1: 1, r2: 2, outside: 1},
                    [(outside - 1e-3, 1), (r2 - 7e-4 - 7e-4j, 2)]),
    }[case]
    scale = abs(complex(1.0 + zeros.PAD, 1.0 + zeros.PAD))
    hankel = zeros._hankel
    calls = []

    def first_answers_wrongly(moments, count, tol):
        calls.append(count)
        if len(calls) == 1:
            return [(s / scale, mult) for s, mult in fake]
        return hankel(moments, count, tol)

    monkeypatch.setattr(zeros, "_hankel", first_answers_wrongly)
    rs = zeros.resonances(None, TRIV, (-1.0, 1.0, -1.0, 1.0), det=_polynomial(roots))
    assert len(calls) > 1 and rs.unresolved == ()
    inside = {r: m for r, m in roots.items() if r != outside}
    assert len(rs.zeros) == len(inside)
    for z, mult in rs.zeros:
        root, = (r for r in inside if abs(z - r) < 1e-9)
        assert mult == inside[root]


def test_count_zeros_asks_for_the_points_of_the_walk():
    """count_zeros asks det for the same points, in the same order, as the
    reference walk of nested Chebyshev-Lobatto nodes, on boxes with and
    without an edge that needs a second level."""
    cyl = sk.preset("cylinder", t=3.0)
    sizes = []
    for rect in ((-0.0848, 0.3349, -2.1485, 5.5495), (-0.2, 0.2, 3.06, 3.46),
                 (0.3, 0.6, -1.0, 1.0)):
        det, calls = counting(zeros.make_det(cyl, TRIV, 16))
        zeros.count_zeros(cyl, TRIV, rect, det=det)
        x0, x1, y0, y1 = rect
        want = winding_points(zeros.make_det(cyl, TRIV, 16), [
            complex(x0, y0), complex(x1, y0), complex(x1, y1), complex(x0, y1)])
        assert calls == want, rect
        sizes.append(len(calls))
    assert sizes[0] > sizes[-1] == 4 * zeros.FIRST_NODES


def test_the_first_level_never_changes_a_count(monkeypatch):
    """Random boxes left and right of delta on three groups at lmax 8 give
    the same count from FIRST_NODES = 8 as from 64 nodes an edge, or raise
    ContourError from both: a coarse start only costs an edge a level
    more.  The two starts share one det, whose values are the same in any
    batch."""
    rng = np.random.default_rng(28)

    def count(data, det, rect, first):
        monkeypatch.setattr(zeros, "FIRST_NODES", first)
        try:
            return zeros.count_zeros(data, TRIV, rect, det=det)
        except zeros.ContourError:
            return zeros.ContourError

    for name in ("cylinder", "symmetric3", "sl2z-pair"):
        data = sk.preset(name)
        delta, det = thermo.critical_exponent(data, 8), zeros.make_det(data, TRIV, 8)
        for _ in range(24):
            x0, y0 = delta + rng.uniform(-0.8, 0.1), rng.uniform(-1.0, 5.0)
            rect = (x0, x0 + rng.uniform(0.05, 0.8), y0, y0 + rng.uniform(0.1, 3.0))
            assert count(data, det, rect, 8) == count(data, det, rect, 64), (name, rect)


@pytest.mark.parametrize("box, true_count", [
    ((-0.0848, 0.3349, -2.1485, 5.5495), 4),
    ((-0.0123, 0.4224, -2.318, 1.2657), 2),
], ids=["probe", "near-0"])
def test_count_zeros_walks_each_cylinder_sector(box, true_count):
    """Two cylinder boxes whose walk, halving on the phase of the product
    (det(I - X) squared), counted 2 of 4 and 1 of 2: a zero of det(I - X)
    turns each factor's phase once, the product's twice.  A counting
    wrapper keeps det.many, which gives the walk the factors at its
    points, and the walk asks det(s) once at each of them, in the order of
    the rows many gives."""
    cyl = sk.preset("cylinder", t=3.0)
    det, calls = counting(zeros.make_det(cyl, TRIV, 16))
    many, read = det.many, []
    det.many = lambda points: read.extend(points) or many(points)
    assert zeros.count_zeros(cyl, TRIV, box, det=det) == true_count
    assert calls == list(dict.fromkeys(read)) and len(set(calls)) == len(calls)


@pytest.mark.parametrize("name, box, true_count, lookups", [
    pytest.param("symmetric3", (-0.5, 0.4, -3.0, 3.0), 15, 192, id="symmetric3"),
    pytest.param("sl2z-pair", (-0.3, 0.3, 0.5, 5.0), 12, 120, id="sl2z-pair"),
    pytest.param("sl2z-crossed", (-0.601, -0.009, 0.499, 6.001), 36, 368, id="sl2z-crossed"),
])
def test_count_zeros_on_an_ordinary_box(name, box, true_count, lookups):
    """Boxes whose true counts come from 1,024 and 4,096 dense nodes per
    edge; the sl2z-crossed box is given relative to delta.  A fixed base
    subdivision of 16 nodes per edge counted 11 of 15 on symmetric3 and 2
    of 36 on sl2z-crossed (one factor: no involution); the interpolants
    count all of them, in at most 192, 120 and 368 determinant lookups."""
    data = sk.preset(name)
    if name == "sl2z-crossed":
        delta = thermo.critical_exponent(data, 16)
        box = (delta + box[0], delta + box[1], box[2], box[3])
    det, calls = counting(zeros.make_det(data, TRIV, 16))
    assert zeros.count_zeros(data, TRIV, box, det=det) == true_count
    assert len(calls) <= lookups
