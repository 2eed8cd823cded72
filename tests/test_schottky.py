import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reslab import schottky as sk

from oracles import word_map


@pytest.fixture(scope="module")
def cyl():
    return sk.preset("cylinder", t=3.0)


@pytest.fixture(scope="module")
def sym3():
    return sk.preset("symmetric3", t=6.0)


@pytest.fixture(scope="module")
def pair():
    return sk.preset("sl2z-pair")


def test_moebius_inverse_and_associativity():
    g = sk.MoebiusMap(2.0, 1.0, 1.0, 1.0)
    h = sk.MoebiusMap(1.0, 3.0, 0.0, 1.0)
    k = sk.MoebiusMap(5.0, 19.0, 1.0, 4.0)
    gi = g.inverse().compose(g)
    assert abs(gi.a - 1) < 1e-12 and abs(gi.b) < 1e-12
    assert abs(gi.c) < 1e-12 and abs(gi.d - 1) < 1e-12
    lhs = g.compose(h).compose(k)
    rhs = g.compose(h.compose(k))
    assert np.allclose(lhs.as_array(), rhs.as_array(), atol=1e-12)


def test_moebius_determinant_normalized():
    g = sk.MoebiusMap(4.0, 2.0, 2.0, 2.0)
    assert abs(g.a * g.d - g.b * g.c - 1.0) < 1e-12


def test_validate_presets_pass(cyl, sym3, pair):
    for data in (cyl, sym3, pair):
        rep = sk.validate(data)
        assert rep.passed, rep.summary()


def test_validate_overlapping_discs_fail(cyl):
    bad = sk.SchottkyData(
        m=1,
        discs=(sk.Disc(-0.5, 1.0), sk.Disc(0.5, 1.0)),
        generators=cyl.generators,
    )
    rep = sk.validate(bad)
    assert not rep.passed
    gap = next(c for c in rep.checks if c.name == "disc_disjointness")
    assert gap.margin < 0


CHECKS = ("disc_disjointness", "boundary_mapping", "center_maps_outside")


def _failing_cylinder(cyl, check):
    """The cylinder, changed so that exactly the named check fails."""
    g = cyl.generators[0]
    src, dst = cyl.discs
    if check == "disc_disjointness":
        # a source disc wide enough to cover g's attracting fixed point 1;
        # the target is the image of its boundary, found from the diameter
        src = sk.Disc(src.center, 2.6)
        lo, hi = sorted(g(src.center + sign * src.radius).real for sign in (-1, 1))
        dst = sk.Disc((lo + hi) / 2, (hi - lo) / 2)
    elif check == "boundary_mapping":
        dst = sk.Disc(dst.center + 0.01, dst.radius)
    else:
        # z -> c - r^2 / (z - c) keeps the source circle and swaps its sides
        c, r = src.center, src.radius
        g = g.compose(sk.MoebiusMap(c, -r * r - c * c, 1.0, -c))
    return sk.SchottkyData(m=1, discs=(src, dst), generators=(g,))


@pytest.mark.parametrize("check", CHECKS)
def test_every_reported_check_can_fail(cyl, check):
    rep = sk.validate(_failing_cylinder(cyl, check))
    assert tuple(c.name for c in rep.checks) == CHECKS
    assert [c.name for c in rep.checks if not c.passed] == [check]


def _words(data, n):
    """The admissible words of length n as tuples of 1-based letters."""
    return [tuple(w) for w in (sk.words_array(data.m, n) + 1).tolist()]


def test_word_counts(sym3):
    assert len(_words(sym3, 1)) == 4
    assert len(_words(sym3, 3)) == 36
    assert sum(1 for w in _words(sym3, 2) if w[-1] != 1) == 9


def test_word_count_formula(sym3, pair):
    for data in (sym3, pair):
        for n in range(1, 5):
            expect = 2 * data.m * (2 * data.m - 1) ** (n - 1)
            assert len(_words(data, n)) == expect


def test_word_enumeration_matches_bruteforce():
    m = 2
    for n in (1, 2, 3):
        brute = set()
        for tup in itertools.product(range(1, 2 * m + 1), repeat=n):
            ok = all(tup[i + 1] != sk._inv(tup[i], m) for i in range(n - 1))
            if ok:
                brute.add(tup)
        got = _words(sk.preset("symmetric3"), n)
        assert got == sorted(brute)


def test_word_map_identity_and_letters(pair):
    ident = word_map(pair, [])
    assert np.allclose(ident.as_array(), np.eye(2))
    for k in pair.letters:
        g = word_map(pair, [k])
        assert np.allclose(g.as_array(), pair.gen(k).as_array())


def test_inadmissible_word_rejected(pair):
    with pytest.raises(ValueError):
        word_map(pair, [1, 5])
    with pytest.raises(ValueError):
        word_map(pair, [1, 3])
    assert not any(w[i + 1] == pair.inverse_letter(w[i])
                   for w in _words(pair, 4) for i in range(3))


def test_cylinder_two_classes(cyl):
    ell = 2 * math.acosh(1.5)
    classes = sk.primitive_geodesics(cyl, ell + 0.01)
    assert len(classes) == 2
    words = {c.word for c in classes}
    assert words == {(1,), (2,)}
    for c in classes:
        assert abs(c.length - ell) < 1e-10


def _bruteforce_class_count(data, depth):
    """Independent enumerator: all cyclic words, dedupe by min rotation,
    drop powers, keep hyperbolic."""
    m = data.m
    seen = set()
    for n in range(1, depth + 1):
        for tup in itertools.product(range(1, 2 * m + 1), repeat=n):
            ok = all(tup[(i + 1) % n] != sk._inv(tup[i], m) for i in range(n))
            if not ok:
                continue
            rots = [tup[r:] + tup[:r] for r in range(n)]
            canon = min(rots)
            if canon != tup:
                continue
            power = any(
                n % d == 0 and tup == tup[:d] * (n // d) for d in range(1, n)
            )
            if power:
                continue
            g = word_map(data, tup)
            if abs(g.trace) > 2 + 1e-12:
                seen.add(canon)
    return len(seen)


def test_class_count_matches_bruteforce(sym3):
    depth = 4
    classes = sk.primitive_classes_up_to_depth(sym3, depth)
    assert len(classes) == _bruteforce_class_count(sym3, depth)


def test_length_trace_and_derivative(sym3, pair):
    for data in (sym3, pair):
        for c in sk.primitive_classes_up_to_depth(data, 3):
            assert abs(c.length - 2 * math.acosh(abs(c.trace) / 2)) < 1e-10
            g = word_map(data, c.word)
            x = g.attracting_fixed_point()
            assert abs(abs(g.deriv(x)) - math.exp(-c.length)) < 1e-8


def test_homology_counts(pair):
    c = next(c for c in sk.primitive_classes_up_to_depth(pair, 3)
             if c.word == (1, 2))
    assert c.homology == (1, 1)
    assert sk.word_homology(2, (1, 4, 1)) == (2, -1)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 4), min_size=1, max_size=6),
       st.lists(st.integers(1, 4), min_size=1, max_size=6))
def test_homology_homomorphism(w1, w2):
    m = 2

    def admissible(w):
        return all(w[i + 1] != sk._inv(w[i], m) for i in range(len(w) - 1))

    if not (admissible(w1) and admissible(w2) and admissible(w1 + w2)):
        return
    h = sk.word_homology
    assert h(m, w1 + w2) == tuple(
        a + b for a, b in zip(h(m, w1), h(m, w2)))


def test_cocycle_empty_and_single(pair):
    assert sk.log_derivative_cocycle(pair, (), 0.1) == 0
    # real point inside D_1 away from the pole at the isometric-disc center
    z = pair.discs[0].center + 0.5 * pair.discs[0].radius
    v = sk.log_derivative_cocycle(pair, (1,), z)
    assert abs(v.imag) < 1e-14
    assert abs(math.exp(v.real) - abs(pair.gen(1).deriv(z))) < 1e-12


def test_cocycle_chain_rule(sym3, pair):
    rng = np.random.default_rng(7)
    for data in (sym3, pair):
        for w in _words(data, 4):
            src = data.discs[data.inverse_letter(w[-1]) - 1]
            z = src.center + 0.3 * src.radius * complex(rng.normal(), rng.normal())
            total = sk.log_derivative_cocycle(data, w, z)
            g = word_map(data, w)
            assert abs(np.exp(total) - complex(g.deriv(z))) < 1e-10


def test_contraction_and_distortion(pair):
    """Sup of |word-map derivative| over domain discs decays geometrically;
    the log-derivative stays uniformly bounded."""
    sups = []
    dist = []
    for n in (2, 3, 4, 5):
        worst = 0.0
        worst_dist = 0.0
        for w in _words(pair, n):
            src = pair.discs[pair.inverse_letter(w[-1]) - 1]
            pts = src.boundary_points(8) * 0.99 + src.center * 0.01
            g = word_map(pair, w)
            dv = np.abs([g.deriv(z) for z in pts])
            worst = max(worst, float(dv.max()))
            # |g''/g'| = |2c/(cz+d)|
            dd = np.abs([2 * g.c / (g.c * z + g.d) for z in pts])
            worst_dist = max(worst_dist, float(dd.max()))
        sups.append(worst)
        dist.append(worst_dist)
    ratios = [sups[i + 1] / sups[i] for i in range(3)]
    assert max(ratios) < 1.0
    assert max(dist) < 10 * dist[0] + 10


def test_json_roundtrip(pair):
    obj = sk.group_to_json(pair)
    back = sk.load_group_json(json.dumps(obj))
    assert back.m == pair.m
    for d1, d2 in zip(back.discs, pair.discs):
        assert abs(d1.center - d2.center) < 1e-15
        assert abs(d1.radius - d2.radius) < 1e-15
    data = sk.load_group_json({"preset": "cylinder", "t": 4.0})
    assert data.m == 1


def test_geodesics_sorted_and_complete(pair):
    warn = []
    classes = sk.primitive_geodesics(pair, 6.0, warn=warn)
    assert warn == []
    lengths = [c.length for c in classes]
    assert lengths == sorted(lengths)
    assert all(ell <= 6.0 for ell in lengths)
    # C and C^{-1} are distinct classes: inverse word canonical form present
    words = {c.word for c in classes}
    assert (1,) in words or any(len(w) == 1 for w in words)
    for c in classes[:10]:
        inv_word = tuple(sk._inv(k, pair.m) for k in reversed(c.word))
        rots = [inv_word[r:] + inv_word[:r] for r in range(len(inv_word))]
        assert min(rots) in words


@pytest.mark.parametrize("name", ["cylinder", "symmetric3", "sl2z-pair", "sl2z-crossed"])
def test_shortest_bounds_are_upper_bounds(name):
    data = sk.preset(name)
    bounds = sk._shortest_bounds(data, 5)
    for n, bound in enumerate(bounds, start=1):
        shortest = min((c.length for c in sk._classes_at_depth(data, n)), default=math.inf)
        assert shortest <= bound


def test_length_beyond_word_budget_is_refused_before_enumeration(sym3):
    """Every depth up to 12 holds a class shorter than 50 and depth 13 is
    over the word budget, so no depth is listed."""
    assert max(sk._shortest_bounds(sym3, 12)) <= 50.0
    before = sk._classes_at_depth.cache_info()
    warn = []
    assert sk.primitive_geodesics(sym3, 50.0, warn=warn) == []
    assert warn == [f"depth 13 has {4 * 3 ** 12} words, above the budget of "
                    f"{sk.MAX_DEPTH_WORDS}, before length 50.0"]
    after = sk._classes_at_depth.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses)
