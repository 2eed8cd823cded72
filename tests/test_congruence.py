import math
import os
import subprocess
import sys
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reslab import congruence as cg
from reslab import schottky as sk

from oracles import (FpMatrix, abelian_average_crosscheck, classify, conj1_double_loop,
                     reduce_mod_p, reduced_power)


@pytest.fixture(scope="module")
def pair():
    return sk.preset("sl2z-pair")


@pytest.fixture(scope="module")
def crossed():
    return sk.preset("sl2z-crossed")


def test_fpmatrix_validation():
    with pytest.raises(ValueError):
        FpMatrix(1, 0, 0, 1, 4)
    with pytest.raises(ValueError):
        FpMatrix(1, 0, 0, 1, 3)
    with pytest.raises(ValueError):
        FpMatrix(2, 0, 0, 1, 5)
    m = FpMatrix(7, -1, 1, 0, 5)
    assert (m.a, m.b, m.c, m.d) == (2, 4, 1, 0)


def _label(p, *rows):
    """The labels congruence._classify_codes gives the rows (a, b, c, d)."""
    codes = cg._classify_codes(np.array(rows, dtype=np.int64).reshape(-1, 4) % p, p)
    return [cg._decode(code) for code in codes.tolist()]


def test_reduce_identity_and_trace(pair):
    """Each integer letter times its inverse letter is 1 mod p, the trace
    reduces, and a one-letter class reduces as the oracle reduces the
    generator."""
    p = 7
    gens = cg._int_generators(pair)
    for k in pair.letters:
        g = gens[k - 1]
        assert cg._mul_mod_p(g, gens[pair.inverse_letter(k) - 1], p) == (1, 0, 0, 1)
        assert (g[0] + g[3]) % p == int(round(pair.gen(k).trace)) % p
        one = sk.GeodesicClass(word=(k,), length=1.0, trace=0.0, homology=(0,) * pair.m)
        rows = cg._reduced_powers(pair, p, [(one, 1)])
        assert rows.dtype == np.int64
        assert rows.tolist() == [list(reduce_mod_p(pair.gen(k), p).key())]


def test_reduce_rejects_non_integer():
    sym3 = sk.preset("symmetric3", t=6.0)
    with pytest.raises(ValueError, match="not integer"):
        cg.surjectivity_check(sym3, 7)
    with pytest.raises(ValueError):
        reduce_mod_p(sym3.gen(1), 7)


def test_classify_split_torus_example():
    [lab] = _label(5, (2, 0, 0, 3))
    assert lab.kind == "split-torus"
    assert lab.trace == 0


def test_classify_central():
    [lab, lab1] = _label(5, (-1, 0, 0, -1), (1, 0, 0, 1))
    assert lab.kind == "central" and lab.sign == -1
    assert cg.class_size(lab, 5) == 1
    assert lab1.kind == "central" and lab1.sign == 1


def test_classify_unipotent_distinct():
    u, up = _label(5, (1, 1, 0, 1), (1, 2, 0, 1))
    assert u.kind == up.kind == "unipotent"
    assert u != up
    assert {u.square_class, up.square_class} == {1, -1}


def test_trace3_mod5_is_unipotent_type():
    # t = 3 mod 5: t^2 - 4 = 5 = 0 mod 5, so central or unipotent up to sign
    [found] = _label(5, (2, 1, 1, 1))
    assert found.kind in ("unipotent", "central")
    assert found.trace == 3


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6),
       st.integers(0, 6), st.integers(0, 6), st.integers(0, 6))
def test_classify_conjugation_invariant(a, b, c, ha, hb, hc):
    p = 7
    d = ((1 + b * c) * pow(a, p - 2, p)) % p if a % p else None
    if d is None:
        return
    g = FpMatrix(a, b, c, d, p)
    hd = ((1 + hb * hc) * pow(ha, p - 2, p)) % p if ha % p else None
    if hd is None:
        return
    h = FpMatrix(ha, hb, hc, hd, p)
    assert _label(p, g.key(), h.mul(g).mul(h.inv()).key()) == [classify(g)] * 2


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_class_equation_and_brute_force(p):
    stats = cg.class_statistics(p, validate=True)
    assert sum(s for s, _ in stats.values()) == cg.group_order(p)
    for lab, (size, cent) in stats.items():
        assert size * cent == cg.group_order(p)


def test_class_statistics_f5_values():
    stats = cg.class_statistics(5)
    assert cg.group_order(5) == 120
    split = [v for lab, v in stats.items() if lab.kind == "split-torus"]
    assert all(cent == 4 for _, cent in split)
    kinds = [lab.kind for lab in stats]
    assert kinds.count("central") == 2
    assert kinds.count("unipotent") == 4
    assert kinds.count("split-torus") == (5 - 3) // 2
    assert kinds.count("nonsplit-torus") == (5 - 1) // 2


def test_class_statistics_refuses_group_order_above_cap():
    assert cg.group_order(101) <= cg.MAX_GROUP_ORDER
    with pytest.raises(ValueError, match="cap"):
        cg.class_statistics(163)


PRIMES_TO_43 = [5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43]


def _all_elements_by_loop(p):
    """Reference listing: solve ad - bc = 1 row by row in (a, b, c, d) order."""
    rows = []
    for a, b, c in product(range(p), repeat=3):
        if a == 0:
            if b == 0:
                continue
            # -bc = 1 -> c = -1/b, d free
            if c != (p - pow(b, p - 2, p)) % p:
                continue
            for d in range(p):
                rows.append((a, b, c, d))
        else:
            # d = (1 + bc)/a
            d = ((1 + b * c) * pow(a, p - 2, p)) % p
            rows.append((a, b, c, d))
    return np.array(rows, dtype=np.int64)


@pytest.mark.parametrize("p", PRIMES_TO_43)
def test_all_elements_matches_loop_listing(p):
    assert np.array_equal(cg.all_elements(p), _all_elements_by_loop(p))


@pytest.mark.parametrize("p", PRIMES_TO_43)
def test_classify_codes_decode_to_classify(p):
    elems = cg.all_elements(p)
    codes = cg._classify_codes(elems, p)
    scalar = [classify(FpMatrix(*row, p)) for row in elems.tolist()]
    assert [cg._decode(c) for c in codes.tolist()] == scalar


@pytest.mark.parametrize("p, validate", [(p, None) for p in PRIMES_TO_43]
                         + [(101, False)])
def test_class_statistics_closed_form(p, validate):
    """p + 4 classes: the two central ones, four unipotent ones and
    (p - 3)/2 split and (p - 1)/2 nonsplit tori, with their class sizes.
    validate None asks for the orbit oracle where it is cheap, p <= 31."""
    if validate is None:
        validate = p <= 31
    stats = cg.class_statistics(p, validate=validate)
    assert len(stats) == p + 4
    sizes = {"central": 1, "unipotent": (p * p - 1) // 2,
             "split-torus": p * (p + 1), "nonsplit-torus": p * (p - 1)}
    counts = {"central": 2, "unipotent": 4,
              "split-torus": (p - 3) // 2, "nonsplit-torus": (p - 1) // 2}
    kinds = [lab.kind for lab in stats]
    assert {k: kinds.count(k) for k in counts} == counts
    for lab, (size, cent) in stats.items():
        assert size == sizes[lab.kind]
        assert size * cent == cg.group_order(p)


def test_every_caller_classifies_through_classify_codes(monkeypatch, pair):
    """One batched classification per call: every element for the class
    table, the power classes for trace rigidity, and the power classes
    followed by their inverses for S(p)."""
    calls = []
    batched = cg._classify_codes

    def counting(elems, p):
        calls.append((elems.tolist(), p))
        return batched(elems, p)

    monkeypatch.setattr(cg, "_classify_codes", counting)
    cg.class_statistics(43)
    n = len(cg.power_classes(pair, 1.5 * math.log(31)))
    cg.conj1_check(pair, 31, 1.5)
    cg.character_average(pair, 31)
    assert [(len(rows), p) for rows, p in calls] == [
        (cg.group_order(43), 43), (n, 31), (2 * n, 31)]
    rows = calls[2][0]
    assert rows[:n] == calls[1][0]
    assert all(cg._mul_mod_p(g, g_inv, 31) == (1, 0, 0, 1)
               for g, g_inv in zip(rows[:n], rows[n:]))


@pytest.mark.parametrize("partition, message", [
    (lambda elems, p: np.zeros(len(elems), dtype=np.int64), "an orbit carries several"),
    (lambda elems, p: np.arange(len(elems), dtype=np.int64), "one label covers several"),
])
def test_validate_refuses_a_partition_that_disagrees(monkeypatch, partition, message):
    monkeypatch.setattr(cg, "conjugacy_partition_mod_p", partition)
    with pytest.raises(AssertionError, match=message):
        cg.class_statistics(5, validate=True)


def test_distinct_matches_np_unique():
    rng = np.random.default_rng(3)
    for size in (0, 1, 2, 50):
        values = rng.integers(-4, 5, size=size)
        assert np.array_equal(cg._distinct(values), np.unique(values))


def test_class_statistics_leaves_numpy_ma_unimported():
    """np.unique's path imports numpy.ma, about 15 ms in a fresh interpreter;
    the class table and its orbit check load none of it."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = ("import sys; from reslab import congruence; "
            "print(len(congruence.class_statistics(7, validate=True)), "
            "'numpy.ma' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True).stdout
    assert out.split() == ["11", "False"]


def test_orbit_oracle_runs_only_on_request(monkeypatch):
    calls = []
    brute = cg.conjugacy_partition_mod_p

    def counting(elems, p):
        calls.append(p)
        return brute(elems, p)

    monkeypatch.setattr(cg, "conjugacy_partition_mod_p", counting)
    cg.class_statistics(31)
    assert calls == []
    cg.class_statistics(31, validate=True)
    assert calls == [31]


def test_trace_multiplicities_partition(pair):
    T = 8.0
    mt = cg.trace_multiplicities(pair, T)
    classes = cg.power_classes(pair, T)
    assert sum(mt.values()) == len(classes)
    # Cauchy-Schwarz on the partition
    s1 = sum(mt.values())
    s2 = sum(v * v for v in mt.values())
    assert s1 * s1 <= len(mt) * s2


def test_trace_multiplicities_inverse_symmetry(pair):
    # inverse classes share trace, so every multiplicity is even
    mt = cg.trace_multiplicities(pair, 8.0)
    assert all(v % 2 == 0 for v in mt.values())


def test_multiplicity_energy_exponent(crossed):
    """On the thick preset (delta > 1/2) the fitted growth exponent of
    sum m(t)^2 exceeds that of sum m(t) by at least 0.8*(delta - 1/2)."""
    delta = 0.5434342722006
    Ts = np.arange(4.0, 10.0 + 1e-9, 1.0)
    s1, s2 = [], []
    for T in Ts:
        mt = cg.trace_multiplicities(crossed, float(T))
        s1.append(sum(mt.values()))
        s2.append(sum(v * v for v in mt.values()))
    e1 = np.polyfit(Ts, np.log(s1), 1)[0]
    e2 = np.polyfit(Ts, np.log(s2), 1)[0]
    assert e2 - e1 >= 0.8 * (delta - 0.5)


def test_conj1_empty_at_p101(pair):
    assert cg.conj1_check(pair, 101, 1.5) == []


def test_conj1_beta_cap(pair):
    with pytest.raises(ValueError):
        cg.conj1_check(pair, 101, 2.0)


@pytest.mark.parametrize("name, p", [("sl2z-pair", 5), ("sl2z-pair", 7), ("sl2z-pair", 11),
                                     ("sl2z-crossed", 11), ("sl2z-crossed", 13),
                                     ("sl2z-crossed", 19)])
def test_conj1_matches_scalar_double_loop(name, p):
    """The violations, labels and order of the oracle's double loop over
    one scalar classify per class; sl2z-crossed at p = 13 and 19 has four
    violations each."""
    data = sk.preset(name)
    assert cg.conj1_check(data, p, 1.9) == conj1_double_loop(data, p, 1.9)


@pytest.mark.parametrize("p", [4, 9])
@pytest.mark.parametrize("call", [lambda d, p: cg.conj1_check(d, p, 1.5),
                                  lambda d, p: cg.character_average(d, p),
                                  cg.surjectivity_check],
                         ids=["conj1_check", "character_average", "surjectivity_check"])
def test_composite_p_is_rejected(pair, call, p):
    with pytest.raises(ValueError, match="prime"):
        call(pair, p)


def test_truncated_geodesic_table_is_refused(pair):
    """Depth 2 lists 16 of the 18 power classes of length <= 8; the
    truncated table raises instead of reaching the pair sums."""
    assert len(cg.power_classes(pair, 8.0)) == 18
    with pytest.raises(ValueError, match="incomplete"):
        cg.power_classes(pair, 8.0, depth_cap=2)


def test_conj1_small_p_reports_counts(pair):
    # adversarial small p: violations allowed, but the check must run and
    # every reported pair must genuinely disagree
    viol = cg.conj1_check(pair, 5, 1.9)
    for (_, _, ti, tj, li, lj) in viol:
        assert (ti == tj) != (li == lj)


def test_character_average_diagonal_lower_bound(pair):
    """Every class pairs at least with itself when conjugate to its own
    inverse; centralizer weights are >= p - 1 off the center."""
    rep = cg.character_average(pair, 101)
    assert rep["paired_count"] >= 0
    assert rep["S"] > 0
    assert rep["lower_bound"] == 100 * rep["paired_count"]
    assert rep["min_nontrivial_dim"] == 50


def test_character_average_energy_inequality(pair):
    """S(p) >= C * (p-1) * sum m(t)^2 below the cutoff for a positive C."""
    rep = cg.character_average(pair, 101)
    ratio = rep["S"] / (100 * rep["sum_m2_short"])
    assert ratio > 0


def test_dirac_form_matches_abelian_oracle(pair):
    for N in (2, 3, 6):
        direct, dirac = abelian_average_crosscheck(pair, N, 7.0)
        assert abs(direct - dirac) < 1e-10 * max(1.0, abs(direct))


def _pair_sum(items, weight, paired, mass):
    """Reference Dirac form: the double loop over every pair of rows."""
    total = 0.0
    for x in items:
        wx = weight(x)
        for y in items:
            if paired(x, y):
                total += mass(x, y) * wx * weight(y)
    return total


def _weight(c, k, T):
    phi0 = 1.0 if k * c.length / T <= 1.0 else 0.0
    return c.length / (1.0 - math.exp(k * c.length)) * phi0


PRIMES_TO_31_AND_101 = [5, 7, 11, 13, 17, 19, 23, 29, 31, 101]


@pytest.mark.parametrize("p", PRIMES_TO_31_AND_101)
@pytest.mark.parametrize("name", ["sl2z-pair", "sl2z-crossed"])
def test_grouped_pair_sums_match_double_loop(name, p):
    data = sk.preset(name)
    beta, eps = 1.5, 0.1
    T = beta * math.log(p)
    rows = []  # (length, weight, label of C^k, label of its inverse)
    for c, k, _, ell in cg.power_classes(data, T):
        gk = reduced_power(data, c, k, p)
        rows.append((ell, _weight(c, k, T), classify(gk), classify(gk.inv())))
    paired = lambda x, y: x[2] == y[3]
    S = _pair_sum(rows, lambda r: r[1], paired,
                  lambda x, y: cg.centralizer_size(x[2], p))
    short = [r for r in rows if r[0] <= T * (1 - eps)]
    count = sum(1 for x in short for y in short if paired(x, y))
    rep = cg.character_average(data, p, beta=beta, eps=eps)
    assert abs(rep["S"] - S) <= 1e-12 * abs(S)
    assert rep["paired_count"] == count
    assert rep["lower_bound"] == (p - 1) * count

    proj = [((k * c.homology[0]) % p, _weight(c, k, T))
            for c, k, _, _ in cg.power_classes(data, T)]
    dirac = _pair_sum(proj, lambda r: r[1], lambda x, y: x[0] == y[0],
                      lambda x, y: p)
    _, grouped = abelian_average_crosscheck(data, p, T)
    assert abs(grouped - dirac) <= 1e-12 * abs(dirac)


def test_surjectivity(pair):
    for p in (5, 7, 11):
        assert cg.surjectivity_check(pair, p)
