"""SL2(F_p) machinery: reduction mod p, conjugacy classification, trace
multiplicities, the averaged character sum S(p), and desk-scale checks of
trace rigidity on congruence quotients."""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import schottky as sk
from .schottky import GeodesicClass, SchottkyData

__all__ = [
    "ConjClassLabel",
    "class_statistics",
    "group_order",
    "all_elements",
    "trace_multiplicities",
    "power_classes",
    "conj1_check",
    "character_average",
    "surjectivity_check",
]

# Largest group order p(p^2 - 1) that class_statistics lists element by
# element, at about 91 bytes per element with temporaries: p <= 157.
MAX_GROUP_ORDER = 4_000_000


def _check_prime(p: int) -> None:
    if p <= 3 or any(p % q == 0 for q in range(2, math.isqrt(p) + 1)):
        raise ValueError("p must be an odd prime > 3")


def _int_generators(data: SchottkyData) -> list[tuple[int, int, int, int]]:
    """The integer matrix (a, b, c, d) of each letter 1..2m."""
    out = []
    for g in data.generators:
        vals = [g.a, g.b, g.c, g.d]
        ints = [int(round(v)) for v in vals]
        if max(abs(v - i) for v, i in zip(vals, ints)) > 1e-9:
            raise ValueError("group generators are not integer matrices")
        out.append(tuple(ints))
    # a generator has determinant 1, so its inverse is [[d, -b], [-c, a]]
    return out + [(d, -b, -c, a) for a, b, c, d in out]


def _mul_mod_p(x: tuple[int, int, int, int], y: tuple[int, int, int, int],
               p: int) -> tuple[int, int, int, int]:
    """x y mod p for 2x2 matrices given as rows (a, b, c, d), in Python ints
    so that no product overflows."""
    xa, xb, xc, xd = x
    ya, yb, yc, yd = y
    return ((xa * ya + xb * yc) % p, (xa * yb + xb * yd) % p,
            (xc * ya + xd * yc) % p, (xc * yb + xd * yd) % p)


def _reduced_powers(data: SchottkyData, p: int, classes) -> np.ndarray:
    """C^k mod p for each power class (C, k, ...) of power_classes, as an
    (n, 4) int64 array of rows (a, b, c, d) with entries in [0, p)."""
    gens = _int_generators(data)
    rows = []
    for c, k, *_ in classes:
        g = (1, 0, 0, 1)
        for letter in c.word:
            g = _mul_mod_p(g, gens[letter - 1], p)
        gk = g
        for _ in range(k - 1):
            gk = _mul_mod_p(gk, g, p)
        rows.append(gk)
    return np.array(rows, dtype=np.int64).reshape(-1, 4)


@dataclass(frozen=True, order=True)
class ConjClassLabel:
    """Conjugacy class of SL2(F_p): trace plus the refinement needed when
    the characteristic polynomial does not separate classes."""

    trace: int
    kind: str  # split-torus | nonsplit-torus | central | unipotent
    sign: int = 0  # central/unipotent: +1 or -1
    square_class: int = 0  # unipotent: Legendre symbol of the shear


def group_order(p: int) -> int:
    return p * (p * p - 1)


def all_elements(p: int) -> np.ndarray:
    """(n, 4) int64 array of every SL2(F_p) element, rows (a, b, c, d) in
    lexicographic order."""
    r = np.arange(p, dtype=np.int64)
    inv = np.array([pow(x, p - 2, p) for x in range(p)], dtype=np.int64)
    # a = 0: -bc = 1, so b != 0, c = -1/b and d is free
    b0 = np.repeat(r[1:], p)
    zero = np.column_stack([np.zeros_like(b0), b0, (-inv[b0]) % p, np.tile(r, p - 1)])
    # a != 0: d = (1 + bc)/a
    a, b, c = (x.ravel() for x in np.meshgrid(r[1:], r, r, indexing="ij"))
    rest = np.column_stack([a, b, c, (1 + b * c) % p * inv[a] % p])
    return np.concatenate([zero, rest])


# Slot of each (kind, sign, square_class) in a class code: code = 8*trace + slot.
_SLOTS = (("central", 1, 0), ("central", -1, 0), ("split-torus", 0, 0),
          ("nonsplit-torus", 0, 0), ("unipotent", 1, 1), ("unipotent", 1, -1),
          ("unipotent", -1, 1), ("unipotent", -1, -1))
# The slot by [Legendre symbol of t^2 - 4, t != 2, Legendre symbol of the
# shear], symbols shifted by 1.  At t = +-2 the shear is 0 only at +-1.
_SLOT_OF = np.array([[[3, 3, 3], [3, 3, 3]],
                     [[5, 0, 4], [7, 1, 6]],
                     [[2, 2, 2], [2, 2, 2]]])


def _classify_codes(elems: np.ndarray, p: int) -> np.ndarray:
    """The conjugacy class of each of the (n, 4) int64 rows (a, b, c, d),
    entries in [0, p): one code 8*trace + slot per row, slot indexing
    _SLOTS.  A trace t with t^2 - 4 a nonzero square (nonsquare) mod p is a
    split (nonsplit) torus; t = +-2 is central or unipotent up to sign."""
    a, b, c, d = elems.T
    leg = np.full(p, -1, dtype=np.int64)  # Legendre symbol of 0..p-1
    leg[0] = 0
    leg[np.arange(1, p, dtype=np.int64) ** 2 % p] = 1
    t = (a + d) % p
    # t = +-2: h = sign*g is conjugate to [[1, x], [0, 1]], and conjugating
    # that by [[a', b'], [c', d']] gives c_h = -x c'^2 and b_h = x a'^2, so
    # the square class of the shear x is that of -c_h, or of b_h when c_h = 0
    shear = np.where(t == 2, 1, -1) * np.where(c != 0, -c, b) % p
    return 8 * t + _SLOT_OF[leg[(t * t - 4) % p] + 1, (t != 2).astype(np.int64),
                            leg[shear] + 1]


def _decode(code: int) -> ConjClassLabel:
    kind, sign, square = _SLOTS[code % 8]
    return ConjClassLabel(trace=code // 8, kind=kind, sign=sign, square_class=square)


def _distinct(values: np.ndarray) -> np.ndarray:
    """np.unique(values) without the numpy.ma import on np.unique's path."""
    s = np.sort(values)
    keep = np.ones(s.size, dtype=bool)
    keep[1:] = s[1:] != s[:-1]
    return s[keep]


def conjugacy_partition_mod_p(elems: np.ndarray, p: int) -> np.ndarray:
    """Partition the listed SL2(F_p) elements into conjugacy orbits by brute
    force; the orbit check of class_statistics(validate=True).

    elems: (n, 4) int64 rows (a, b, c, d) with entries in [0, p).  Returns an
    int64 label per element; equal label means conjugate in SL2(F_p).
    """
    elems = np.ascontiguousarray(elems, dtype=np.int64)
    n = elems.shape[0]
    key = ((elems[:, 0] * p + elems[:, 1]) * p + elems[:, 2]) * p + elems[:, 3]
    order = np.argsort(key, kind="stable")
    sorted_keys = key[order]
    a, b, c, d = (elems[:, i] for i in range(4))
    # inverses: [[d, -b], [-c, a]] mod p
    ia, ib, ic, id_ = d, (-b) % p, (-c) % p, a
    labels = np.full(n, -1, dtype=np.int64)
    nxt = 0
    x = 0
    while True:
        todo = np.flatnonzero(labels[x:] < 0)
        if todo.size == 0:
            break
        x += int(todo[0])
        xa, xb, xc, xd = (int(elems[x, i]) for i in range(4))
        # orbit of x under conjugation by every g: g x g^-1
        ga, gb, gc, gd = a, b, c, d
        ya = (ga * xa + gb * xc) % p
        yb = (ga * xb + gb * xd) % p
        yc = (gc * xa + gd * xc) % p
        yd = (gc * xb + gd * xd) % p
        za = (ya * ia + yb * ic) % p
        zb = (ya * ib + yb * id_) % p
        zc = (yc * ia + yd * ic) % p
        zd = (yc * ib + yd * id_) % p
        zkey = ((za * p + zb) * p + zc) * p + zd
        labels[order[np.searchsorted(sorted_keys, _distinct(zkey))]] = nxt
        nxt += 1
    return labels


def class_size(label: ConjClassLabel, p: int) -> int:
    if label.kind == "central":
        return 1
    if label.kind == "split-torus":
        return p * (p + 1)
    if label.kind == "nonsplit-torus":
        return p * (p - 1)
    if label.kind == "unipotent":
        return (p * p - 1) // 2
    raise ValueError(label.kind)


def centralizer_size(label: ConjClassLabel, p: int) -> int:
    return group_order(p) // class_size(label, p)


def class_statistics(p: int, validate: bool = False) -> dict:
    """Table label -> (class size, centralizer size).  The class sizes and
    the class equation are always checked; with validate the label partition
    is also checked against a brute-force orbit enumeration, which costs
    O(p^6) and is meant for tests."""
    _check_prime(p)
    if group_order(p) > MAX_GROUP_ORDER:
        raise ValueError(f"group order {group_order(p)} of SL2(F_{p}) is above "
                         f"the cap of {MAX_GROUP_ORDER}")
    elems = all_elements(p)
    codes = _classify_codes(elems, p)
    counts = np.bincount(codes)
    uniq = np.flatnonzero(counts)
    out = {}
    for lab, measured in sorted(zip(map(_decode, uniq.tolist()), counts[uniq].tolist())):
        size = class_size(lab, p)
        if measured != size:
            raise AssertionError(f"class size mismatch for {lab}: {measured} vs {size}")
        out[lab] = (size, centralizer_size(lab, p))
    if sum(s for s, _ in out.values()) != group_order(p):
        raise AssertionError("class equation violated")
    if validate:
        part = conjugacy_partition_mod_p(elems, p)
        # distinct (orbit, code) pairs: a bijection iff each orbit carries one
        # code and each code covers one orbit
        pairs = _distinct(part * (8 * p) + codes)
        orbits, pair_codes = pairs // (8 * p), pairs % (8 * p)
        if _distinct(orbits).size != pairs.size:
            raise AssertionError("an orbit carries several labels")
        if _distinct(pair_codes).size != pairs.size:
            raise AssertionError("one label covers several brute-force orbits")
        if pairs.size != len(out):
            raise AssertionError("orbit count differs from label count")
    return out


def power_classes(data: SchottkyData, T: float,
                  depth_cap: int = 24) -> list[tuple[GeodesicClass, int, int, float]]:
    """All conjugacy classes (C, k) of the group with k*length(C) <= T,
    as tuples (primitive, k, integer trace of C^k, k*length).  Raises
    ValueError when the geodesic table stops short of T."""
    warn: list = []
    prims = sk.primitive_geodesics(data, T, depth_cap=depth_cap, warn=warn)
    if warn:
        raise ValueError(f"geodesic table incomplete to length {T}: {warn[0]}")
    out = []
    for c in prims:
        t1 = c.trace_int
        t_prev, t_cur = 2, t1
        k = 1
        while k * c.length <= T:
            out.append((c, k, t_cur, k * c.length))
            t_prev, t_cur = t_cur, t1 * t_cur - t_prev
            k += 1
    out.sort(key=lambda r: (r[3], r[0].word, r[1]))
    return out


def trace_multiplicities(data: SchottkyData, T: float) -> dict[int, int]:
    """m(t): number of conjugacy classes (primitive or power) with
    k*length <= T and integer trace t."""
    mt: dict[int, int] = {}
    for _, _, t, _ in power_classes(data, T):
        mt[t] = mt.get(t, 0) + 1
    return mt


def conj1_check(data: SchottkyData, p: int, beta: float) -> list:
    """Trace rigidity at scale beta*log(p): over class pairs with
    k*length <= beta*log(p), integer-trace equality must coincide with
    conjugacy mod p.  Returns the violating pairs."""
    if beta >= 2:
        raise ValueError("beta must be < 2")
    _check_prime(p)
    classes = power_classes(data, beta * math.log(p))
    codes = _classify_codes(_reduced_powers(data, p, classes), p).tolist()
    entries = [(c.word, k, t, code) for (c, k, t, _), code in zip(classes, codes)]
    violations = []
    for i, (wi, ki, ti, li) in enumerate(entries):
        for wj, kj, tj, lj in entries[i + 1:]:
            if (ti == tj) != (li == lj):
                violations.append(((wi, ki), (wj, kj), ti, tj, _decode(li), _decode(lj)))
    return violations


def character_average(data: SchottkyData, p: int, T: Optional[float] = None,
                      phi0: Optional[Callable] = None, beta: float = 1.5,
                      eps: float = 0.1) -> dict:
    """The averaged square S(p) = sum over irreducibles of |I(rho, T)|^2 in
    its Dirac form: a sum over class pairs whose reductions satisfy
    C^k ~ (C'^{k'})^{-1} mod p, weighted by the centralizer size.  Grouped by
    the label L of C^k it is sum_L |Z(L)| * W[L] * W_inv[L], where W[L] sums
    the weights of the classes with label L and W_inv[L] those of the classes
    whose inverse has label L.

    Also returns the certificate (p-1) * (number of paired class pairs with
    k*length <= T*(1-eps)) as a lower bound."""
    _check_prime(p)
    if T is None:
        T = beta * math.log(p)
    if phi0 is None:
        phi0 = lambda x: 1.0 if abs(x) <= 1.0 else 0.0
    cut = T * (1 - eps)
    W, W_inv = defaultdict(float), defaultdict(float)
    n, n_inv = defaultdict(int), defaultdict(int)
    classes = power_classes(data, T)
    g = _reduced_powers(data, p, classes)
    # C^k and its inverse [[d, -b], [-c, a]], classified in one pass
    g_inv = np.column_stack([g[:, 3], -g[:, 1] % p, -g[:, 2] % p, g[:, 0]])
    codes = _classify_codes(np.concatenate([g, g_inv]), p).tolist()
    for (c, k, _, ell), lab, lab_inv in zip(classes, codes, codes[len(classes):]):
        w = (c.length / (1.0 - math.exp(k * c.length))) * phi0(k * c.length / T)
        W[lab] += w
        W_inv[lab_inv] += w
        if ell <= cut:
            n[lab] += 1
            n_inv[lab_inv] += 1
    s_value = sum(centralizer_size(_decode(lab), p) * w * W_inv[lab]
                  for lab, w in W.items() if lab in W_inv)
    pair_count = sum(v * n_inv[lab] for lab, v in n.items() if lab in n_inv)
    mt = trace_multiplicities(data, cut)
    return {
        "p": p, "T": T, "beta": beta, "eps": eps,
        "S": float(s_value),
        "lower_bound": (p - 1) * pair_count,
        "paired_count": pair_count,
        "classes": len(classes),
        "sum_m2_short": sum(v * v for v in mt.values()),
        "min_nontrivial_dim": (p - 1) // 2,
    }


def surjectivity_check(data: SchottkyData, p: int) -> bool:
    """BFS over generator images reaches all of SL2(F_p)."""
    _check_prime(p)
    gens = _int_generators(data)
    seen = {(1, 0, 0, 1)}
    frontier = [(1, 0, 0, 1)]
    target = group_order(p)
    while frontier and len(seen) < target:
        nxt = []
        for h in frontier:
            for g in gens:
                prod = _mul_mod_p(h, g, p)
                if prod not in seen:
                    seen.add(prod)
                    nxt.append(prod)
        frontier = nxt
    return len(seen) == target
