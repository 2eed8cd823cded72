"""SL2(F_p) machinery: reduction mod p, conjugacy classification, trace
multiplicities, the averaged character sum S(p), and desk-scale checks of
trace rigidity on congruence quotients."""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import schottky as sk
from .schottky import GeodesicClass, SchottkyData

__all__ = [
    "FpMatrix",
    "ConjClassLabel",
    "reduce_mod_p",
    "classify",
    "class_statistics",
    "group_order",
    "all_elements",
    "trace_multiplicities",
    "power_classes",
    "conj1_check",
    "character_average",
    "abelian_average_crosscheck",
    "surjectivity_check",
]

def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in range(2, int(math.isqrt(n)) + 1):
        if n % q == 0:
            return False
    return True


def _legendre(x: int, p: int) -> int:
    """1 for nonzero squares, -1 for nonsquares, 0 for 0 (mod p)."""
    x %= p
    if x == 0:
        return 0
    return 1 if pow(x, (p - 1) // 2, p) == 1 else -1


@dataclass(frozen=True)
class FpMatrix:
    a: int
    b: int
    c: int
    d: int
    p: int

    def __post_init__(self):
        p = self.p
        if p <= 3 or not _is_prime(p):
            raise ValueError("p must be an odd prime > 3")
        for f in ("a", "b", "c", "d"):
            object.__setattr__(self, f, getattr(self, f) % p)
        if (self.a * self.d - self.b * self.c) % p != 1:
            raise ValueError("determinant must be 1 mod p")

    @property
    def trace(self) -> int:
        return (self.a + self.d) % self.p

    def mul(self, other: "FpMatrix") -> "FpMatrix":
        p = self.p
        return FpMatrix(
            (self.a * other.a + self.b * other.c) % p,
            (self.a * other.b + self.b * other.d) % p,
            (self.c * other.a + self.d * other.c) % p,
            (self.c * other.b + self.d * other.d) % p, p)

    def inv(self) -> "FpMatrix":
        return FpMatrix(self.d, -self.b, -self.c, self.a, self.p)

    def neg(self) -> "FpMatrix":
        return FpMatrix(-self.a, -self.b, -self.c, -self.d, self.p)

    def is_identity(self) -> bool:
        return (self.a, self.b, self.c, self.d) == (1, 0, 0, 1)

    def key(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)


def reduce_mod_p(obj, p: int, data: Optional[SchottkyData] = None) -> FpMatrix:
    """Entrywise reduction of an integer matrix, Moebius map, geodesic class
    or word; the sign ambiguity of the projective lift is resolved by the
    fixed integer generator matrices."""
    if isinstance(obj, FpMatrix):
        return obj
    if isinstance(obj, sk.MoebiusMap):
        ints = np.rint([obj.a, obj.b, obj.c, obj.d]).astype(object)
        if max(abs(float(obj.a) - int(ints[0])), abs(float(obj.b) - int(ints[1])),
               abs(float(obj.c) - int(ints[2])), abs(float(obj.d) - int(ints[3]))) > 1e-9:
            raise ValueError("matrix entries are not integers")
        return FpMatrix(int(ints[0]), int(ints[1]), int(ints[2]), int(ints[3]), p)
    if isinstance(obj, GeodesicClass):
        if data is None:
            raise ValueError("reducing a geodesic class requires the group data")
        return _word_mod_p(_int_generators(data), obj.word, p)
    if isinstance(obj, (tuple, list)):
        if data is None:
            raise ValueError("reducing a word requires the group data")
        return _word_mod_p(_int_generators(data), obj, p)
    raise TypeError(f"cannot reduce {type(obj)!r}")


def _int_generators(data: SchottkyData) -> list[tuple[int, int, int, int]]:
    out = []
    for k in data.letters:
        g = data.gen(k)
        vals = [g.a, g.b, g.c, g.d]
        ints = [int(round(v)) for v in vals]
        if max(abs(v - i) for v, i in zip(vals, ints)) > 1e-9:
            raise ValueError("group generators are not integer matrices")
        out.append(tuple(ints))
    return out


def _word_mod_p(gens: list[tuple[int, int, int, int]], word: Sequence[int],
                p: int) -> FpMatrix:
    a, b, c, d = 1, 0, 0, 1
    for k in word:
        ga, gb, gc, gd = gens[k - 1]
        a, b, c, d = ((a * ga + b * gc) % p, (a * gb + b * gd) % p,
                      (c * ga + d * gc) % p, (c * gb + d * gd) % p)
    return FpMatrix(a, b, c, d, p)


def _reduced_powers(data: SchottkyData, p: int, classes) -> list[FpMatrix]:
    """C^k mod p for each power class (C, k, ...) of power_classes."""
    gens = _int_generators(data)
    out = []
    for c, k, *_ in classes:
        g = _word_mod_p(gens, c.word, p)
        gk = g
        for _ in range(k - 1):
            gk = gk.mul(g)
        out.append(gk)
    return out


@dataclass(frozen=True, order=True)
class ConjClassLabel:
    """Conjugacy class of SL2(F_p): trace plus the refinement needed when
    the characteristic polynomial does not separate classes."""

    trace: int
    kind: str  # split-torus | nonsplit-torus | central | unipotent
    sign: int = 0  # central/unipotent: +1 or -1
    square_class: int = 0  # unipotent: Legendre symbol of the shear


def classify(g: FpMatrix) -> ConjClassLabel:
    p = g.p
    t = g.trace
    if t == 2 % p and g.is_identity():
        return ConjClassLabel(trace=t, kind="central", sign=1)
    if t == (p - 2) % p and g.neg().is_identity():
        return ConjClassLabel(trace=t, kind="central", sign=-1)
    disc = (t * t - 4) % p
    if disc != 0:
        if _legendre(disc, p) == 1:
            return ConjClassLabel(trace=t, kind="split-torus")
        return ConjClassLabel(trace=t, kind="nonsplit-torus")
    # t = +-2, non central: unipotent up to sign
    sign = 1 if t == 2 else -1
    h = g if sign == 1 else g.neg()
    # shear invariant: h is conjugate to [[1, x], [0, 1]], and conjugating
    # that by [[a', b'], [c', d']] gives c_h = -x c'^2 and b_h = x a'^2, so
    # the square class of x is that of -c_h, or of b_h when c_h = 0
    x = (p - h.c) % p if h.c else h.b
    return ConjClassLabel(trace=t, kind="unipotent", sign=sign,
                          square_class=_legendre(x, p))


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


def _classify_codes(elems: np.ndarray, p: int) -> np.ndarray:
    """classify() over (n, 4) int64 rows with entries in [0, p): one code
    8*trace + slot per row, slot indexing _SLOTS."""
    a, b, c, d = (elems[:, i] for i in range(4))
    leg = np.full(p, -1, dtype=np.int64)  # Legendre symbol of 0..p-1
    leg[0] = 0
    leg[np.arange(1, p, dtype=np.int64) ** 2 % p] = 1
    t = (a + d) % p
    disc = leg[(t * t - 4) % p]
    # t = +-2: unipotent up to sign, h = sign*g, with the shear invariant of
    # classify()
    sign = np.where(t == 2, 1, -1)
    hb, hc = (sign * b) % p, (sign * c) % p
    square = leg[np.where(hc != 0, (p - hc) % p, hb)]
    slot = np.where(disc == 1, 2, 3)
    slot = np.where(disc == 0, np.where(sign == 1, 4, 6) + (square == -1), slot)
    diagonal = (b == 0) & (c == 0)
    slot[diagonal & (a == 1) & (d == 1)] = 0
    slot[diagonal & (a == p - 1) & (d == p - 1)] = 1
    return 8 * t + slot


def _decode(code: int) -> ConjClassLabel:
    kind, sign, square = _SLOTS[code % 8]
    return ConjClassLabel(trace=code // 8, kind=kind, sign=sign, square_class=square)


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
        labels[order[np.searchsorted(sorted_keys, np.unique(zkey))]] = nxt
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
    if p <= 3 or not _is_prime(p):
        raise ValueError("p must be an odd prime > 3")
    elems = all_elements(p)
    codes = _classify_codes(elems, p)
    uniq, counts = np.unique(codes, return_counts=True)
    out = {}
    for lab, measured in sorted(zip(map(_decode, uniq.tolist()), counts.tolist())):
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
        pairs = np.unique(part * (8 * p) + codes)
        orbits, pair_codes = pairs // (8 * p), pairs % (8 * p)
        if np.unique(orbits).size != pairs.size:
            raise AssertionError("an orbit carries several labels")
        if np.unique(pair_codes).size != pairs.size:
            raise AssertionError("one label covers several brute-force orbits")
        if pairs.size != len(out):
            raise AssertionError("orbit count differs from label count")
    return out


def power_classes(data: SchottkyData, T: float,
                  depth_cap: int = 24) -> list[tuple[GeodesicClass, int, int, float]]:
    """All conjugacy classes (C, k) of the group with k*length(C) <= T,
    as tuples (primitive, k, integer trace of C^k, k*length)."""
    prims = sk.primitive_geodesics(data, T, depth_cap=depth_cap, warn=[])
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
    classes = power_classes(data, beta * math.log(p))
    entries = [(c, k, t, classify(gk))
               for (c, k, t, _), gk in zip(classes, _reduced_powers(data, p, classes))]
    violations = []
    for i in range(len(entries)):
        for j in range(i + 1, len(entries)):
            ci, ki, ti, li = entries[i]
            cj, kj, tj, lj = entries[j]
            same_trace = ti == tj
            conjugate = li == lj
            if same_trace != conjugate:
                violations.append(((ci.word, ki), (cj.word, kj), ti, tj, li, lj))
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
    if T is None:
        T = beta * math.log(p)
    if phi0 is None:
        phi0 = lambda x: 1.0 if abs(x) <= 1.0 else 0.0
    cut = T * (1 - eps)
    W, W_inv = defaultdict(float), defaultdict(float)
    n, n_inv = defaultdict(int), defaultdict(int)
    classes = power_classes(data, T)
    for (c, k, _, ell), gk in zip(classes, _reduced_powers(data, p, classes)):
        lab = classify(gk)
        lab_inv = classify(gk.inv())
        w = (c.length / (1.0 - math.exp(k * c.length))) * phi0(k * c.length / T)
        W[lab] += w
        W_inv[lab_inv] += w
        if ell <= cut:
            n[lab] += 1
            n_inv[lab_inv] += 1
    s_value = sum(centralizer_size(lab, p) * w * W_inv[lab]
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


def abelian_average_crosscheck(data: SchottkyData, N: int, T: float,
                               phi0: Optional[Callable] = None) -> tuple[float, float]:
    """Toy oracle: on the abelian quotient Z/N (first homology coordinate),
    the Dirac-form pair sum must equal the direct character sum
    sum_alpha |I(chi_alpha, T)|^2."""
    if phi0 is None:
        phi0 = lambda x: 1.0 if abs(x) <= 1.0 else 0.0
    rows = []
    for c, k, t, ell in power_classes(data, T):
        proj = (k * c.homology[0]) % N
        w = (c.length / (1.0 - math.exp(k * c.length))) * phi0(k * c.length / T)
        rows.append((proj, w))
    direct = 0.0
    for alpha in range(N):
        I = sum(w * np.exp(2j * np.pi * alpha * g / N) for g, w in rows)
        direct += abs(I) ** 2
    # pairs with equal projection, grouped by it: N * sum_g (sum_{proj=g} w)^2
    mass = defaultdict(float)
    for g, w in rows:
        mass[g] += w
    dirac = N * sum(v * v for v in mass.values())
    return float(direct), float(dirac)


def surjectivity_check(data: SchottkyData, p: int) -> bool:
    """BFS over generator images reaches all of SL2(F_p)."""
    gens = [FpMatrix(*g, p) for g in _int_generators(data)]
    seen = {FpMatrix(1, 0, 0, 1, p).key()}
    frontier = [FpMatrix(1, 0, 0, 1, p)]
    target = group_order(p)
    while frontier and len(seen) < target:
        nxt = []
        for h in frontier:
            for g in gens:
                prod = h.mul(g)
                if prod.key() not in seen:
                    seen.add(prod.key())
                    nxt.append(prod)
        frontier = nxt
    return len(seen) == target
