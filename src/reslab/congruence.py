"""SL2(F_p) machinery: reduction mod p, conjugacy classification, trace
multiplicities, the averaged character sum S(p), and desk-scale checks of
trace rigidity on congruence quotients."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product as _iproduct
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

BRUTE_FORCE_CAP = 31


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
        return _word_mod_p(data, obj.word, p)
    if isinstance(obj, (tuple, list)):
        if data is None:
            raise ValueError("reducing a word requires the group data")
        return _word_mod_p(data, obj, p)
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


def _word_mod_p(data: SchottkyData, word: Sequence[int], p: int) -> FpMatrix:
    gens = _int_generators(data)
    a, b, c, d = 1, 0, 0, 1
    for k in word:
        ga, gb, gc, gd = gens[k - 1]
        a, b, c, d = ((a * ga + b * gc) % p, (a * gb + b * gd) % p,
                      (c * ga + d * gc) % p, (c * gb + d * gd) % p)
    return FpMatrix(a, b, c, d, p)


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
    # shear invariant: conjugate h to [[1, x],[0,1]]; the square class of x
    # is the conjugation invariant separating the two unipotent classes
    n_c, n_d = h.c, (h.d - 1) % p
    # fixed vector v of h: kernel of the rank-1 nilpotent h - I
    if n_c != 0:
        v1, v2 = (p - (n_d * pow(n_c, p - 2, p)) % p) % p, 1
    else:
        # c = 0 with zero trace and determinant forces h = [[1, b],[0, 1]]
        v1, v2 = 1, 0
    # complete v to an SL2 basis (v, w), det(v w) = 1
    if v2 != 0:
        w1, w2 = pow(v2, p - 2, p), 0
    else:
        w1, w2 = 0, pow(v1, p - 2, p)
    det = (v1 * w2 - v2 * w1) % p
    if det != 1:
        w1, w2 = (p - w1) % p, (p - w2) % p
    # x = second column entry of conj^{-1} h conj in the (v, w) basis:
    # h w = x v + w  =>  x = det(h w - w, w-normalization) against v
    hw1 = (h.a * w1 + h.b * w2) % p
    hw2 = (h.c * w1 + h.d * w2) % p
    # solve hw = x*v + y*w; since (v,w) unimodular basis: x = det([hw, w])
    x = (hw1 * w2 - hw2 * w1) % p
    return ConjClassLabel(trace=t, kind="unipotent", sign=sign,
                          square_class=_legendre(x, p))


def group_order(p: int) -> int:
    return p * (p * p - 1)


def all_elements(p: int) -> np.ndarray:
    """(n, 4) int64 array of every SL2(F_p) element."""
    rows = []
    for a, b, c in _iproduct(range(p), repeat=3):
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


def conjugacy_partition_mod_p(elems: np.ndarray, p: int) -> np.ndarray:
    """Partition the listed SL2(F_p) elements into conjugacy orbits by brute
    force; the oracle for class_statistics.

    elems: (n, 4) int64 rows (a, b, c, d) with entries in [0, p).  Returns an
    int64 label per element; equal label means conjugate in SL2(F_p).
    """
    elems = np.ascontiguousarray(elems, dtype=np.int64)
    n = elems.shape[0]
    key = ((elems[:, 0] * p + elems[:, 1]) * p + elems[:, 2]) * p + elems[:, 3]
    order = np.argsort(key, kind="stable")
    lookup = dict(zip(key[order].tolist(), order.tolist()))
    a, b, c, d = (elems[:, i] for i in range(4))
    # inverses: [[d, -b], [-c, a]] mod p
    ia, ib, ic, id_ = d, (-b) % p, (-c) % p, a
    labels = np.full(n, -1, dtype=np.int64)
    nxt = 0
    for x in range(n):
        if labels[x] >= 0:
            continue
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
        for kk in np.unique(zkey):
            labels[lookup[int(kk)]] = nxt
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


def class_statistics(p: int, validate: Optional[bool] = None) -> dict:
    """Table label -> (class size, centralizer size); for p <= the brute
    force cap the sizes and the label partition are checked against a full
    orbit enumeration."""
    if p <= 3 or not _is_prime(p):
        raise ValueError("p must be an odd prime > 3")
    if validate is None:
        validate = p <= BRUTE_FORCE_CAP
    elems = all_elements(p)
    labels = [classify(FpMatrix(*row, p)) for row in elems.tolist()]
    table: dict[ConjClassLabel, int] = {}
    for lab in labels:
        table[lab] = table.get(lab, 0) + 1
    out = {}
    for lab, measured in sorted(table.items()):
        size = class_size(lab, p)
        if measured != size:
            raise AssertionError(f"class size mismatch for {lab}: {measured} vs {size}")
        out[lab] = (size, centralizer_size(lab, p))
    if sum(s for s, _ in out.values()) != group_order(p):
        raise AssertionError("class equation violated")
    if validate:
        part = conjugacy_partition_mod_p(elems, p)
        by_orbit: dict[int, set] = {}
        for lab, orb in zip(labels, part.tolist()):
            by_orbit.setdefault(orb, set()).add(lab)
        orbits_per_label: dict[ConjClassLabel, int] = {}
        for orb, labs in by_orbit.items():
            if len(labs) != 1:
                raise AssertionError(f"orbit {orb} carries several labels: {labs}")
            lab = next(iter(labs))
            orbits_per_label[lab] = orbits_per_label.get(lab, 0) + 1
        if any(n != 1 for n in orbits_per_label.values()):
            raise AssertionError("one label covers several brute-force orbits")
        if len(by_orbit) != len(out):
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
    T = beta * math.log(p)
    entries = []
    for c, k, t, ell in power_classes(data, T):
        g = reduce_mod_p(c, p, data=data)
        gk = g
        for _ in range(k - 1):
            gk = gk.mul(g)
        entries.append((c, k, t, classify(gk)))
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


def _pair_sum(items, weight: Callable, paired: Callable, mass: Callable) -> complex:
    total = 0.0
    for x in items:
        wx = weight(x)
        for y in items:
            if paired(x, y):
                total += mass(x, y) * wx * weight(y)
    return total


def character_average(data: SchottkyData, p: int, T: Optional[float] = None,
                      phi0: Optional[Callable] = None, beta: float = 1.5,
                      eps: float = 0.1) -> dict:
    """The averaged square S(p) = sum over irreducibles of |I(rho, T)|^2 in
    its Dirac form: a double sum over class pairs whose reductions satisfy
    C^k ~ (C'^{k'})^{-1} mod p, weighted by the centralizer size.

    Also returns the certificate (p-1) * (number of paired class pairs with
    k*length <= T*(1-eps)) as a lower bound."""
    if T is None:
        T = beta * math.log(p)
    if phi0 is None:
        phi0 = lambda x: 1.0 if abs(x) <= 1.0 else 0.0
    rows = []
    for c, k, t, ell in power_classes(data, T):
        g = reduce_mod_p(c, p, data=data)
        gk = g
        for _ in range(k - 1):
            gk = gk.mul(g)
        lab = classify(gk)
        lab_inv = classify(gk.inv())
        w = (c.length / (1.0 - math.exp(k * c.length))) * phi0(k * c.length / T)
        rows.append({"class": (c.word, k), "len": ell, "weight": w,
                     "label": lab, "label_inv": lab_inv})
    s_value = _pair_sum(
        rows,
        weight=lambda r: r["weight"],
        paired=lambda x, y: x["label"] == y["label_inv"],
        mass=lambda x, y: centralizer_size(x["label"], p))
    cut = T * (1 - eps)
    short = [r for r in rows if r["len"] <= cut]
    pair_count = sum(1 for x in short for y in short
                     if x["label"] == y["label_inv"])
    mt = trace_multiplicities(data, cut)
    return {
        "p": p, "T": T, "beta": beta, "eps": eps,
        "S": float(s_value),
        "lower_bound": (p - 1) * pair_count,
        "paired_count": pair_count,
        "classes": len(rows),
        "sum_m2_short": sum(v * v for v in mt.values()),
        "min_nontrivial_dim": (p - 1) // 2,
    }


def zero_production_report(data: SchottkyData, primes: Sequence[int],
                           delta: float, beta: float = 1.5, eps: float = 0.1,
                           sigma: float = 0.5) -> dict:
    """Experiment summary: measured growth exponent of the S(p) certificate
    across primes, reported against the two theoretical exponents
    (2*delta - 1/2 - eps)*beta and 2 + 2*(sigma + eps)*beta + eps."""
    rows = [character_average(data, p, beta=beta, eps=eps) for p in primes]
    logs_p = np.log([r["p"] for r in rows])
    logs_lb = np.log([max(r["lower_bound"], 1) for r in rows])
    fitted = float(np.polyfit(logs_p, logs_lb, 1)[0]) if len(rows) >= 2 else float("nan")
    return {
        "primes": list(primes),
        "reports": rows,
        "fitted_certificate_exponent": fitted,
        "lower_exponent": (2 * delta - 0.5 - eps) * beta,
        "upper_exponent": 2 + 2 * (sigma + eps) * beta + eps,
        "min_nontrivial_dim": [(p - 1) // 2 for p in primes],
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
    dirac = _pair_sum(
        rows,
        weight=lambda r: r[1],
        paired=lambda x, y: x[0] == y[0],
        mass=lambda x, y: N)
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
