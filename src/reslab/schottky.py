"""Schottky groups on the real line: Moebius arithmetic, disc data, reduced
words and closed-geodesic extraction.

A group is given by m generators and 2m open discs orthogonal to the real
axis, generator i mapping disc i onto the complement of the closure of disc
m+i.  Letters are 1-based: 1..m are the generators, m+1..2m their inverses.
"""

from __future__ import annotations

import json
import math
import cmath
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

__all__ = [
    "MoebiusMap",
    "Disc",
    "SchottkyData",
    "GeodesicClass",
    "ValidationReport",
    "validate",
    "words_array",
    "primitive_geodesics",
    "primitive_classes_up_to_depth",
    "log_derivative_cocycle",
    "preset",
    "load_group_json",
    "group_to_json",
]

_DET_TOL = 1e-12
# Most words primitive_geodesics lists at one depth, 2m(2m-1)^(n-1) at depth n.
MAX_DEPTH_WORDS = 2_000_000


@dataclass(frozen=True)
class MoebiusMap:
    """Real 2x2 unit-determinant matrix acting as z -> (az+b)/(cz+d)."""

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        det = self.a * self.d - self.b * self.c
        if det <= 0:
            raise ValueError(f"Moebius matrix must have positive determinant, got {det}")
        if abs(det - 1.0) > _DET_TOL:
            s = 1.0 / math.sqrt(det)
            object.__setattr__(self, "a", self.a * s)
            object.__setattr__(self, "b", self.b * s)
            object.__setattr__(self, "c", self.c * s)
            object.__setattr__(self, "d", self.d * s)

    @staticmethod
    def identity() -> "MoebiusMap":
        return MoebiusMap(1.0, 0.0, 0.0, 1.0)

    def __call__(self, z: complex) -> complex:
        den = self.c * z + self.d
        if den == 0:
            return complex("inf")
        return (self.a * z + self.b) / den

    def deriv(self, z: complex) -> complex:
        """(cz+d)^-2; never on (-inf, 0] for z off the real locus of poles."""
        return 1.0 / (self.c * z + self.d) ** 2

    def compose(self, other: "MoebiusMap") -> "MoebiusMap":
        return MoebiusMap(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "MoebiusMap":
        return MoebiusMap(self.d, -self.b, -self.c, self.a)

    @property
    def trace(self) -> float:
        return self.a + self.d

    def as_array(self) -> np.ndarray:
        return np.array([[self.a, self.b], [self.c, self.d]])

    def fixed_points(self) -> tuple[complex, complex]:
        """Roots of c z^2 + (d-a) z - b = 0 (attracting listed first)."""
        if self.c == 0:
            raise ValueError("fixed point at infinity (c = 0)")
        disc = cmath.sqrt((self.d - self.a) ** 2 + 4 * self.b * self.c)
        z1 = (self.a - self.d + disc) / (2 * self.c)
        z2 = (self.a - self.d - disc) / (2 * self.c)
        if abs(self.deriv(z1)) <= abs(self.deriv(z2)):
            return z1, z2
        return z2, z1

    def attracting_fixed_point(self) -> complex:
        return self.fixed_points()[0]


@dataclass(frozen=True)
class Disc:
    """Open Euclidean disc with real center (orthogonal to the boundary line)."""

    center: float
    radius: float

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError(f"disc radius must be positive, got {self.radius}")

    def boundary_points(self, n: int) -> np.ndarray:
        ang = 2 * np.pi * np.arange(n) / n
        return self.center + self.radius * np.exp(1j * ang)


@dataclass(frozen=True)
class SchottkyData:
    """m generators plus 2m pairwise disjoint discs; the validated input."""

    m: int
    discs: tuple[Disc, ...]
    generators: tuple[MoebiusMap, ...]
    name: str = "custom"
    integer_traces: bool = False

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if len(self.discs) != 2 * self.m:
            raise ValueError(f"expected {2 * self.m} discs, got {len(self.discs)}")
        if len(self.generators) != self.m:
            raise ValueError(f"expected {self.m} generators")

    @property
    def letters(self) -> range:
        return range(1, 2 * self.m + 1)

    def inverse_letter(self, k: int) -> int:
        return _inv(k, self.m)

    def gen(self, k: int) -> MoebiusMap:
        """Generator for 1-based letter k (inverse maps for k > m)."""
        if 1 <= k <= self.m:
            return self.generators[k - 1]
        if self.m < k <= 2 * self.m:
            return self.generators[k - self.m - 1].inverse()
        raise ValueError(f"letter out of range: {k}")

    def gens_array(self) -> np.ndarray:
        """(2m, 2, 2) float array indexed by letter-1."""
        return np.array([self.gen(k).as_array() for k in self.letters])


def _inv(k: int, m: int) -> int:
    return k + m if k <= m else k - m


@dataclass(frozen=True)
class GeodesicClass:
    """Primitive conjugacy class: canonical cyclic word, length, trace and
    homology vector."""

    word: tuple[int, ...]
    length: float
    trace: float
    homology: tuple[int, ...]

    @property
    def trace_int(self) -> int:
        t = int(round(self.trace))
        if abs(self.trace - t) > 1e-6:
            raise ValueError(f"trace {self.trace} is not an integer")
        return t


# ---------------------------------------------------------------------------
# Validation

@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    margin: float
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def summary(self) -> str:
        lines = []
        for c in self.checks:
            tag = "PASS" if c.passed else "FAIL"
            lines.append(f"[{tag}] {c.name}: margin={c.margin:.3e} {c.detail}".rstrip())
        return "\n".join(lines)


# Points sampled on each disc boundary by validate.
N_BOUNDARY = 16


def validate(data: SchottkyData) -> ValidationReport:
    """Check disc disjointness and the disc-swap condition
    gamma_i(D_i) = complement of closure(D_{m+i}).  Unit determinants and
    positive radii need no check: MoebiusMap and Disc enforce them.

    Never raises on bad geometry; every failure comes back as a structured
    check with its measured margin.
    """
    checks: list[CheckResult] = []

    gap = math.inf
    for i in range(2 * data.m):
        for j in range(i + 1, 2 * data.m):
            di, dj = data.discs[i], data.discs[j]
            g = abs(di.center - dj.center) - di.radius - dj.radius
            gap = min(gap, g)
    checks.append(CheckResult("disc_disjointness", gap > 0, gap,
                              detail="minimal gap between disc closures"))

    worst_res = 0.0
    orient_ok = True
    for i in range(1, data.m + 1):
        g = data.gen(i)
        src = data.discs[i - 1]
        dst = data.discs[data.m + i - 1]
        pts = src.boundary_points(N_BOUNDARY)
        images = np.array([g(z) for z in pts])
        res = float(np.max(np.abs(np.abs(images - dst.center) - dst.radius)))
        worst_res = max(worst_res, res)
        if abs(g(src.center) - dst.center) <= dst.radius:
            orient_ok = False
    checks.append(CheckResult("boundary_mapping", worst_res <= 1e-10, worst_res,
                              detail="max | |g(bd D_i)-c| - r | over sampled points"))
    checks.append(CheckResult("center_maps_outside", orient_ok,
                              1.0 if orient_ok else -1.0,
                              detail="gamma_i(center D_i) outside closure(D_{m+i})"))

    return ValidationReport(tuple(checks))


# ---------------------------------------------------------------------------
# Word enumeration

def words_array(m: int, n: int) -> np.ndarray:
    """(count, n) int64 array of admissible words with 0-based letters."""
    two_m = 2 * m
    cur = np.arange(two_m, dtype=np.int64)[:, None]
    for _ in range(n - 1):
        last = cur[:, -1]
        nxt = np.arange(two_m, dtype=np.int64)
        # successor letter must differ from the inverse of the last letter
        inv_last = (last + m) % two_m
        allowed = nxt[None, :] != inv_last[:, None]
        rows = np.repeat(cur, two_m - 1, axis=0)
        cols = np.broadcast_to(nxt, allowed.shape)[allowed]
        cur = np.concatenate([rows, cols[:, None]], axis=1)
    return cur


def cyclic_words_array(m: int, n: int) -> np.ndarray:
    """All cyclically admissible words of length n (0-based letters)."""
    w = words_array(m, n)
    if n == 1:
        return w
    inv_last = (w[:, -1] + m) % (2 * m)
    return w[w[:, 0] != inv_last]


def word_products(gens: np.ndarray, words: np.ndarray) -> np.ndarray:
    """Compose generator matrices along each word (vectorized over words).

    gens: (2m, 2, 2) float64, words: (nw, n) int64 with 0-based letters.
    Returns (nw, 2, 2) float64 products gens[w0] @ gens[w1] @ ... @ gens[wn-1].
    """
    gens = np.ascontiguousarray(gens, dtype=np.float64)
    words = np.ascontiguousarray(words, dtype=np.int64)
    if words.size == 0:
        return np.empty((0, 2, 2))
    out = gens[words[:, 0]].copy()
    for t in range(1, words.shape[1]):
        out = np.einsum("kij,kjl->kil", out, gens[words[:, t]])
    return out


def word_homology(m: int, letters: Sequence[int]) -> tuple[int, ...]:
    """Signed letter counts: component k counts letter k minus letter k+m."""
    h = [0] * m
    for x in letters:
        if x <= m:
            h[x - 1] += 1
        else:
            h[x - m - 1] -= 1
    return tuple(h)


def log_derivative_cocycle(data: SchottkyData, w: Sequence[int], z: complex) -> complex:
    """Sum of principal logs of single-letter derivatives along the orbit of z.

    exp(s * result) is the branch-correct complex power of the derivative of
    the composed word map at z; the last letter of w acts first.
    """
    letters = tuple(w)
    total = 0.0 + 0.0j
    point = complex(z)
    for k in reversed(letters):
        g = data.gen(k)
        d = g.deriv(point)
        if d.real <= 0 and abs(d.imag) < 1e-300:
            raise ValueError(f"derivative {d} on the branch cut at letter {k}")
        total += cmath.log(d)
        point = g(point)
    return total


# ---------------------------------------------------------------------------
# Primitive geodesic classes

def _rotation_keys(words: np.ndarray, base: int) -> np.ndarray:
    """(count, n) integer keys of all rotations of each word."""
    count, n = words.shape
    keys = np.empty((count, n), dtype=np.int64)
    for r in range(n):
        rolled = np.roll(words, -r, axis=1)
        k = np.zeros(count, dtype=np.int64)
        for t in range(n):
            k = k * base + rolled[:, t]
        keys[:, r] = k
    return keys


def _canonical_mask(words: np.ndarray, m: int) -> np.ndarray:
    """True where the word is the lexicographically least of its rotations."""
    count, n = words.shape
    if n == 1:
        return np.ones(count, dtype=bool)
    keys = _rotation_keys(words, 2 * m)
    return keys[:, 0] == keys.min(axis=1)


def _primitive_mask(words: np.ndarray, m: int) -> np.ndarray:
    """True where the word is not a power of a strictly shorter word."""
    count, n = words.shape
    mask = np.ones(count, dtype=bool)
    for d in range(1, n):
        if n % d != 0:
            continue
        rep = np.tile(words[:, :d], n // d)
        mask &= ~np.all(rep == words, axis=1)
    return mask


def _length_from_trace(tr: np.ndarray) -> np.ndarray:
    at = np.abs(tr) / 2.0
    return 2.0 * np.arccosh(np.maximum(at, 1.0))


@lru_cache(maxsize=64)
def _classes_at_depth(data: SchottkyData, n: int) -> tuple[GeodesicClass, ...]:
    """Primitive classes whose canonical word has length n."""
    w = cyclic_words_array(data.m, n)
    if w.shape[0] == 0:
        return ()
    keep = _canonical_mask(w, data.m) & _primitive_mask(w, data.m)
    w = w[keep]
    if w.shape[0] == 0:
        return ()
    mats = word_products(data.gens_array(), w)
    tr = mats[:, 0, 0] + mats[:, 1, 1]
    hyper = np.abs(tr) > 2.0 + 1e-12
    w, tr = w[hyper], tr[hyper]
    if data.integer_traces:
        tr = np.rint(tr)
    lengths = _length_from_trace(tr)
    out = []
    for row, t, ell in zip(w, tr, lengths):
        letters = tuple(int(x) + 1 for x in row)
        out.append(GeodesicClass(word=letters, length=float(ell), trace=float(t),
                                 homology=word_homology(data.m, letters)))
    out.sort(key=lambda c: (c.length, c.word))
    return tuple(out)


def primitive_classes_up_to_depth(data: SchottkyData, depth: int) -> list[GeodesicClass]:
    """One representative per primitive class with word length <= depth."""
    out: list[GeodesicClass] = []
    for n in range(1, depth + 1):
        out.extend(_classes_at_depth(data, n))
    out.sort(key=lambda c: (c.length, c.word))
    return out


@lru_cache(maxsize=64)
def _shortest_bounds(data: SchottkyData, depth: int) -> tuple[float, ...]:
    """Upper bounds on the shortest primitive class at word depths
    1..depth: the length of a^(n-1) b, primitive and cyclically reduced,
    minimised over letters a and b not in {a, a^-1} (infinite when m = 1)."""
    two_m = 2 * data.m
    pairs = [(a, b) for a in range(two_m) for b in range(two_m)
             if b != a and b != (a + data.m) % two_m]
    if not pairs:
        return (math.inf,) * depth
    a, b = np.array(pairs).T
    gens = data.gens_array()
    power = np.broadcast_to(np.eye(2), (len(pairs), 2, 2))
    out = []
    for _ in range(depth):
        mats = power @ gens[b]
        tr = mats[:, 0, 0] + mats[:, 1, 1]
        if data.integer_traces:
            tr = np.rint(tr)
        out.append(float(_length_from_trace(tr).min()))
        power = power @ gens[a]
    return tuple(out)


def primitive_geodesics(data: SchottkyData, max_length: float,
                        depth_cap: int = 24,
                        warn: Optional[list] = None) -> list[GeodesicClass]:
    """One representative per primitive conjugacy class with length(C) <=
    max_length; C and its inverse are distinct classes.

    Completeness is guaranteed by growing the word depth until the shortest
    class at a depth exceeds max_length.  If the depth cap is hit first, or
    the next depth would list more than MAX_DEPTH_WORDS words, enumeration
    stops and a warning string is appended to `warn` (when given).  A length
    that some class reaches at every depth within the cap and the budget is
    refused that way before any enumeration, with an empty list.
    """
    if max_length <= 0:
        raise ValueError("max_length must be positive")
    stop = f"word depth cap {depth_cap} reached before length {max_length}"
    depth = 0
    for n in range(1, depth_cap + 1):
        words = 2 * data.m * (2 * data.m - 1) ** (n - 1)
        if words > MAX_DEPTH_WORDS:
            stop = (f"depth {n} has {words} words, above the budget of "
                    f"{MAX_DEPTH_WORDS}, before length {max_length}")
            break
        depth = n
    out: list[GeodesicClass] = []
    if max(_shortest_bounds(data, depth), default=-math.inf) > max_length:
        for n in range(1, depth + 1):
            classes = _classes_at_depth(data, n)
            shortest = min((c.length for c in classes), default=math.inf)
            out.extend(c for c in classes if c.length <= max_length)
            if shortest > max_length:
                stop = None
                break
    if stop is not None and warn is not None:
        warn.append(stop)
    out.sort(key=lambda c: (c.length, c.word))
    return out


# ---------------------------------------------------------------------------
# Presets and JSON I/O

def _cylinder(t: float) -> SchottkyData:
    if t <= 2:
        raise ValueError("cylinder trace must exceed 2")
    ch = t / 2.0
    sh = math.sqrt(ch * ch - 1.0)
    g = MoebiusMap(ch, sh, sh, ch)
    r = 1.0 / sh
    c = ch / sh
    return SchottkyData(
        m=1,
        discs=(Disc(-c, r), Disc(c, r)),
        generators=(g,),
        name=f"cylinder({t:g})",
        integer_traces=float(t).is_integer(),
    )


def _symmetric3(t: float) -> SchottkyData:
    """Reflection-symmetric three-funnel surface: two conjugate hyperbolic
    generators of trace t with isometric discs centered at -+2coth +- coth."""
    if t <= 2:
        raise ValueError("generator trace must exceed 2")
    ch = t / 2.0
    sh = math.sqrt(ch * ch - 1.0)
    r = 1.0 / sh
    u = ch / sh  # coth of the half translation length
    shift = 2.0 * u
    base = MoebiusMap(ch, sh, sh, ch)
    tr_left = MoebiusMap(1.0, -shift, 0.0, 1.0)
    tr_right = MoebiusMap(1.0, shift, 0.0, 1.0)
    g1 = tr_left.compose(base).compose(tr_left.inverse())
    g2 = tr_right.compose(base).compose(tr_right.inverse())
    return SchottkyData(
        m=2,
        discs=(Disc(-shift - u, r), Disc(shift - u, r),
               Disc(-shift + u, r), Disc(shift + u, r)),
        generators=(g1, g2),
        name=f"symmetric3({t:g})",
    )


# Integer SL2(Z) pair with all four isometric discs of radius 1 at centers
# -4, -1, 2, 5 and gaps of 1.
_SL2Z_A = ((2, 1), (1, 1))
_SL2Z_B = ((5, 19), (1, 4))

# Four integer generators pairing unit discs at centers 0..21 with crossing
# axes (0-6, 3-21, 9-18, 12-15); the interleaved pairing thickens the limit
# set past Hausdorff dimension 1/2.
_CROSSED_MATCHING = ((0, 6), (3, 21), (9, 18), (12, 15))


def _from_integer_pair(A, B, name="sl2z-pair") -> SchottkyData:
    gens = []
    discs = []
    for M in (A, B):
        (a, b), (c, d) = M
        if a * d - b * c != 1:
            raise ValueError(f"matrix {M} is not in SL2(Z)")
        if c == 0:
            raise ValueError("generator must have c != 0 (finite isometric discs)")
        gens.append(MoebiusMap(float(a), float(b), float(c), float(d)))
        discs.append(Disc(-d / c, 1.0 / abs(c)))
    for M in (A, B):
        (a, b), (c, d) = M
        discs.append(Disc(a / c, 1.0 / abs(c)))
    return SchottkyData(m=2, discs=tuple(discs), generators=tuple(gens),
                        name=name, integer_traces=True)


def _from_matching(matching, name: str) -> SchottkyData:
    """Unit discs at integer centers u, v paired by [[v, -uv-1],[1, -u]]."""
    gens, left, right = [], [], []
    for (u, v) in matching:
        gens.append(MoebiusMap(float(v), float(-u * v - 1), 1.0, float(-u)))
        left.append(Disc(float(u), 1.0))
        right.append(Disc(float(v), 1.0))
    return SchottkyData(m=len(matching), discs=tuple(left + right),
                        generators=tuple(gens), name=name, integer_traces=True)


def preset(name: str, **kwargs) -> SchottkyData:
    """Shipped group presets: cylinder(t), symmetric3(t), sl2z-pair(A, B),
    sl2z-crossed."""
    if name == "cylinder":
        return _cylinder(kwargs.get("t", 3.0))
    if name == "symmetric3":
        return _symmetric3(kwargs.get("t", 6.0))
    if name in ("sl2z-pair", "sl2z_pair"):
        A = kwargs.get("A", _SL2Z_A)
        B = kwargs.get("B", _SL2Z_B)
        return _from_integer_pair(A, B)
    if name in ("sl2z-crossed", "sl2z_crossed"):
        return _from_matching(_CROSSED_MATCHING, "sl2z-crossed")
    raise ValueError(f"unknown preset: {name}")


def load_group_json(obj) -> SchottkyData:
    """Read the JSON group schema: either {"preset": name, ...options} or
    explicit {"m", "discs", "generators"}."""
    if isinstance(obj, str):
        obj = json.loads(obj)
    if "preset" in obj:
        opts = {k: v for k, v in obj.items() if k != "preset"}
        return preset(obj["preset"], **opts)
    m = int(obj["m"])
    discs = tuple(Disc(float(d["center"]), float(d["radius"])) for d in obj["discs"])
    gens = tuple(MoebiusMap(float(g[0][0]), float(g[0][1]), float(g[1][0]), float(g[1][1]))
                 for g in obj["generators"])
    arr = np.array([[[g.a, g.b], [g.c, g.d]] for g in gens])
    integer = bool(np.max(np.abs(arr - np.rint(arr))) < 1e-9) if len(gens) else False
    return SchottkyData(m=m, discs=discs, generators=gens, integer_traces=integer)


def group_to_json(data: SchottkyData) -> dict:
    return {
        "m": data.m,
        "discs": [{"center": d.center, "radius": d.radius} for d in data.discs],
        "generators": [[[g.a, g.b], [g.c, g.d]] for g in data.generators],
    }
