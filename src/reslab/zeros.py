"""Euler-product oracle for twisted L-functions, argument-principle zero counting
in rectangles, secant refinement, and resonance sets from contour moments."""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, product
from typing import Callable, Optional, Sequence

import numpy as np

from . import schottky as sk
from . import thermo, transfer
from .transfer import TwistSpec

__all__ = ["ResonanceSet", "ContourError", "euler_product", "count_zeros", "refine_zero",
           "resonances", "make_det"]

EULER_MARGIN = 0.1
CONTOUR_MIN_MODULUS = 1e-6
NEWTON_TOL = 1e-10
REFINE_MAX_DETS = 150
# Chebyshev-Lobatto nodes per edge at the first level and the last (the
# levels double: 8, 16, ..., 1,024); Gauss-Legendre nodes per panel of the
# moments
FIRST_NODES, MAX_NODES, PANEL_NODES = 8, 1024, 6
# resonances: the least half-side of the box placing a multiple zero and the
# smallest box split; the margin round the rectangle; where a box is split
MIN_CELL, PAD, SPLIT = 1e-3, 1e-3, 0.45


class ContourError(RuntimeError):
    """Raised when the contour passes too close to a zero, or when winding
    counts contradict each other."""

    def __init__(self, point: complex, modulus: float, message: Optional[str] = None):
        super().__init__(message or
                         f"contour too close to zero at {point} (|det|={modulus:.3e})")
        self.point = point
        self.modulus = modulus


@dataclass(frozen=True)
class ResonanceSet:
    rectangle: tuple[float, float, float, float]
    zeros: tuple[tuple[complex, int], ...]
    contour_count: int
    residuals: tuple[float, ...]
    unresolved: tuple[tuple[float, float, float, float], ...] = ()

    @property
    def total_multiplicity(self) -> int:
        return sum(mult for _, mult in self.zeros)


@lru_cache(maxsize=32)
def _delta_of(data: sk.SchottkyData, lmax: int) -> float:
    """The critical exponent at the default tolerance, once per (group, lmax).

    Call it positionally: the cache keys on how the arguments are passed."""
    return thermo.critical_exponent(data, lmax)


def euler_product(data: sk.SchottkyData, s: complex, twist: TwistSpec,
                  max_word_len: int = 8, kmax: int = 60,
                  delta: Optional[float] = None) -> complex:
    """Truncated product over primitive classes C and shifts k of
    det(I - rho(C) e^{-(s+k) l(C)}); valid only right of the critical line."""
    if delta is None:
        delta = _delta_of(data, thermo.DEFAULT_LMAX)
    if s.real <= delta + EULER_MARGIN:
        raise ValueError(
            f"euler_product requires Re(s) > delta + {EULER_MARGIN} "
            f"(Re(s)={s.real}, delta={delta})")
    classes = sk.primitive_classes_up_to_depth(data, max_word_len)
    umats = twist.letter_matrices(data.m)
    total = 0.0 + 0.0j  # accumulate log of the product
    for c in classes:
        if twist.dim == 1:
            lam = np.array([complex(np.prod([umats[k - 1][0, 0] for k in c.word]))])
        else:
            u = np.eye(twist.dim, dtype=complex)
            for k in c.word:
                u = u @ umats[k - 1]
            lam = np.linalg.eigvals(u)
        for k in range(kmax + 1):
            q = np.exp(-(s + k) * c.length)
            if np.max(np.abs(lam * q)) < 1e-18:
                break
            total += np.sum(np.log1p(-lam * q))
    return complex(np.exp(total))


def make_det(data: sk.SchottkyData, twist: TwistSpec, lmax: int = 16) -> Callable:
    """Cached evaluator of s -> det(I - L_{rho,s}) at the given truncation,
    kept as a row of factors: det.factors(s) is the row, a tuple, and
    det(s) its product, multiplied left to right, which is the only place
    factors are multiplied.  The trivial twist has one factor per sector
    (`transfer.assemble` with sectors=True; one sector without the disc
    involution).  Any other twist lifts the untwisted matrix at s by letter
    unitaries built once per closure (`transfer._lift`), one LU and one
    factor per character: a regular twist of Z/N_1 x ... x Z/N_m has the
    characters theta = alpha/N, an abelian or matrix twist one.

    Its method many(points) fills the cache in the fewest equal engine
    passes of at most twice `transfer._batch` values of s (fewer by d^2 for
    a d x d matrix twist), and returns the rows at the points; det(s) is
    many((s,)) on a cache miss.  Each value is the same in any batch."""
    cache: dict[complex, tuple[complex, tuple[complex, ...]]] = {}
    if twist.kind == "trivial":
        step = transfer._batch(data, lmax, sectors=True)

        def values(batch: np.ndarray) -> np.ndarray:
            return transfer.fredholm_det(
                transfer.assemble(data, batch, twist, lmax, sectors=True))
    else:
        if twist.kind == "regular":
            if len(twist.moduli) != data.m:
                raise ValueError(f"moduli must have dimension m={data.m}")
            alphas = np.array(list(product(*[range(n) for n in twist.moduli])))
            characters = transfer._character_letters(alphas / np.array(twist.moduli))
        else:
            characters = twist.letter_matrices(data.m)[None]
        step = max(1, transfer._batch(data, lmax, sectors=False) // characters.shape[-1] ** 2)

        def values(batch: np.ndarray) -> np.ndarray:
            base = transfer.assemble(data, batch, TwistSpec.trivial(), lmax)
            return np.concatenate([transfer.fredholm_det(transfer._lift(base, letters))
                                   for letters in characters], axis=1)

    def many(points) -> list[tuple[complex, ...]]:
        points = list(map(complex, points))
        todo = [s for s in dict.fromkeys(points) if s not in cache]
        size = -(-len(todo) // max(1, -(-len(todo) // (2 * step)))) or 1
        for first in range(0, len(todo), size):
            batch = todo[first:first + size]
            rows = map(tuple, values(np.array(batch)).tolist())
            cache.update((s, (math.prod(row), row)) for s, row in zip(batch, rows))
        return [cache[s][1] for s in points]

    def det(s: complex) -> complex:
        s = complex(s)
        if s not in cache:
            many((s,))
        return cache[s][0]

    det.many = many
    det.factors = lambda s: many((s,))[0]
    return det


@lru_cache(maxsize=None)
def _nodes(n: int) -> np.ndarray:
    """The n + 1 Chebyshev-Lobatto points of [-1, 1], increasing, exactly odd."""
    return np.sin(np.pi * np.arange(-n, n + 1, 2) / (2 * n))


def _vander(x: np.ndarray, n: int, slope: bool = False) -> np.ndarray:
    """T_0..T_n at the points x of [-1, 1], a row per point, or their
    derivatives k sin(kt) / sin(t), x = cos(t), k^2 (+-1)^(k+1) at +-1."""
    t, k, ends = np.arccos(np.clip(x, -1.0, 1.0)), np.arange(n + 1), np.abs(x) >= 1.0
    if not slope:
        return np.cos(np.multiply.outer(t, k))
    with np.errstate(all="ignore"):
        out = k * np.sin(np.multiply.outer(t, k)) / np.sin(t)[:, None]
    out[ends] = k ** 2 * np.sign(x[ends])[:, None] ** (k + 1)
    return out


@lru_cache(maxsize=None)
def _interpolation(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 2n + 1 points where the walk of a degree-n interpolant starts,
    their gaps, and the matrix from its values on the n + 1 nodes to its
    Chebyshev coefficients, its values and its derivatives at the points."""
    j, x = np.arange(n + 1), _nodes(2 * n)
    halves = np.where(j % n, 1.0, 0.5)
    dct = np.cos(np.pi * np.outer(j, n - j) / n) * np.outer(halves, halves) * (2.0 / n)
    return x, np.diff(x)[:, None, None], np.r_[dct, _vander(x, n) @ dct, _vander(x, n, True) @ dct]


# The interpolants p of det's factors on s = mid + half x, x in [-1, 1] (coef[k,
# f] multiplies T_k in p_f), and the walk of p: its points, each factor's turn.
_Edge = namedtuple("_Edge", "mid half coef xs turn")


def _steps(width: np.ndarray, ps: np.ndarray, dps: np.ndarray):
    """Phase steps of p between points width apart (p, dp/dx = ps, dps) and
    their coarseness: the step over pi/4, or |p'/p| at an end times the width
    if more (k zeros by a step's middle make that about 2k, their phase not)."""
    with np.errstate(all="ignore"):
        ratio, reach = ps[1:] / ps[:-1], np.abs(dps / ps)
    steps, reach = np.arctan2(ratio.imag, ratio.real), np.maximum(reach[1:], reach[:-1])
    return steps, np.maximum(np.abs(steps) * (4 / math.pi), reach * width)


def _walk(coef: np.ndarray, xs: np.ndarray, ps: np.ndarray, dps: np.ndarray):
    """The walk of p through xs: midpoints go into steps of coarseness 1 or
    more until none is left, |prod p| < CONTOUR_MIN_MODULUS or such a step
    is 2^-40 wide.  Returns xs, p, the steps and whether all are fine."""
    while True:
        steps, coarse = _steps(np.abs(np.diff(xs))[:, None], ps, dps)
        bad = np.flatnonzero(coarse.max(axis=1) >= 1)
        if (not len(bad) or np.abs(ps).prod(axis=1).min() < CONTOUR_MIN_MODULUS
                or np.abs(xs[bad + 1] - xs[bad]).min() < 2.0 ** -40):
            return xs, ps, steps, not len(bad)
        mids = (xs[bad] + xs[bad + 1]) / 2
        xs = np.insert(xs, bad + 1, mids)
        ps, dps = (np.insert(a, bad + 1, _vander(mids, len(coef) - 1, d) @ coef, axis=0)
                   for a, d in ((ps, False), (dps, True)))


def _edges(det: Callable, segments: Sequence[tuple[complex, complex]]) -> list[_Edge]:
    """An `_Edge` of det's factors (rows from det.many, else det.factors; a
    plain callable is one) on each segment, each starting where the one
    before ends, from nested Chebyshev-Lobatto points (n + 1, ends exact,
    n = FIRST_NODES doubled per level up to MAX_NODES; one det.many call
    per level, then det(s) once per point).  A segment is done once the
    sum of the last max(4, n/8) of every p_f's n + 1 coefficients is below
    a quarter of min|p_f| on the walk of p.  |det| < CONTOUR_MIN_MODULUS, p passing
    that and as close to 0, or a segment open at MAX_NODES: ContourError."""
    mid, half = [(a + b) / 2 for a, b in segments], [(b - a) / 2 for a, b in segments]
    n, todo, values, done = FIRST_NODES, list(range(len(segments))), None, [None] * len(segments)
    # the first level goes once round; segment e's nodes are points[where[:, e]]
    points = [s for (a, _), m, h in zip(segments, mid, half)
              for s in (a, *[m + h * x for x in _nodes(n)[1:-1].tolist()])]
    points += [segments[-1][1]] if segments[-1][1] != segments[0][0] else []
    where = np.add.outer(np.arange(n + 1), np.arange(len(segments)) * n) % len(points)
    while True:
        rows = det.many(points) if hasattr(det, "many") else None
        dets = list(map(det, points))
        if min(map(abs, dets)) < CONTOUR_MIN_MODULUS:
            k = next(k for k, v in enumerate(dets) if abs(v) < CONTOUR_MIN_MODULUS)
            raise ContourError(points[k], abs(dets[k]))
        rows = rows or (map(det.factors, points) if hasattr(det, "factors") else zip(dets))
        rows = np.fromiter(chain.from_iterable(rows), complex).reshape(len(points), -1)
        if values is None:  # values[node, segment, factor]
            values = rows[where]
        else:  # the new nodes go between the old ones
            values, old = np.empty((n + 1, len(todo), rows.shape[1]), complex), values
            values[::2], values[1::2] = old, rows.reshape(len(todo), n // 2, -1).swapaxes(0, 1)
        x, width, matrix = _interpolation(n)
        both = (matrix @ values.reshape(n + 1, -1).view(float)).view(complex)
        both = both.reshape(-1, *values.shape[1:])
        coef, ps, dps = both[:n + 1], both[n + 1:3 * n + 2], both[3 * n + 2:]
        steps, coarse = _steps(width, ps, dps)
        tails = (4 * np.abs(coef[-max(4, n // 8):]).sum(axis=0)).tolist()
        lows, turns = np.abs(ps).min(axis=0).tolist(), steps.sum(axis=0)
        for j, (e, tail, low, worst) in enumerate(zip(todo, tails, lows, coarse.max(axis=(0, 2)))):
            if not all(map(float.__lt__, tail, low)):
                continue
            xs, p, turn, fine = x, ps[:, j], turns[j], worst < 1
            if not fine:
                xs, p, st, fine = _walk(coef[:, j], x, p, dps[:, j])
                turn, low = st.sum(axis=0), np.abs(p).min(axis=0).tolist()
                if not all(map(float.__lt__, tail, low)):
                    continue
            # the product of the factors' minima bounds the minimum of their product
            size = np.abs(p).prod(axis=1) if math.prod(low) < CONTOUR_MIN_MODULUS else [1]
            if min(size) < CONTOUR_MIN_MODULUS:
                raise ContourError(mid[e] + half[e] * float(xs[np.argmin(size)]), min(size))
            if fine:
                done[e] = _Edge(mid[e], half[e], coef[:, j], xs, turn)
        keep = [j for j, e in enumerate(todo) if done[e] is None]
        if not keep:
            return done
        if 2 * n > MAX_NODES:
            e, size = todo[keep[0]], np.abs(values[:, keep[0]]).prod(axis=1)
            raise ContourError(mid[e] + half[e] * float(_nodes(n)[np.argmin(size)]), size.min(),
                               f"no interpolant of {n} nodes resolves the edge {segments[e]}")
        todo, values, n = [todo[j] for j in keep], values[:, keep].copy(), 2 * n
        points = [mid[e] + half[e] * x for e in todo for x in _nodes(n)[1::2].tolist()]


def _sides(det: Callable, rect) -> list:
    """The sides of a rectangle, counterclockwise, as pieces (edge, x from, x to)."""
    c = [complex(rect[i], rect[j]) for i, j in ((0, 2), (1, 2), (1, 3), (0, 3))]
    return [(e, -1.0, 1.0) for e in _edges(det, list(zip(c, c[1:] + c[:1])))]


def _walked(pieces) -> list:
    """(edge, points, each factor's turn) of the walk along each piece,
    from its own 2n + 1 points; a piece not walked raises ContourError."""
    out = []
    for edge, xa, xb in pieces:
        if (xa, xb) == (-1.0, 1.0):
            out.append((edge, edge.xs, edge.turn))
            continue
        n = len(edge.coef) - 1
        xs = xa + (xb - xa) * (_nodes(2 * n) + 1) / 2
        xs, ps, steps, fine = _walk(edge.coef, xs, *(_vander(xs, n, d) @ edge.coef
                                                     for d in (False, True)))
        if not fine:
            size = np.abs(ps).prod(axis=1)
            raise ContourError(edge.mid + edge.half * float(xs[np.argmin(size)]), size.min())
        out.append((edge, xs, steps.sum(axis=0)))
    return out


def _winding(walks) -> int:
    """The zeros inside a closed chain of walks: the factors' whole turns."""
    return sum(round(t / (2 * math.pi)) for t in sum(turn for _, _, turn in walks).tolist())


@lru_cache(maxsize=1)
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    from numpy.polynomial.legendre import leggauss  # about 3 ms, on first use
    return leggauss(PANEL_NODES)


def _moments(walks, origin: complex, scale: float, kmax: int):
    """Moments s_k, k <= kmax, the sums of w^k = ((s - origin) / scale)^k
    over the zeros inside a closed chain of walks: the integrals of w^k
    p_f'/p_f / (2 pi i) over the factors f, a Gauss-Legendre panel a walk
    step; and their error estimate, the most one moves when the
    interpolants drop their last two coefficients."""
    t, weights = _gauss_legendre()
    moments = np.zeros((kmax + 1, 2), dtype=complex)
    for edge, xs, _ in walks:
        centre, width = (xs[1:] + xs[:-1])[:, None] / 2, (xs[1:] - xs[:-1])[:, None] / 2
        x, n = (centre + width * t).ravel(), len(edge.coef) - 1
        coef = np.hstack([edge.coef, edge.coef * (np.arange(n + 1) < n - 1)[:, None]])
        dlog = ((_vander(x, n, True) @ coef) / (_vander(x, n) @ coef)).reshape(len(x), 2, -1)
        w = np.vander((edge.mid + edge.half * x - origin) / scale, kmax + 1, increasing=True)
        moments += w.T @ (dlog.sum(axis=2) * (width * weights).reshape(-1, 1))
    moments /= 2j * math.pi
    return moments[:, 0], float(np.abs(moments[:, 0] - moments[:, 1]).max())


def _hankel(moments: np.ndarray, count: int, tol: float):
    """Distinct zeros (in w) from s_0..s_{2N-1}, N = count: r of them, as
    many as H_0's singular values above tol (H_j the Hankel matrices of
    s_{i+j}), the eigenvalues of H_0^-1 H_1 r x r, with Vandermonde weights
    on s_0..s_{r-1}; None unless those lie within 1/4 of integers >= 1 summing to N."""
    index = np.add.outer(np.arange(count), np.arange(count))
    with np.errstate(all="ignore"):
        try:
            r = int(np.sum(np.linalg.svd(moments[index], compute_uv=False) > tol))
            index = index[:r, :r]
            points = np.linalg.eigvals(np.linalg.solve(moments[index], moments[index + 1]))
            weights = np.linalg.solve(np.vander(points, r, increasing=True).T, moments[:r])
        except np.linalg.LinAlgError:
            return None
    mults = np.round(weights.real)
    if r < 1 or mults.min() < 1 or np.abs(weights - mults).max() >= 0.25 or mults.sum() != count:
        return None
    return [(w, int(m)) for w, m in zip(points, mults)]


def _located(walks, count: int, rect):
    """The Hankel step on a box's moments about its centre, in units of its
    half-diagonal, as [(s, multiplicity)] or None, and their error estimate
    in s; N times it, at least 1e-10, bounds its move of H_0's singular values."""
    x0, x1, y0, y1 = rect
    origin, scale = complex(x0 + x1, y0 + y1) / 2, math.hypot(x1 - x0, y1 - y0) / 2
    moments, error = _moments(walks, origin, scale, 2 * count - 1)
    found = _hankel(moments, count, count * max(error, 1e-10))
    return found and [(origin + scale * w, m) for w, m in found], error * scale


def count_zeros(data: sk.SchottkyData, twist: TwistSpec, rectangle,
                lmax: int = 16, det: Optional[Callable] = None) -> int:
    """Number of zeros (with multiplicity) of det(I - L_{rho,s}) inside the
    rectangle (re_min, re_max, im_min, im_max), by the argument principle
    on the interpolants of its sides, from FIRST_NODES nodes an edge,
    doubled until the interpolant's coefficient tail is below ¼ of min|p|
    on every edge (`_edges`)."""
    return _winding(_walked(_sides(det or make_det(data, twist, lmax), rectangle)))


def refine_zero(data: sk.SchottkyData, twist: TwistSpec, s0: complex,
                lmax: int = 16, det: Optional[Callable] = None) -> tuple[complex, float, bool]:
    """Secant iteration on det from s0 and s0 + 1e-6, a determinant a step,
    at most REFINE_MAX_DETS, steps capped at modulus 1, for a simple zero
    (into a multiple one it crawls).  Returns (s, |det(s)|, converged)."""
    det = det or make_det(data, twist, lmax)
    a, s = complex(s0), complex(s0) + 1e-6
    fa, v = det(a), det(s)
    for _ in range(REFINE_MAX_DETS):
        if v == fa:
            break
        step = v * (s - a) / (v - fa)
        if abs(step) > 1.0:
            step *= 1.0 / abs(step)
        a, fa, s = s, v, s - step
        v = det(s)
        if abs(fa) < NEWTON_TOL and abs(step) < 1e-9:
            return s, abs(v), True
    return s, abs(v), abs(v) < NEWTON_TOL


def resonances(data: sk.SchottkyData, twist: TwistSpec, rectangle,
               lmax: int = 16, det: Optional[Callable] = None) -> ResonanceSet:
    """The zeros of det(I - L_{rho,s}) in the rectangle (padded by PAD: the
    cylinder lattice starts on Im(s) = 0), with multiplicities, by real part
    rounded to 1e-9 and then imaginary part, on one path: a box's count N
    and moments s_0..s_{2N-1} come from its sides' interpolants, a
    rank-revealing Hankel step gives its distinct zeros (`_located`), a
    simple zero is polished by `refine_zero`, a multiple one placed by that
    step on a box round its estimate (of half-side MIN_CELL, or the
    estimate's error if more, under half the gap to the next), which must
    find it alone.  A box failing a check is split at SPLIT across its
    longer side, off the centre so as not to cut along real zeros; the
    split line is one more edge, the halves' counts must add up, and below
    MIN_CELL it raises ContourError.  `unresolved` is always empty."""
    det = det or make_det(data, twist, lmax)
    found: list[tuple[complex, int, float]] = []

    def polished(rect, walks, count):
        """[(zero, multiplicity, residual)] of one box, or None."""
        estimates, error = _located(walks, count, rect)
        out: list[tuple[complex, int, float]] = []
        for k, (s, mult) in enumerate(estimates or ()):
            if mult == 1:
                s, res, ok = refine_zero(data, twist, s, det=det)
            else:
                h = min([max(MIN_CELL, error)] + [abs(s - p) / 2 for j, (p, _) in
                                                   enumerate(estimates) if j != k])
                small = (s.real - h, s.real + h, s.imag - h, s.imag + h)
                try:
                    near = _walked(_sides(det, small))
                    one = _winding(near) == mult and _located(near, mult, small)[0]
                except ContourError:
                    one = None
                ok = bool(one) and len(one) == 1
                s, res = (one[0][0], abs(det(one[0][0]))) if ok else (s, math.inf)
            if (not ok or not (rect[0] < s.real < rect[1] and rect[2] < s.imag < rect[3])
                    or any(abs(s - z) < 1e-6 for z, _, _ in out)):
                return None
            out.append((complex(s), mult, res))
        return out if estimates else None

    def solve(rect, sides):
        """Add the zeros in one box to found; returns their count."""
        walks = _walked(sides)
        count, (rx0, rx1, ry0, ry1) = _winding(walks), rect
        if count < 0:
            raise ContourError(complex(rx0 + rx1, ry0 + ry1) / 2, math.nan,
                               f"negative zero count {count} in {rect}")
        out = polished(rect, walks, count) if count else []
        if out is not None:
            found.extend(out)
            return count
        if max(rx1 - rx0, ry1 - ry0) < MIN_CELL:
            raise ContourError(complex(rx0 + rx1, ry0 + ry1) / 2, math.nan,
                               f"the zeros in {rect} are not resolved")
        # split sides i and i + 2, at SPLIT along side i, which runs the other way
        i = int(rx1 - rx0 < ry1 - ry0)
        pos = rect[2 * i] + SPLIT * (rect[2 * i + 1] - rect[2 * i])
        boxes = [list(rect), list(rect)]
        boxes[0][2 * i + 1] = boxes[1][2 * i] = pos
        line, = _edges(det, [(complex(pos, ry0), complex(pos, ry1)) if i == 0 else
                             (complex(rx1, pos), complex(rx0, pos))])
        (e, xa, xb), (f, ya, yb) = sides[i], sides[i + 2]
        xm, ym = xa + SPLIT * (xb - xa), yb + SPLIT * (ya - yb)
        first, second = list(sides), list(sides)
        first[i], first[i + 1], first[i + 2] = (e, xa, xm), (line, -1.0, 1.0), (f, ym, yb)
        second[i], second[i + 2], second[i - 1] = (e, xm, xb), (f, ya, ym), (line, 1.0, -1.0)
        if solve(tuple(boxes[0]), first) + solve(tuple(boxes[1]), second) != count:
            raise ContourError(complex(rx0 + rx1, ry0 + ry1) / 2, math.nan,
                               f"the zero counts of the halves of {rect} do not add up")
        return count

    x0, x1, y0, y1 = (float(v) for v in rectangle)
    total = solve((x0 - PAD, x1 + PAD, y0 - PAD, y1 + PAD),
                  _sides(det, (x0 - PAD, x1 + PAD, y0 - PAD, y1 + PAD)))
    # real parts on one vertical line differ by rounding noise: sort on them
    # to the secant's step tolerance
    found.sort(key=lambda f: (round(f[0].real, 9), f[0].imag))
    return ResonanceSet(rectangle=(x0, x1, y0, y1), zeros=tuple((s, m) for s, m, _ in found),
                        contour_count=total, residuals=tuple(r for _, _, r in found))
