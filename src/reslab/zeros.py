"""Euler-product oracle for twisted L-functions, argument-principle zero
counting in rectangles, secant refinement, and resonance sets located from
the contour moments of those counts."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, product
from typing import Callable, Optional, Sequence

import numpy as np

from . import schottky as sk
from . import thermo, transfer
from .transfer import TwistSpec

__all__ = [
    "ResonanceSet",
    "ContourError",
    "euler_product",
    "count_zeros",
    "refine_zero",
    "resonances",
    "make_det",
]

EULER_MARGIN = 0.1
CONTOUR_MIN_MODULUS = 1e-6
NEWTON_TOL = 1e-10
REFINE_MAX_DETS = 150
# _winding: the fixed subdivision of each edge, and the most halvings of one
# of its segments.
BASE_SEGMENTS = 16
MAX_DEPTH = 48
# resonances: the side below which a cell is refined without splitting (also
# the half-side of the box whose first moment places a multiple zero), and
# the margin added around the requested rectangle.
MIN_CELL = 1e-3
PAD = 1e-3


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

    Its method many(points) fills the cache at every new point in engine
    passes of up to `transfer._batch` values of s (fewer by d^2 for a d x d
    matrix twist, whose lifted stack is then no larger); det(s) is
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

    def many(points) -> None:
        todo = [s for s in dict.fromkeys(map(complex, points)) if s not in cache]
        for first in range(0, len(todo), step):
            batch = todo[first:first + step]
            rows = map(tuple, values(np.array(batch)).tolist())
            cache.update((s, (math.prod(row), row)) for s, row in zip(batch, rows))

    def det(s: complex) -> complex:
        s = complex(s)
        if s not in cache:
            many((s,))
        return cache[s][0]

    def factors(s: complex) -> tuple[complex, ...]:
        s = complex(s)
        if s not in cache:
            many((s,))
        return cache[s][1]

    det.many = many
    det.factors = factors
    return det


def _winding(det: Callable, corners: Sequence[complex]):
    """Winding number of det along the closed polygon through corners: the
    sum of the integer windings of det's factors (det.factors(s); a plain
    callable is one factor), each by phase accumulation.  A zero of one
    factor turns only that factor's phase, so a segment is halved while
    any factor's phase step along it is pi/2 or more.  Each edge starts
    from a fixed base subdivision, since the pi/2 criterion alone cannot
    see a full phase turn between two in-phase samples.  A det with a
    many(points) method (every `make_det` closure) takes the base nodes of
    all edges first in batched passes.  det(s) is asked once per point, in
    the same order with or without many: the base nodes, edge by edge, then
    the halvings of each flagged segment, depth first; a point closer to a
    zero than CONTOUR_MIN_MODULUS raises ContourError.  The base steps are
    one array operation over the (nodes, factors) rows.

    Returns the winding number, the base nodes round the contour, det at
    each, and each factor's phase after each base segment, unwrapped from
    corners[0].
    """
    factors = getattr(det, "factors", None)

    def seg_phase(a: complex, b: complex, ra, rb, depth: int):
        d = np.angle(np.divide(rb, ra))
        if np.all(np.abs(d) < math.pi / 2):
            return d
        mid = (a + b) / 2
        if depth >= MAX_DEPTH:
            raise ContourError(mid, abs(np.prod(ra)))
        v = det(mid)
        if abs(v) < CONTOUR_MIN_MODULUS:
            raise ContourError(mid, abs(v))
        rm = v if factors is None else factors(mid)
        return seg_phase(a, mid, ra, rm, depth + 1) + seg_phase(mid, b, rm, rb, depth + 1)

    ring = [a + (b - a) * t / BASE_SEGMENTS for a, b in zip(corners, [*corners[1:], corners[0]])
            for t in range(BASE_SEGMENTS)]
    if hasattr(det, "many"):
        det.many(ring)
    values = np.fromiter(map(det, ring), complex, len(ring))
    small = np.flatnonzero(np.abs(values) < CONTOUR_MIN_MODULUS)
    if len(small):
        raise ContourError(ring[small[0]], abs(values[small[0]]))
    ring.append(ring[0])
    rows = (np.append(values, values[0])[:, None] if factors is None else
            np.fromiter(chain.from_iterable(map(factors, ring)), complex).reshape(len(ring), -1))
    steps = np.angle(rows[1:] / rows[:-1])
    flagged = np.abs(steps) >= math.pi / 2
    for k in np.flatnonzero(flagged.any(axis=1)) if flagged.any() else ():
        steps[k] = seg_phase(ring[k], ring[k + 1], rows[k], rows[k + 1], 0)
    turned = np.cumsum(steps, axis=0)  # each factor's phase, unwrapped from corners[0]
    return sum(round(w / (2 * math.pi)) for w in turned[-1].tolist()), ring, values, turned


# composite Simpson weights on the base nodes of an edge of unit length
_SIMPSON = (np.array([1.0] + [4.0, 2.0] * (BASE_SEGMENTS // 2 - 1) + [4.0, 1.0])
            / (3 * BASE_SEGMENTS))


def _moments(walk, origin: complex, scale: float, kmax: int) -> np.ndarray:
    """Moments s_0..s_kmax of the zeros inside a walked contour: s_k is
    the sum of w^k over them, with multiplicity, where w = (s - origin) /
    scale.  By parts, s_k = N w_0^k - (k / 2 pi i) times the contour
    integral of w^(k-1) Log det dw, with N the winding count, w_0 the first
    corner and Log det = log|det| + i times the walk's unwrapped phase, so
    only the walk's base-node values are used: each edge by composite
    Simpson on its base nodes."""
    count, nodes, values, turned = walk
    edges = np.add.outer(np.arange(0, len(values), BASE_SEGMENTS), np.arange(BASE_SEGMENTS + 1))
    w = (np.array(nodes)[edges] - origin) / scale
    phases = np.append(0.0, turned.sum(axis=1))
    logf = (np.log(np.abs(np.append(values, values[0]))) + 1j * phases)[edges]
    k = np.arange(1, kmax + 1)
    powers = w[..., None] ** (k - 1)
    integrals = np.einsum("e,t,etk,et->k", w[:, -1] - w[:, 0], _SIMPSON, powers, logf)
    moments = np.empty(kmax + 1, dtype=complex)
    moments[0] = count
    moments[1:] = count * w[0, 0] ** k - k * integrals / (2j * math.pi)
    return moments


def _hankel(moments: np.ndarray, count: int):
    """Distinct zeros (in the moments' w) and their multiplicities from
    s_0..s_{2N-1}, N = count: the eigenvalues of H_0^-1 H_1, H_j the N x N
    Hankel matrix of s_{i+j}, then the Vandermonde solve for their weights.
    Points of weight below 1/4 (or not finite) are spurious and dropped.
    None unless the moments reach s_{2N-1}, every other weight lies within
    1/4 of a positive integer and those integers sum to N."""
    if len(moments) < 2 * count:
        return None
    index = np.add.outer(np.arange(count), np.arange(count))
    with np.errstate(all="ignore"):
        try:
            points = np.linalg.eigvals(np.linalg.solve(moments[index], moments[index + 1]))
            weights = np.linalg.solve(np.vander(points, count, increasing=True).T,
                                      moments[:count])
        except np.linalg.LinAlgError:
            return None
    keep = np.abs(weights) >= 0.25
    mults = np.round(weights.real[keep])
    if (np.any(mults < 1) or np.any(np.abs(weights[keep] - mults) >= 0.25)
            or mults.sum() != count):
        return None
    return [(w, int(m)) for w, m in zip(points[keep], mults)]


def _rect_corners(rect) -> list[complex]:
    x0, x1, y0, y1 = rect
    return [complex(x0, y0), complex(x1, y0), complex(x1, y1), complex(x0, y1)]


def count_zeros(data: sk.SchottkyData, twist: TwistSpec, rectangle,
                lmax: int = 16, det: Optional[Callable] = None) -> int:
    """Number of zeros (with multiplicity) of det(I - L_{rho,s}) inside the
    rectangle (re_min, re_max, im_min, im_max), by the argument principle."""
    if det is None:
        det = make_det(data, twist, lmax)
    return _winding(det, _rect_corners(rectangle))[0]


def refine_zero(data: sk.SchottkyData, twist: TwistSpec, s0: complex,
                lmax: int = 16, det: Optional[Callable] = None,
                mult: int = 1) -> tuple[complex, float, bool]:
    """Secant iteration on det from the starts s0 and s0 + 1e-6, one
    determinant per step and at most REFINE_MAX_DETS steps.

    For a zero of known multiplicity the step is scaled by mult; otherwise
    the iteration crawls linearly into a multiple zero and stalls short of
    locating it precisely. Steps are capped at modulus 1.
    Returns (s, |det(s)|, converged)."""
    if det is None:
        det = make_det(data, twist, lmax)
    a = complex(s0)
    s = a + 1e-6
    fa, v = det(a), det(s)
    converged = False
    for _ in range(REFINE_MAX_DETS):
        if v == fa:
            break
        step = max(1, mult) * v * (s - a) / (v - fa)
        if abs(step) > 1.0:
            step *= 1.0 / abs(step)
        a, fa = s, v
        s = s - step
        v = det(s)
        if abs(fa) < NEWTON_TOL and abs(step) < 1e-9:
            converged = True
            break
    return s, abs(v), converged or abs(v) < NEWTON_TOL


def _split_positions(lo: float, hi: float):
    """Deterministic split candidates, off-center jitters as fallbacks."""
    for frac in (0.5, 0.5 + 0.5 / 1.618, 0.5 - 0.5 / 1.618, 0.382, 0.618):
        yield lo + frac * (hi - lo)


def resonances(data: sk.SchottkyData, twist: TwistSpec, rectangle,
               lmax: int = 16, det: Optional[Callable] = None) -> ResonanceSet:
    """Locate the zeros of det(I - L_{rho,s}) in the rectangle, with
    multiplicities.

    The working rectangle is padded slightly so that zeros sitting exactly on
    the requested boundary (the cylinder lattice starts at Im(s) = 0) are
    neither split nor missed.  Its winding count N comes with the moments
    s_0..s_{2N-1} of its zeros (`_moments`), taken from the determinants
    the winding already computed, about its centre and in units of its
    half-diagonal for the whole call.  A Hankel eigenproblem on them
    (`_hankel`) gives the distinct zeros with multiplicities.  Each simple
    zero is polished by `refine_zero` from its estimate; each multiple one
    by `refine_zero` with its multiplicity, then by the first moment of a
    box of half-side MIN_CELL around that point, whose winding must equal
    the multiplicity, and its residual is |det| there.

    A box whose Hankel step or polish fails any check (a failed solve, a
    weight not near an integer, a zero outside the box, a refinement that
    does not converge, two zeros within 1e-6) is split in two, as counts
    and moments add: the second half's are the box's minus the first's.
    Each half is solved the same way.  A cell holding one zero, or smaller
    than MIN_CELL, whose Hankel step fails is refined from its centre; if
    that fails too, it is reported in `unresolved`.
    """
    x0, x1, y0, y1 = (float(v) for v in rectangle)
    work = (x0 - PAD, x1 + PAD, y0 - PAD, y1 + PAD)
    if det is None:
        det = make_det(data, twist, lmax)
    origin = complex((work[0] + work[1]) / 2, (work[2] + work[3]) / 2)
    scale = abs(complex(work[1], work[3]) - origin)

    walk = _winding(det, _rect_corners(work))
    total = walk[0]
    kmax = max(2 * total - 1, 1)

    def counted(rect):
        walk = _winding(det, _rect_corners(rect))
        return walk[0], _moments(walk, origin, scale, kmax)

    zeros: list[tuple[complex, int]] = []
    residuals: list[float] = []
    unresolved: list[tuple[float, float, float, float]] = []

    def within(rect, s) -> bool:
        rx0, rx1, ry0, ry1 = rect
        return rx0 < s.real < rx1 and ry0 < s.imag < ry1

    def located(rect, count, moments):
        """[(zero, multiplicity, residual)] from the Hankel step, or None."""
        found = _hankel(moments, count)
        if found is None:
            return None
        out = []
        for w, mult in found:
            s, res, ok = refine_zero(data, twist, origin + scale * w, det=det, mult=mult)
            if not ok or not within(rect, s):
                return None
            if mult > 1:
                small = (s.real - MIN_CELL, s.real + MIN_CELL,
                         s.imag - MIN_CELL, s.imag + MIN_CELL)
                try:
                    walk = _winding(det, _rect_corners(small))
                except ContourError:
                    return None
                if walk[0] != mult:
                    return None
                s = complex(s + MIN_CELL * _moments(walk, s, MIN_CELL, 1)[1] / mult)
                res = abs(det(s))
            if any(abs(s - z) < 1e-6 for z, _, _ in out):
                return None
            out.append((s, mult, res))
        return out

    def split(rect, count, moments):
        rx0, rx1, ry0, ry1 = rect
        horizontal = (rx1 - rx0) >= (ry1 - ry0)
        lo, hi = (rx0, rx1) if horizontal else (ry0, ry1)
        for pos in _split_positions(lo, hi):
            if horizontal:
                a, b = (rx0, pos, ry0, ry1), (pos, rx1, ry0, ry1)
            else:
                a, b = (rx0, rx1, ry0, pos), (rx0, rx1, pos, ry1)
            try:
                ca, ma = counted(a)
            except ContourError:
                continue
            return a, ca, ma, b, count - ca, moments - ma
        raise ContourError(complex((rx0 + rx1) / 2, (ry0 + ry1) / 2), 0.0)

    def solve(rect, count, moments):
        rx0, rx1, ry0, ry1 = rect
        if count < 0:
            # a zero count below 0 proves that some winding missed a turn
            raise ContourError(complex((rx0 + rx1) / 2, (ry0 + ry1) / 2), math.nan,
                               f"negative zero count {count} in {rect}")
        if count == 0:
            return
        found = located(rect, count, moments)
        if found is not None:
            for s, mult, res in found:
                zeros.append((s, mult))
                residuals.append(res)
            return
        size = max(rx1 - rx0, ry1 - ry0)
        if count == 1 or size < MIN_CELL:
            center = complex((rx0 + rx1) / 2, (ry0 + ry1) / 2)
            s, res, ok = refine_zero(data, twist, center, det=det, mult=count)
            inside = (rx0 - MIN_CELL <= s.real <= rx1 + MIN_CELL
                      and ry0 - MIN_CELL <= s.imag <= ry1 + MIN_CELL)
            if not ok or not inside:
                unresolved.append(rect)
                zeros.append((center, count))
                residuals.append(res)
                return
            zeros.append((s, count))
            residuals.append(res)
            return
        a, ca, ma, b, cb, mb = split(rect, count, moments)
        solve(a, ca, ma)
        solve(b, cb, mb)

    solve(work, total, _moments(walk, origin, scale, kmax))
    # merge duplicates found from adjacent cells that refined to one point
    merged: list[tuple[complex, int]] = []
    merged_res: list[float] = []
    for (z, mult), res in sorted(zip(zeros, residuals),
                                 key=lambda t: (t[0][0].real, t[0][0].imag)):
        for i, (zm, mm) in enumerate(merged):
            if abs(z - zm) < 1e-6:
                merged[i] = (zm, mm + mult)
                merged_res[i] = max(merged_res[i], res)
                break
        else:
            merged.append((z, mult))
            merged_res.append(res)
    return ResonanceSet(
        rectangle=(x0, x1, y0, y1),
        zeros=tuple(merged),
        contour_count=total,
        residuals=tuple(merged_res),
        unresolved=tuple(unresolved),
    )
