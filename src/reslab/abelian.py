"""Abelian-cover experiments: character lattice, cover factorization,
non-vanishing scan at the critical exponent, the implicit resonance curve,
and the equidistribution experiment along growing cyclic covers."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product as _iproduct
from typing import Optional, Sequence

import numpy as np

from . import transfer, zeros
from .schottky import SchottkyData
from .transfer import TwistSpec

__all__ = [
    "AbelianQuotient",
    "ImplicitCurve",
    "cover_zeta_zeros",
    "nonvanishing_scan",
    "implicit_curve",
    "curve_hessian",
    "equidistribution_experiment",
    "EquidistributionResult",
]

ORDER_CAP = 64
# Halvings of epsilon implicit_curve tries after a failed continuation.
MAX_SHRINK = 3
# equidistribution_experiment's window of Re(phi), as offsets from delta,
# and its histogram bin count.
WINDOW = (-0.1, 0.02)
BINS = 12


@dataclass(frozen=True)
class AbelianQuotient:
    """G = Z/N_1 x ... x Z/N_m with the product character lattice."""

    moduli: tuple[int, ...]

    def __post_init__(self):
        if any(n < 1 for n in self.moduli):
            raise ValueError("moduli must be >= 1")

    @property
    def order(self) -> int:
        # in Python ints: an int64 product of (2^32, 2^32) wraps to 0
        return math.prod(self.moduli)

    def characters(self):
        """All lattice points alpha with 0 <= alpha_k < N_k."""
        yield from _iproduct(*[range(n) for n in self.moduli])

    def theta(self, alpha: Sequence[int]) -> tuple[float, ...]:
        return tuple(a / n for a, n in zip(alpha, self.moduli))


def cover_zeta_zeros(data: SchottkyData, quotient: AbelianQuotient,
                     rectangle, lmax: int = 16) -> dict:
    """zeros.resonances for every character twist; the multiset union over
    characters is the cover's resonance set in the rectangle."""
    if quotient.order > ORDER_CAP:
        raise ValueError(f"quotient order {quotient.order} exceeds cap {ORDER_CAP}")
    out = {}
    for alpha in quotient.characters():
        tw = TwistSpec.abelian(quotient.theta(alpha))
        out[alpha] = zeros.resonances(data, tw, rectangle, lmax=lmax)
    return out


def _character_involution(data: SchottkyData) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """The map theta -> pi.theta that the disc involution sigma of
    `transfer._disc_involution` induces on characters, as (index, sign)
    with (pi.theta)_i = sign_i theta_{index_i}: index_i = sigma(i) mod m,
    and sign_i = -1 when sigma(i) is an inverse letter.  Then det_{pi.theta}
    = det_theta at every s.  None for a group without the involution."""
    sigma = transfer._disc_involution(data)
    if sigma is None:
        return None
    half = np.array(sigma[:data.m])
    return half % data.m, np.where(half < data.m, 1, -1)


def nonvanishing_scan(data: SchottkyData, grid_n: int = 64,
                      delta: Optional[float] = None, lmax: int = 16,
                      exclusion: float = 0.05) -> dict:
    """Scan |L(delta, theta)| over the uniform grid theta = k / grid_n on
    [0,1)^m, at a real delta.

    Returns the minimum modulus over grid points at sup-distance >= exclusion
    from the integer lattice, its argmin, the residual at theta = 0, and two
    work counts: orbits (leaf determinants) and eliminations (blocks
    factored by `transfer._character_dets`).

    The data of every group are real, so M(conj s) = conj M(s) and, at real
    delta, |L(delta, theta)| = |L(delta, -theta)|; a group with the disc
    involution also has L(s, pi.theta) = L(s, theta) (`_character_involution`).
    One determinant is taken per orbit of grid points under these maps (at
    most 4 points), at the orbit's first point in scan order
    (itertools.product order).  These come from one untwisted matrix at
    delta by elimination along the character lattice, one block per
    distinct leading part of the representatives; the residual at theta = 0
    is the LU determinant of that matrix lifted by theta = 0.  The argmin
    is the first grid point in scan order at which the minimum is attained:
    the first member of the minimising orbit.  A complex delta raises
    TypeError; a non-finite delta, or a grid with no point at distance >=
    exclusion, raises ValueError.
    """
    if delta is None:
        delta = zeros._delta_of(data, lmax)
    if np.iscomplexobj(delta):
        raise TypeError(f"delta must be real, got {delta!r}")
    delta = float(delta)
    if not math.isfinite(delta):
        raise ValueError(f"delta must be finite, got {delta!r}")
    m, n = data.m, grid_n
    # grid indices in scan order; the code of k, its place in that order,
    # is k read in base n
    k = np.indices((n,) * m).reshape(m, -1).T
    k = k[np.minimum(k, n - k).max(axis=1) / n >= exclusion]
    if not len(k):
        raise ValueError(f"no point of the {grid_n}^{m} grid lies at distance "
                         f">= {exclusion} from the integer lattice")
    images = [k, -k % n]
    involution = _character_involution(data)
    if involution is not None:
        index, sign = involution
        images += [sign * k[:, index] % n, -sign * k[:, index] % n]
    weights = n ** np.arange(m - 1, -1, -1)
    _, first = np.unique(np.min([im @ weights for im in images], axis=0),
                         return_index=True)
    base = transfer.assemble(data, complex(delta), TwistSpec.trivial(), lmax)
    dets, eliminated = transfer._character_dets(base, k[first] / n)
    values = np.abs(dets)
    best = int(np.argmin(values))
    zero = transfer._lift(base, transfer._character_letters(np.zeros(m)))
    return {
        "delta": delta,
        "min_offlattice": float(values[best]),
        "argmin": tuple((k[first[best]] / n).tolist()),
        "residual_at_zero": abs(transfer.fredholm_det(zero)),
        "grid_n": grid_n,
        "exclusion": exclusion,
        "orbits": len(first),
        "eliminations": eliminated,
    }


@dataclass(frozen=True)
class ImplicitCurve:
    epsilon: float
    delta: float
    samples: tuple[tuple[tuple[float, ...], complex], ...]

    def lookup(self, theta) -> complex:
        for t, phi in self.samples:
            if max(abs(a - b) for a, b in zip(t, theta)) < 1e-12:
                return phi
        raise KeyError(theta)


def _phi_at(data: SchottkyData, theta, s0: complex, lmax: int) -> tuple[complex, bool]:
    """Continue the zero of s -> L(s, theta) from the warm start s0."""
    tw = TwistSpec.abelian(theta)
    s, res, ok = zeros.refine_zero(data, tw, s0, lmax=lmax)
    return s, ok and res < 1e-9


def implicit_curve(data: SchottkyData, epsilon: float, grid_n: int = 5,
                   lmax: int = 16, delta: Optional[float] = None) -> ImplicitCurve:
    """phi(theta) on the grid over B_inf(0, epsilon), continued from delta by
    warm-started secant refinement; epsilon halves (up to MAX_SHRINK times) if
    the continuation fails anywhere."""
    if delta is None:
        delta = zeros._delta_of(data, lmax)
    m = data.m
    for attempt in range(MAX_SHRINK + 1):
        eps = epsilon * (0.5 ** attempt)
        axis = np.linspace(-eps, eps, grid_n)
        # order by distance from 0 so each point has a converged neighbour
        pts = sorted(_iproduct(*[axis] * m),
                     key=lambda t: (max(abs(x) for x in t), t))
        known: dict[tuple, complex] = {}
        failed = False
        for theta in pts:
            if known:
                near = min(known, key=lambda t: sum((a - b) ** 2 for a, b in zip(t, theta)))
                s0 = known[near]
            else:
                s0 = complex(delta)
            phi, ok = _phi_at(data, theta, s0, lmax)
            if not ok:
                failed = True
                break
            known[theta] = phi
        if not failed:
            samples = tuple(sorted(known.items()))
            return ImplicitCurve(epsilon=eps, delta=delta, samples=samples)
    raise ArithmeticError(f"implicit curve continuation failed below epsilon={eps}")


def curve_hessian(data: SchottkyData, h: float = 0.01, lmax: int = 16,
                  delta: Optional[float] = None) -> np.ndarray:
    """Finite-difference Hessian of Re(phi) at theta = 0."""
    if delta is None:
        delta = zeros._delta_of(data, lmax)
    m = data.m

    def phi(theta):
        v, ok = _phi_at(data, theta, complex(delta), lmax)
        if not ok:
            raise ArithmeticError(f"curve continuation failed at {theta}")
        return v.real

    f0 = phi((0.0,) * m)
    H = np.zeros((m, m))
    for i in range(m):
        ei = np.zeros(m)
        ei[i] = h
        H[i, i] = (phi(tuple(ei)) + phi(tuple(-ei)) - 2 * f0) / h ** 2
        for j in range(i + 1, m):
            ej = np.zeros(m)
            ej[j] = h
            fpp = phi(tuple(ei + ej))
            fpm = phi(tuple(ei - ej))
            fmp = phi(tuple(-ei + ej))
            fmm = phi(tuple(-ei - ej))
            H[i, j] = H[j, i] = (fpp - fpm - fmp + fmm) / (4 * h ** 2)
    return H


@dataclass(frozen=True)
class EquidistributionResult:
    moduli_sequence: tuple[tuple[int, ...], ...]
    window: tuple[float, float]
    kolmogorov: tuple[float, ...]
    histograms: tuple[tuple[tuple[float, float, int], ...], ...]
    reference_cdf: tuple[tuple[float, float], ...]
    counts: tuple[int, ...]
    density_exponent: float


def _axis_theta(m: int, axis: int, t: float) -> tuple[float, ...]:
    theta = [0.0] * m
    theta[axis] = t
    return tuple(theta)


def _reference_samples(data: SchottkyData, window, delta: float,
                       lmax: int, axis: int, fine: int = 512) -> np.ndarray:
    """phi values over a fine uniform grid on the growing coordinate,
    restricted to the window: the pushforward reference measure."""
    lo, hi = window
    ts = (np.arange(fine) + 0.5) / fine
    vals = []
    # walk outward from 0 in wrapped distance so warm starts stay close
    order = np.argsort(np.minimum(ts, 1 - ts), kind="stable")
    warm: dict[int, complex] = {}
    for idx in order:
        t = ts[idx]
        theta = _axis_theta(data.m, axis, t)
        start = warm.get(idx - 1, warm.get(idx + 1, complex(delta)))
        phi, ok = _phi_at(data, theta, start, lmax)
        if ok:
            warm[idx] = phi
            if abs(phi.imag) < 1e-6 and lo <= phi.real <= hi:
                vals.append(phi.real)
    return np.array(sorted(vals))


def _ks_distance(emp: np.ndarray, ref: np.ndarray) -> float:
    if len(emp) == 0 or len(ref) == 0:
        return 1.0
    # both step functions change only at their samples; sorting the joined
    # samples, not np.union1d, keeps numpy.ma unimported
    grid = np.sort(np.concatenate((emp, ref)))
    ce = np.searchsorted(emp, grid, side="right") / len(emp)
    cr = np.searchsorted(ref, grid, side="right") / len(ref)
    return float(np.max(np.abs(ce - cr)))


def _density_exponent(ref: np.ndarray, delta: float) -> float:
    """Slope of log density against log(delta - u) for the reference samples
    u with 1e-4 < delta - u < 0.05, over 7 bins between the 5% and 95%
    quantiles.  The bins are cut by sorted index: each edge lies midway
    between two adjacent samples and each count is a difference of indices,
    so no sample sits on an edge and a rounding-level change of the samples
    moves the slope only at rounding level."""
    du = np.sort(delta - ref)
    du = du[(du > 1e-4) & (du < 0.05)]
    if len(du) <= 16:
        return float("nan")
    idx = np.rint(np.linspace(0.05, 0.95, 8) * (len(du) - 1)).astype(int)
    edges = (du[idx] + du[idx + 1]) / 2
    dens_x = np.log((edges[:-1] + edges[1:]) / 2)
    dens_y = np.log(np.diff(idx) / np.diff(edges))
    return float(np.polyfit(dens_x, dens_y, 1)[0])


def equidistribution_experiment(data: SchottkyData,
                                moduli_sequence: Sequence[Sequence[int]],
                                lmax: int = 12,
                                fine: int = 512,
                                axis: Optional[int] = None) -> EquidistributionResult:
    """Near-critical resonances of cyclic covers versus the pushforward of
    Lebesgue measure under the implicit curve.

    The modulus on the given axis grows along the sequence (by default the
    axis of the largest last modulus); all characters are continued from
    delta along that coordinate, and the Kolmogorov distance of the
    empirical zero positions to the curve pushforward is reported."""
    delta = zeros._delta_of(data, max(lmax, 12))
    lo, hi = delta + WINDOW[0], delta + WINDOW[1]
    if axis is None:
        axis = int(np.argmax(moduli_sequence[-1]))
    ref = _reference_samples(data, (lo, hi), delta, lmax, axis, fine=fine)
    ks_list, hists, counts = [], [], []
    for moduli in moduli_sequence:
        q = AbelianQuotient(tuple(int(n) for n in moduli))
        N = q.moduli[axis]
        emp = []
        warm: dict[int, complex] = {}
        order = sorted(range(N), key=lambda a: (min(a, N - a), a))
        for a in order:
            theta = _axis_theta(data.m, axis, a / N)
            start = warm.get(a - 1, warm.get((a + 1) % N, complex(delta)))
            phi, ok = _phi_at(data, theta, start, lmax)
            if ok:
                warm[a] = phi
                if abs(phi.imag) < 1e-6 and lo <= phi.real <= hi:
                    emp.append(phi.real)
        emp = np.array(sorted(emp))
        ks_list.append(_ks_distance(emp, ref))
        counts.append(len(emp))
        edges = np.linspace(lo, hi, BINS + 1)
        h, _ = np.histogram(emp, bins=edges)
        hists.append(tuple((float(edges[i]), float(edges[i + 1]), int(h[i]))
                           for i in range(BINS)))
    exponent = _density_exponent(ref, delta)
    cdf = tuple((float(v), float((i + 1) / len(ref))) for i, v in enumerate(ref))
    return EquidistributionResult(
        moduli_sequence=tuple(tuple(int(n) for n in m) for m in moduli_sequence),
        window=(float(lo), float(hi)),
        kolmogorov=tuple(ks_list),
        histograms=tuple(hists),
        reference_cdf=cdf,
        counts=tuple(counts),
        density_exponent=exponent,
    )
