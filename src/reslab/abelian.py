"""Abelian-cover experiments: character lattice, cover factorization,
non-vanishing scan at the critical exponent, the implicit resonance curve,
and the equidistribution experiment along growing cyclic covers."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from itertools import product as _iproduct
from typing import Callable, Optional, Sequence

import numpy as np

from . import schottky as sk
from . import thermo, transfer, zeros
from .schottky import GeodesicClass, SchottkyData
from .transfer import TwistSpec

__all__ = [
    "AbelianQuotient",
    "ImplicitCurve",
    "character_of",
    "cover_zeta_zeros",
    "nonvanishing_scan",
    "implicit_curve",
    "curve_hessian",
    "equidistribution_experiment",
    "EquidistributionResult",
]

ORDER_CAP = 64


@dataclass(frozen=True)
class AbelianQuotient:
    """G = Z/N_1 x ... x Z/N_m with the product character lattice."""

    moduli: tuple[int, ...]

    def __post_init__(self):
        if any(n < 1 for n in self.moduli):
            raise ValueError("moduli must be >= 1")

    @property
    def order(self) -> int:
        return int(np.prod(self.moduli))

    def characters(self):
        """All lattice points alpha with 0 <= alpha_k < N_k."""
        yield from _iproduct(*[range(n) for n in self.moduli])

    def theta(self, alpha: Sequence[int]) -> tuple[float, ...]:
        return tuple(a / n for a, n in zip(alpha, self.moduli))


def character_of(quotient: AbelianQuotient, alpha: Sequence[int],
                 geodesic: GeodesicClass) -> complex:
    """chi_alpha evaluated on the homology vector of the class."""
    phase = sum(a * h / n for a, h, n
                in zip(alpha, geodesic.homology, quotient.moduli))
    return cmath.exp(2j * math.pi * phase)


def _dist_to_lattice(theta: Sequence[float]) -> float:
    return max(abs(t - round(t)) for t in theta)


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


def _theta_det_factory(data: SchottkyData, s: complex, lmax: int) -> Callable:
    """theta -> det(I - L_{s,theta}) reusing the untwisted matrix at fixed s.

    The character twist multiplies the column slab of source disc j by the
    phase of its connecting letter inv(j): conj(e(theta_j)) for j < m and
    e(theta_{j-m}) for j >= m, with e(t) = exp(2 pi i t)."""
    m = data.m
    side = lmax + 1
    base = transfer.blocks_to_matrix(
        data, transfer.assemble_blocks(data, s, lmax), lmax, TwistSpec.trivial())

    def det(theta) -> complex:
        if len(theta) != m:
            raise ValueError(f"theta must have dimension m={m}")
        e = [np.exp(2j * np.pi * float(t)) for t in theta]
        phases = np.repeat([np.conj(x) for x in e] + e, side)
        return transfer.fredholm_det(base * phases)

    return det


def nonvanishing_scan(data: SchottkyData, grid_n: int = 64,
                      delta: Optional[float] = None, lmax: int = 16,
                      exclusion: float = 0.05) -> dict:
    """Scan |L(delta, theta)| over the uniform grid on [0,1)^m.

    Returns the minimum modulus over grid points at sup-distance >= exclusion
    from the integer lattice, its argmin, and the residual at theta = 0.
    """
    if delta is None:
        delta = thermo.critical_exponent(data, lmax)
    det = _theta_det_factory(data, complex(delta), lmax)
    axes = [np.arange(grid_n) / grid_n for _ in range(data.m)]
    best = math.inf
    argmin = None
    for theta in _iproduct(*axes):
        if _dist_to_lattice(theta) < exclusion:
            continue
        v = abs(det(theta))
        if v < best:
            best, argmin = v, theta
    return {
        "delta": delta,
        "min_offlattice": best,
        "argmin": argmin,
        "residual_at_zero": abs(det((0.0,) * data.m)),
        "grid_n": grid_n,
        "exclusion": exclusion,
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
                   lmax: int = 16, delta: Optional[float] = None,
                   max_shrink: int = 3) -> ImplicitCurve:
    """phi(theta) on the grid over B_inf(0, epsilon), continued from delta by
    warm-started Newton; epsilon shrinks (up to max_shrink times) if the
    continuation fails anywhere."""
    if delta is None:
        delta = thermo.critical_exponent(data, lmax)
    m = data.m
    for attempt in range(max_shrink + 1):
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
        delta = thermo.critical_exponent(data, lmax)
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
        if ok and abs(phi.imag) < 1e-6 and lo <= phi.real <= hi:
            vals.append(phi.real)
            warm[idx] = phi
    return np.array(sorted(vals))


def _ks_distance(emp: np.ndarray, ref: np.ndarray) -> float:
    if len(emp) == 0 or len(ref) == 0:
        return 1.0
    grid = np.union1d(emp, ref)
    ce = np.searchsorted(emp, grid, side="right") / len(emp)
    cr = np.searchsorted(ref, grid, side="right") / len(ref)
    return float(np.max(np.abs(ce - cr)))


def equidistribution_experiment(data: SchottkyData,
                                moduli_sequence: Sequence[Sequence[int]],
                                window: Optional[tuple[float, float]] = None,
                                bins: int = 12, lmax: int = 12,
                                fine: int = 512) -> EquidistributionResult:
    """Near-critical resonances of cyclic covers versus the pushforward of
    Lebesgue measure under the implicit curve.

    The first modulus grows along the sequence; all characters are continued
    from delta along the wrapped coordinate, and the Kolmogorov distance of
    the empirical zero positions to the curve pushforward is reported."""
    delta = thermo.critical_exponent(data, max(lmax, 12))
    if window is None:
        window = (delta - 0.1, delta + 0.02)
    lo, hi = window
    axis = int(np.argmax(moduli_sequence[-1]))
    ref = _reference_samples(data, window, delta, lmax, axis, fine=fine)
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
            if ok and abs(phi.imag) < 1e-6 and lo <= phi.real <= hi:
                emp.append(phi.real)
                warm[a] = phi
        emp = np.array(sorted(emp))
        ks_list.append(_ks_distance(emp, ref))
        counts.append(len(emp))
        edges = np.linspace(lo, hi, bins + 1)
        h, _ = np.histogram(emp, bins=edges)
        hists.append(tuple((float(edges[i]), float(edges[i + 1]), int(h[i]))
                           for i in range(bins)))
    # density exponent of the reference near delta: log dens vs log(delta-u)
    du = delta - ref
    du = du[(du > 1e-4) & (du < 0.05)]
    if len(du) > 16:
        qs = np.quantile(du, np.linspace(0.05, 0.95, 8))
        dens_x, dens_y = [], []
        for a, b in zip(qs[:-1], qs[1:]):
            cnt = np.sum((du >= a) & (du < b))
            if cnt > 0:
                dens_x.append(math.log((a + b) / 2))
                dens_y.append(math.log(cnt / (b - a)))
        exponent = float(np.polyfit(dens_x, dens_y, 1)[0])
    else:
        exponent = float("nan")
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
