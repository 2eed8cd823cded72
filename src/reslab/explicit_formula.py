"""Compactly supported test functions built from iterated box convolutions,
their Fourier decay envelope, and geodesic-side sums over closed geodesics
weighted by unitary character values."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np

from . import schottky as sk
from .schottky import SchottkyData

__all__ = [
    "TestFunction",
    "build_test_function",
    "fourier_envelope_check",
    "geodesic_sum",
    "abelian_character",
]

MAX_GRID = 1 << 16
_TAIL_SUM_CUTOFF = 2_000_000
# terms of the normalising series summed one by one; the rest up to the
# cutoff come from the Euler-Maclaurin formula
_HEAD_TERMS = 4095


@lru_cache(maxsize=1)
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    # imported on first use: importing numpy.polynomial costs about 3 ms,
    # which only the width normaliser needs
    from numpy.polynomial.legendre import leggauss

    return leggauss(48)


def _denominators(j, eps: float):
    return j * np.log(1.0 + j) ** (1.0 + eps)


def _width_normalizer(eps: float) -> float:
    """1 / sum_{j>=1} 1/(j * log(1+j)^{1+eps}): the sum to _TAIL_SUM_CUTOFF
    plus the integral remainder beyond it.  Terms past _HEAD_TERMS are
    summed by Euler-Maclaurin: the integral of f(x) = 1/(x log(1+x)^{1+eps})
    (Gauss-Legendre in u = log x, where the integrand is log(1+e^u)^{-1-eps}),
    the endpoint halves and the B2 term with f' in closed form; the B4 term
    is below 1e-17 of the sum."""
    head = float(np.sum(1.0 / _denominators(np.arange(1.0, _HEAD_TERMS + 1), eps)))
    a, b = float(_HEAD_TERMS + 1), float(_TAIL_SUM_CUTOFF)
    ua, ub = math.log(a), math.log(b)
    nodes, weights = _gauss_legendre()
    u = 0.5 * (ub - ua) * nodes + 0.5 * (ub + ua)
    integral = 0.5 * (ub - ua) * float(weights @ np.log1p(np.exp(u)) ** (-1.0 - eps))
    fa, fb = 1.0 / _denominators(a, eps), 1.0 / _denominators(b, eps)

    def deriv(x, fx):
        return -fx * (1.0 / x + (1.0 + eps) / ((1.0 + x) * math.log(1.0 + x)))

    body = integral + 0.5 * (fa + fb) + (deriv(b, fb) - deriv(a, fa)) / 12.0
    tail = (math.log(_TAIL_SUM_CUTOFF + 1.5) ** (-eps)) / eps
    return 1.0 / (head + body + tail)


def _widths(eps: float, J: int) -> np.ndarray:
    return _width_normalizer(eps) / _denominators(np.arange(1.0, J + 1), eps)


@dataclass(frozen=True)
class TestFunction:
    """Nonnegative even function of mass 1 supported strictly inside
    [-1, 1]: the convolution of J mass-1 boxes of decreasing widths."""

    widths: tuple[float, ...]
    x: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)
    J: int
    eps: float
    tail_deficit: float

    @property
    def support_radius(self) -> float:
        return float(sum(self.widths))

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        out = np.interp(t, self.x, self.values, left=0.0, right=0.0)
        out = np.where(np.abs(t) > self.support_radius, 0.0, out)
        return out if out.ndim else float(out)

    def mass(self) -> float:
        h = self.x[1] - self.x[0]
        return float(np.sum(self.values) * h)

    def fourier(self, xi) -> np.ndarray:
        """Exact transform of the ideal convolution: a product of sinc
        factors, one per box (normalization: hat(0) = mass = 1)."""
        xi = np.asarray(xi, dtype=float)
        out = np.ones_like(xi)
        for mu in self.widths:
            out = out * np.sinc(mu * xi / np.pi)
        return out


def _symmetric_convolve(core: np.ndarray, kern: np.ndarray) -> np.ndarray:
    """Full convolution of a symmetric odd-length core with a symmetric
    odd-length kernel no longer than it.  The result is symmetric, so only
    its left half and middle are summed directly and the rest is mirrored:
    phi0 is exactly even by construction."""
    K = len(kern)
    c = (len(core) + K - 2) // 2
    left = np.correlate(np.concatenate([np.zeros(K - 1), core[:c + 1]]), kern, "valid")
    return np.concatenate([left, left[-2::-1]])


def build_test_function(eps: float, J: int, grid_size: int = 1 << 14) -> TestFunction:
    if J < 1:
        raise ValueError("J must be >= 1")
    if eps <= 0:
        raise ValueError("eps must be positive")
    if grid_size > MAX_GRID:
        raise ValueError(f"grid_size capped at {MAX_GRID}")
    if grid_size % 2 == 0:
        # an odd point count centers the grid at 0, so the odd-length core
        # pads to it symmetrically
        grid_size += 1
    mu = _widths(eps, J)
    tail_deficit = 1.0 - float(mu.sum())
    x = np.linspace(-1.0, 1.0, grid_size)
    h = x[1] - x[0]
    if mu[-1] < 2 * h:
        raise ValueError(
            f"grid too coarse: spacing {h:.3e} vs smallest width {mu[-1]:.3e}")
    # discrete mass-1 kernels; renormalizing after sampling keeps the
    # discrete mass exactly 1 under direct convolution.  Only the nonzero
    # core is convolved, widest kernel first; its half-length stays below
    # sum(mu) / h < (grid_size - 1) / 2, so it fits the grid.
    core = None
    for m in mu:
        half = int(np.floor(m / h))
        kern = np.ones(2 * half + 1)
        kern[0] = kern[-1] = 0.5 + (m / h - half)
        kern /= kern.sum()
        core = kern / h if core is None else _symmetric_convolve(core, kern)
    pad = (grid_size - len(core)) // 2
    vals = np.concatenate([np.zeros(pad), core, np.zeros(pad)])
    return TestFunction(widths=tuple(float(m) for m in mu), x=x, values=vals,
                        J=J, eps=eps, tail_deficit=tail_deficit)


def fourier_envelope_check(tf: TestFunction, xi_min: float = 10.0,
                           xi_max: float = 1.0e4, alpha: float = 0.5,
                           n_xi: int = 600, shape_ratio_min: float = 0.2) -> dict:
    """Fits log of the transform's oscillation-free upper envelope against
    -C2 * xi / (log xi)^{1+alpha} and certifies the largest C2 for which
    the bound holds with C1 = 1 across the whole range.

    A function with only slow polynomial decay (a single box) has a
    certified constant that collapses towards zero at the top of the range;
    the check fails when the top-decade constant is below shape_ratio_min
    times the bottom-decade constant.  A range on which that test cannot
    reject a single box as wide as the widest box mu_1 certifies nothing: a
    ValueError.  That covers every range starting at or below 1/mu_1, where
    the envelope is 1 and the constant 0, and ranges starting just past it,
    where the box's own constant is near 0 at the bottom."""
    mu = np.array(tf.widths)
    xi = np.logspace(math.log10(xi_min), math.log10(xi_max), n_xi)
    u = xi / np.log(xi) ** (1.0 + alpha)
    # the single box's pointwise constant log(xi mu_1) / u at both ends
    bottom, top = np.log(xi[[0, -1]] * mu.max()) / u[[0, -1]]
    if not (bottom > 0.0 and top / bottom < shape_ratio_min):
        raise ValueError(
            f"xi in [{xi_min:g}, {xi_max:g}] cannot reject a single box as wide "
            f"as the widest box ({mu.max():g})")
    log_env = np.minimum(0.0, -np.log(np.outer(xi, mu))).sum(axis=1)
    A = np.vstack([np.ones_like(u), -u]).T
    (log_c1, c2_fit), *_ = np.linalg.lstsq(A, log_env, rcond=None)
    pointwise = -log_env / u
    certified = float(pointwise.min())
    ratio = float(pointwise[-1] / pointwise[0])
    passed = certified > 0.0 and ratio >= shape_ratio_min
    return {
        "alpha": alpha,
        "xi_range": (xi_min, xi_max),
        "C2_fit": float(c2_fit),
        "log_C1_fit": float(log_c1),
        "C2_certified": certified,
        "shape_ratio": ratio,
        "shape_ratio_min": shape_ratio_min,
        "passed": bool(passed),
    }


def abelian_character(theta: Sequence[float]) -> Callable:
    """chi(C^k) = exp(2 pi i k <theta, homology(C)>)."""
    th = np.asarray(theta, dtype=float)

    def chi(geo: sk.GeodesicClass, k: int) -> complex:
        return complex(np.exp(2j * np.pi * k * float(th @ np.array(geo.homology))))

    return chi


def geodesic_sum(data: SchottkyData, T: float, phi0: Callable,
                 character: Optional[Callable] = None,
                 depth_cap: int = 24) -> complex:
    """I(rho, T) = sum over classes (C, k), k*l(C) <= T, of
    chi(C^k) * l(C) / (1 - e^{-k l(C)}) * phi0(k l(C) / T).

    The positive-denominator convention makes the trivial-character sum
    real and positive; supp phi0 in [-1, 1] truncates exactly at T."""
    warn: list = []
    prims = sk.primitive_geodesics(data, T, depth_cap=depth_cap, warn=warn)
    if warn:
        raise ValueError(
            f"geodesic table incomplete to length {T}: {warn[0]}")
    total = 0.0 + 0.0j
    for c in prims:
        k = 1
        while k * c.length <= T:
            w = float(phi0(k * c.length / T))
            if w != 0.0:
                chi = 1.0 + 0.0j if character is None else character(c, k)
                total += chi * (c.length / (1.0 - math.exp(-k * c.length))) * w
            k += 1
    return total
