"""Topological pressure and the critical exponent via the leading eigenvalue
of the truncated untwisted transfer matrix at real parameter values."""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import transfer
from .schottky import SchottkyData

__all__ = ["PressureCurve", "pressure", "critical_exponent", "pressure_curve"]

DEFAULT_LMAX = 16
MIN_LMAX = 4
ROOT_MAXITER = 100


def pressure(data: SchottkyData, sigma: float, lmax: int = DEFAULT_LMAX) -> float:
    """log of the spectral radius of the truncated untwisted operator at the
    real parameter sigma; strictly decreasing and convex in sigma.  A group
    with the disc involution takes the larger radius of its two sectors."""
    if lmax < MIN_LMAX:
        raise ValueError(f"lmax must be >= {MIN_LMAX}")
    M = transfer.assemble(data, float(sigma), transfer.TwistSpec.trivial(), lmax,
                          sectors=True)
    r = transfer.spectral_radius(M)
    if not r > 0:
        raise ArithmeticError("spectral radius collapsed to zero")
    return math.log(r)


def critical_exponent(data: SchottkyData, lmax: int = DEFAULT_LMAX,
                      tol: float = 1e-12) -> float:
    """Root of sigma -> pressure(sigma) in [0, 1], by the Illinois variant of
    regula falsi: the bracket [a, b] keeps the sign change, and an endpoint
    retained twice in a row has its value halved so that both ends move."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    p0 = pressure(data, 0.0, lmax)
    if abs(p0) < max(tol, 1e-10):
        # elementary (cylinder) case: the pressure vanishes at zero already
        return 0.0
    p1 = pressure(data, 1.0, lmax)
    if p0 < 0 or p1 > 0:
        raise ArithmeticError(f"no sign change of pressure on [0,1]: P(0)={p0}, P(1)={p1}")
    a, b, fa, fb = 0.0, 1.0, p0, p1
    delta, p_delta = a, fa
    kept = 0  # +1 if a was kept by the last step, -1 if b was
    for _ in range(ROOT_MAXITER):
        c = (a * fb - b * fa) / (fb - fa)
        if not a < c < b:
            break  # the bracket is down to adjacent floats
        delta, p_delta = c, pressure(data, c, lmax)
        if p_delta == 0:
            break
        if p_delta < 0:
            b, fb = c, p_delta
            if kept == 1:
                fa /= 2
            kept = 1
        else:
            a, fa = c, p_delta
            if kept == -1:
                fb /= 2
            kept = -1
        if b - a <= tol:
            break
    else:
        raise ArithmeticError(f"pressure root not bracketed to {tol} "
                              f"in {ROOT_MAXITER} steps: [{a}, {b}]")
    if abs(p_delta) > max(1e-8, 10 * tol):
        raise ArithmeticError("pressure root did not converge")
    return float(delta)


@dataclass(frozen=True)
class PressureCurve:
    samples: tuple[tuple[float, float], ...]
    delta: float


def pressure_curve(data: SchottkyData, sigmas, lmax: int = DEFAULT_LMAX) -> PressureCurve:
    samples = tuple((float(s), pressure(data, s, lmax)) for s in sigmas)
    return PressureCurve(samples=samples, delta=critical_exponent(data, lmax))
