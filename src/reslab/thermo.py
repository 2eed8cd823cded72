"""Topological pressure and the critical exponent via the leading eigenvalue
of the truncated untwisted transfer matrix at real parameter values.

At real sigma every group's matrix is real (real generators and disc
centres), and its Perron eigenvalue lambda(sigma) is found by power
iteration on the real part.  For a group with the disc involution J the
positive Perron eigenfunction is invariant under F -> F o J, so lambda lies
in the X+Y sector and only that half-size matrix is iterated.
"""

from __future__ import annotations

import math

import numpy as np

from . import transfer
from .schottky import SchottkyData

__all__ = ["pressure", "critical_exponent"]

DEFAULT_LMAX = 16
MIN_LMAX = 4
ROOT_MAXITER = 100
# Power-iteration cap; the presets settle in at most about 80 steps.
_PERRON_MAXITER = 512
# Steps between two convergence tests; the vector is normalised at each test.
_PERRON_STRIDE = 8
# Largest change of the unit iterate, in 2-norm, that counts as settled.
_PERRON_TOL = 8 * np.finfo(float).eps
# |P| at which the root search stops: log lambda at rounding level, lambda ~ 1.
_PRESSURE_ROUNDING = 8 * np.finfo(float).eps


def _perron_radius(A: np.ndarray) -> float:
    """Dominant eigenvalue modulus of the real square matrix A by power
    iteration from the normalised all-ones vector.  Every _PERRON_STRIDE
    steps it compares the unit vectors of v and A v; once they differ by at
    most _PERRON_TOL it returns |A v| / |v|.  A matrix whose iterate does not
    settle within _PERRON_MAXITER steps (a dominant eigenvalue that is
    negative, complex or not simple) gets `transfer.spectral_radius` of A
    instead.  A is copied once, because the matrix-vector product of a
    strided view is about twice as slow."""
    A = np.ascontiguousarray(A)
    v = np.full(A.shape[0], 1.0 / math.sqrt(A.shape[0]))
    for _ in range(_PERRON_MAXITER // _PERRON_STRIDE):
        for _ in range(_PERRON_STRIDE - 1):
            v = A @ v
        w = A @ v
        w2, v2 = w @ w, v @ v
        if not w2 > 0:  # also when v = 0, since w = A v
            break
        u = w / math.sqrt(w2)
        d = u - v / math.sqrt(v2)
        if d @ d <= _PERRON_TOL ** 2:
            return math.sqrt(w2 / v2)
        v = u
    return transfer.spectral_radius(A)


def pressure(data: SchottkyData, sigma: float, lmax: int = DEFAULT_LMAX) -> float:
    """log of the spectral radius of the truncated untwisted operator at the
    real parameter sigma; strictly decreasing and convex in sigma.  The
    radius is the Perron eigenvalue of the real part of the X+Y sector
    matrix for a group with the disc involution, of the whole matrix
    otherwise (`_perron_radius`)."""
    if lmax < MIN_LMAX:
        raise ValueError(f"lmax must be >= {MIN_LMAX}")
    M = transfer.assemble(data, float(sigma), transfer.TwistSpec.trivial(), lmax,
                          sectors=True)
    r = _perron_radius((M[0] if M.ndim == 3 else M).real)
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
        if abs(p_delta) <= _PRESSURE_ROUNDING:
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

