"""Reference constructions that the tests compare the program against:
transfer blocks built block by block from the definitions, central-difference
Newton for zero refinement, a quadrature Fourier transform, the
determinant of one full matrix, the character scan with one
determinant per grid point, and sampled pressure curves."""

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from reslab import thermo, transfer, zeros


def scalar_block(data, s, lmax, i, j):
    """One (lmax+1)^2 block carrying basis functions on disc j to disc i,
    built from scratch, or None when inadmissible."""
    m = data.m
    a0 = (j + m) % (2 * m)
    if a0 == i:
        return None
    g = data.gen(a0 + 1)
    tgt = data.discs[i]
    src = data.discs[j]
    K = 4 * (lmax + 1)
    rho = 0.75 * tgt.radius
    circle = transfer._roots_of_unity(K)
    z = tgt.center + rho * circle
    den = g.c * z + g.d
    dv = 1.0 / den ** 2
    w = (g.a * z + g.b) / den
    dpow = np.exp(s * np.log(dv))
    ell = np.arange(lmax + 1)
    u = (w - src.center) / src.radius
    phi = (np.sqrt((ell[:, None] + 1) / np.pi) / src.radius) * u[None, :] ** ell[:, None]
    vals = dpow[None, :] * phi
    # first lmax+1 DFT outputs, divided by K rho^l and scaled, as one matrix
    scale = np.sqrt(np.pi / (ell + 1)) * tgt.radius ** (ell + 1)
    W = circle.conj()[np.outer(np.arange(K), ell) % K] * (scale / (K * rho ** ell))
    return (vals @ W).T


def kron_placement(data, s, lmax, source_unitaries):
    """The twisted matrix with every scalar block b of source disc j placed
    as np.kron(b, source_unitaries[j])."""
    nd = 2 * data.m
    side = (lmax + 1) * len(source_unitaries[0])
    out = np.zeros((nd * side, nd * side), dtype=complex)
    for i in range(nd):
        for j in range(nd):
            b = scalar_block(data, s, lmax, i, j)
            if b is not None:
                out[i * side:(i + 1) * side, j * side:(j + 1) * side] = np.kron(
                    b, source_unitaries[j])
    return out


def source_unitaries(data, twist):
    """The unitary of each source disc j: that of its connecting letter
    inv(j), 0-based (j + m) mod 2m."""
    mats = twist.letter_matrices(data.m)
    return [mats[(j + data.m) % (2 * data.m)] for j in range(2 * data.m)]


def newton_refine(det, s0, mult=1):
    """Newton iteration on det with central finite differences (step 1e-6),
    three determinants per step for at most 50 steps, with refine_zero's
    step cap and stopping rule. Returns (s, |det(s)|, converged)."""
    s = complex(s0)
    h = 1e-6
    converged = False
    for _ in range(50):
        v = det(s)
        dv = (det(s + h) - det(s - h)) / (2 * h)
        if dv == 0:
            break
        step = max(1, mult) * v / dv
        if abs(step) > 1.0:
            step *= 1.0 / abs(step)
        s = s - step
        if abs(v) < zeros.NEWTON_TOL and abs(step) < 1e-9:
            converged = True
            break
    v = det(s)
    return s, abs(v), converged or abs(v) < zeros.NEWTON_TOL


def fourier_grid(tf, xi):
    """Direct quadrature transform of the sampled values of the test
    function tf; reliable only for moderate |xi|."""
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    h = tf.x[1] - tf.x[0]
    return np.array([np.sum(tf.values * np.exp(-1j * w * tf.x)) * h for w in xi])


def fredholm_det(M):
    """det(I - M) of one matrix, with the identity built by np.eye."""
    return complex(np.linalg.det(np.eye(M.shape[0]) - M))


def theta_det_factory(data, s, lmax):
    """theta -> det(I - L_{s,theta}), one TwistSpec per theta, lifting the
    untwisted matrix at s by that character's letters."""
    base = transfer.assemble(data, s, transfer.TwistSpec.trivial(), lmax)

    def det(theta):
        letters = transfer.TwistSpec.abelian(theta).letter_matrices(data.m)
        return transfer.fredholm_det(transfer._lift(base, letters))

    return det


def full_grid_scan(data, grid_n, delta, lmax=16, exclusion=0.05):
    """abelian.nonvanishing_scan with one determinant at every grid point
    at sup-distance >= exclusion from the integer lattice, in
    itertools.product order; the argmin is the first point of strictly
    smallest modulus."""
    det = theta_det_factory(data, complex(delta), lmax)
    axes = [np.arange(grid_n) / grid_n for _ in range(data.m)]
    best = math.inf
    argmin = None
    for theta in product(*axes):
        if max(abs(t - round(t)) for t in theta) < exclusion:
            continue
        v = abs(det(theta))
        if v < best:
            best, argmin = v, theta
    return {"min_offlattice": best, "argmin": argmin,
            "residual_at_zero": abs(det((0.0,) * data.m))}


@dataclass(frozen=True)
class PressureCurve:
    samples: tuple[tuple[float, float], ...]
    delta: float


def pressure_curve(data, sigmas, lmax=thermo.DEFAULT_LMAX):
    """The pressure at each sigma, with the critical exponent."""
    samples = tuple((float(s), thermo.pressure(data, s, lmax)) for s in sigmas)
    return PressureCurve(samples=samples, delta=thermo.critical_exponent(data, lmax))
