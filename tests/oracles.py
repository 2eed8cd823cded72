"""Reference constructions that the tests compare the program against:
transfer blocks built block by block from the definitions, central-difference
Newton for zero refinement, the points an argument-principle walk asks for,
a determinant that lists its lookups, a quadrature Fourier transform, the envelope fit
without a refusal rule, the test-function width normaliser summed term by
term, the test function convolved over the whole padded grid, the
determinant of one full matrix, the character scan with one determinant per
grid point, sampled pressure curves, reduced words one at a time, the dense
Cayley Laplacian, Cayley connectivity by breadth-first search, and SL2(F_p)
arithmetic one matrix at a time with the scalar conjugacy classifier."""

import cmath
import functools
import math
from collections import defaultdict
from dataclasses import dataclass
from itertools import product

import numpy as np

from reslab import cayley, thermo, transfer, zeros
from reslab import congruence as cg
from reslab import explicit_formula as ef
from reslab import schottky as sk


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


def newton_refine(det, s0):
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
        step = v / dv
        if abs(step) > 1.0:
            step *= 1.0 / abs(step)
        s = s - step
        if abs(v) < zeros.NEWTON_TOL and abs(step) < 1e-9:
            converged = True
            break
    v = det(s)
    return s, abs(v), converged or abs(v) < zeros.NEWTON_TOL


def counting(det):
    """det, and a list of the points it is asked for, in order.  The
    wrapper is made by functools.wraps, so it keeps det.many, whose batched
    points are not listed, and det.factors, whose lookups are not."""
    calls = []

    @functools.wraps(det)
    def counted(s):
        calls.append(s)
        return det(s)

    return counted, calls


def winding_points(det, corners, first=None):
    """The points a winding count of det along the polygon through corners
    asks for, in order.  Each edge is sampled at the nested
    Chebyshev-Lobatto points sin(pi (2j - n) / 2n), j = 0..n, mapped onto
    it with its corners exact: n = first (zeros.FIRST_NODES unless given),
    then twice as many at each level, edge by edge for the edges still
    open, a point met again not asked for again.  An edge closes once, for
    every factor f of det (det.factors(s), or det(s) as one factor), the
    sum of the last max(4, n/8) Chebyshev coefficients of its interpolant
    p_f, here the cosine sums of the definition, is below a quarter of
    min|p_f| on 64n + 1 equally spaced points."""
    from numpy.polynomial import chebyshev

    factors = getattr(det, "factors", lambda s: (det(s),))
    values = {}

    def value(s):
        if s not in values:
            values[s] = factors(s)
        return values[s]

    closed = list(corners) + [corners[0]]
    todo, n = list(zip(closed[:-1], closed[1:])), first or zeros.FIRST_NODES
    while todo:
        x = np.sin(np.pi * np.arange(-n, n + 1, 2) / (2 * n))
        sampled = [[value(s) for s in [a, *[(a + b) / 2 + (b - a) / 2 * float(t)
                                           for t in x[1:-1]], b]] for a, b in todo]
        halves = np.full(n + 1, 1.0)
        halves[[0, n]] = 0.5
        dense = chebyshev.chebvander(np.linspace(-1.0, 1.0, 64 * n + 1), n)
        still = []
        for (a, b), f in zip(todo, sampled):
            coef = (2.0 / n) * chebyshev.chebvander(x, n).T @ (halves[:, None] * np.array(f))
            coef[[0, n]] /= 2
            tail = np.abs(coef[-max(4, n // 8):]).sum(axis=0)
            if np.any(4 * tail >= np.abs(dense @ coef).min(axis=0)):
                still.append((a, b))
        todo, n = still, 2 * n
    return list(values)


def fourier_grid(tf, xi):
    """Direct quadrature transform of the sampled values of the test
    function tf; reliable only for moderate |xi|."""
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    h = tf.x[1] - tf.x[0]
    return np.array([np.sum(tf.values * np.exp(-1j * w * tf.x)) * h for w in xi])


def envelope_fit(tf, xi_min=10.0, xi_max=1.0e4, alpha=0.5, n_xi=600,
                 shape_ratio_min=0.2):
    """The dict of explicit_formula.fourier_envelope_check computed without
    any refusal: the least-squares fit, the certified constant and the
    shape ratio of the log-envelope on the logarithmic xi grid."""
    mu = np.array(tf.widths)
    xi = np.logspace(math.log10(xi_min), math.log10(xi_max), n_xi)
    u = xi / np.log(xi) ** (1.0 + alpha)
    log_env = np.minimum(0.0, -np.log(np.outer(xi, mu))).sum(axis=1)
    A = np.vstack([np.ones_like(u), -u]).T
    (log_c1, c2_fit), *_ = np.linalg.lstsq(A, log_env, rcond=None)
    pointwise = -log_env / u
    certified = float(pointwise.min())
    ratio = float(pointwise[-1] / pointwise[0])
    return {
        "alpha": alpha,
        "xi_range": (xi_min, xi_max),
        "C2_fit": float(c2_fit),
        "log_C1_fit": float(log_c1),
        "C2_certified": certified,
        "shape_ratio": ratio,
        "shape_ratio_min": shape_ratio_min,
        "passed": bool(certified > 0.0 and ratio >= shape_ratio_min),
    }


def width_normalizer_sum(eps, cutoff=2_000_000):
    """The width normaliser of explicit_formula summed term by term:
    1 / (sum_{j<=cutoff} 1/(j log(1+j)^{1+eps}) + log(cutoff+1.5)^{-eps}/eps)."""
    j = np.arange(1, cutoff + 1, dtype=float)
    head = float(np.sum(1.0 / (j * np.log(1.0 + j) ** (1.0 + eps))))
    tail = (math.log(cutoff + 1.5) ** (-eps)) / eps
    return 1.0 / (head + tail)


def box_convolution_same(eps, J, grid_size=1 << 14):
    """Values of build_test_function(eps, J, grid_size), each box convolved
    over the whole zero-padded grid with np.convolve(mode="same")."""
    if grid_size % 2 == 0:
        grid_size += 1
    mu = ef._widths(eps, J)
    x = np.linspace(-1.0, 1.0, grid_size)
    h = x[1] - x[0]
    vals = None
    for m in mu:
        half = int(np.floor(m / h))
        kern = np.ones(2 * half + 1)
        kern[0] = kern[-1] = 0.5 + (m / h - half)
        kern /= kern.sum()
        if vals is None:
            pad = (grid_size - len(kern)) // 2
            vals = np.concatenate([np.zeros(pad), kern / h,
                                   np.zeros(grid_size - pad - len(kern))])
        else:
            vals = np.convolve(vals, kern, mode="same")
    return vals


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


def word_map(data, w):
    """Compose generators along w (1-based letters), one Moebius product
    per letter; empty word -> identity.  A letter out of range or followed
    by its inverse raises ValueError."""
    m = data.m
    for i, x in enumerate(w):
        if not 1 <= x <= 2 * m:
            raise ValueError(f"letter {x} out of range for m={m}")
        if i and x == data.inverse_letter(w[i - 1]):
            raise ValueError(f"inadmissible word: letter {w[i - 1]} followed by its inverse")
    g = sk.MoebiusMap.identity()
    for k in w:
        g = g.compose(data.gen(k))
    return g


def dense_laplacian(graph):
    """I - A/k of the Cayley graph, from its adjacency matrix."""
    A = cayley.adjacency_matrix(graph)
    return np.eye(A.shape[0]) - A / graph.degree


def connected_bfs(graph):
    """Whether the Cayley graph is connected, by a breadth-first walk from 0
    over every vertex."""
    moduli = graph.quotient.moduli
    zero = tuple(0 for _ in moduli)
    seen = {zero}
    frontier = [zero]
    while frontier:
        nxt = []
        for v in frontier:
            for s in graph.gens:
                w = tuple((a + b) % n for a, b, n in zip(v, s, moduli))
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return len(seen) == graph.order


def legendre(x, p):
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
        if p <= 3 or any(p % q == 0 for q in range(2, math.isqrt(p) + 1)):
            raise ValueError("p must be an odd prime > 3")
        for f in ("a", "b", "c", "d"):
            object.__setattr__(self, f, getattr(self, f) % p)
        if (self.a * self.d - self.b * self.c) % p != 1:
            raise ValueError("determinant must be 1 mod p")

    @property
    def trace(self):
        return (self.a + self.d) % self.p

    def mul(self, other):
        p = self.p
        return FpMatrix(
            (self.a * other.a + self.b * other.c) % p,
            (self.a * other.b + self.b * other.d) % p,
            (self.c * other.a + self.d * other.c) % p,
            (self.c * other.b + self.d * other.d) % p, p)

    def inv(self):
        return FpMatrix(self.d, -self.b, -self.c, self.a, self.p)

    def neg(self):
        return FpMatrix(-self.a, -self.b, -self.c, -self.d, self.p)

    def is_identity(self):
        return (self.a, self.b, self.c, self.d) == (1, 0, 0, 1)

    def key(self):
        return (self.a, self.b, self.c, self.d)


def _int_matrix(g):
    ints = [int(round(v)) for v in (g.a, g.b, g.c, g.d)]
    if max(abs(v - i) for v, i in zip((g.a, g.b, g.c, g.d), ints)) > 1e-9:
        raise ValueError("matrix entries are not integers")
    return ints


def reduce_mod_p(obj, p, data=None):
    """Entrywise reduction of an integer Moebius map, or of the word of a
    geodesic class or a tuple of letters composed from the group's
    generators, one letter at a time."""
    if isinstance(obj, sk.MoebiusMap):
        return FpMatrix(*_int_matrix(obj), p)
    word = obj.word if isinstance(obj, sk.GeodesicClass) else obj
    g = FpMatrix(1, 0, 0, 1, p)
    for k in word:
        g = g.mul(FpMatrix(*_int_matrix(data.gen(k)), p))
    return g


def classify(g):
    """The conjugacy class label of one FpMatrix."""
    p = g.p
    t = g.trace
    if t == 2 % p and g.is_identity():
        return cg.ConjClassLabel(trace=t, kind="central", sign=1)
    if t == (p - 2) % p and g.neg().is_identity():
        return cg.ConjClassLabel(trace=t, kind="central", sign=-1)
    disc = (t * t - 4) % p
    if disc != 0:
        if legendre(disc, p) == 1:
            return cg.ConjClassLabel(trace=t, kind="split-torus")
        return cg.ConjClassLabel(trace=t, kind="nonsplit-torus")
    # t = +-2, non central: unipotent up to sign; h is conjugate to
    # [[1, x], [0, 1]], whose square class is that of -c_h, or of b_h when
    # c_h = 0
    sign = 1 if t == 2 else -1
    h = g if sign == 1 else g.neg()
    x = (p - h.c) % p if h.c else h.b
    return cg.ConjClassLabel(trace=t, kind="unipotent", sign=sign,
                             square_class=legendre(x, p))


def reduced_power(data, c, k, p):
    """C^k mod p for a geodesic class C, by repeated FpMatrix products."""
    g = reduce_mod_p(c, p, data=data)
    gk = g
    for _ in range(k - 1):
        gk = gk.mul(g)
    return gk


def conj1_double_loop(data, p, beta):
    """congruence.conj1_check over every pair i < j of power classes, one
    scalar classify per class."""
    entries = [(c, k, t, classify(reduced_power(data, c, k, p)))
               for c, k, t, _ in cg.power_classes(data, beta * math.log(p))]
    violations = []
    for i in range(len(entries)):
        for j in range(i + 1, len(entries)):
            ci, ki, ti, li = entries[i]
            cj, kj, tj, lj = entries[j]
            if (ti == tj) != (li == lj):
                violations.append(((ci.word, ki), (cj.word, kj), ti, tj, li, lj))
    return violations


def abelian_average_crosscheck(data, N, T, phi0=None):
    """On the abelian quotient Z/N (first homology coordinate), the direct
    character sum sum_alpha |I(chi_alpha, T)|^2 and its Dirac form, the
    pair sum grouped by projection."""
    if phi0 is None:
        phi0 = lambda x: 1.0 if abs(x) <= 1.0 else 0.0
    rows = []
    for c, k, t, ell in cg.power_classes(data, T):
        proj = (k * c.homology[0]) % N
        w = (c.length / (1.0 - math.exp(k * c.length))) * phi0(k * c.length / T)
        rows.append((proj, w))
    direct = 0.0
    for alpha in range(N):
        I = sum(w * np.exp(2j * np.pi * alpha * g / N) for g, w in rows)
        direct += abs(I) ** 2
    # pairs with equal projection, grouped by it: N * sum_g (sum_{proj=g} w)^2
    mass = defaultdict(float)
    for g, w in rows:
        mass[g] += w
    dirac = N * sum(v * v for v in mass.values())
    return float(direct), float(dirac)
