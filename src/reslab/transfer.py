"""Truncated matrices of twisted transfer operators in an explicit Bergman
basis, with Fredholm determinants, trace diagnostics and singular values.

The operator acts on tuples of holomorphic functions, one per disc.  For z
in disc i it sums (gamma_a'(z))^s rho(gamma_a) F(gamma_a z) over the letters
a != i; the letter a carries functions on disc inv(a) to functions on disc i.
Every matrix coefficient is a Taylor coefficient at a target disc centre,
taken from two power series in closed form: that of gamma'^s = exp(s L0)
(1 + q zeta)^(-2s), which depends on s, and those of the powers of the
Moebius image of the source basis, which do not (`_pair_series`).  So a
block is diag(target scales) T(e(s)) U diag(source scales), T(e) the
lower-triangular Toeplitz matrix of gamma'^s's coefficients, and U, L0 and
the scales are built once per (group, lmax) and cached.

`assemble` builds the untwisted matrix in one engine: `_plan` caches those
series of every (target, source) pair once per (group, lmax), and `_place`
turns them into blocks at a 1-D array of s: per run of target discs
(`_run_taylor`), one exponential and one cumulative product of ratios over
(pairs, s) give the coefficients, one strided read gives their Toeplitz
matrices, and one real matrix product per (s, pair) applies U, computed in
this thread's work buffers and written straight into a (s, sectors, h, h)
stack.  A scalar s is a batch of one;
`_batch` says how many s fit in one pass, and `fredholm_det` takes the
determinants of a whole batch in one stacked LU call.  Every other twist
is that matrix lifted by `_lift`, which places the unitary of each source
disc's connecting letter on its columns.  `assemble_blocks` is a view of
the untwisted matrix, block by block.  Many abelian characters at one s
share that matrix further: `_character_dets` eliminates their lattice
coordinates one at a time, by Schur complements over the discs of each
coordinate, and takes one small stacked LU per character at the end.

A group whose discs and generators are symmetric under J(z) = c0 - z
(cylinder, symmetric3, sl2z-pair, or any group file with that symmetry) has
an untwisted operator that commutes with F -> F o J.  Asked for its sectors,
`assemble` runs the same plan and placement over half the pairs and returns
the two half-size matrices of the +-1 eigenspaces, whose determinants
multiply to the full one (Borthwick-Weich, J. Spectral Theory 6, 2016);
`fredholm_det` keeps them apart, and factors the cylinder's one repeated
matrix once.  The whole matrix is the unsplit case of that plan: its disc
permutation is the identity, so every disc is a representative.
"""

from __future__ import annotations

import cmath
import functools
import math
import threading
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import schottky as sk
from .schottky import word_products

__all__ = [
    "TwistSpec",
    "assemble",
    "assemble_blocks",
    "fredholm_det",
    "operator_trace_check",
    "lefschetz_sum",
    "singular_values",
    "spectral_radius",
]

# Upper bound on the Toeplitz factors of one run, nb^2 entries per pair and
# s, in bytes, over every s of a batch; a run always holds at least one
# target disc and a batch at least one s.
_RUN_BYTES = 256 * 1024

# Relative tolerance of the geometric symmetry test in `_disc_involution`.
_SYMMETRY_RTOL = 1e-10

_work = threading.local()


@dataclass(frozen=True)
class TwistSpec:
    """Unitary twist: trivial, an abelian character, explicit matrices per
    letter, or the regular representation of a finite abelian quotient."""

    kind: str
    dim: int
    theta: Optional[tuple[float, ...]] = None
    moduli: Optional[tuple[int, ...]] = None
    _mats: Optional[tuple] = field(default=None, repr=False)

    @staticmethod
    def trivial() -> "TwistSpec":
        return TwistSpec(kind="trivial", dim=1)

    @staticmethod
    def abelian(theta: Sequence[float]) -> "TwistSpec":
        return TwistSpec(kind="abelian", dim=1, theta=tuple(float(t) for t in theta))

    @staticmethod
    def matrix(mats: Sequence[np.ndarray]) -> "TwistSpec":
        """One unitary per generator letter 1..m; inverse letters get the
        conjugate transposes."""
        ms = tuple(np.asarray(u, dtype=complex) for u in mats)
        if not ms:
            raise ValueError("need at least one twist matrix")
        d = ms[0].shape[0]
        for u in ms:
            if u.shape != (d, d):
                raise ValueError("twist matrices must share one square shape")
            if np.max(np.abs(u @ u.conj().T - np.eye(d))) > 1e-10:
                raise ValueError("twist matrix is not unitary to 1e-10")
        return TwistSpec(kind="matrix", dim=d, _mats=ms)

    @staticmethod
    def regular(moduli: Sequence[int]) -> "TwistSpec":
        mods = tuple(int(n) for n in moduli)
        if any(n < 1 for n in mods):
            raise ValueError("moduli must be >= 1")
        d = int(np.prod(mods))
        return TwistSpec(kind="regular", dim=d, moduli=mods)

    def letter_matrices(self, m: int) -> np.ndarray:
        """Unitaries of letters 1..2m, shape (2m, dim, dim), index k-1 for
        letter k; letter m+k is the inverse of letter k.

        Letter k of regular(N_1, .., N_m) adds 1 to the k-th coordinate of
        the group element, lexicographically indexed: it is kron(I_{N_1}, ..,
        S_{N_k}, .., I_{N_m}) with the cyclic shift S_N = roll(I_N, 1, axis=0),
        built by rolling row axis k of the identity read as a tensor."""
        if self.kind == "trivial":
            return np.ones((2 * m, 1, 1), dtype=complex)
        if self.kind == "abelian":
            if len(self.theta) != m:
                raise ValueError(f"theta must have dimension m={m}")
            return _character_letters(np.array(self.theta))
        if self.kind == "matrix":
            if len(self._mats) != m:
                raise ValueError(f"need {m} twist matrices")
            out = np.stack(self._mats)
            return np.concatenate((out, out.conj().transpose(0, 2, 1)))
        if self.kind == "regular":
            if len(self.moduli) != m:
                raise ValueError(f"moduli must have dimension m={m}")
            eye = np.eye(self.dim, dtype=complex).reshape(self.moduli * 2)
            out = np.stack([np.roll(eye, 1, axis=k).reshape(self.dim, self.dim)
                            for k in range(m)])
            return np.concatenate((out, out.transpose(0, 2, 1)))
        raise ValueError(f"unknown twist kind: {self.kind}")


def _character_letters(theta: np.ndarray) -> np.ndarray:
    """Letter unitaries of the characters theta, shape (..., m), as an
    array (..., 2m, 1, 1): exp(2 pi i theta_k) for letter k and its
    conjugate for the inverse letter m+k."""
    e = np.exp(theta * (2j * np.pi))
    return np.concatenate((e, e.conj()), axis=-1)[..., None, None]


def _pair_series(data: sk.SchottkyData, lmax: int, targets: Sequence[int]):
    """The s-independent parts of the Taylor blocks of every admissible
    (target, source) pair of the given target discs, in target-major order
    (2m-1 pairs per target), and the pairs.

    For target disc i, source disc j and the generator g = [[a, b], [c, d]]
    of the connecting letter inv(j), write zeta = (z - c_i)/r_i, D = c c_i
    + d and q = c r_i / D.  Then gamma'(z)^s = exp(s L0) (1 + q zeta)^(-2s)
    with L0 = -2 log|D|, whose Taylor coefficients are e_0 = exp(s L0) and
    e_n = e_(n-1) (2s + n - 1) (-q/n), and u = (g(z) - c_j)/r_j has u_0 =
    (A0 - c_j)/r_j and u_n = (-q)^(n-1) (A1 - q A0)/r_j for n >= 1, with A0
    = (a c_i + b)/D and A1 = a r_i / D.  Block (i, j) is diag(sqrt(pi/(l'+1))
    r_i) T(e) U diag(sqrt((l+1)/pi)/r_j), T(e) the lower-triangular Toeplitz
    matrix of e and U[:, l] the coefficients of u^l.

    Returns, per pair and shaped for `_run_taylor`: L0, (pairs, 1), in long
    double; the ratio e_n / e_(n-1) = s rate_n + offset_n as rate_n = -2q/n
    and offset_n = -q (n-1)/n for n = 1..lmax, (pairs, 1, lmax) each; the
    target scales sqrt(pi/(l'+1)) r_i, (pairs, 1, nb); the source side (U
    diag(..))^T by (source degree, series degree), real, (pairs, nb, nb);
    and the pairs.  The scalars, the scales and the coefficients of u are
    computed in long double and rounded once (u_0 = (A0 - c_j)/r_j cancels
    when g(c_i) lies near c_j); the powers of u are taken in double.

    Both series converge on the target disc when |q| < 1, that is when the
    pole of g lies outside its closure; then exp(s L0) (1 + q zeta)^(-2s)
    is the principal power of gamma'.  Otherwise raises ValueError."""
    m = data.m
    nd = 2 * m
    nb = lmax + 1
    pairs = [(i, j) for i in targets for j in range(nd) if (j + m) % nd != i]
    wide = np.longdouble
    n = np.arange(1, nb, dtype=wide)
    ell = np.arange(nb, dtype=wide)
    lag = np.subtract.outer(np.arange(nb), np.arange(nb))
    logd = np.empty((len(pairs), 1), dtype=wide)
    rate = np.empty((len(pairs), 1, lmax), dtype=complex)
    offset = np.empty((len(pairs), 1, lmax), dtype=complex)
    scale = np.empty((len(pairs), 1, nb), dtype=complex)
    u = np.empty((len(pairs), nb))
    weight = np.empty((len(pairs), nb, 1))
    for k, (i, j) in enumerate(pairs):
        tgt, src = data.discs[i], data.discs[j]
        letter = (j + m) % nd + 1
        g = data.gen(letter)
        a, b, c, d, ci, ri, cj, rj = (wide(v) for v in (g.a, g.b, g.c, g.d, tgt.center,
                                                         tgt.radius, src.center, src.radius))
        D = c * ci + d
        if abs(c * ri) >= abs(D):
            raise ValueError(f"the pole of letter {letter} lies in the closed target disc"
                             f" {i}: the Taylor series of pair ({i}, {j}) diverges")
        q = c * ri / D
        a0 = (a * ci + b) / D
        logd[k] = -2 * np.log(abs(D))
        rate[k] = -2 * q / n
        offset[k] = -q * (n - 1) / n
        scale[k] = np.sqrt(np.pi / (ell + 1)) * ri
        u[k, 0] = (a0 - cj) / rj
        u[k, 1:] = (-q) ** (n - 1) * ((a * ri / D - q * a0) / rj)
        weight[k, :, 0] = np.sqrt((ell + 1) / np.pi) / rj
    # row l of a pair's source side: the coefficients of u^l, each power
    # the last one times the lower-triangular Toeplitz matrix of u
    shift = np.where(lag >= 0, np.take(u, np.maximum(lag, 0), axis=1), 0.0)
    basis = np.empty((len(pairs), nb, nb))
    power = np.zeros((len(pairs), nb, 1))
    power[:, 0] = 1.0
    for l in range(nb):
        basis[:, l] = power[:, :, 0]
        power = shift @ power
    basis *= weight
    return logd, rate, offset, scale, basis, pairs


@functools.lru_cache(maxsize=32)
def _disc_involution(data: sk.SchottkyData) -> Optional[tuple[int, ...]]:
    """The disc permutation sigma of the involution J(z) = c0 - z, with c0
    the sum of the smallest and largest disc centres, or None when J is not
    a symmetry of the group.  It is one when, to a relative tolerance, J
    maps every disc i onto a disc sigma(i) != i of the same radius, sigma
    commutes with the letter inversion inv, and every generator satisfies
    J g_a J = +-g_pi(a) with pi(a) = inv(sigma(inv(a))) = sigma(a).  Then
    F -> F o J commutes with every L_s.  Geometry only: nothing here
    assembles a matrix.  Cached per group, so the split plans and the
    character scans of `abelian` share one sigma."""
    nd = 2 * data.m
    centres = np.array([d.center for d in data.discs])
    radii = np.array([d.radius for d in data.discs])
    c0 = centres.min() + centres.max()
    tol = _SYMMETRY_RTOL * (np.abs(centres).max() + radii.max())
    sigma = []
    for c, r in zip(centres, radii):
        hit = np.flatnonzero((np.abs(centres - (c0 - c)) <= tol)
                             & (np.abs(radii - r) <= _SYMMETRY_RTOL * r))
        if len(hit) != 1:
            return None
        sigma.append(int(hit[0]))
    inv = [(a + data.m) % nd for a in range(nd)]
    if any(sigma[i] == i or sigma[inv[i]] != inv[sigma[i]] for i in range(nd)):
        return None
    J = np.array([[-1.0, c0], [0.0, 1.0]])
    gens = data.gens_array()
    for a in range(nd):
        conj, target = J @ gens[a] @ J, gens[sigma[a]]
        gap = min(np.abs(conj - target).max(), np.abs(conj + target).max())
        if gap > _SYMMETRY_RTOL * np.abs(target).max():
            return None
    return tuple(sigma)


@functools.lru_cache(maxsize=64)
def _plan(data: sk.SchottkyData, lmax: int, split: bool):
    """The s-independent tables of the untwisted matrix, built once per
    (group, lmax, split); None when split is asked of a group without the
    disc involution J.

    With split, sigma is the disc permutation of J (`_disc_involution`).  In
    the Bergman basis F -> F o J is the signed permutation P with
    (Pa)_{i,l} = (-1)^l a_{sigma(i),l}, and P M P = M.  On the +-1
    eigenspaces of P, M acts in the coordinates of one representative disc
    i <= sigma(i) of each orbit as M+- = X +- Y, with X[i, c] = M[i, c] and
    Y[i, c] = M[i, sigma(c)] D, D = diag((-1)^l), over representatives i
    and c; so det(I - M) = det(I - M+) det(I - M-).  Without split, sigma
    is the identity: every disc is a representative, X = M and Y is empty.

    Only the representatives' target rows are built (`_pair_series`).  A
    pair (i, j) whose source j is not a representative belongs to Y, in
    column sigma(j); its source side is scaled by (-1)^l here, so that its
    block already carries D.  The runs are consecutive representatives
    whose work arrays fit in _RUN_BYTES, at least one each.  Returns (runs,
    reps, crossed, split): the runs, each as (target and source column of
    each pair, 0 or 1 for X or Y, and the pairs' `_pair_series` parts); the
    number of representatives; whether Y has any block; and split."""
    if lmax < 2:
        raise ValueError("lmax must be >= 2")
    nd = 2 * data.m
    sigma = _disc_involution(data) if split else tuple(range(nd))
    if sigma is None:
        return None
    reps = [i for i in range(nd) if i <= sigma[i]]
    column = {}
    for k, i in enumerate(reps):
        column[i] = column[sigma[i]] = k
    *series, pairs = _pair_series(data, lmax, reps)
    half = np.array([j not in reps for _, j in pairs], dtype=int)
    series[-1][half == 1] *= ((-1.0) ** np.arange(lmax + 1))[:, None]
    for arr in series:
        arr.setflags(write=False)
    per = nd - 1
    nb = lmax + 1
    per_run = max(1, _RUN_BYTES // (per * nb * nb * np.dtype(complex).itemsize))
    runs = []
    for first in range(0, len(reps), per_run):
        rows = slice(first * per, min(first + per_run, len(reps)) * per)
        runs.append((*(np.array([column[d] for d in ix]) for ix in zip(*pairs[rows])),
                     half[rows], tuple(arr[rows] for arr in series)))
    return tuple(runs), len(reps), bool(half.any()), split


def assemble_blocks(data: sk.SchottkyData, s: complex, lmax: int) -> dict:
    """Scalar coefficient blocks of the untwisted matrix keyed by (target
    disc, source disc), 0-based, in target-major order; missing keys are
    structurally zero.  Block (i, j) has rows indexed by target degree and
    columns by source degree, and is a view of the matrix."""
    M = assemble(data, s, TwistSpec.trivial(), lmax)
    nd, nb = 2 * data.m, lmax + 1
    return {(i, j): M[i * nb:(i + 1) * nb, j * nb:(j + 1) * nb]
            for i in range(nd) for j in range(nd) if (j + data.m) % nd != i}


@functools.lru_cache(maxsize=64)
def _source_letters(nd: int, nb: int) -> np.ndarray:
    """0-based connecting letter inv(j) = (j + nd/2) mod nd of the source
    disc j of each of the nd*nb columns (nb columns per disc), read-only."""
    index = np.repeat((np.arange(nd) + nd // 2) % nd, nb)
    index.setflags(write=False)
    return index


def _lift(M: np.ndarray, letters: np.ndarray) -> np.ndarray:
    """The twisted matrix from the untwisted one M and the (2m, d, d) letter
    unitaries: every column of source disc j carries the unitary U_j of its
    connecting letter inv(j), so block (i, j) becomes the Kronecker product
    b (x) U_j, whose row r*d+p, column c*d+q holds b[r, c] * U_j[p, q].
    For d = 1 that is one phase per column.  Leading axes of M (a batch
    over s) are kept."""
    nd, d = letters.shape[:2]
    nb = M.shape[-1] // nd
    if d == 1:
        return M * letters.reshape(nd)[_source_letters(nd, nb)]
    U = letters[_source_letters(nd, 1)].transpose(1, 0, 2)[:, :, None, :]
    lead = M.shape[:-2]
    return (M.reshape(lead + (nd, nb, 1, nd, nb, 1)) * U).reshape(lead + (nd * nb * d, -1))


@functools.lru_cache(maxsize=16)
def _lattice_order(m: int, nb: int) -> np.ndarray:
    """The columns of the 2m discs (nb each) in the order 0, m, 1, m+1, ..,
    m-1, 2m-1, read-only: lattice coordinate k of a character lives on
    positions 2k nb to 2(k+1) nb of this order."""
    discs = np.arange(2 * m).reshape(2, m).T.reshape(-1)
    index = (discs[:, None] * nb + np.arange(nb)).reshape(-1)
    index.setflags(write=False)
    return index


def _character_dets(base: np.ndarray, thetas: np.ndarray) -> tuple[np.ndarray, int]:
    """det(I - M D_theta) for every character theta, a row of thetas (C,
    m), where M is the untwisted matrix base at one s and D_theta the
    column phases of `_lift`; with the number of blocks eliminated.

    Coordinate k of theta lives only on the columns of discs k and k+m:
    exp(-2 pi i theta_k) on disc k, its conjugate on disc k+m.  With those
    2nb columns first (`_lattice_order`), M = [[A, B], [C, R]] and D = D_A
    (+) D_R give det(I - M D) = det(I - A D_A) det(I - S D_R), where S = R
    + C D_A (I - A D_A)^-1 B depends on theta_1 alone.  So one block is
    eliminated per distinct theta_1, then one per distinct (theta_1,
    theta_2) from its S, and so on; the last coordinate's determinants
    det(I - S D_last) are one stacked LU over every character.  For m = 1
    that LU is the whole computation.  At the first level A is
    block-diagonal, since discs k and k+m never feed each other, so its
    solves are two stacked nb x nb ones.  Eliminating coordinates 1..k
    factors I minus the twisted operator of the Schottky subgroup of
    letters 1..k on its own discs, which has no eigenvalue 1 at a real s
    above that subgroup's critical exponent, and so at the group's delta.
    A block that is exactly singular (at s = 0 the determinant of each
    cyclic subgroup vanishes) leaves the characters under it to one LU each
    of the lifted matrix (`_solve`); every other value is unchanged."""
    count, m = thetas.shape
    nb = base.shape[-1] // (2 * m)
    h = 2 * nb
    order = _lattice_order(m, nb)
    phases = _character_letters(thetas).reshape(count, 2 * m)[:, _source_letters(2 * m, nb)[order]]
    S = base[np.ix_(order, order)][None]
    member = np.zeros(count, dtype=int)  # each character's matrix in the stack S
    dets = np.ones(count, dtype=complex)
    direct = np.zeros(count, dtype=bool)  # under an exactly singular block
    eliminated = 0
    for k in range(m - 1):
        _, first, inverse = np.unique(thetas[:, :k + 1], axis=0, return_index=True,
                                      return_inverse=True)
        D = phases[first, k * h:(k + 1) * h]
        if k == 0:
            e = D[:, ::nb].T[:, :, None, None]  # (2, U, 1, 1): the phases of A's two blocks
            lhs = _identity(nb) - e * np.stack((S[0, :nb, :nb], S[0, nb:h, nb:h]))[:, None]
            pivots = np.prod(np.linalg.det(lhs), axis=0)
            X = e * _solve(lhs, S[0, :h, h:].reshape(2, 1, nb, -1), pivots)
            X = X.transpose(1, 0, 2, 3).reshape(len(first), h, -1)
            C, R = S[0, h:, :h], S[0, h:, h:]
        else:
            parents = member[first]
            lhs = _identity(h) - S[parents, :h, :h] * D[:, None, :]
            pivots = np.linalg.det(lhs)
            X = D[:, :, None] * _solve(lhs, S[parents, :h, h:], pivots)
            C, R = S[parents, h:, :h], S[parents, h:, h:]
        update = C @ X
        S = np.add(R, update, out=update)
        member = inverse.reshape(-1)
        dets *= pivots[member]
        direct |= pivots[member] == 0
        eliminated += len(first)
    leaf = S[member]
    np.multiply(leaf, phases[:, None, -h:], out=leaf)
    dets *= np.linalg.det(np.subtract(_identity(h), leaf, out=leaf))
    for c in np.flatnonzero(direct):
        dets[c] = fredholm_det(_lift(base, _character_letters(thetas[c])))
    return dets, eliminated


def _solve(lhs: np.ndarray, rhs: np.ndarray, pivots: np.ndarray) -> np.ndarray:
    """np.linalg.solve of a stack of systems, with one determinant in pivots
    per index of the stack's axis -3.  One exactly singular system makes the
    whole stacked solve raise LinAlgError; then those with determinant 0
    are solved with the identity instead, so that the rest keep their
    values bit for bit, and `_character_dets` takes the characters under
    them by one LU each."""
    try:
        return np.linalg.solve(lhs, rhs)
    except np.linalg.LinAlgError:
        lhs = lhs.copy()
        lhs[..., pivots == 0, :, :] = _identity(lhs.shape[-1])
        return np.linalg.solve(lhs, rhs)


def _work_buffers(size: int) -> tuple[np.ndarray, np.ndarray]:
    """This thread's two flat work buffers, grown to at least size complex
    entries: a library caller may assemble from several threads at once."""
    bufs = getattr(_work, "bufs", None)
    if bufs is None or bufs[0].size < size:
        bufs = _work.bufs = (np.empty(size, dtype=complex), np.empty(size, dtype=complex))
    return bufs


def _run_taylor(s: np.ndarray, wide: np.ndarray, logd: np.ndarray, rate: np.ndarray,
                offset: np.ndarray, scale: np.ndarray, basis: np.ndarray,
                prod: np.ndarray, spec: np.ndarray) -> np.ndarray:
    """Taylor blocks (s, pair, source degree, target degree) of one run at
    the values s, shape (B, 1), also given in long double as wide, shape
    (B,), from the run's `_pair_series` parts, in this thread's work
    buffers prod and spec.  The coefficients e of gamma'^s are one
    exponential (in long double) and one cumulative product of ratios per
    (pair, s), written after nb - 1 zeros, so that T(e) scaled by the
    target scales is one strided read of them; the real source side then
    multiplies each T(e), real and imaginary parts at once.  The result is
    a view of spec, valid until the next run."""
    B = len(wide)
    n, _, nb = scale.shape
    series = spec[:n * B * (2 * nb - 1)].reshape(n, B, 2 * nb - 1)
    series[:, :, :nb - 1].fill(0)
    e = series[:, :, nb - 1:]
    e[:, :, 0] = np.exp(logd * wide)
    ratio = np.multiply(s, rate, out=e[:, :, 1:])
    np.add(ratio, offset, out=ratio)
    np.multiply.accumulate(e, axis=2, out=e)
    item = series.itemsize
    toeplitz = np.ndarray((B, n, nb, nb), complex, series, offset=(nb - 1) * item,
                          strides=(series.strides[1], series.strides[0], -item, item))
    factors = np.multiply(toeplitz, scale, out=prod[:B * n * nb * nb].reshape(B, n, nb, nb))
    blocks = spec[:B * n * nb * nb].reshape(B, n, nb, nb)
    np.matmul(basis, factors.view(float), out=blocks.view(float))
    return blocks


def _place(plan, s: np.ndarray, nb: int) -> np.ndarray:
    """X and, when the plan has a crossed block, Y of a `_plan` at every
    value of s, shape (B,), as a stack (B, 1 or 2, h, h) with h = reps *
    nb; `assemble` passes a scalar s as a batch of one.  The work buffers
    hold every s of a run at once, so callers keep a batch within
    `_batch`.  Every block is written through an (s, half, target, source,
    source degree, target degree) view.  A split plan's X and Y come out
    transposed, in which layout that view's last axis is contiguous and the
    blocks are cheapest to write; the whole matrix comes out untransposed,
    because `_lift` and the LU of a C-contiguous matrix are faster than of
    its transpose."""
    runs, reps, crossed, split = plan
    B = len(s)
    out = np.zeros((B, 1 + crossed, reps, nb, reps, nb), dtype=complex)
    placed = out.transpose(0, 1, 4, 2, 3, 5) if split else out.transpose(0, 1, 2, 4, 5, 3)
    prod, spec = _work_buffers(B * len(runs[0][0]) * nb * nb)  # the first run is the longest
    column, wide = s[:, None], s.astype(np.clongdouble)
    for tgt, src, half, series in runs:
        placed[:, half, tgt, src] = _run_taylor(column, wide, *series, prod, spec)
    return out.reshape(B, -1, reps * nb, reps * nb)


def _plan_for(data: sk.SchottkyData, lmax: int, sectors: bool):
    """The split plan when sectors are asked of a group with the disc
    involution, the unsplit one otherwise."""
    return (sectors and _plan(data, lmax, True)) or _plan(data, lmax, False)


def _batch(data: sk.SchottkyData, lmax: int, sectors: bool) -> int:
    """How many values of s one `_place` pass of the untwisted matrix takes
    within _RUN_BYTES: as many as fit with the longest run (the first) of
    the plan that `assemble` picks, at least one."""
    runs = _plan_for(data, lmax, sectors)[0]
    nb = lmax + 1
    return max(1, _RUN_BYTES // (len(runs[0][0]) * nb * nb * np.dtype(complex).itemsize))


def assemble(data: sk.SchottkyData, s: complex | np.ndarray, twist: TwistSpec,
             lmax: int, sectors: bool = False) -> np.ndarray:
    """Truncated matrix of the twisted operator at s with degrees 0..lmax.

    The untwisted matrix is the unsplit `_plan` placed at s (`_place`);
    any other twist is then applied by `_lift`.

    With sectors=True, the untwisted operator of a group with the disc
    involution (`_disc_involution`) comes back as its two half-size sector
    matrices instead, M+- = X +- Y of the split `_plan`, stacked with shape
    (2, n/2, n/2) and each transposed, which is the cheaper layout to
    write: their determinants (`fredholm_det`) multiply to det(I - M) and
    their spectra make up that of M.  Only the representatives' rows are
    assembled.  When Y is empty the stack repeats X (stride 0 on the
    sector axis).  Any other twist or group ignores the flag.

    s may also be a 1-D array, placed in one pass (keep it within
    `_batch`): the result then has a leading axis over s and always a
    sector axis, (len(s), 2, n/2, n/2) for sectors and (len(s), 1, n, n)
    for the whole matrix: `fredholm_det` gives a determinant per matrix."""
    letters = None if twist.kind == "trivial" else twist.letter_matrices(data.m)
    plan = _plan_for(data, lmax, sectors and letters is None)
    values = np.asarray(s, dtype=complex)
    X = _place(plan, values.reshape(-1), lmax + 1)
    if not plan[3]:
        M = X if values.ndim else X[0, 0]
        return M if letters is None else _lift(M, letters)
    if X.shape[1] == 1:
        B, _, h, _ = X.shape
        M = np.ndarray((B, 2, h, h), complex, X, strides=(X.strides[0], 0, *X.strides[2:]))
    else:
        M, difference = X, np.subtract(X[:, 0], X[:, 1])  # X+Y and X-Y in X's place
        np.add(X[:, 0], X[:, 1], out=M[:, 0])
        M[:, 1] = difference
    return M if values.ndim else M[0]


@functools.lru_cache(maxsize=16)
def _identity(n: int) -> np.ndarray:
    """np.eye(n), built once and read-only."""
    eye = np.eye(n)
    eye.setflags(write=False)
    return eye


def fredholm_det(M: np.ndarray) -> complex | np.ndarray:
    """det(identity - truncated matrix); converges super-exponentially in
    lmax to the Fredholm determinant.  A single matrix gives a complex.  A
    stack, such as the sectors of `assemble` with sectors=True or a batch
    over s, shape (s, sectors, h, h), gives the determinant of each matrix
    as an array over its leading axes, in one stacked LU call; nothing is
    multiplied here.  A sector axis that repeats one matrix (stride 0, the
    cylinder's) is factored once and broadcast, read-only."""
    eye = _identity(M.shape[-1])
    if M.ndim > 2 and M.strides[-3] == 0:
        return np.broadcast_to(np.linalg.det(eye - M[..., :1, :, :]), M.shape[:-2])
    dets = np.linalg.det(eye - M)
    return complex(dets) if M.ndim == 2 else dets


def singular_values(M: np.ndarray) -> np.ndarray:
    return np.linalg.svd(M, compute_uv=False)


def spectral_radius(M: np.ndarray) -> float:
    """Largest eigenvalue modulus of a matrix, or over a stack of them."""
    return float(np.max(np.abs(np.linalg.eigvals(M))))


def lefschetz_sum(data: sk.SchottkyData, s: complex, twist: TwistSpec,
                  N: int) -> complex:
    """Fixed-point sum over the closed symbol sequences of length N:
    sum of chi(gamma_alpha) (gamma_alpha'(x_alpha))^s / (1 - gamma_alpha'(x_alpha)).
    """
    words = sk.cyclic_words_array(data.m, N)
    if words.shape[0] == 0:
        return 0.0 + 0.0j
    mats = word_products(data.gens_array(), words)
    umats = twist.letter_matrices(data.m)
    total = 0.0 + 0.0j
    for row, mat in zip(words, mats):
        g = sk.MoebiusMap(mat[0, 0], mat[0, 1], mat[1, 0], mat[1, 1])
        x = g.attracting_fixed_point()
        logd = sk.log_derivative_cocycle(data, tuple(int(k) + 1 for k in row), x)
        dpow = cmath.exp(s * logd)
        deriv = cmath.exp(logd)
        u = np.eye(twist.dim, dtype=complex)
        for k in row:
            u = u @ umats[int(k)]
        total += np.trace(u) * dpow / (1.0 - deriv)
    return total


def operator_trace_check(data: sk.SchottkyData, s: complex, twist: TwistSpec,
                         lmax: int, N: int) -> float:
    """|Tr(M^N) - Lefschetz fixed-point sum| for the assembled matrix."""
    M = assemble(data, s, twist, lmax)
    mn = np.linalg.matrix_power(M, N)
    return abs(complex(np.trace(mn)) - lefschetz_sum(data, s, twist, N))
