"""Truncated matrices of twisted transfer operators in an explicit Bergman
basis, with Fredholm determinants, trace diagnostics and singular values.

The operator acts on tuples of holomorphic functions, one per disc.  For z
in disc i it sums (gamma_a'(z))^s rho(gamma_a) F(gamma_a z) over the letters
a != i; the letter a carries functions on disc inv(a) to functions on disc i.
Matrix coefficients are extracted by sampling on a circle inside the target
disc and taking a discrete Fourier transform, which is spectrally accurate
because every summand is holomorphic on a strictly larger disc.  Everything
in a block that does not depend on s (sample points, log gamma', basis values
at the images, scales) is built once per (group, lmax) and cached.

`assemble` builds the untwisted matrix in one engine: a new s costs one
exponential and one matrix product with the folded truncated DFT per run of
target discs, computed in this thread's work buffers and written straight
into the matrix.  Every other twist is that matrix lifted by `_lift`, which
places the unitary of each source disc's connecting letter on its columns.
`assemble_blocks` is a view of the untwisted matrix, block by block.
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

_SAMPLE_FRACTION = 0.75
# Upper bound on the samples of one exponential and DFT run, in bytes; a
# run always holds at least one target disc.
_RUN_BYTES = 256 * 1024

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
            e = np.exp(np.array(self.theta) * (2j * np.pi))
            return np.concatenate((e, e.conj())).reshape(2 * m, 1, 1)
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


def _roots_of_unity(K: int) -> np.ndarray:
    """exp(2 pi i k / K) for k < K, K a multiple of 4.  Every entry is the
    cosine and sine of an angle in [0, pi/4], moved by the symmetries of the
    square, so no large angle is rounded before its cosine is taken."""
    q = K // 4
    j = np.arange(q)
    a = 2 * np.pi * np.minimum(j, q - j) / K
    near = 2 * j <= q
    c, s = np.cos(a), np.sin(a)
    quarter = np.where(near, c, s) + 1j * np.where(near, s, c)
    return np.concatenate([quarter, 1j * quarter, -quarter, -1j * quarter])


@functools.lru_cache(maxsize=32)
def _sample_tables(data: sk.SchottkyData, lmax: int):
    """The s-independent parts of every admissible block, built once per
    (group, lmax) and stacked over the 2m(2m-1) (target, source) disc pairs
    in target-major order (the 2m-1 pairs of target i are rows
    i*(2m-1) .. (i+1)*(2m-1)-1):

    - log gamma'(z) at the K = 4(lmax+1) sample points z on the circle of
      radius rho_i = 0.75 r_i about the target centre, shape (pairs, K);
    - the source-disc basis functions at the images gamma(z), shape
      (pairs, lmax+1, K);
    - the (target, source) pairs themselves;
    - the runs of `assemble`: consecutive target discs whose samples fit in
      _RUN_BYTES, each as (pair rows, target and source index of each pair,
      folded DFT tables of its targets).  The folded truncated DFT F_i of
      target disc i, shape (K, lmax+1), takes samples on the circle of
      disc i to output coefficients in one matrix product.  With circle[k]
      = exp(2 pi i k / K), F_i[k, l] is
      conj(circle)[(k l) mod K] * sqrt(pi/(l+1)) r_i^(l+1) / (K rho_i^l):
      the twiddle of DFT output l, the 1/K of the DFT, the Taylor
      coefficient's radius rho_i^-l and the output scale in one factor.
      The twiddles are indexed by the exact residue (k l) mod K, so no
      large angle enters an exponential.  F_i depends on disc i only
      through r_i, so discs of one radius share one read-only table; a
      run's tables are stacked, or the one table its targets share is
      given with a leading axis of 1, so that such a run is a single
      product.

    gamma is the generator of the connecting letter inv(source)."""
    if lmax < 2:
        raise ValueError("lmax must be >= 2")
    m = data.m
    nd = 2 * m
    nb = lmax + 1
    K = 4 * nb
    npairs = nd * (nd - 1)
    logd = np.empty((npairs, K), dtype=complex)
    basis = np.empty((npairs, nb, K), dtype=complex)
    by_radius = {}
    pairs = []
    ell = np.arange(nb)
    circle = _roots_of_unity(K)
    twiddle = circle.conj()[np.outer(np.arange(K), ell) % K]
    for i in range(nd):
        tgt = data.discs[i]
        rho = _SAMPLE_FRACTION * tgt.radius
        z = tgt.center + rho * circle
        if tgt.radius not in by_radius:
            scale = np.sqrt(np.pi / (ell + 1)) * tgt.radius ** (ell + 1)
            by_radius[tgt.radius] = twiddle * (scale / (K * rho ** ell))
        for j in range(nd):
            a0 = (j + m) % nd  # 0-based connecting letter, inv(j)
            if a0 == i:
                continue
            g = data.gen(a0 + 1)
            src = data.discs[j]
            den = g.c * z + g.d
            dv = 1.0 / den ** 2
            if np.any((dv.real <= 0) & (np.abs(dv.imag) < 1e-300)):
                raise ValueError("sampled derivative on the branch cut")
            w = (g.a * z + g.b) / den
            u = (w - src.center) / src.radius
            k = len(pairs)
            logd[k] = np.log(dv)
            basis[k] = ((np.sqrt((ell[:, None] + 1) / np.pi) / src.radius)
                        * u[None, :] ** ell[:, None])
            pairs.append((i, j))
    for arr in (logd, basis, *by_radius.values()):
        arr.setflags(write=False)
    per = nd - 1
    group_bytes = per * nb * K * basis.itemsize
    discs_per_run = max(1, _RUN_BYTES // group_bytes)
    runs = []
    for first in range(0, nd, discs_per_run):
        last = min(nd, first + discs_per_run)
        rows = slice(first * per, last * per)
        tgt, src = (np.array(ix) for ix in zip(*pairs[rows]))
        tables = [by_radius[d.radius] for d in data.discs[first:last]]
        if all(f is tables[0] for f in tables):
            stacked = tables[0][None]
        else:
            stacked = np.stack(tables)
            stacked.setflags(write=False)
        runs.append((rows, tgt, src, stacked))
    return logd, basis, tuple(pairs), tuple(runs)


def assemble_blocks(data: sk.SchottkyData, s: complex, lmax: int) -> dict:
    """Scalar coefficient blocks of the untwisted matrix keyed by (target
    disc, source disc), 0-based, in target-major order; missing keys are
    structurally zero.  Block (i, j) has rows indexed by target degree and
    columns by source degree, and is a view of the matrix."""
    pairs = _sample_tables(data, lmax)[2]
    M = assemble(data, s, TwistSpec.trivial(), lmax)
    nb = lmax + 1
    return {(i, j): M[i * nb:(i + 1) * nb, j * nb:(j + 1) * nb] for i, j in pairs}


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
    For d = 1 that is one phase per column."""
    nd, d = letters.shape[:2]
    nb = M.shape[0] // nd
    if d == 1:
        return M * letters.reshape(nd)[_source_letters(nd, nb)]
    U = letters[_source_letters(nd, 1)].transpose(1, 0, 2)[:, :, None, :]
    return (M.reshape(nd, nb, 1, nd, nb, 1) * U).reshape(nd * nb * d, -1)


def _work_buffers(size: int) -> tuple[np.ndarray, np.ndarray]:
    """This thread's two flat work buffers, grown to at least size samples.
    Pool threads share det closures, so the buffers cannot be shared."""
    bufs = getattr(_work, "bufs", None)
    if bufs is None or bufs[0].size < size:
        bufs = _work.bufs = (np.empty(size, dtype=complex), np.empty(size, dtype=complex))
    return bufs


def assemble(data: sk.SchottkyData, s: complex, twist: TwistSpec,
             lmax: int) -> np.ndarray:
    """Truncated matrix of the twisted operator at s with degrees 0..lmax.

    The untwisted matrix is assembled run by run (one exponential, then one
    product with the folded DFT of the run's targets), written through a
    (target, source, source degree, target degree) view of the output; any
    other twist is then applied by `_lift`."""
    letters = None if twist.kind == "trivial" else twist.letter_matrices(data.m)
    logd, basis, _, runs = _sample_tables(data, lmax)
    nd = 2 * data.m
    nb = lmax + 1
    K = 4 * nb
    out = np.zeros((nd, nb, nd, nb), dtype=complex)
    placed = out.transpose(0, 2, 3, 1)
    prod, spec = _work_buffers(len(runs[0][1]) * nb * K)  # the first run is the longest
    for rows, tgt, src, fold in runs:
        n = len(tgt)
        dpow = np.multiply(s, logd[rows], out=spec[:n * K].reshape(n, K))
        np.exp(dpow, out=dpow)
        vals = np.multiply(dpow[:, None, :], basis[rows],
                           out=prod[:n * nb * K].reshape(n, nb, K))
        taylor = np.matmul(vals.reshape(len(fold), -1, K), fold,
                           out=spec[:n * nb * nb].reshape(len(fold), -1, nb))
        placed[tgt, src] = taylor.reshape(n, nb, nb)
    M = out.reshape(nd * nb, nd * nb)
    return M if letters is None else _lift(M, letters)


def fredholm_det(M: np.ndarray) -> complex:
    """det(identity - truncated matrix); converges super-exponentially in
    lmax to the Fredholm determinant."""
    return complex(np.linalg.det(np.eye(M.shape[0]) - M))


def singular_values(M: np.ndarray) -> np.ndarray:
    return np.linalg.svd(M, compute_uv=False)


def spectral_radius(M: np.ndarray) -> float:
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
