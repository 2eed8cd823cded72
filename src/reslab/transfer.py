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

`assemble` is the one engine for rank-one twists (trivial and abelian
characters): a new s costs one exponential and one matrix product with the
folded truncated DFT per run of target discs, computed in this thread's
work buffers and written straight into the matrix, and a character then
multiplies each source disc's column slab by one phase.  Higher-dimensional
twists place the blocks of `assemble_blocks` as Kronecker products
(`blocks_to_matrix`).
"""

from __future__ import annotations

import cmath
import functools
import math
import threading
from dataclasses import dataclass, field
from itertools import product as _iproduct
from typing import Optional, Sequence

import numpy as np

from . import schottky as sk
from .schottky import word_products

__all__ = [
    "TwistSpec",
    "assemble",
    "assemble_blocks",
    "blocks_to_matrix",
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

    def letter_matrices(self, m: int) -> list[np.ndarray]:
        """Unitaries for letters 1..2m in order (index k-1 for letter k)."""
        if self.kind == "trivial":
            one = np.eye(1, dtype=complex)
            return [one] * (2 * m)
        if self.kind == "abelian":
            if len(self.theta) != m:
                raise ValueError(f"theta must have dimension m={m}")
            out = [np.array([[np.exp(2j * np.pi * t)]]) for t in self.theta]
            return out + [u.conj() for u in out]
        if self.kind == "matrix":
            if len(self._mats) != m:
                raise ValueError(f"need {m} twist matrices")
            return list(self._mats) + [u.conj().T for u in self._mats]
        if self.kind == "regular":
            if len(self.moduli) != m:
                raise ValueError(f"moduli must have dimension m={m}")
            elems = list(_iproduct(*[range(n) for n in self.moduli]))
            index = {g: t for t, g in enumerate(elems)}
            out = []
            for k in range(m):
                perm = np.zeros((self.dim, self.dim), dtype=complex)
                for g, t in index.items():
                    h = list(g)
                    h[k] = (h[k] + 1) % self.moduli[k]
                    perm[index[tuple(h)], t] = 1.0
                out.append(perm)
            return out + [u.T for u in out]
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
    - per target disc, the folded truncated DFT fold[i], shape
      (K, lmax+1): one matrix product with fold[i] takes samples on the
      circle of disc i to output coefficients.  With circle[k] =
      exp(2 pi i k / K), fold[i][k, l] is
      conj(circle)[(k l) mod K] * sqrt(pi/(l+1)) r_i^(l+1) / (K rho_i^l):
      the twiddle of DFT output l, the 1/K of the DFT, the Taylor
      coefficient's radius rho_i^-l and the output scale in one factor.
      The twiddles are indexed by the exact residue (k l) mod K, so no
      large angle enters an exponential.  fold[i] depends on disc i only
      through r_i, so discs of one radius share one read-only table;

    plus the (target, source) pairs themselves, and the runs of `assemble`:
    consecutive target discs whose samples fit in _RUN_BYTES, each as (pair
    rows, target and source index of each pair, and the tables of its
    targets stacked, or the one table they share with a leading axis of 1,
    so that a run whose targets share a table is a single product).  gamma
    is the generator of the connecting letter inv(source)."""
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
    fold = tuple(by_radius[d.radius] for d in data.discs)
    per = nd - 1
    group_bytes = per * nb * K * basis.itemsize
    discs_per_run = max(1, _RUN_BYTES // group_bytes)
    runs = []
    for first in range(0, nd, discs_per_run):
        last = min(nd, first + discs_per_run)
        rows = slice(first * per, last * per)
        tgt, src = (np.array(ix) for ix in zip(*pairs[rows]))
        tables = fold[first:last]
        if all(f is tables[0] for f in tables):
            stacked = tables[0][None]
        else:
            stacked = np.stack(tables)
            stacked.setflags(write=False)
        runs.append((rows, tgt, src, stacked))
    return logd, basis, fold, tuple(pairs), tuple(runs)


def assemble_blocks(data: sk.SchottkyData, s: complex, lmax: int) -> dict:
    """Scalar coefficient blocks keyed by (target disc, source disc),
    0-based; missing keys are structurally zero.  Block (i, j) has rows
    indexed by target degree and columns by source degree."""
    logd, basis, fold, pairs, _ = _sample_tables(data, lmax)
    nb = lmax + 1
    per = 2 * data.m - 1
    blocks = {}
    for i in range(2 * data.m):
        rows = slice(i * per, (i + 1) * per)
        vals = np.exp(s * logd[rows])[:, None, :] * basis[rows]
        coeff = (vals.reshape(per * nb, -1) @ fold[i]).reshape(per, nb, nb)
        for key, c in zip(pairs[rows], coeff):
            blocks[key] = c.T
    return blocks


def blocks_to_matrix(data: sk.SchottkyData, blocks: dict, lmax: int,
                     twist: TwistSpec) -> np.ndarray:
    """Place every block b, twisted by the unitary u of its connecting
    letter, as the Kronecker product b (x) u: row r*d+p, column c*d+q of the
    (i, j) block holds b[r, c] * u[p, q]."""
    m = data.m
    d = twist.dim
    nb = lmax + 1
    side = nb * d
    mats = twist.letter_matrices(m)
    n = 2 * m * side
    out = np.zeros((n, n), dtype=complex)
    for (i, j), b in blocks.items():
        u = mats[(j + m) % (2 * m)]
        out[i * side:(i + 1) * side, j * side:(j + 1) * side] = (
            b[:, None, :, None] * u[None, :, None, :]).reshape(side, side)
    return out


def _slab_phases(twist: TwistSpec, m: int, nb: int) -> np.ndarray:
    """Column phases of a rank-one twist: every column of source disc j
    carries the scalar of its connecting letter inv(j), which for a
    character is conj(e(theta_j)) for j < m and e(theta_{j-m}) for j >= m,
    with e(t) = exp(2 pi i t)."""
    letters = [u[0, 0] for u in twist.letter_matrices(m)]
    return np.repeat(letters[m:] + letters[:m], nb)


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

    A rank-one twist is assembled run by run with the operations of
    assemble_blocks (one exponential, then one product with the folded DFT
    of the run's targets), written through a (target, source, source degree,
    target degree) view of the output, then phased column slab by slab."""
    if twist.dim != 1:
        return blocks_to_matrix(data, assemble_blocks(data, s, lmax), lmax, twist)
    logd, basis, _, _, runs = _sample_tables(data, lmax)
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
    if twist.kind != "trivial":
        M *= _slab_phases(twist, data.m, nb)
    return M


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
