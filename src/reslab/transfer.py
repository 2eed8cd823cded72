"""Truncated matrices of twisted transfer operators in an explicit Bergman
basis, with Fredholm determinants, trace diagnostics and singular values.

The operator acts on tuples of holomorphic functions, one per disc.  For z
in disc i it sums (gamma_a'(z))^s rho(gamma_a) F(gamma_a z) over the letters
a != i; the letter a carries functions on disc inv(a) to functions on disc i.
Matrix coefficients are extracted by sampling on a circle inside the target
disc and taking a discrete Fourier transform, which is spectrally accurate
because every summand is holomorphic on a strictly larger disc.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from itertools import product as _iproduct
from typing import Optional, Sequence

import numpy as np

from . import schottky as sk
from .schottky import word_products

__all__ = [
    "TwistSpec",
    "TransferMatrix",
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

    def character(self, m: int, letters: Sequence[int]) -> complex:
        """chi_rho(gamma_alpha): trace of the product of letter unitaries."""
        mats = self.letter_matrices(m)
        u = np.eye(self.dim, dtype=complex)
        for k in letters:
            u = u @ mats[k - 1]
        return complex(np.trace(u))


@dataclass(frozen=True)
class TransferMatrix:
    s: complex
    twist: TwistSpec
    lmax: int
    mat: np.ndarray
    m: int

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


def _scalar_block(data: sk.SchottkyData, s: complex, lmax: int,
                  i: int, j: int) -> Optional[np.ndarray]:
    """(lmax+1)^2 coefficient block carrying basis functions on disc j to
    disc i (0-based disc indices), or None when inadmissible."""
    m = data.m
    a0 = (j + m) % (2 * m)  # 0-based connecting letter, inv(j)
    if a0 == i:
        return None
    g = data.gen(a0 + 1)
    tgt = data.discs[i]
    src = data.discs[j]
    K = 4 * (lmax + 1)
    rho = _SAMPLE_FRACTION * tgt.radius
    z = tgt.center + rho * np.exp(2j * np.pi * np.arange(K) / K)
    den = g.c * z + g.d
    dv = 1.0 / den ** 2
    if np.any((dv.real <= 0) & (np.abs(dv.imag) < 1e-300)):
        raise ValueError("sampled derivative on the branch cut")
    w = (g.a * z + g.b) / den
    dpow = np.exp(s * np.log(dv))
    # basis functions of the source disc evaluated at the image points
    ell = np.arange(lmax + 1)
    u = (w - src.center) / src.radius
    phi = (np.sqrt((ell[:, None] + 1) / np.pi) / src.radius) * u[None, :] ** ell[:, None]
    vals = dpow[None, :] * phi
    taylor = np.fft.fft(vals, axis=1)[:, : lmax + 1] / K
    taylor /= rho ** ell[None, :]
    coeff = taylor * (np.sqrt(np.pi / (ell + 1)) * tgt.radius ** (ell + 1))[None, :]
    return coeff.T  # rows: target degree, cols: source degree


def assemble_blocks(data: sk.SchottkyData, s: complex, lmax: int) -> dict:
    """Scalar coefficient blocks keyed by (target disc, source disc),
    0-based; missing keys are structurally zero."""
    if lmax < 2:
        raise ValueError("lmax must be >= 2")
    blocks = {}
    for i in range(2 * data.m):
        for j in range(2 * data.m):
            b = _scalar_block(data, s, lmax, i, j)
            if b is not None:
                blocks[(i, j)] = b
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


def assemble(data: sk.SchottkyData, s: complex, twist: TwistSpec,
             lmax: int) -> TransferMatrix:
    """Truncated matrix of the twisted operator at s with degrees 0..lmax."""
    blocks = assemble_blocks(data, s, lmax)
    mat = blocks_to_matrix(data, blocks, lmax, twist)
    return TransferMatrix(s=complex(s), twist=twist, lmax=lmax, mat=mat, m=data.m)


def fredholm_det(M) -> complex:
    """det(identity - truncated matrix); converges super-exponentially in
    lmax to the Fredholm determinant."""
    mat = M.mat if isinstance(M, TransferMatrix) else np.asarray(M)
    return complex(np.linalg.det(np.eye(mat.shape[0]) - mat))


def singular_values(M) -> np.ndarray:
    mat = M.mat if isinstance(M, TransferMatrix) else np.asarray(M)
    return np.linalg.svd(mat, compute_uv=False)


def spectral_radius(M) -> float:
    mat = M.mat if isinstance(M, TransferMatrix) else np.asarray(M)
    return float(np.max(np.abs(np.linalg.eigvals(mat))))


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
    mn = np.linalg.matrix_power(M.mat, N)
    return abs(complex(np.trace(mn)) - lefschetz_sum(data, s, twist, N))
