"""Cayley graphs of finite abelian quotients: Laplacian spectra via
characters, exhaustive Cheeger constants, the spectral-gap sandwich, and
the vanishing-gap experiment along growing cyclic quotients."""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .abelian import AbelianQuotient
from .schottky import SchottkyData

__all__ = [
    "CayleyGraph",
    "cycle_graph",
    "graph_from_group",
    "laplacian_eigenvalues",
    "adjacency_matrix",
    "CheegerResult",
    "cheeger_constant",
    "sandwich_check",
    "gap_decay_experiment",
]

EXHAUSTIVE_CAP = 24
MAX_ORDER = 10 ** 6
# The modulus that grows along gap_decay_experiment's quotients of a group.
GROWING_AXIS = 0


def _mod(vec: Sequence[int], moduli: Sequence[int]) -> tuple[int, ...]:
    return tuple(int(v) % n for v, n in zip(vec, moduli))


@dataclass(frozen=True)
class CayleyGraph:
    """Cayley graph of an abelian quotient with a symmetric generating
    multiset; degree-regular with multiset edge counting."""

    quotient: AbelianQuotient
    gens: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.order > MAX_ORDER:
            raise ValueError(f"quotient order above {MAX_ORDER}")
        moduli = self.quotient.moduli
        reduced = tuple(_mod(s, moduli) for s in self.gens)
        if len(set(reduced)) != len(reduced):
            raise ValueError("generating set contains duplicates")
        object.__setattr__(self, "gens", reduced)
        zero = tuple(0 for _ in moduli)
        if zero in reduced:
            raise ValueError("loops (s = 0) are excluded")
        for s in reduced:
            if _mod([-x for x in s], moduli) not in reduced:
                raise ValueError(f"generating set not symmetric: missing -{s}")
        if not self._connected():
            raise ValueError("Cayley graph is not connected")

    @property
    def degree(self) -> int:
        return len(self.gens)

    @property
    def order(self) -> int:
        return self.quotient.order

    def _connected(self) -> bool:
        """The generators reach every vertex iff, with the rows N_k e_k,
        they span Z^m.  Eliminating column by column with gcd steps, every
        pivot must be +-1 (for m = 1: gcd(N, s_1, ...) = 1)."""
        moduli = self.quotient.moduli
        m = len(moduli)
        rows = [list(s) for s in self.gens]
        rows += [[n if i == k else 0 for i in range(m)] for k, n in enumerate(moduli)]
        for col in range(m):
            live = [r for r in rows if r[col]]
            while len(live) > 1:
                piv = min(live, key=lambda r: abs(r[col]))
                for r in live:
                    if r is not piv:
                        q = r[col] // piv[col]
                        for i in range(col, m):
                            r[i] -= q * piv[i]
                live = [r for r in live if r[col]]
            if abs(live[0][col]) != 1:
                return False
            rows = [r for r in rows if not r[col]]
        return True


def cycle_graph(N: int) -> CayleyGraph:
    # for N = 2 the generators +1 and -1 coincide and are merged into one
    gens = ((1,), (N - 1,)) if N > 2 else ((1,),)
    return CayleyGraph(AbelianQuotient((N,)), gens)


def graph_from_group(data: SchottkyData, moduli: Sequence[int]) -> CayleyGraph:
    """Generating set from the group: images of the homology basis vectors
    and their inverses, zero images dropped, duplicates merged."""
    moduli = tuple(int(n) for n in moduli)
    if len(moduli) != data.m:
        raise ValueError("moduli rank must equal the generator count")
    gens = []
    for k in range(data.m):
        for sign in (1, -1):
            vec = [0] * data.m
            vec[k] = sign
            red = _mod(vec, moduli)
            if any(red) and red not in gens:
                gens.append(red)
    return CayleyGraph(AbelianQuotient(moduli), tuple(gens))


def laplacian_eigenvalues(graph: CayleyGraph) -> np.ndarray:
    """All eigenvalues by the character formula
    lambda_alpha = (1/k) sum_s (1 - cos(2 pi sum_l alpha_l s_l / N_l))."""
    moduli = np.array(graph.quotient.moduli, dtype=float)
    alphas = np.array(list(itertools.product(*(range(n) for n in graph.quotient.moduli))),
                      dtype=float)
    S = np.array(graph.gens, dtype=float)
    phases = 2.0 * np.pi * (alphas @ (S / moduli).T)
    lam = np.mean(1.0 - np.cos(phases), axis=1)
    return np.sort(lam)


def adjacency_matrix(graph: CayleyGraph) -> np.ndarray:
    moduli = graph.quotient.moduli
    verts = list(itertools.product(*(range(n) for n in moduli)))
    index = {v: i for i, v in enumerate(verts)}
    n = len(verts)
    A = np.zeros((n, n))
    for v in verts:
        for s in graph.gens:
            w = _mod([a + b for a, b in zip(v, s)], moduli)
            A[index[v], index[w]] += 1.0
    return A


@functools.lru_cache(maxsize=None)
def _half_table(k: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """The 2^k subsets of k vertices as read-only 0/1 indicator rows ordered
    by size, and the first row of each size 0 .. k + 1."""
    masks = np.array(sorted(range(1 << k), key=int.bit_count))
    rows = ((masks[:, None] >> np.arange(k)) & 1).astype(np.float64)
    rows.setflags(write=False)
    starts = itertools.accumulate((math.comb(k, j) for j in range(k + 1)), initial=0)
    return rows, tuple(starts)


# cells per GEMM block of cheeger_exhaustive: 512 KB of float64
BLOCK_CELLS = 1 << 16


def cheeger_exhaustive(adj: np.ndarray) -> float:
    """Exact min over nonempty subsets A, |A| <= n/2, of |boundary(A)|/|A|.

    adj is the symmetric edge-multiplicity matrix; diagonal loops are
    ignored.  A subset is a pair (X, Y) of subsets of the low n//2 and the
    high n - n//2 vertices, and cut(X u Y) = own(X) + own(Y) - 2 1_X W 1_Y,
    with own the degree sum minus twice the internal edges and W the
    low-by-high block of adj.  With the rows [-2 1_X W, own(X), 1] and
    [1_Y, 1, own(Y)], the cuts of a block of subsets are one GEMM.  Both
    half tables are ordered by subset size, so the cuts of one (|X|, |Y|)
    pair form a rectangle of the single size |X| + |Y|, and its minimum
    divided by that size is the pair's minimum ratio.  For integer
    multiplicities every cut is an exact float64 integer, whatever the
    GEMM's summation order.  A block spans at most BLOCK_CELLS cells.
    """
    w = np.array(adj, dtype=np.float64)
    n = len(w)
    half = n // 2
    if half == 0:
        return np.inf
    np.fill_diagonal(w, 0.0)
    deg = w.sum(axis=1)
    (x, xs), (y, ys) = _half_table(half), _half_table(n - half)
    xw = x @ w[:half]
    yw = y @ w[half:]
    left = np.ones((len(x), n - half + 2))
    np.multiply(xw[:, half:], -2.0, out=left[:, :-2])
    left[:, -2] = ((deg[:half] - xw[:, :half]) * x).sum(axis=1)
    # held transposed: a process's first GEMM with a transposed operand
    # took about 70 us more (OpenBLAS, 2-vCPU Xeon)
    right = np.ones((n - half + 2, len(y)))
    right[:-2] = y.T
    right[-1] = ((deg[half:] - yw[:, half:]) * y).sum(axis=1)
    # block[a, b]: the minimum cut over |X| = a, |Y| = b
    block = np.full((half + 1, half + 1), np.inf)
    r0 = 0
    while r0 < len(x):
        # rows r0:r1 start at size a0, which admits |Y| = 0 .. half - a0;
        # a larger |X| in the same rows gets its surplus cells masked below
        a0 = bisect.bisect_right(xs, r0) - 1
        bmax = half - a0
        r1 = min(r0 + max(BLOCK_CELLS // ys[bmax + 1], 1), len(x))
        a1 = bisect.bisect_right(xs, r1 - 1)
        cut = left[r0:r1] @ right[:, :ys[bmax + 1]]
        cut = np.minimum.reduceat(cut, ys[:bmax + 1], axis=1)
        cut = np.minimum.reduceat(cut, [0, *(s - r0 for s in xs[a0 + 1:a1])], axis=0)
        view = block[a0:a1, :bmax + 1]
        np.minimum(view, cut, out=view)
        r0 = r1
    size = np.arange(half + 1)[:, None] + np.arange(half + 1)
    block[size > half] = np.inf
    block[0, 0] = np.inf
    size[0, 0] = 1
    return float((block / size).min())


@dataclass(frozen=True)
class CheegerResult:
    value: float
    exact: bool


def cheeger_constant(graph: CayleyGraph, samples: int = 4000,
                     seed: int = 0) -> CheegerResult:
    """Exact minimum of |boundary(A)|/|A| over |A| <= |V|/2 when the order
    is within the exhaustive cap; otherwise a sampled upper bound, flagged
    non-exact."""
    A = adjacency_matrix(graph)
    n = A.shape[0]
    if n <= EXHAUSTIVE_CAP:
        return CheegerResult(value=float(cheeger_exhaustive(A)), exact=True)
    rng = np.random.default_rng(seed)
    deg = A.sum(axis=1)
    best = float(np.min(deg))  # singletons
    for _ in range(samples):
        size = int(rng.integers(2, n // 2 + 1))
        idx = rng.choice(n, size=size, replace=False)
        ind = np.zeros(n)
        ind[idx] = 1.0
        cut = float(ind @ deg - ind @ A @ ind)
        best = min(best, cut / size)
    return CheegerResult(value=best, exact=False)


UPPER_GUARD = 0.5


def sandwich_check(graph: CayleyGraph) -> dict:
    """(1/2) k lambda1 <= h <= k sqrt(lambda1 (1 - lambda1)).

    The lower inequality is always asserted.  The stated upper bound loses
    validity once lambda1 exceeds 1/2 (the (1 - lambda1) factor makes it
    non-monotone and it is measurably false on the 5-cycle, lambda1 = 0.69,
    h = 1 > 0.924); it is asserted only for lambda1 <= 1/2 and otherwise
    reported with a flag, with lambda1 clamped to [0, 1] in the formula.
    Violations inside the guarded regime raise."""
    lam = laplacian_eigenvalues(graph)
    if lam[0] > 1e-12 or (len(lam) > 1 and lam[1] <= 1e-12):
        raise AssertionError("zero eigenvalue not simple on a connected graph")
    lam1 = float(lam[1])
    k = graph.degree
    ch = cheeger_constant(graph)
    lower = 0.5 * k * lam1
    clamped = min(max(lam1, 0.0), 1.0)
    upper = k * math.sqrt(clamped * (1.0 - clamped))
    flagged = lam1 > UPPER_GUARD + 1e-12
    if ch.exact:
        if ch.value < lower - 1e-9:
            raise AssertionError(
                f"Cheeger lower bound violated: h={ch.value} < {lower}")
        if not flagged and ch.value > upper + 1e-9:
            raise AssertionError(
                f"Cheeger upper bound violated: h={ch.value} > {upper}")
    return {
        "order": graph.order,
        "degree": k,
        "lambda1": lam1,
        "cheeger": ch.value,
        "cheeger_exact": ch.exact,
        "lower": lower,
        "upper": upper,
        "lambda1_flagged": flagged,
        "lower_slack": ch.value - lower,
        "upper_slack": upper - ch.value,
    }


def gap_decay_experiment(Ns: Sequence[int],
                         data: Optional[SchottkyData] = None) -> dict:
    """Table (N, lambda1, h or upper bound) along cyclic quotients with one
    growing modulus; reports the fitted limit constant of lambda1 * N^2."""
    rows = []
    for N in Ns:
        if N < 2:
            raise ValueError(f"cover order N must be >= 2, got N = {N}")
        if data is None:
            graph = cycle_graph(int(N))
        else:
            moduli = [1] * data.m
            moduli[GROWING_AXIS] = int(N)
            graph = graph_from_group(data, moduli)
        lam = laplacian_eigenvalues(graph)
        lam1 = float(lam[1])
        if graph.order <= EXHAUSTIVE_CAP:
            h = cheeger_constant(graph).value
            h_exact = True
        else:
            h = graph.degree * math.sqrt(max(lam1, 0.0) * max(1.0 - lam1, 0.0)) \
                if lam1 < 1.0 else float(graph.degree)
            h_exact = False
        rows.append({"N": int(N), "lambda1": lam1, "scaled": lam1 * N * N,
                     "h_or_bound": h, "h_exact": h_exact})
    scaled = np.array([r["scaled"] for r in rows])
    return {
        "rows": rows,
        "fitted_constant": float(np.mean(scaled)),
        "relative_spread": float((scaled.max() - scaled.min()) / np.mean(scaled)),
        "reference_constant": 2.0 * math.pi ** 2,
        "h_bound_infimum": float(min(r["h_or_bound"] for r in rows)),
    }
