"""Cayley graphs of finite abelian quotients: Laplacian spectra via
characters, exhaustive Cheeger constants, the spectral-gap sandwich, and
the vanishing-gap experiment along growing cyclic quotients."""

from __future__ import annotations

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


def cheeger_exhaustive(adj: np.ndarray) -> float:
    """Exact min over nonempty subsets A, |A| <= n/2, of |boundary(A)|/|A|.

    adj is the symmetric edge-multiplicity matrix (no diagonal loops counted).
    """
    adj = np.ascontiguousarray(adj, dtype=np.float64)
    n = adj.shape[0]
    # a vertex subset is the bit mask of its members; an edge {i, j} is cut
    # when exactly one of bits i and j is set
    ei, ej = np.nonzero(np.triu(adj, 1))
    weights = adj[ei, ej]
    best = np.inf
    chunk = 1 << 16
    total = 1 << n
    for start in range(1, total, chunk):
        masks = np.arange(start, min(start + chunk, total), dtype=np.int64)
        sizes = np.bitwise_count(masks)
        ok = (sizes >= 1) & (2 * sizes <= n)
        if not ok.any():
            continue
        masks = masks[ok]
        sizes = sizes[ok]
        cut = np.zeros(masks.shape[0])
        for i, j, w in zip(ei.tolist(), ej.tolist(), weights.tolist()):
            cut += w * (((masks >> i) ^ (masks >> j)) & 1)
        best = min(best, float(np.min(cut / sizes)))
    return best


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
