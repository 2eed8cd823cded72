import math
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reslab import cayley as cy
from reslab import schottky as sk
from reslab.abelian import AbelianQuotient

from oracles import connected_bfs, dense_laplacian


def test_graph_validation(monkeypatch):
    with pytest.raises(ValueError):
        # not symmetric
        cy.CayleyGraph(AbelianQuotient((5,)), ((1,),))
    with pytest.raises(ValueError):
        # loop
        cy.CayleyGraph(AbelianQuotient((4,)), ((0,), (1,), (3,)))
    with pytest.raises(ValueError):
        # disconnected: <2> inside Z/4
        cy.CayleyGraph(AbelianQuotient((4,)), ((2,),))
    with pytest.raises(ValueError):
        cy.CayleyGraph(AbelianQuotient((6,)), ((2,), (4,), (2,)))
    # the order cap is checked before connectivity, so no generator row of
    # an oversized quotient is ever reduced
    monkeypatch.setattr(cy.CayleyGraph, "_connected",
                        lambda self: pytest.fail("connectivity checked"))
    with pytest.raises(ValueError, match="order above"):
        cy.CayleyGraph(AbelianQuotient((cy.MAX_ORDER + 1,)), ((1,), (cy.MAX_ORDER,)))
    with pytest.raises(ValueError, match="order above"):
        cy.CayleyGraph(AbelianQuotient((2 ** 32, 2 ** 32)), ((1, 0), (2 ** 32 - 1, 0)))


def _unchecked_graph(moduli, gens):
    graph = object.__new__(cy.CayleyGraph)
    object.__setattr__(graph, "quotient", AbelianQuotient(moduli))
    object.__setattr__(graph, "gens", gens)
    return graph


@st.composite
def _symmetric_generating_sets(draw):
    moduli = tuple(draw(st.lists(st.integers(1, 8), min_size=1, max_size=3)))
    nonzero = [v for v in product(*(range(n) for n in moduli)) if any(v)]
    picked = draw(st.lists(st.sampled_from(nonzero), max_size=4)) if nonzero else []
    gens = {w for v in picked
            for w in (v, tuple(-a % n for a, n in zip(v, moduli)))}
    return moduli, tuple(sorted(gens))


@settings(max_examples=200, deadline=None)
@given(_symmetric_generating_sets())
@example(((4,), ((2,),)))
@example(((6, 6), ((1, 1), (5, 5))))
@example(((4, 6), ((1, 1), (3, 5))))
@example(((2, 3), ((1, 1), (1, 2))))
@example(((1,), ()))
def test_connectivity_matches_bfs_oracle(case):
    moduli, gens = case
    if connected_bfs(_unchecked_graph(moduli, gens)):
        assert cy.CayleyGraph(AbelianQuotient(moduli), gens)._connected()
    else:
        with pytest.raises(ValueError, match="not connected"):
            cy.CayleyGraph(AbelianQuotient(moduli), gens)


def test_cycle_graph_of_order_two_merges_plus_and_minus_one():
    g = cy.cycle_graph(2)
    assert g.gens == ((1,),)
    assert np.allclose(cy.laplacian_eigenvalues(g), [0.0, 2.0])


@pytest.mark.parametrize("Ns", [[1, 4], [0, 8]])
def test_gap_decay_refuses_covers_below_two(Ns):
    with pytest.raises(ValueError, match=f"N = {Ns[0]}"):
        cy.gap_decay_experiment(Ns)


def test_z4_cycle_spectrum():
    lam = cy.laplacian_eigenvalues(cy.cycle_graph(4))
    assert np.allclose(lam, [0.0, 1.0, 1.0, 2.0], atol=1e-12)


def test_character_formula_matches_dense_oracle():
    graphs = [
        cy.cycle_graph(4),
        cy.cycle_graph(12),
        cy.CayleyGraph(AbelianQuotient((4,)), ((1,), (3,), (2,))),
        cy.CayleyGraph(AbelianQuotient((3, 4)), ((1, 0), (2, 0), (0, 1), (0, 3))),
        cy.CayleyGraph(AbelianQuotient((2, 5, 5)),
                       ((1, 1, 0), (1, 4, 0), (0, 0, 1), (0, 0, 4))),
    ]
    for g in graphs:
        assert g.order <= 200
        lam = cy.laplacian_eigenvalues(g)
        oracle = np.sort(np.linalg.eigvalsh(dense_laplacian(g)))
        assert np.abs(lam - oracle).max() < 1e-10


def test_spectrum_in_range_and_trace():
    g = cy.CayleyGraph(AbelianQuotient((3, 4)), ((1, 0), (2, 0), (0, 1), (0, 3)))
    lam = cy.laplacian_eigenvalues(g)
    assert lam[0] >= -1e-12 and lam[-1] <= 2.0 + 1e-12
    assert abs(lam.sum() - g.order) < 1e-9


def test_zero_eigenvalue_simple_iff_connected():
    for g in (cy.cycle_graph(7), cy.cycle_graph(16)):
        lam = cy.laplacian_eigenvalues(g)
        assert abs(lam[0]) < 1e-12
        assert lam[1] > 1e-9


def test_eigenvalues_invariant_under_generator_relabeling():
    a = cy.CayleyGraph(AbelianQuotient((3, 4)), ((1, 0), (2, 0), (0, 1), (0, 3)))
    b = cy.CayleyGraph(AbelianQuotient((3, 4)), ((0, 3), (2, 0), (0, 1), (1, 0)))
    assert np.allclose(cy.laplacian_eigenvalues(a), cy.laplacian_eigenvalues(b))


def test_cheeger_z4_cycle():
    res = cy.cheeger_constant(cy.cycle_graph(4))
    assert res.exact
    assert abs(res.value - 1.0) < 1e-12


def test_cheeger_complete_k4():
    g = cy.CayleyGraph(AbelianQuotient((4,)), ((1,), (3,), (2,)))
    res = cy.cheeger_constant(g)
    assert res.exact
    assert abs(res.value - 2.0) < 1e-12


def test_cheeger_singleton_bound():
    for g in (cy.cycle_graph(9), cy.CayleyGraph(AbelianQuotient((4,)), ((1,), (3,), (2,)))):
        assert cy.cheeger_constant(g).value <= g.degree + 1e-12


def test_cheeger_sampling_mode_flagged():
    res = cy.cheeger_constant(cy.cycle_graph(40), samples=200)
    assert not res.exact
    # sampled value is an upper bound on the true h = 2/20
    assert res.value >= 2.0 / 20.0 - 1e-12


def test_sandwich_z6():
    rep = cy.sandwich_check(cy.cycle_graph(6))
    assert abs(rep["lambda1"] - 0.5) < 1e-12
    assert abs(rep["cheeger"] - 2.0 / 3.0) < 1e-12
    assert not rep["lambda1_flagged"]
    assert rep["lower"] <= rep["cheeger"] <= rep["upper"]


def test_sandwich_z8():
    rep = cy.sandwich_check(cy.cycle_graph(8))
    assert abs(rep["lambda1"] - (1 - math.cos(math.pi / 4))) < 1e-12
    assert abs(rep["cheeger"] - 0.5) < 1e-12
    assert abs(rep["upper"] - 0.9101797211244534) < 1e-10


def test_sandwich_flagged_regime():
    # Z/4: lambda1 = 1, printed upper degenerates; Z/5: lambda1 = 0.69,
    # printed upper is below the exhaustive h - both flagged, not asserted
    r4 = cy.sandwich_check(cy.cycle_graph(4))
    assert r4["lambda1_flagged"]
    r5 = cy.sandwich_check(cy.cycle_graph(5))
    assert r5["lambda1_flagged"]
    assert r5["cheeger"] > r5["upper"]


def test_sandwich_all_small_cycles():
    for N in range(5, 25):
        rep = cy.sandwich_check(cy.cycle_graph(N))
        assert rep["cheeger"] >= rep["lower"] - 1e-9
        if not rep["lambda1_flagged"]:
            assert rep["cheeger"] <= rep["upper"] + 1e-9


def test_lambda1_monotone_on_doubling():
    vals = [cy.laplacian_eigenvalues(cy.cycle_graph(N))[1]
            for N in (8, 16, 32, 64, 128)]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_gap_decay_cycles():
    exp = cy.gap_decay_experiment([64, 128, 256, 512, 1024])
    assert exp["relative_spread"] < 0.05
    assert abs(exp["fitted_constant"] - 2 * math.pi ** 2) < 0.05
    assert exp["h_bound_infimum"] < 0.1


def test_gap_decay_from_group():
    pair = sk.preset("sl2z-pair")
    exp = cy.gap_decay_experiment([16, 32, 64, 128], data=pair)
    lams = [r["lambda1"] for r in exp["rows"]]
    assert all(b < a for a, b in zip(lams, lams[1:]))
    assert exp["relative_spread"] < 0.05


def test_graph_from_group_drops_zero_images():
    pair = sk.preset("sl2z-pair")
    g = cy.graph_from_group(pair, (8, 1))
    assert g.gens == ((1, 0), (7, 0))
    with pytest.raises(ValueError):
        cy.graph_from_group(pair, (8,))


def _cheeger_by_einsum(adj):
    """Reference sweep: cut(A) = 1_A . deg - 1_A^T adj 1_A over every subset
    with 1 <= |A| <= n/2."""
    adj = np.asarray(adj, dtype=np.float64)
    n = adj.shape[0]
    masks = np.arange(1, 1 << n, dtype=np.int64)
    ind = ((masks[:, None] >> np.arange(n)[None, :]) & 1).astype(np.float64)
    sizes = ind.sum(axis=1)
    ok = 2 * sizes <= n
    ind, sizes = ind[ok], sizes[ok]
    cut = ind @ adj.sum(axis=1) - np.einsum("ci,ij,cj->c", ind, adj, ind)
    return float(np.min(cut / sizes))


def _random_multiplicities(rng):
    n = int(rng.integers(2, 13))
    upper = np.triu(rng.integers(0, 4, size=(n, n)), 1)
    return (upper + upper.T).astype(float)


def _random_multigraph_with_loops(n, seed):
    """Symmetric multiplicities 0..3 with diagonal entries, which every
    Cheeger search ignores."""
    upper = np.triu(np.random.default_rng(seed).integers(0, 4, size=(n, n)))
    return (upper + np.triu(upper, 1).T).astype(float)


_GROUP_GRAPHS = [("sl2z-pair", (3, 4)), ("sl2z-crossed", (2, 2, 2, 2)),
                 ("sl2z-crossed", (3, 2, 2, 1))]


@pytest.mark.parametrize("adj", [
    *(cy.adjacency_matrix(cy.cycle_graph(N)) for N in range(3, 19)),
    cy.adjacency_matrix(cy.CayleyGraph(AbelianQuotient((4,)), ((1,), (3,), (2,)))),
    *(_random_multiplicities(np.random.default_rng(seed)) for seed in range(20)),
    *(_random_multigraph_with_loops(n, n) for n in range(2, 15)),
    *(cy.adjacency_matrix(cy.graph_from_group(sk.preset(name), moduli))
      for name, moduli in _GROUP_GRAPHS),
], ids=[*(f"C{N}" for N in range(3, 19)), "K4", *(f"random{s}" for s in range(20)),
        *(f"loops{n}" for n in range(2, 15)),
        *(f"{name}-{'x'.join(map(str, moduli))}" for name, moduli in _GROUP_GRAPHS)])
def test_cheeger_bitmask_equals_einsum_sweep(adj):
    assert cy.cheeger_exhaustive(adj) == _cheeger_by_einsum(adj)


@pytest.mark.parametrize("cells", [1, 5, 64])
def test_cheeger_blocks_split_across_subset_sizes(monkeypatch, cells):
    """Small blocks cut rows of several subset sizes apart, as the blocks of
    graphs above 16 vertices do."""
    monkeypatch.setattr(cy, "BLOCK_CELLS", cells)
    for n in (2, 3, 7, 10):
        adj = _random_multigraph_with_loops(n, 100 + n)
        assert cy.cheeger_exhaustive(adj) == _cheeger_by_einsum(adj)
    adj = cy.adjacency_matrix(cy.cycle_graph(11))
    assert cy.cheeger_exhaustive(adj) == _cheeger_by_einsum(adj)


@pytest.mark.parametrize("adj", [np.zeros((0, 0)), np.zeros((1, 1)), np.array([[2.0]])])
def test_cheeger_without_admissible_subsets_is_inf(adj):
    assert cy.cheeger_exhaustive(adj) == np.inf


def test_cheeger_exact_at_the_exhaustive_cap():
    res = cy.cheeger_constant(cy.cycle_graph(cy.EXHAUSTIVE_CAP))
    assert res.exact
    assert res.value == 2.0 / (cy.EXHAUSTIVE_CAP // 2)
