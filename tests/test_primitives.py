"""find_neighbor / neighborhood / bfs_tree against explicit residual-graph
oracles, plus the BIS budget guard for BFS."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutlab.config import PINNED
from cutlab.maxflow import dinitz_maxflow
from cutlab.oracle import (
    AugmentedView,
    CutCache,
    Flow,
    InducedView,
    QueryInputError,
    mask_of,
)
from cutlab.primitives import bfs_tree, find_neighbor, neighborhood
from conftest import (
    brute_residual_dist,
    brute_residual_neighbors,
    contracted_edges,
    contracted_view,
    induced_view,
    make_view,
    materialize_augmented,
    random_graph,
    random_valid_flow,
    view_residual_neighbors,
)


def test_find_neighbor_examples(p4, b6):
    view, _, cache = make_view(p4)
    assert find_neighbor(cache, view, None, 1, [2, 3]) == 2
    assert find_neighbor(cache, view, None, 0, [2, 3]) is None
    view, _, cache = make_view(b6)
    f = Flow.zero(0, 5)
    for a, b in ((0, 2), (2, 3), (3, 5)):
        f.push(a, b, 1)
    f.value = 1
    # only the back edge 3->2 survives toward the first triangle
    assert find_neighbor(cache, view, f, 3, [0, 1, 2]) == 2


def test_find_neighbor_returns_lowest_id_and_counts_bis():
    for seed in range(5):
        g = random_graph(11, 0.4, seed)
        f = random_valid_flow(g, 0, 10, seed)
        view, _, cache = make_view(g)
        for u in (0, 4):
            B = [v for v in range(11) if v != u]
            brute = brute_residual_neighbors(g, f, [u], B)
            before = cache.logical_bis
            got = find_neighbor(cache, view, f, u, B)
            used = cache.logical_bis - before
            if brute:
                assert got == brute[0]
                assert used <= 1 + math.ceil(math.log2(len(B))) + 1
            else:
                assert got is None
                assert used == 1


def test_find_neighbor_disjointness_error(p4):
    view, _, cache = make_view(p4)
    with pytest.raises(QueryInputError):
        find_neighbor(cache, view, None, 1, [1, 2])


def test_neighborhood_examples(k4, b6):
    view, _, cache = make_view(k4)
    assert neighborhood(cache, view, None, 0, [1, 2, 3]) == [1, 2, 3]
    view, _, cache = make_view(b6)
    assert neighborhood(cache, view, None, 2, [3, 4, 5]) == [3]
    assert neighborhood(cache, view, None, 0, [3, 4, 5]) == []


def test_neighborhood_matches_brute_on_random_graphs():
    for seed in range(6):
        g = random_graph(10, 0.45, seed)
        f = random_valid_flow(g, 0, 9, seed)
        view, _, cache = make_view(g)
        for u in (0, 3):
            cands = [v for v in range(10) if v != u]
            assert neighborhood(cache, view, f, u, cands) == brute_residual_neighbors(
                g, f, [u], cands
            )


def scan_neighborhood(cache, view, f, u, candidates):
    """Reference: list the neighbors one find_neighbor call at a time, each
    probing everything not found yet."""
    remaining = sorted(candidates)
    found = []
    while (v := find_neighbor(cache, view, f, u, remaining)) is not None:
        found.append(v)
        remaining.remove(v)
    return found


def _parity_views(g, seed):
    """(name, view, flow, cap) on every view kind: each flow a nonzero valid
    flow of its view, cap the view's explicit adjacency."""
    view, _, cache = make_view(g)
    n = g.n
    yield "base", view, random_valid_flow(g, 0, n - 1, seed), g.edges
    aug = AugmentedView(view, [(0, 2), (3, 1)], [(n - 1, 2)], scale=2)
    flow = dinitz_maxflow(aug, aug.s_source, aug.s_sink, cache).flow
    yield "augmented", aug, flow, materialize_augmented(g.edges, aug)
    con = contracted_view(view, g.edges, range(n - 4))
    flow = dinitz_maxflow(con, 0, con.s_r, cache).flow
    yield "contracted", con, flow, contracted_edges(g.edges, con)
    ind, edges = induced_view(view, g, tuple(range(1, n, 2)) + (0,))
    yield "induced", ind, dinitz_maxflow(ind, 0, n - 1, cache).flow, edges


@pytest.mark.parametrize("W", [1, 3])
def test_neighborhood_matches_scan_on_every_view(W):
    """neighborhood lists the residual neighbours of the explicit view
    graph, as the repeated find_neighbor scan does, under the zero flow and
    a nonzero valid flow. It issues no BIS when u's capacities to the base
    part of B were all learned at entry; otherwise one BIS for an empty
    answer and at most 1 + d * ceil(log2 |B|) for d neighbours."""
    paths = {"learned": 0, "probed": 0}
    for seed in range(2):
        g = random_graph(12, 0.45, seed, W=W)
        rng = random.Random(seed)
        for name, view, flow, cap in _parity_views(g, seed):
            assert flow.value > 0, name
            verts = view.vertices()
            cache, ref = CutCache(view.base_view), CutCache(view.base_view)
            for f in (None, flow):
                for _ in range(12):
                    u = rng.choice(verts)
                    others = [v for v in verts if v != u]
                    B = sorted(rng.sample(others, rng.randint(1, len(others))))
                    form = view.linear_form(u)
                    real = mask_of(B) & form.keep
                    learned = not real or not real & ~cache._known[form.base_u]
                    before = cache.logical_bis
                    got = neighborhood(cache, view, f, u, B)
                    used = cache.logical_bis - before
                    assert got == view_residual_neighbors(cap, f, u, B), (name, u, B)
                    assert got == scan_neighborhood(ref, view, f, u, B), (name, u, B)
                    paths["learned" if learned else "probed"] += 1
                    if learned:
                        assert used == 0, (name, u, B)
                    elif got:
                        assert used <= 1 + len(got) * math.ceil(math.log2(len(B))), (name, u, B)
                    else:
                        assert used == 1, (name, u, B)
    assert min(paths.values()) > 0, paths


def test_neighborhood_disjointness_error(p4):
    view, _, cache = make_view(p4)
    with pytest.raises(QueryInputError):
        neighborhood(cache, view, None, 1, [1, 2])


def test_probing_vertex_outside_the_view_is_refused(b6):
    """u = 3 lies outside an induced view on {0, 1, 2}, whose linear form
    would hand it to the parent and answer [2]; u = 9 lies outside the
    6-vertex base view. Both searches refuse either before any probe."""
    view, ledger, cache = make_view(b6)
    iv = InducedView(view, (0, 1, 2))
    for v, u in ((iv, 3), (view, 9)):
        for search in (neighborhood, find_neighbor):
            with pytest.raises(QueryInputError):
                search(cache, v, None, u, [0, 1, 2])
    assert ledger.cut_count == 0 and cache.logical_bis == 0


def test_vertices_outside_the_view_are_refused(b6):
    """On an induced view of {0, 1, 2}, the parent graph would answer the
    candidate 3 as 2's neighbour and the pair (3, 2) as capacity 1; on the
    6-vertex base view, -1 and 9 would fail on a shift or an index. Every
    public probe, and a BFS restricted to such candidates, refuses them
    before charging or counting anything."""
    view, ledger, cache = make_view(b6)
    iv = InducedView(view, (0, 1, 2))
    for search in (neighborhood, find_neighbor):
        for v, u, cands in ((iv, 2, [3]), (view, 0, [-1]), (view, 0, [9])):
            with pytest.raises(QueryInputError):
                search(cache, v, None, u, cands)
        with pytest.raises(QueryInputError):
            search(cache, iv, None, 2, [1, 3], mask_of((1, 3)))
    for v, u, w in ((iv, 3, 2), (iv, 2, 3), (view, -1, 0), (view, 9, 0), (view, 0, 9)):
        with pytest.raises(QueryInputError):
            cache.capacity(v, u, w)
        if w >= 0:
            with pytest.raises(QueryInputError):
                cache.residual_between(v, None, u, 1 << w)
    with pytest.raises(QueryInputError):
        cache.residual_between(view, None, 0, -2)
    for v, within in ((iv, [1, 3]), (view, [1, -1])):
        with pytest.raises(QueryInputError):
            bfs_tree(cache, v, None, 0, within=within)
    assert ledger.cut_count == 0 and cache.logical_bis == 0


def test_bfs_tree_examples(p4, k4, b6):
    view, _, cache = make_view(p4)
    tree = bfs_tree(cache, view, None, 0)
    assert tree.dist == {0: 0, 1: 1, 2: 2, 3: 3}
    view, _, cache = make_view(k4)
    tree = bfs_tree(cache, view, None, 2)
    assert max(tree.dist.values()) == 1
    view, _, cache = make_view(b6)
    f = Flow.zero(0, 5)
    for a, b in ((0, 2), (2, 3), (3, 5)):
        f.push(a, b, 1)
    f.value = 1
    tree = bfs_tree(cache, view, f, 0)
    assert set(tree.dist) == {0, 1, 2}  # the far triangle is unreachable


def test_bfs_tree_matches_brute_with_flows():
    for seed in range(8):
        g = random_graph(10, 0.4, seed)
        f = random_valid_flow(g, 0, 9, seed)
        view, _, cache = make_view(g)
        tree = bfs_tree(cache, view, f, 0)
        assert tree.dist == brute_residual_dist(g, f, 0)
        # parent edges must be residual edges
        for v, p in tree.parent.items():
            if p is not None:
                key = (min(p, v), max(p, v))
                assert g.edges.get(key, 0) - f.get(p, v) > 0


def test_bfs_tree_within_restriction(b6):
    view, _, cache = make_view(b6)
    tree = bfs_tree(cache, view, None, 0, within=[1, 2])
    assert set(tree.dist) == {0, 1, 2}
    tree = bfs_tree(cache, view, None, 0, within=[4, 5])
    assert set(tree.dist) == {0}


def test_bfs_bis_budget_pinned():
    worst = 0.0
    for seed in range(6):
        for n in (8, 16, 32):
            g = random_graph(n, 0.4, seed)
            view, _, cache = make_view(g)
            bfs_tree(cache, view, None, 0)
            ratio = cache.logical_bis / (n * math.log2(n))
            worst = max(worst, ratio)
    assert worst <= PINNED["C1_BFS"], f"bfs budget ratio {worst}"


@settings(max_examples=60, deadline=None)
@given(st.integers(4, 10), st.integers(0, 10_000), st.floats(0.15, 0.8))
def test_find_neighbor_agrees_with_brute_hypothesis(n, seed, p):
    g = random_graph(n, p, seed % 97)
    view, _, cache = make_view(g)
    rng = random.Random(seed)
    u = rng.randrange(n)
    B = [v for v in range(n) if v != u]
    brute = brute_residual_neighbors(g, None, [u], B)
    got = find_neighbor(cache, view, None, u, B)
    assert got == (brute[0] if brute else None)
