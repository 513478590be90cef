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
    ids_of,
    mask_of,
)
from cutlab.primitives import bfs_tree, find_neighbor, neighborhood
from conftest import (
    brute_bfs_layers,
    brute_residual_neighbors,
    contracted_edges,
    contracted_view,
    copy_flow,
    explicit_graph,
    flow_views,
    induced_view,
    make_view,
    materialize_augmented,
    push_random_path,
    random_graph,
    random_valid_flow,
    view_residual_neighbors,
)


def test_find_neighbor_examples(p4, b6):
    view, _, cache = make_view(p4)
    assert find_neighbor(cache, view, None, 1, mask_of([2, 3])) == 2
    assert find_neighbor(cache, view, None, 0, mask_of([2, 3])) is None
    view, _, cache = make_view(b6)
    f = Flow(0, 5)
    for a, b in ((0, 2), (2, 3), (3, 5)):
        f.push(a, b, 1)
    f.value = 1
    # only the back edge 3->2 survives toward the first triangle
    assert find_neighbor(cache, view, f, 3, mask_of([0, 1, 2])) == 2


def test_find_neighbor_returns_lowest_id_and_counts_bis():
    for seed in range(5):
        g = random_graph(11, 0.4, seed)
        f = random_valid_flow(g, 0, 10, seed)
        view, _, cache = make_view(g)
        for u in (0, 4):
            B = [v for v in range(11) if v != u]
            brute = brute_residual_neighbors(g, f, [u], B)
            before = cache.logical_bis
            got = find_neighbor(cache, view, f, u, mask_of(B))
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
        find_neighbor(cache, view, None, 1, mask_of([1, 2]))


def test_neighborhood_examples(k4, b6):
    view, _, cache = make_view(k4)
    assert neighborhood(cache, view, None, 0, mask_of([1, 2, 3])) == mask_of([1, 2, 3])
    view, _, cache = make_view(b6)
    assert neighborhood(cache, view, None, 2, mask_of([3, 4, 5])) == mask_of([3])
    assert neighborhood(cache, view, None, 0, mask_of([3, 4, 5])) == 0


def test_neighborhood_matches_brute_on_random_graphs():
    for seed in range(6):
        g = random_graph(10, 0.45, seed)
        f = random_valid_flow(g, 0, 9, seed)
        view, _, cache = make_view(g)
        for u in (0, 3):
            cands = [v for v in range(10) if v != u]
            got = neighborhood(cache, view, f, u, mask_of(cands))
            assert ids_of(got) == brute_residual_neighbors(g, f, [u], cands)


def scan_neighborhood(cache, view, f, u, B):
    """Reference: list the neighbors of u in the bitmask B one find_neighbor
    call at a time, each probing everything not found yet."""
    found = []
    while (v := find_neighbor(cache, view, f, u, B)) is not None:
        found.append(v)
        B ^= 1 << v
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
                    got = ids_of(neighborhood(cache, view, f, u, mask_of(B)))
                    used = cache.logical_bis - before
                    assert got == view_residual_neighbors(cap, f, u, B), (name, u, B)
                    assert got == scan_neighborhood(ref, view, f, u, mask_of(B)), (name, u, B)
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
        neighborhood(cache, view, None, 1, mask_of([1, 2]))


def test_probing_vertex_outside_the_view_is_refused(b6):
    """u = 3 lies outside an induced view on {0, 1, 2}, whose linear form
    would hand it to the parent and answer [2]; u = 9 lies outside the
    6-vertex base view. Both searches refuse either before any probe."""
    view, ledger, cache = make_view(b6)
    iv = InducedView(view, (0, 1, 2))
    for v, u in ((iv, 3), (view, 9)):
        for search in (neighborhood, find_neighbor):
            with pytest.raises(QueryInputError):
                search(cache, v, None, u, mask_of([0, 1, 2]))
    assert ledger.cut_count == 0 and cache.logical_bis == 0


def test_vertices_outside_the_view_are_refused(b6):
    """On an induced view of {0, 1, 2}, the parent graph would answer the
    candidate 3 as 2's neighbour and the pair (3, 2) as capacity 1; on the
    6-vertex base view, -1 and 9 would fail on a shift or an index. Every
    public probe, and a BFS restricted to such candidates, refuses them
    before charging or counting anything, as it refuses a negative mask
    and candidates that are not one int bitmask."""
    view, ledger, cache = make_view(b6)
    iv = InducedView(view, (0, 1, 2))
    bad = ((iv, 2, 1 << 3), (iv, 2, mask_of((1, 3))), (view, 0, 1 << 9), (view, 0, -2),
           (view, 0, -1 << 6), (view, 0, [1, 2]), (view, 0, True), (view, 0, 2.0))
    for search in (neighborhood, find_neighbor):
        for v, u, B in bad:
            with pytest.raises(QueryInputError):
                search(cache, v, None, u, B)
    for v, u, w in ((iv, 3, 2), (iv, 2, 3), (view, -1, 0), (view, 9, 0), (view, 0, 9)):
        with pytest.raises(QueryInputError):
            cache.capacity(v, u, w)
        if w >= 0:
            with pytest.raises(QueryInputError):
                cache.residual_between(v, None, u, 1 << w)
    with pytest.raises(QueryInputError):
        cache.residual_between(view, None, 0, -2)
    for v, _u, within in bad:
        with pytest.raises(QueryInputError):
            bfs_tree(cache, v, None, 0, within=within)
    assert ledger.cut_count == 0 and cache.logical_bis == 0


def test_bfs_tree_refuses_a_sink_outside_the_view(b6):
    """A sink of 1.0 or -1 would fail on a shift, and 99, outside the view,
    or True, which is not a vertex id, would be passed over while the search
    ran through the whole view; each is refused before any charge."""
    view, ledger, cache = make_view(b6)
    for sink in (1.0, -1, 99, True):
        with pytest.raises(QueryInputError):
            bfs_tree(cache, view, None, 0, sink=sink)
    assert ledger.cut_count == 0 and cache.logical_bis == 0


def test_bfs_tree_examples(p4, k4, b6):
    view, _, cache = make_view(p4)
    tree = bfs_tree(cache, view, None, 0)
    assert tree.layers == [1 << 0, 1 << 1, 1 << 2, 1 << 3]
    view, _, cache = make_view(k4)
    tree = bfs_tree(cache, view, None, 2)
    assert tree.layers == [1 << 2, mask_of([0, 1, 3])]
    view, _, cache = make_view(b6)
    f = Flow(0, 5)
    for a, b in ((0, 2), (2, 3), (3, 5)):
        f.push(a, b, 1)
    f.value = 1
    tree = bfs_tree(cache, view, f, 0)
    assert tree.reached() == mask_of([0, 1, 2])  # the far triangle is unreachable


def test_bfs_tree_matches_brute_with_flows():
    for seed in range(8):
        g = random_graph(10, 0.4, seed)
        f = random_valid_flow(g, 0, 9, seed)
        view, _, cache = make_view(g)
        tree = bfs_tree(cache, view, f, 0)
        assert tree.layers == brute_bfs_layers(g, f, 0)


def test_bfs_tree_within_restriction(b6):
    view, _, cache = make_view(b6)
    tree = bfs_tree(cache, view, None, 0, within=mask_of([1, 2]))
    assert tree.layers == [1 << 0, mask_of([1, 2])]
    tree = bfs_tree(cache, view, None, 0, within=mask_of([4, 5]))
    assert tree.layers == [1 << 0]
    # the root need not lie in `within`; 1 is reached only through 2
    tree = bfs_tree(cache, view, None, 3, within=mask_of([1, 2]))
    assert tree.layers == [1 << 3, 1 << 2, 1 << 1]


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
    got = find_neighbor(cache, view, None, u, mask_of(B))
    assert got == (brute[0] if brute else None)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(6, 11),
    st.sampled_from([1, 3]),
    st.floats(0.2, 0.7),
    st.integers(0, 10_000),
)
def test_sink_stopped_bfs_keeps_every_layer_below_the_sink(n, W, p, seed):
    """On base, augmented and contracted views under random valid flows, a
    BFS given a sink returns the complete BFS's layers below the sink's
    distance, the sink at that distance, and nothing beyond it; with the
    sink unreachable it is the complete BFS. The sink's layer holds only
    vertices of the complete one's. Each stopped search runs on a fresh
    cache (probing) and on the cache the complete search filled (learned
    reads)."""
    g = random_graph(n, p, seed % 97, W=W)
    rng = random.Random(seed)
    for name, view, cap, s, t, _real in flow_views(g):
        explicit = explicit_graph(view, cap)
        f = random_valid_flow(explicit, s, t, seed, tries=rng.randint(0, 4))
        cache = CutCache(view.base_view)
        full = bfs_tree(cache, view, f, s).layers
        assert full == brute_bfs_layers(explicit, f, s), name
        others = [v for v in view.vertices() if v != s]
        for sink in (t, rng.choice(others)):
            d = next((i for i, layer in enumerate(full) if layer >> sink & 1), None)
            for c in (CutCache(view.base_view), cache):
                stopped = bfs_tree(c, view, f, s, sink=sink).layers
                if d is None:
                    assert stopped == full, name
                    continue
                assert len(stopped) == d + 1 and stopped[:d] == full[:d], name
                assert stopped[d] >> sink & 1 and not stopped[d] & ~full[d], name


def _check_memoised_rows(cache, view, cap, f, real, learned, rng):
    """Every vertex's learned row read through f's memo equals a fresh read
    (a copy of f, whose memo is empty) and the explicit view graph cap:
    None exactly while a base pair of u into X is not in `learned`, else
    u's residual neighbours in X. A second read of the row, on a random
    part of the other vertices, is served by the memo."""
    verts = view.vertices()
    for u in verts:
        others = [v for v in verts if v != u]
        part = sorted(rng.sample(others, rng.randint(1, len(others))))
        for i, B in enumerate((others, part)):
            X = mask_of(B)
            got = cache.learned_neighbors(view, f, u, X)
            if i == 0:
                row = f._rows[u]
            else:
                assert f._rows[u] is row, u
            assert got == cache.learned_neighbors(view, copy_flow(f), u, X), (u, B)
            unknown = u in real and any(
                (min(u, b), max(u, b)) not in learned for b in B if b in real
            )
            if unknown:
                assert got is None, (u, B)
            else:
                assert got is not None, (u, B)
                assert ids_of(got) == view_residual_neighbors(cap, f, u, B), (u, B)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(6, 10),
    st.sampled_from([1, 3]),
    st.floats(0.2, 0.7),
    st.integers(0, 10_000),
)
def test_memoised_residual_rows_follow_pushes_and_learned_pairs(n, W, p, seed):
    """A flow memoises each vertex's learned residual row. On base,
    augmented and contracted views, alternately push along a random
    residual path and learn more base pairs (all of them before the last
    push); after each step every row read through the memo is checked
    (_check_memoised_rows). Then the flow grown on the scale-1 augmented
    view, which is valid on the scale-2 one over the same ids, is read on
    the latter: its memoised rows belong to the other view."""
    g = random_graph(n, p, seed % 97, W=W)
    rng = random.Random(seed)
    grown = {}
    for name, view, cap, s, t, real in flow_views(g):
        cache = CutCache(view.base_view)
        f = Flow(s, t)
        pending = [(a, b) for a in range(n) for b in range(a + 1, n)]
        rng.shuffle(pending)
        chunk = -(-len(pending) // 3)
        learned: set[tuple[int, int]] = set()
        for step in range(8):
            if step % 2:
                for a, b in pending[-chunk:]:
                    cache.base_pair_sum(a, 1 << b)
                    learned.add((a, b))
                del pending[-chunk:]
            else:
                push_random_path(explicit_graph(view, cap), f, rng)
            _check_memoised_rows(cache, view, cap, f, real, learned, rng)
        grown[name] = (cache, view, cap, f, real, learned)
    cache, _view, _cap, f, real, learned = grown["augmented_scale1"]
    _, view, cap, _, _, _ = grown["augmented_scale2"]
    _check_memoised_rows(cache, view, cap, f, real, learned, rng)
