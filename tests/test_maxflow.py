"""Layered graphs, blocking flow, the full max-flow loop, and path
decomposition, checked against explicit-graph references."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutlab.config import PINNED
from cutlab.expander import decompose
from cutlab.harness import InstanceSpec, generate, reference_maxflow
from cutlab.maxflow import blocking_flow_round, dinitz_maxflow, path_decomposition
from cutlab.oracle import (
    AugmentedView,
    CutCache,
    Flow,
    GraphInstance,
    QueryInputError,
    ids_of,
    mask_of,
)
from cutlab.mincut import global_mincut
from cutlab.primitives import bfs_tree, find_neighbor
from conftest import (
    copy_flow,
    explicit_graph,
    flow_views,
    make_view,
    random_graph,
    random_valid_flow,
    residual_capacity,
)


def k33_with_st() -> GraphInstance:
    # s=0 joined to left side {1,2,3}, right side {4,5,6} joined to t=7
    edges = {}
    for v in (1, 2, 3):
        edges[(0, v)] = 1
    for u in (1, 2, 3):
        for v in (4, 5, 6):
            edges[(u, v)] = 1
    for u in (4, 5, 6):
        edges[(u, 7)] = 1
    return GraphInstance(8, edges)


# ---------------------------------------------------------------------------
# layered graph


def layered_graph(cache, view, f, s, t):
    """The layered graph of a Dinitz round, as dinitz_maxflow builds it: the
    layers of the BFS stopped at t, the last one cut to t alone; None when t
    is unreachable."""
    layers = bfs_tree(cache, view, f, s, sink=t).layers
    if not layers[-1] >> t & 1:
        return None
    return layers[:-1] + [1 << t]


def test_build_layered_b6(b6):
    view, _, cache = make_view(b6)
    # shortest path 0-2-3-5 has three hops; 3 discovers 4 with the sink
    layers = bfs_tree(cache, view, Flow(0, 5), 0, sink=5).layers
    assert layers == [1 << 0, mask_of([1, 2]), 1 << 3, mask_of([4, 5])]
    # the non-sink vertex 4 is dropped from the last layer
    L = layered_graph(cache, view, Flow(0, 5), 0, 5)
    assert L == [1 << 0, mask_of([1, 2]), 1 << 3, 1 << 5]


def test_build_layered_unreachable_when_bridge_saturated(b6):
    view, _, cache = make_view(b6)
    f = Flow(0, 5)
    for a, b in ((0, 2), (2, 3), (3, 5)):
        f.push(a, b, 1)
    f.value = 1
    assert layered_graph(cache, view, f, 0, 5) is None
    # an unreachable sink leaves the complete BFS: the minimum cut's side
    assert bfs_tree(cache, view, f, 0, sink=5).reached() == mask_of([0, 1, 2])
    assert dinitz_maxflow(view, 0, 5, cache).mincut_source_side == (0, 1, 2)


def test_build_layered_k4(k4):
    view, _, cache = make_view(k4)
    L = layered_graph(cache, view, Flow(0, 3), 0, 3)
    assert L == [1 << 0, 1 << 3]


# ---------------------------------------------------------------------------
# blocking flow


def test_blocking_flow_b6_first_round(b6):
    view, _, cache = make_view(b6)
    f = Flow(0, 5)
    L = layered_graph(cache, view, f, 0, 5)
    # f starts at zero, so after the round it is the blocking flow
    assert blocking_flow_round(cache, view, f, L) == 1
    assert f.value == 1
    assert f.support() == [(0, 2, 1), (2, 3, 1), (3, 5, 1)]
    # distance strictly increases afterwards
    assert layered_graph(cache, view, f, 0, 5) is None


def test_blocking_flow_k4_round_one(k4):
    view, _, cache = make_view(k4)
    f = Flow(0, 3)
    L = layered_graph(cache, view, f, 0, 3)
    assert blocking_flow_round(cache, view, f, L) == 1
    assert f.value == 1
    assert f.support() == [(0, 3, 1)]


def test_blocking_flow_k33_single_round_value_three():
    g = k33_with_st()
    assert reference_maxflow(g, 0, 7) == 3
    view, _, cache = make_view(g)
    f = Flow(0, 7)
    L = layered_graph(cache, view, f, 0, 7)
    assert len(L) == 4
    assert blocking_flow_round(cache, view, f, L) == 3
    assert f.value == 3


def brute_layered_edges(g, f, L):
    """All residual edges from one layer of L into the next."""
    out = []
    for here, there in zip(L, L[1:]):
        for u in ids_of(here):
            for v in ids_of(there):
                if residual_capacity(g, f, u, v) > 0:
                    out.append((u, v))
    return out


def test_blocking_property_explicit_small():
    # after a round, every s-t path of the materialized layered graph has a
    # saturated edge
    for seed in range(5):
        g = random_graph(10, 0.5, seed)
        view, _, cache = make_view(g)
        f = Flow(0, 9)
        L = layered_graph(cache, view, f, 0, 9)
        if L is None:
            continue
        before = {e: residual_capacity(g, f, *e) for e in brute_layered_edges(g, f, L)}
        blocking_flow_round(cache, view, f, L)
        saturated = {e for e in before if residual_capacity(g, f, *e) == 0}
        # enumerate all s-t paths in the original layered graph
        def paths(u, acc):
            if u == 9:
                yield tuple(acc)
                return
            for (a, b) in before:
                if a == u:
                    yield from paths(b, acc + [(a, b)])

        for path in paths(0, []):
            assert any(e in saturated for e in path), path


def stepwise_blocking_round(cache, view, f, layers, restart=False):
    """Reference blocking-flow search that calls find_neighbor at every
    step. After each augmentation it restarts from s (restart) or retreats
    to the tail of the path's first saturated edge."""
    s, d = ids_of(layers[0])[0], len(layers) - 1
    alive = list(layers)
    pushed = 0
    stack = [s]
    while stack:
        u, depth = stack[-1], len(stack) - 1
        v = find_neighbor(cache, view, f, u, alive[depth + 1])
        if v is None:
            stack.pop()
            alive[depth] &= ~(1 << u)
            continue
        stack.append(v)
        if len(stack) == d + 1:
            path = list(zip(stack, stack[1:]))
            caps = [cache.capacity(view, a, b) - f.get(a, b) for a, b in path]
            bottleneck = min(caps)
            for a, b in path:
                f.push(a, b, bottleneck)
            f.value += bottleneck
            pushed += bottleneck
            if restart:
                stack = [s]
            else:
                del stack[caps.index(bottleneck) + 1 :]
    return pushed


def layered_path_left(g, f, layers) -> bool:
    """Whether the layered graph still holds an s-t path of residual edges
    of the explicit graph g under f."""
    reach = ids_of(layers[0])
    for layer in layers[1:]:
        reach = [v for v in ids_of(layer) if any(residual_capacity(g, f, u, v) > 0 for u in reach)]
    return bool(reach)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(6, 11),
    st.sampled_from([1, 3]),
    st.floats(0.2, 0.7),
    st.integers(0, 10_000),
)
def test_retreating_blocking_round_matches_the_reset_search(n, W, p, seed):
    """On base, augmented and contracted views, from a random valid flow,
    the blocking round that retreats to the tail of the first saturated
    edge pushes the same value along the same support as the search that
    restarts from s, and leaves no residual s-t path in the layered graph.
    It runs on a fresh cache (probing) and on one that learned every base
    pair (learned reads); the reference runs on a fresh cache."""
    g = random_graph(n, p, seed % 97, W=W)
    rng = random.Random(seed)
    learned = None
    for name, view, cap, s, t, _real in flow_views(g):
        if learned is None:  # the views share one base view
            learned = CutCache(view.base_view)
            for a in range(n):
                for b in range(a + 1, n):
                    learned.base_pair_sum(a, 1 << b)
        explicit = explicit_graph(view, cap)
        f = random_valid_flow(explicit, s, t, seed, tries=rng.randint(0, 3))
        layered = layered_graph(CutCache(view.base_view), view, f, s, t)
        if layered is None:
            continue
        want = copy_flow(f)
        value = stepwise_blocking_round(CutCache(view.base_view), view, want, layered, restart=True)
        for cache in (CutCache(view.base_view), learned):
            got = copy_flow(f)
            assert blocking_flow_round(cache, view, got, layered) == value, name
            assert got.value == want.value and got.support() == want.support(), name
            assert not layered_path_left(explicit, got, layered), name


def test_kept_rows_match_find_neighbor_at_every_step():
    """On base, augmented and contracted views of seeded graphs (W = 1 and
    3), with a random share of base pairs learned beforehand, each round of
    blocking_flow_round, which keeps each vertex's next-layer row, gives
    what the search calling find_neighbor at every step gives: the pushed
    value, the flow's support, the transcript, logical_bis and the learned
    pairs. The rounds run until the sink is unreachable, and over the test
    they meet both vertices whose learned row covers the next layer and
    vertices whose row does not."""
    covered = uncovered = 0
    for seed in range(16):
        rng = random.Random(seed)
        n, W = rng.randint(8, 14), (1, 3)[seed % 2]
        g = random_graph(n, rng.uniform(0.3, 0.7), seed, W=W)
        share = rng.uniform(0.0, 0.6)
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < share]
        for (name, view, cap, s, t, _), (_, ref_view, _, _, _, _) in zip(flow_views(g), flow_views(g)):
            caches = []
            for v in (view, ref_view):
                cache = CutCache(v.base_view)
                for a, b in pairs:
                    cache.base_pair_sum(a, 1 << b)
                caches.append(cache)
            cache, ref_cache = caches
            f = random_valid_flow(explicit_graph(view, cap), s, t, seed, tries=rng.randint(0, 2))
            ref_f = copy_flow(f)
            f = copy_flow(f)
            while True:
                layers = layered_graph(cache, view, f, s, t)
                assert layers == layered_graph(ref_cache, ref_view, ref_f, s, t), name
                if layers is None:
                    break
                for depth, layer in enumerate(layers[:-1]):
                    for u in ids_of(layer):
                        if ref_cache.learned_neighbors(ref_view, ref_f, u, layers[depth + 1]) is None:
                            uncovered += 1
                        else:
                            covered += 1
                got = blocking_flow_round(cache, view, f, layers)
                assert got == stepwise_blocking_round(ref_cache, ref_view, ref_f, layers), name
                assert f.value == ref_f.value and f.support() == ref_f.support(), name
                assert view.ledger.transcript_text() == ref_view.ledger.transcript_text(), name
                assert cache.logical_bis == ref_cache.logical_bis, name
                assert cache._known == ref_cache._known, name
    assert covered > 100 and uncovered > 100, (covered, uncovered)


def test_round_on_learned_graph_reads_each_row_once(monkeypatch):
    """On a cache that holds every base pair, each blocking round reads each
    layered vertex's learned row at most once and never calls
    find_neighbor: on unit and W=3 graphs, on base, augmented and
    contracted views."""
    import cutlab.maxflow as mf

    rounds: list[tuple[int, list[int]]] = []  # (layered vertices, rows read)
    in_round = [False]
    read = CutCache.learned_neighbors
    real_round = mf.blocking_flow_round
    real_find = mf.find_neighbor
    finds = []

    def learned_neighbors(self, view, f, u, X):
        if in_round[0]:
            rounds[-1][1].append(u)
        return read(self, view, f, u, X)

    def blocking(cache, view, f, layers):
        layered = 0
        for layer in layers[:-1]:
            layered |= layer
        rounds.append((layered, []))
        in_round[0] = True
        try:
            return real_round(cache, view, f, layers)
        finally:
            in_round[0] = False

    def find(*args):
        finds.append(args)
        return real_find(*args)

    monkeypatch.setattr(CutCache, "learned_neighbors", learned_neighbors)
    monkeypatch.setattr(mf, "blocking_flow_round", blocking)
    monkeypatch.setattr(mf, "find_neighbor", find)
    for W in (1, 3):
        for n in (16, 40):
            g = random_graph(n, 0.3, n + W, W=W)
            for name, view, _cap, s, t, _real in flow_views(g):
                cache = CutCache(view.base_view)
                for a in range(n):
                    for b in range(a + 1, n):
                        cache.base_pair_sum(a, 1 << b)
                before = view.ledger.cut_count
                res = dinitz_maxflow(view, s, t, cache=cache)
                assert view.ledger.cut_count == before, name
                if name == "base":
                    assert res.value == reference_maxflow(g, s, t)
    assert len(rounds) > 20 and sum(len(reads) for _, reads in rounds) > 200
    for layered, reads in rounds:
        assert len(reads) == len(set(reads)), reads
        assert mask_of(reads) | layered == layered, reads
    assert not finds


def test_monotone_distance_asserted():
    for seed in range(6):
        g = random_graph(12, 0.35, seed)
        view, _, cache = make_view(g)
        res = dinitz_maxflow(view, 0, 11, cache=cache)
        ds = [r.d for r in res.rounds]
        assert ds == sorted(set(ds)), ds


# ---------------------------------------------------------------------------
# full max flow


def test_dinitz_examples(b6, k4):
    view, _, cache = make_view(b6)
    res = dinitz_maxflow(view, 0, 5, cache=cache)
    assert res.value == 1
    assert res.mincut_source_side == (0, 1, 2)
    view, _, cache = make_view(k4)
    res = dinitz_maxflow(view, 0, 3, cache=cache)
    assert res.value == 3


def test_dinitz_matches_reference_on_random_trials():
    for seed in range(25):
        for n, W in ((8, 1), (14, 2), (20, 3)):
            g = random_graph(n, 0.4, seed, W=W)
            view, _, cache = make_view(g)
            res = dinitz_maxflow(view, 0, n - 1, cache=cache)
            assert res.value == reference_maxflow(g, 0, n - 1)
            side = set(res.mincut_source_side)
            assert 0 in side and n - 1 not in side
            assert g.cut_of(side) == res.value  # max-flow/min-cut duality


def _flow_budget_cases():
    cases = []
    for seed in range(5):
        for n, W in ((12, 1), (16, 2), (24, 3)):
            cases.append((random_graph(n, 0.5, seed, W=W), n, W, "random_gnp"))
    for n in (6, 10, 16, 24, 40):
        cases.append((generate(InstanceSpec("two_cliques_bridge", n)), n, 1, "two_cliques_bridge"))
        cases.append((generate(InstanceSpec("complete", n)), n, 1, "complete"))
        if n >= 8:
            cases.append((generate(InstanceSpec("barbell", n)), n, 1, "barbell"))
    return cases


def test_dinitz_round_bound_pinned():
    for g, n, W, _fam in _flow_budget_cases():
        view, _, cache = make_view(g)
        res = dinitz_maxflow(view, 0, n - 1, cache=cache)
        bound = PINNED["C_ROUNDS"] * (n ** (2 / 3) * W + 1)
        assert res.round_count <= bound, (n, W, res.round_count)


def test_dinitz_query_budget_pinned_per_family():
    import math

    from cutlab.config import PINNED_FLOW

    worst: dict[str, float] = {}
    for g, n, W, fam in _flow_budget_cases():
        view, ledger, cache = make_view(g)
        dinitz_maxflow(view, 0, n - 1, cache=cache)
        ratio = ledger.cut_count / (n ** (5 / 3) * W * math.log2(n))
        worst[fam] = max(worst.get(fam, 0.0), ratio)
    for fam, ratio in worst.items():
        assert ratio <= PINNED_FLOW[fam], (fam, ratio)


def test_round_records_support_phase_split():
    # the per-round (d, value) records partition into the short-distance and
    # long-distance phases of the query analysis; each phase respects the
    # pinned round budget and the long phase carries little flow
    for seed in range(4):
        n, W = 24, 2
        g = random_graph(n, 0.45, seed, W=W)
        view, _, cache = make_view(g)
        res = dinitz_maxflow(view, 0, n - 1, cache=cache)
        threshold = n ** (2 / 3)
        short = [r for r in res.rounds if r.d < threshold]
        long = [r for r in res.rounds if r.d >= threshold]
        bound = PINNED["C_ROUNDS"] * (threshold * W + 1)
        assert len(short) <= threshold + 1
        assert len(long) <= bound
        assert sum(r.value for r in long) <= bound
        assert sum(r.value for r in res.rounds) == res.value


def test_dinitz_limit_stops_before_the_next_bfs(monkeypatch):
    """With a limit at most the max flow, the flow stops in the round that
    reaches it: no BFS runs after that round, the source side is empty and
    the transcript is a prefix of the unlimited flow's. With a limit above
    the max flow, value, side and transcript are those of the unlimited
    flow."""
    import cutlab.maxflow as mf

    real_bfs = mf.bfs_tree
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return real_bfs(*args, **kwargs)

    monkeypatch.setattr(mf, "bfs_tree", counting)
    for seed in range(5):
        g = random_graph(20, 0.4, seed, W=2)
        view, ledger, cache = make_view(g)
        full = dinitz_maxflow(view, 0, 19, cache=cache)
        full_text = ledger.transcript_text().splitlines()
        for limit in range(1, full.value + 3):
            calls.clear()
            view, ledger, cache = make_view(g)
            res = dinitz_maxflow(view, 0, 19, cache=cache, limit=limit)
            text = ledger.transcript_text().splitlines()
            if limit <= full.value:
                assert res.value >= limit
                assert res.value - res.rounds[-1].value < limit
                assert res.mincut_source_side == ()
                assert len(calls) == res.round_count
                assert text == full_text[: len(text)]
            else:
                assert res.value == full.value
                assert res.mincut_source_side == full.mincut_source_side
                assert text == full_text
        with pytest.raises(QueryInputError):
            dinitz_maxflow(view, 0, 19, cache=cache, limit=0)


def test_dinitz_refuses_a_limit_that_is_not_an_int():
    """A limit that is not an int >= 1 is refused before any charge: True
    is not taken as 1, and a string or a float is not compared with the
    flow's value."""
    g = generate(InstanceSpec("two_cliques_bridge", 8))
    for limit in (True, False, "3", 1.0, 2.5, 0, -1):
        view, ledger, cache = make_view(g)
        with pytest.raises(QueryInputError):
            dinitz_maxflow(view, 0, 7, cache=cache, limit=limit)
        assert ledger.cut_count == 0, limit


def test_dinitz_on_augmented_view(b6):
    view, _, cache = make_view(b6)
    aug = AugmentedView(view, [(0, 2)], [(5, 2)])
    res = dinitz_maxflow(aug, aug.s_source, aug.s_sink, cache=cache)
    assert res.value == 1  # bridge still bottlenecks


# ---------------------------------------------------------------------------
# path decomposition


def test_path_decomposition_examples(b6, k4):
    view, _, cache = make_view(b6)
    res = dinitz_maxflow(view, 0, 5, cache=cache)
    paths = path_decomposition(res.flow)
    assert len(paths) == 1
    assert paths[0][1] == 1
    view, _, cache = make_view(k4)
    res = dinitz_maxflow(view, 0, 3, cache=cache)
    paths = path_decomposition(res.flow)
    assert len(paths) == 3
    assert sum(units for _, units in paths) == 3
    assert path_decomposition(Flow(0, 3)) == []


def test_path_decomposition_cancels_cycles():
    f = Flow(0, 3)
    for a, b in ((0, 1), (1, 3)):
        f.push(a, b, 2)
    f.value = 2
    # add a circulation disjoint from the path structure
    for a, b in ((1, 2), (2, 4), (4, 1)):
        f.push(a, b, 1)
    paths = path_decomposition(f)
    assert sum(units for _, units in paths) == 2
    for path, _ in paths:
        assert path[0] == 0 and path[-1] == 3


def test_path_decomposition_units_match_value():
    for seed in range(8):
        g = random_graph(12, 0.45, seed, W=2)
        view, _, cache = make_view(g)
        res = dinitz_maxflow(view, 0, 11, cache=cache)
        paths = path_decomposition(res.flow)
        assert sum(units for _, units in paths) == res.value
        for path, units in paths:
            assert path[0] == 0 and path[-1] == 11 and units >= 1
            assert len(set(path)) == len(path)


def test_dinitz_matches_networkx_with_a_shared_cache():
    """Max-flow values against networkx at n = 150 with capacities 1-3,
    five s-t pairs on one cache; each source side is a cut of that value."""
    nx = pytest.importorskip("networkx")
    g = random_graph(150, 0.1, 4, W=3)
    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    G.add_edges_from((u, v, {"capacity": w}) for (u, v), w in g.edges.items())
    view, _, cache = make_view(g)
    for s, t in ((0, 149), (3, 77), (149, 0), (10, 11), (42, 120)):
        res = dinitz_maxflow(view, s, t, cache=cache)
        assert res.value == nx.maximum_flow_value(G, s, t), (s, t)
        assert g.cut_of(res.mincut_source_side) == res.value


def test_blocking_search_reads_path_capacities_for_free(monkeypatch):
    """The blocking search reads each path edge's capacity with
    CutCache.capacity, its only caller. The search that found the edge
    taught its pair, so no read charges a query: on unit and W=3 graphs
    with several s-t pairs on one cache, and inside global_mincut's and
    decompose's derived views."""
    charges = []
    read = CutCache.capacity

    def capacity(self, view, u, v):
        before = view.ledger.cut_count
        out = read(self, view, u, v)
        charges.append(view.ledger.cut_count - before)
        return out

    monkeypatch.setattr(CutCache, "capacity", capacity)
    rng = random.Random(7)
    for W in (1, 3):
        for n in (24, 48):
            g = random_graph(n, 0.3, n + W, W=W)
            view, _, cache = make_view(g)
            for _ in range(6):
                s, t = rng.sample(range(n), 2)
                assert dinitz_maxflow(view, s, t, cache=cache).value == reference_maxflow(g, s, t)
    for spec in (
        InstanceSpec("expander_like", 32),
        InstanceSpec("random_gnp", 24, 1, (("p", 0.5),)),
        InstanceSpec("planted_cut", 32),
        InstanceSpec("two_cliques_bridge", 16),
    ):
        g = generate(spec)
        view, _, cache = make_view(g)
        global_mincut(view, cache=cache)
        view, _, cache = make_view(g)
        decompose(view, range(g.n), 1, cache=cache)
    assert len(charges) > 1000
    assert not any(charges)
