"""Layered graphs, blocking flow, the full max-flow loop, and path
decomposition, checked against explicit-graph references."""

from cutlab.config import PINNED
from cutlab.harness import InstanceSpec, generate, reference_maxflow
from cutlab.maxflow import (
    _layers_from_tree,
    blocking_flow_round,
    dinitz_maxflow,
    path_decomposition,
)
from cutlab.oracle import AugmentedView, Flow, GraphInstance
from cutlab.primitives import bfs_tree
from conftest import make_view, random_graph, residual_capacity


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


def test_build_layered_b6(b6):
    view, _, cache = make_view(b6)
    L = _layers_from_tree(bfs_tree(cache, view, Flow.zero(0, 5), 0), 0, 5)
    # shortest path 0-2-3-5 has three hops
    assert L.d == 3
    assert L.layers[0] == [0]
    assert L.layers[1] == [1, 2]
    assert L.layers[2] == [3]
    assert L.layers[3] == [5]  # non-sink vertex 4 dropped from the last layer


def test_build_layered_unreachable_when_bridge_saturated(b6):
    view, _, cache = make_view(b6)
    f = Flow.zero(0, 5)
    for a, b in ((0, 2), (2, 3), (3, 5)):
        f.push(a, b, 1)
    f.value = 1
    assert _layers_from_tree(bfs_tree(cache, view, f, 0), 0, 5) is None


def test_build_layered_k4(k4):
    view, _, cache = make_view(k4)
    L = _layers_from_tree(bfs_tree(cache, view, Flow.zero(0, 3), 0), 0, 3)
    assert L.d == 1
    assert L.layers == [[0], [3]]


# ---------------------------------------------------------------------------
# blocking flow


def test_blocking_flow_b6_first_round(b6):
    view, _, cache = make_view(b6)
    f = Flow.zero(0, 5)
    L = _layers_from_tree(bfs_tree(cache, view, f, 0), 0, 5)
    # f starts at zero, so after the round it is the blocking flow
    assert blocking_flow_round(cache, view, f, L) == 1
    assert f.value == 1
    assert f.support() == [(0, 2, 1), (2, 3, 1), (3, 5, 1)]
    # distance strictly increases afterwards
    assert _layers_from_tree(bfs_tree(cache, view, f, 0), 0, 5) is None


def test_blocking_flow_k4_round_one(k4):
    view, _, cache = make_view(k4)
    f = Flow.zero(0, 3)
    L = _layers_from_tree(bfs_tree(cache, view, f, 0), 0, 3)
    assert blocking_flow_round(cache, view, f, L) == 1
    assert f.value == 1
    assert f.support() == [(0, 3, 1)]


def test_blocking_flow_k33_single_round_value_three():
    g = k33_with_st()
    assert reference_maxflow(g, 0, 7) == 3
    view, _, cache = make_view(g)
    f = Flow.zero(0, 7)
    L = _layers_from_tree(bfs_tree(cache, view, f, 0), 0, 7)
    assert L.d == 3
    assert blocking_flow_round(cache, view, f, L) == 3
    assert f.value == 3


def brute_layered_edges(g, f, L):
    """All residual edges that respect the layer structure."""
    out = []
    for u in L.dist:
        for v in L.dist:
            if L.dist.get(v, -9) == L.dist[u] + 1 and residual_capacity(g, f, u, v) > 0:
                out.append((u, v))
    return out


def test_blocking_property_explicit_small():
    # after a round, every s-t path of the materialized layered graph has a
    # saturated edge
    for seed in range(5):
        g = random_graph(10, 0.5, seed)
        view, _, cache = make_view(g)
        f = Flow.zero(0, 9)
        L = _layers_from_tree(bfs_tree(cache, view, f, 0), 0, 9)
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
    assert path_decomposition(Flow.zero(0, 3)) == []


def test_path_decomposition_cancels_cycles():
    f = Flow.zero(0, 3)
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
