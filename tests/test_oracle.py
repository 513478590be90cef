"""Oracle contracts: exact charging, conventions, replay determinism, view
consistency against explicitly materialized expansions, and the file and
transcript formats."""

import gc
import itertools
import random
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutlab.oracle import (
    AugmentedView,
    ContractViolation,
    ContractedView,
    CutCache,
    Flow,
    GraphFormatError,
    GraphInstance,
    InducedView,
    QueryInputError,
    QueryLedger,
    TranscriptRecord,
    ids_of,
    mask_of,
)
from cutlab.expander import decompose, matching_player
from cutlab.harness import reference_maxflow
from cutlab.isolating import partition_mincut
from cutlab.maxflow import dinitz_maxflow
from cutlab.mincut import global_mincut
from cutlab.primitives import bfs_tree, find_neighbor, neighborhood
from conftest import (
    contracted_edges,
    contracted_view,
    induced_view,
    make_view,
    materialize_augmented,
    random_graph,
    random_valid_flow,
    residual_capacity,
    view_residual_neighbors,
)


# ---------------------------------------------------------------------------
# cut queries through the cache


def test_cut_query_k4_examples(k4):
    view, ledger, cache = make_view(k4)
    assert cache.cut(view, [0]) == 3
    assert cache.cut(view, [0, 1]) == 4
    assert ledger.cut_count == 2


def test_cut_query_b6_bridge(b6):
    view, _, cache = make_view(b6)
    assert cache.cut(view, [0, 1, 2]) == 1


def test_cut_query_conventions_zero_cost(b6):
    view, ledger, cache = make_view(b6)
    assert cache.cut(view, []) == 0
    assert cache.cut(view, range(6)) == 0
    assert ledger.cut_count == 0
    assert len(ledger.transcript) == 0


def test_cut_query_out_of_range(b6):
    """An id outside the base view is refused by cut and pair_capacity
    before any charge, also when the set has the universe's size (which
    would otherwise read as the free full set) and when the other set of a
    pair is valid. Every derived view is refused by both calls, even with
    ids inside it: it answers only through its linear forms."""
    view, ledger, _ = make_view(b6)
    cv = contracted_view(view, b6.edges, (0, 1, 2))
    aug = AugmentedView(view, [(0, 1)], [(5, 1)])
    iv = InducedView(view, (0, 1, 2))
    cases = [(view, ids) for ids in ([0, 99], [-1], range(1, 7), [0.5])]
    cases += [(cv, [0, cv.s_r]), (aug, [aug.s_source, 0]), (aug, [0]), (iv, [0, 1])]
    for v, ids in cases:
        cache = CutCache(view)
        with pytest.raises(QueryInputError):
            cache.cut(v, ids)
        for A, B in ((ids, [4]), ([4], ids)):
            with pytest.raises(QueryInputError):
                cache.pair_capacity(v, A, B)
    assert ledger.cut_count == 0


def test_repeated_ids_count_once(b6):
    """A repeated id counts once, as in GraphInstance.cut_of, also when the
    padded set has the graph's size (which would read as the free full set)
    or the pair's sets repeat ids, and in the vertex lists of induced and
    contracted views: a keep list that repeats an id is a proper subset
    exactly when its distinct ids are."""
    path3 = GraphInstance(3, {(0, 1): 1, (1, 2): 1})
    view, _, cache = make_view(path3)
    assert cache.cut(view, [0, 0, 1]) == path3.cut_of([0, 0, 1]) == 1
    assert cache.cut(view, [2, 2, 2]) == path3.cut_of([2, 2, 2]) == 1
    path4 = GraphInstance(4, {(0, 1): 1, (1, 2): 1, (2, 3): 1})
    view, _, cache = make_view(path4)
    assert cache.pair_capacity(view, [0, 0], [1, 1]) == 1
    with pytest.raises(QueryInputError):
        cache.pair_capacity(view, [0, 1, 1], [1])
    view, ledger, _ = make_view(b6)
    assert InducedView(view, (0, 0, 1)).vertices() == (0, 1)
    with pytest.raises(QueryInputError):
        ContractedView(view, (0, 1, 2, 3, 4, 5, 5), {})
    cv = ContractedView(view, (0, 0, 1, 2, 3, 4), {})
    assert cv.vertices() == (0, 1, 2, 3, 4, 6) and cv.s_r == 6
    assert ledger.cut_count == 0


# every entry point that takes a view vertex, or a list of them, called on
# b6 with x in the place of vertex 1
VERTEX_ENTRY_POINTS = {
    "residual_between": lambda view, cache, x: cache.residual_between(view, None, x, mask_of([3])),
    "capacity": lambda view, cache, x: cache.capacity(view, 0, x),
    "find_neighbor": lambda view, cache, x: find_neighbor(cache, view, None, x, mask_of([0, 2])),
    "neighborhood": lambda view, cache, x: neighborhood(cache, view, None, x, mask_of([0, 2])),
    "bfs_tree": lambda view, cache, x: bfs_tree(cache, view, None, x).layers,
    "dinitz_source": lambda view, cache, x: dinitz_maxflow(view, x, 5, cache=cache).value,
    "dinitz_sink": lambda view, cache, x: dinitz_maxflow(view, 5, x, cache=cache).value,
    "decompose": lambda view, cache, x: [p.vertices for p in decompose(view, [0, x], 1, cache=cache)],
    "augmented": lambda view, cache, x: AugmentedView(view, [(0, 1)], [(x, 1)]).mask,
    "contracted": lambda view, cache, x: ContractedView(view, [0, x], {}).mask,
    "induced": lambda view, cache, x: InducedView(view, [0, x]).mask,
}


@pytest.mark.parametrize("entry", sorted(VERTEX_ENTRY_POINTS))
def test_view_vertices_are_ints_of_the_view(b6, entry):
    """A vertex is an int whose bit is set in the view's mask: a float, a
    string or None is refused with QueryInputError before any charge, and a
    numpy integer is either read as the same vertex or refused the same
    way, never with a TypeError."""
    call = VERTEX_ENTRY_POINTS[entry]
    for bad in (1.0, "1", None):
        view, ledger, cache = make_view(b6)
        with pytest.raises(QueryInputError):
            call(view, cache, bad)
        assert ledger.cut_count == 0 and cache.logical_bis == 0, bad
    view, ledger, cache = make_view(b6)
    try:
        got = call(view, cache, np.int64(1))
    except QueryInputError:
        assert ledger.cut_count == 0 and cache.logical_bis == 0
    else:
        view, _, cache = make_view(b6)
        assert got == call(view, cache, 1)


def test_ids_outside_the_graph_are_refused(p4):
    # a negative id must not wrap around to the last vertex
    for bad in [(-1,), (4,), (0, 4), (1, -2), (0.5,), (10**12,)]:
        with pytest.raises(QueryInputError):
            p4.cut_of(bad)
    with pytest.raises(QueryInputError):
        QueryLedger.replay([TranscriptRecord(0, (-1,), 1, "")], p4)
    for bad in (-1, 4):
        with pytest.raises(QueryInputError):
            p4.degree(bad)
    assert p4.cut_of((1, 1)) == p4.cut_of((1,)) == 2  # duplicates count once
    assert p4.cut_of(np.array([3], dtype=np.int64)) == 1
    assert p4.cut_of(x for x in (0, 1)) == 1


def test_pair_capacity_examples(k3, b6):
    view, ledger, cache = make_view(k3)
    assert cache.pair_capacity(view, [0], [1]) == 1
    assert ledger.cut_count == 3
    view, ledger, cache = make_view(b6)
    assert cache.pair_capacity(view, [0, 1, 2], [3, 4, 5]) == 1
    with pytest.raises(QueryInputError):
        cache.pair_capacity(view, [0, 1], [1, 2])


def test_pair_capacity_matches_brute_on_random_graphs():
    rng = random.Random(7)
    for seed in range(5):
        g = random_graph(10, 0.45, seed, W=2)
        view, _, cache = make_view(g)
        verts = list(range(10))
        rng.shuffle(verts)
        A, B = sorted(verts[:3]), sorted(verts[3:6])
        brute = sum(
            g.edges.get((min(a, b), max(a, b)), 0) for a in A for b in B
        )
        assert cache.pair_capacity(view, A, B) == brute


def test_bis_query_examples_and_cost(p4, b6):
    """A BIS is one residual probe from one vertex: one logical BIS, and at
    most three charged cuts, fewer when the memo already holds them."""
    view, ledger, cache = make_view(p4)
    assert cache.residual_between(view, None, 0, mask_of((2, 3))) == 0
    assert (ledger.cut_count, cache.logical_bis) == (3, 1)
    # cut({1}) and cut({2, 3}) are in the memo ({0, 2, 3} is the complement
    # of {1}), and so is cut({1, 2, 3}), the complement of {0}
    assert cache.residual_between(view, None, 1, mask_of((2, 3))) == 1
    assert (ledger.cut_count, cache.logical_bis) == (3, 2)
    view, ledger, cache = make_view(b6)
    assert cache.residual_between(view, None, 0, mask_of((3, 4, 5))) == 0
    assert (ledger.cut_count, cache.logical_bis) == (3, 1)


# ---------------------------------------------------------------------------
# residual probes


def test_residual_bis_on_saturated_bridge(b6):
    view, ledger, cache = make_view(b6)
    f = Flow(0, 5)
    for a, b in ((0, 2), (2, 3), (3, 5)):
        f.push(a, b, 1)
    f.value = 1
    assert cache.residual_between(view, f, 2, mask_of((3,))) == 0
    assert cache.residual_between(view, f, 3, mask_of((2,))) == 2  # the back edge
    # the first probe learned c(2, 3), so the second charges nothing
    assert ledger.cut_count == 3
    assert cache.logical_bis == 2


def test_residual_bis_equals_bis_on_zero_flow(b6):
    view, _, cache = make_view(b6)
    f = Flow(0, 5)
    for u, B in ((0, (1, 2)), (0, (3, 4, 5)), (2, (3,))):
        X = mask_of(B)
        assert cache.residual_between(view, f, u, X) == cache.residual_between(view, None, u, X)


def test_residual_bis_full_enumeration_small():
    # every vertex u and every target set B on n=6 under random valid flows,
    # on a cache shared across probes and on a fresh one per probe
    for seed in range(3):
        g = random_graph(6, 0.5, seed, W=2)
        f = random_valid_flow(g, 0, 5, seed)
        view, _, cache = make_view(g)
        for u in range(g.n):
            others = [v for v in range(g.n) if v != u]
            for k in range(1, len(others) + 1):
                for B in itertools.combinations(others, k):
                    brute = sum(residual_capacity(g, f, u, b) for b in B)
                    assert cache.residual_between(view, f, u, mask_of(B)) == brute, (u, B)
                    fresh = CutCache(view)
                    assert fresh.residual_between(view, f, u, mask_of(B)) == brute, (u, B)


# ---------------------------------------------------------------------------
# views against explicit materializations


def brute_cut_of(cap, vertices, side):
    side = set(side)
    return sum(w for (u, v), w in cap.items() if (u in side) != (v in side))


def probed_cut(cache, view, cap, side):
    """The cut of `side` in a view with explicit adjacency cap, read as one
    zero-flow residual probe from each vertex of side into the rest of the
    view; each probe is checked against cap."""
    rest = [v for v in view.vertices() if v not in side]
    total = 0
    for u in side:
        got = cache.residual_between(view, None, u, mask_of(rest))
        assert got == sum(cap.get((min(u, v), max(u, v)), 0) for v in rest), (u, side)
        total += got
    return total


def assert_capacities(cache, view, cap):
    """Every capacity read of the view against its explicit adjacency cap."""
    for u, v in itertools.permutations(view.vertices(), 2):
        assert cache.capacity(view, u, v) == cap.get((min(u, v), max(u, v)), 0), (u, v)


def test_augmented_view_consistency_full_enumeration(b6):
    g = b6
    view, _, cache = make_view(g)
    aug = AugmentedView(view, [(0, 2)], [(5, 2)], scale=1)
    # one weighted virtual edge per terminal, no further vertices
    assert aug.virtual_edges == [(6, 0, 2), (5, 7, 2)]
    cap = materialize_augmented(g.edges, aug)
    verts = aug.vertices()
    assert verts == tuple(range(8))
    for k in range(1, len(verts)):
        for side in itertools.combinations(verts, k):
            assert probed_cut(cache, aug, cap, side) == brute_cut_of(cap, verts, side)
    assert_capacities(cache, aug, cap)


@pytest.mark.parametrize("parent_kind", ["base", "contracted", "induced", "induced_low", "augmented"])
@pytest.mark.parametrize("scale", [1, 2])
def test_augmented_indexed_paths_match_materialized(parent_kind, scale):
    """Every vertex kind (virtual source and sink, terminals, plain
    vertices) against random sets B: the residual probe (under the zero
    flow and under a nonzero valid flow), capacity, set-to-set totals and
    cuts, both read as sums of probes, must all agree with sums over the
    explicitly materialized augmented graph. The augmented parent nests two
    scales and puts a terminal on a virtual vertex of the parent; the
    induced_low part leaves out the highest base ids, so virtual ids reuse
    them."""
    for seed in range(2):
        g = random_graph(9, 0.5, seed, W=1 + seed)
        view, ledger, cache = make_view(g)
        if parent_kind == "base":
            parent, parent_edges = view, g.edges
        elif parent_kind == "contracted":
            parent = contracted_view(view, g.edges, (0, 2, 3, 5, 6))
            parent_edges = contracted_edges(g.edges, parent)
        elif parent_kind == "induced":
            parent, parent_edges = induced_view(view, g, (0, 1, 3, 4, 6, 8))
        elif parent_kind == "induced_low":
            parent, parent_edges = induced_view(view, g, (0, 1, 3, 4, 6))
        else:
            parent = AugmentedView(view, [(0, 1), (4, 2)], [(8, 2)], scale=3)
            parent_edges = materialize_augmented(g.edges, parent)
        pv = parent.vertices()
        aug = AugmentedView(parent, [(pv[0], 2), (pv[1], 1)], [(pv[-1], 3)], scale=scale)
        cap = materialize_augmented(parent_edges, aug)
        verts = aug.vertices()
        assert pv[2] in verts and pv[2] not in {aug.s_source, aug.s_sink}  # a plain vertex
        flow = random_valid_flow(GraphInstance(verts[-1] + 1, cap), aug.s_source, aug.s_sink, seed)
        assert flow.value > 0
        cuts = CutCache(view)

        def c(u, v):
            return cap.get((min(u, v), max(u, v)), 0)

        rng = random.Random(seed)
        for u in verts:
            others = [v for v in verts if v != u]
            for _ in range(6):
                B = sorted(rng.sample(others, rng.randint(1, len(others))))
                want = sum(c(u, b) for b in B)
                assert cache.residual_between(aug, None, u, mask_of(B)) == want, (u, B)
                residual = want - sum(flow.get(u, b) for b in B)
                assert cache.residual_between(aug, flow, u, mask_of(B)) == residual, (u, B)
                for v in B[:3]:
                    assert cache.capacity(aug, u, v) == c(u, v), (u, v)
            side = rng.sample(verts, rng.randint(1, len(verts) - 1))
            assert probed_cut(cuts, aug, cap, side) == brute_cut_of(cap, verts, side), side
        for _ in range(20):
            A = tuple(sorted(rng.sample(verts, 3)))
            rest = [v for v in verts if v not in A]
            B = tuple(sorted(rng.sample(rest, rng.randint(1, len(rest)))))
            total = sum(cache.residual_between(aug, None, a, mask_of(B)) for a in A)
            assert total == sum(c(a, b) for a in A for b in B), (A, B)
        assert QueryLedger.replay(ledger.transcript, g)


def test_augmented_view_examples(b6):
    view, ledger, cache = make_view(b6)
    aug = AugmentedView(view, [(0, 2)], [(5, 2)], scale=1)
    cap = materialize_augmented(b6.edges, aug)
    assert probed_cut(cache, aug, cap, [aug.s_source]) == 2
    assert ledger.cut_count == 0  # virtual-only query is free
    empty = AugmentedView(view, [], [(5, 1)])
    assert probed_cut(cache, empty, materialize_augmented(b6.edges, empty), [empty.s_source]) == 0
    # source side plus the terminal: its virtual edge stays inside, so only
    # the base cut of {0} is charged (its complement reads the memo)
    s = [aug.s_source, 0]
    before = ledger.cut_count
    assert probed_cut(cache, aug, cap, s) == 2  # Cut_G({0})
    assert ledger.cut_count == before + 1


def _unit_subdivided(edges, n, sources, sinks, scale):
    """The unit-subdivided realisation of an augmented base view, built
    explicitly: real edges times scale, source n and sink n + 1, and each
    terminal edge of capacity k as k unit-capacity length-2 paths through
    fresh subdivision vertices. Returns the graph, its source and sink, and
    each terminal's subdivision vertices."""
    cap = {e: w * scale for e, w in edges.items()}
    s, t = n, n + 1
    nxt = n + 2
    bundles = {}
    for hub, terminals in ((s, sources), (t, sinks)):
        for x, k in terminals:
            bundles[x] = tuple(range(nxt, nxt + k))
            nxt += k
            for y in bundles[x]:
                cap[(hub, y)] = 1
                cap[(x, y)] = 1
    return GraphInstance(nxt, cap), s, t, bundles


def _split_over_bundles(flow, s, t, bundles):
    """The flow of an augmented base view with the same source and sink ids,
    moved onto the unit-subdivided graph: a terminal edge carrying k units
    becomes the first k unit paths of its bundle."""
    f = Flow(s, t)
    for u, v, val in flow.support():
        if u == s:
            for y in bundles[v][:val]:
                f.push(s, y, 1)
                f.push(y, v, 1)
        elif v == t:
            for y in bundles[u][:val]:
                f.push(u, y, 1)
                f.push(y, t, 1)
        else:
            f.push(u, v, val)
    return f


@pytest.mark.parametrize("W", [1, 3])
def test_terminal_edges_match_the_unit_subdivided_graph(W):
    """One virtual edge per terminal against the old realisation, built
    explicitly. partition_mincut (scale 1) and matching_player (scales 1
    and 3) find the max-flow value of the unit-subdivided graph; the real
    source side cuts exactly that value; the flow, split over the unit
    paths, is a valid flow of that value on the subdivided graph; and the
    saturated terminals are those whose edge carries tau+1, i.e. whose
    whole bundle carries flow."""
    A, B = (0, 3, 5), (7, 10)
    for seed in range(2):
        g = random_graph(12, 0.35, seed, W=W)
        for tau, scale in itertools.product(range(4), (1, 3)):
            k = tau + 1
            sources, sinks = [(a, k) for a in A], [(b, k) for b in B]
            sub, s, t, bundles = _unit_subdivided(g.edges, g.n, sources, sinks, scale)
            want = reference_maxflow(sub, s, t)

            def side_cut(side):
                side = set(side)
                virt = k * (sum(a not in side for a in A) + sum(b in side for b in B))
                return virt + scale * g.cut_of(side)

            view, _, cache = make_view(g)
            out = matching_player(view, A, B, tau, 1 / scale, 1.0, cache=cache)
            assert out.flow_value == want, (seed, tau, scale)
            if out.kind == "sparse_cut":
                assert side_cut(out.cut) == want
            else:
                assert sum(out.matching.values()) == want
                assert all({a, b} & set(A) and {a, b} & set(B) for a, b in out.matching)
            if scale > 1:
                continue
            pc = partition_mincut(view, A, B, tau, cache=cache)
            assert pc.flow_value == want and side_cut(pc.source_side) == want
            aug = AugmentedView(view, sources, sinks)
            assert (aug.s_source, aug.s_sink) == (s, t)
            f = _split_over_bundles(dinitz_maxflow(aug, s, t, cache).flow, s, t, bundles)
            for u, v, val in f.support():
                assert val <= sub.edges.get((min(u, v), max(u, v)), 0), (u, v)
            for v in range(sub.n):
                net = sum(f.get(v, w) for w in range(sub.n))
                assert net == {s: want, t: -want}.get(v, 0), v
            whole = [x for x in A + B if all(abs(f.get(x, y)) == 1 for y in bundles[x])]
            assert pc.saturated == tuple(sorted(whole))


def test_augmented_duplicate_terminal_rejected(b6):
    view, _, _ = make_view(b6)
    with pytest.raises(QueryInputError):
        AugmentedView(view, [(0, 1), (0, 2)], [(5, 1)])


def test_augmented_terminal_capacity_must_be_a_positive_integer(b6):
    # a capacity is a weight on one virtual edge, so a fraction would be
    # carried into every flow over that edge
    view, _, _ = make_view(b6)
    for cap in (0, -1, 1.5, 2.0, True):
        with pytest.raises(QueryInputError):
            AugmentedView(view, [(0, cap)], [(5, 1)])
        with pytest.raises(QueryInputError):
            AugmentedView(view, [(0, 1)], [(5, cap)])


def test_bundle_flow_refuses_a_terminal_that_is_not_an_int(b6):
    """0.0 and False hash as the terminal 0, so a dict lookup alone took
    them for it and the flow read failed on a shift."""
    view, _, cache = make_view(b6)
    aug = AugmentedView(view, [(0, 2)], [(5, 2)])
    f = dinitz_maxflow(aug, aug.s_source, aug.s_sink, cache).flow
    assert aug.bundle_flow(f, 0) == aug.bundle_flow(f, 5) == 1
    for terminal in (0.0, False, 5.0, 3):
        with pytest.raises(QueryInputError):
            aug.bundle_flow(f, terminal)


def test_contracted_view_examples(b6, k4):
    view, _, cache = make_view(b6)
    cv = contracted_view(view, b6.edges, [0, 1, 2])
    cap = contracted_edges(b6.edges, cv)
    assert cache.capacity(cv, 2, cv.s_r) == 1
    assert cache.capacity(cv, cv.s_r, 2) == 1
    assert cache.capacity(cv, 0, cv.s_r) == 0
    assert probed_cut(cache, cv, cap, [0, 1, 2]) == 1
    assert_capacities(cache, cv, cap)
    view, _, cache = make_view(k4)
    cv = contracted_view(view, k4.edges, [0, 1])
    cap = contracted_edges(k4.edges, cv)
    assert cache.capacity(cv, 0, cv.s_r) == 2
    assert cache.capacity(cv, 1, cv.s_r) == 2
    assert cache.residual_between(cv, None, cv.s_r, mask_of((0, 1))) == 4
    assert probed_cut(cache, cv, cap, [0]) == 3
    assert_capacities(cache, cv, cap)
    with pytest.raises(QueryInputError):
        ContractedView(view, [0, 1, 2, 3], {})


def test_contracted_view_refuses_negative_capacity_to_s_r(b6):
    """A w_out of -2 would give 2 capacity -2 to s_r, whose neighbourhood
    then read [] from a fresh cache and [0, 1, 6] once the pairs were
    learned; the view refuses it, and a w_out of 0 leaves capacity 0."""
    view, _, cache = make_view(b6)
    for w in (-2, -1):
        with pytest.raises(QueryInputError):
            ContractedView(view, (0, 1, 2), {2: w})
    cv = ContractedView(view, (0, 1, 2), {2: 0})
    assert cache.capacity(cv, 2, cv.s_r) == 0
    assert neighborhood(cache, cv, None, 2, mask_of([0, 1, cv.s_r])) == mask_of([0, 1])
    bis = cache.logical_bis
    # the same answer again, now read from the learned pairs
    assert neighborhood(cache, cv, None, 2, mask_of([0, 1, cv.s_r])) == mask_of([0, 1])
    assert cache.logical_bis == bis


def test_contracted_view_refuses_a_capacity_to_s_r_that_is_not_an_int(b6):
    """int() once truncated {0: 1.5, 1: 0.4, 2: True} to {0: 1, 1: 0,
    2: 1}, and every form and flow on the view then answered for another
    graph; floats and bools are refused as AugmentedView refuses them."""
    view, _, _ = make_view(b6)
    for w_out in ({0: 1.5, 1: 0.4, 2: True}, {0: 1.5}, {1: 0.4}, {2: True}, {2: 1.0}):
        with pytest.raises(QueryInputError):
            ContractedView(view, (0, 1, 2), w_out)
    cv = ContractedView(view, (0, 1, 2), {0: 0, 2: 1})
    assert cv.linear_form(cv.s_r).terms == ((1, 1 << 2),)


def test_contracted_view_full_enumeration():
    """Every cut of a W=2 contracted view, and for every vertex u (s_r
    included) every residual probe and capacity, under the zero flow and a
    nonzero valid flow, with one kept vertex's edge to s_r dropped: all
    against the explicit contracted graph. The second parent is an induced
    view that leaves out the top base ids, so s_r reuses a base id."""
    for seed in range(3):
        g = random_graph(9, 0.5, seed, W=2)
        view, _, cache = make_view(g)
        iv, iv_edges = induced_view(view, g, (0, 2, 3, 5, 6))
        parents = ((view, g.edges, (0, 2, 3, 6)), (iv, iv_edges, (0, 2, 3)))
        for parent, parent_edges, keep in parents:
            full = contracted_view(parent, parent_edges, keep)
            to_s = {x: contracted_edges(parent_edges, full).get((x, full.s_r), 0) for x in keep}
            x = max(keep, key=to_s.get)
            assert to_s[x] > 0
            cv = contracted_view(parent, parent_edges, keep, drop=x)
            assert cv.s_r == 7 or parent is view
            cap = {e: w for e, w in contracted_edges(parent_edges, cv, drop=x).items() if w}
            verts = cv.vertices()
            for k in range(1, len(verts)):
                for side in itertools.combinations(verts, k):
                    assert probed_cut(cache, cv, cap, side) == brute_cut_of(cap, verts, side), side

            def c(u, v):
                return cap.get((min(u, v), max(u, v)), 0)

            explicit = GraphInstance(cv.s_r + 1, cap)
            flows = (random_valid_flow(explicit, s, cv.s_r, seed) for s in keep)
            flow = next(f for f in flows if f.value > 0)
            for u in verts:
                others = [v for v in verts if v != u]
                for v in others:
                    assert cache.capacity(cv, u, v) == c(u, v), (u, v)
                for k in range(1, len(others) + 1):
                    for B in itertools.combinations(others, k):
                        want = sum(c(u, b) for b in B)
                        assert cache.residual_between(cv, None, u, mask_of(B)) == want, (u, B)
                        residual = want - sum(flow.get(u, b) for b in B)
                        assert cache.residual_between(cv, flow, u, mask_of(B)) == residual, (u, B)


def test_induced_view_full_enumeration():
    for seed in range(3):
        g = random_graph(10, 0.4, seed)
        view, _, cache = make_view(g)
        part = (1, 3, 4, 7, 8)
        iv, cap = induced_view(view, g, part)
        for k in range(1, len(part)):
            for side in itertools.combinations(part, k):
                assert probed_cut(cache, iv, cap, side) == brute_cut_of(cap, part, side)
        assert_capacities(cache, iv, cap)


def test_view_over_view_composition(b6):
    """Augmented over contracted: every cut, read as probes, and every
    capacity against the explicit graph of the composition."""
    view, ledger, cache = make_view(b6)
    cv = contracted_view(view, b6.edges, [0, 1, 2])
    aug = AugmentedView(cv, [(0, 2)], [(cv.s_r, 2)])
    cap = materialize_augmented(contracted_edges(b6.edges, cv), aug)
    verts = aug.vertices()
    assert probed_cut(cache, aug, cap, [aug.s_source, 0]) == 2  # Cut of {0} in the contracted graph
    for k in range(1, len(verts)):
        for side in itertools.combinations(verts, k):
            assert probed_cut(cache, aug, cap, side) == brute_cut_of(cap, verts, side), side
    assert_capacities(cache, aug, cap)
    assert QueryLedger.replay(ledger.transcript, b6)


def test_reads_with_a_virtual_end_are_free():
    """Every capacity read with a virtual end, on a fresh cache, matches the
    explicit graph and charges no query and no logical BIS: on augmented
    views of scale 1 and 3, nested over an augmented and over a contracted
    parent, and on contracted views, one of whose s_r reuses a base id."""
    for seed in range(2):
        g = random_graph(9, 0.5, seed, W=2)
        view, ledger, _ = make_view(g)
        cases = []
        for scale in (1, 3):
            aug = AugmentedView(view, [(0, 1), (4, 2)], [(8, 2)], scale=scale)
            cases.append((aug, materialize_augmented(g.edges, aug), {aug.s_source, aug.s_sink}))
        inner, inner_cap, inner_virtual = cases[-1]
        aug = AugmentedView(inner, [(inner.s_source, 2), (1, 1)], [(5, 3)])
        cases.append((aug, materialize_augmented(inner_cap, aug), {aug.s_source, aug.s_sink} | inner_virtual))
        cv = contracted_view(view, g.edges, (0, 2, 3, 5, 6))
        cv_cap = contracted_edges(g.edges, cv)
        cases.append((cv, cv_cap, {cv.s_r}))
        aug = AugmentedView(cv, [(0, 2)], [(cv.s_r, 1)], scale=3)
        cases.append((aug, materialize_augmented(cv_cap, aug), {aug.s_source, aug.s_sink, cv.s_r}))
        iv, iv_edges = induced_view(view, g, (0, 1, 3, 4, 6))
        cv = contracted_view(iv, iv_edges, (0, 1, 3))
        assert cv.s_r == 7
        cases.append((cv, contracted_edges(iv_edges, cv), {cv.s_r}))
        for v, cap, virtual in cases:
            cache = CutCache(view)
            for a, b in itertools.permutations(v.vertices(), 2):
                if a in virtual or b in virtual:
                    assert cache.capacity(v, a, b) == cap.get((min(a, b), max(a, b)), 0), (a, b)
            assert ledger.cut_count == 0 and cache.logical_bis == 0


# ---------------------------------------------------------------------------
# ledger, transcripts, replay


def test_ledger_replay_and_byte_stability(b6):
    def run():
        view, ledger, cache = make_view(b6)
        cache.cut(view, [0, 1])
        cache.pair_capacity(view, [0], [3, 4])
        cache.residual_between(view, None, 2, mask_of((3,)))
        return ledger

    led1, led2 = run(), run()
    assert led1.transcript_text() == led2.transcript_text()
    records = QueryLedger.parse_transcript(led1.transcript_text())
    assert QueryLedger.replay(records, b6)
    # the charged sets are recorded as bitmasks and listed when read: a
    # parsed record equals the one the ledger made
    assert records == led2.transcript
    rec = led2.transcript[0]
    assert rec != TranscriptRecord(rec.seq, rec.ids, rec.answer + 1, rec.tag)
    assert [rec.ids for rec in records] == [(0, 1), (0,), (3, 4), (0, 3, 4), (2,), (3,), (2, 3)]
    assert led1.cut_count == len(led1.transcript)


def test_replay_fails_on_different_instance(b6, k4):
    view, ledger, cache = make_view(b6)
    cache.cut(view, [0, 1])
    recs = QueryLedger.parse_transcript(ledger.transcript_text())
    other = GraphInstance(6, {(0, 1): 1})
    assert not QueryLedger.replay(recs, other)


def test_base_view_freed_without_cycle_collector():
    # a solve must leave no reference cycle through the view: its ledger and
    # transcript are freed as soon as the caller drops them
    g = random_graph(12, 0.5, 3)
    gc.disable()
    try:
        view, ledger, cache = make_view(g)
        global_mincut(view, cache)
        assert ledger.transcript
        ref = weakref.ref(view)
        del view, ledger, cache
        assert ref() is None
    finally:
        gc.enable()


def test_cache_allocates_block_tables_on_first_store():
    """A CutCache over an edgeless graph at n = 200,000 allocates under
    8 MB: each vertex's block-total table is made when the vertex first
    stores a total, not for every vertex up front (18.4 MB, 13.8 MB of it
    empty tables, when every vertex had one)."""
    view, _, _ = make_view(GraphInstance(200_000, {}))
    tracemalloc.start()
    try:
        cache = CutCache(view)
        size, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert size < 8 << 20, size
    assert not cache._blocks


def test_phase_tags(b6):
    view, ledger, cache = make_view(b6)
    with ledger.phase("warmup"):
        cache.cut(view, [0])
        cache.cut(view, [1])
    cache.cut(view, [2])
    assert ledger.phase_tags == {"warmup": 2}
    assert ledger.transcript[0].tag == "warmup"
    assert ledger.transcript[2].tag == ""


# ---------------------------------------------------------------------------
# cache semantics


def test_cache_only_charges_fresh_sets(b6):
    view, ledger, cache = make_view(b6)
    assert cache.cut(view, (0, 1)) == view._instance.cut_of((0, 1))
    q1 = ledger.cut_count
    cache.cut(view, (0, 1))
    cache.cut(view, (2, 3, 4, 5))  # complement, same knowledge
    assert ledger.cut_count == q1
    # pair capacity through the cache only pays for unseen sets
    cache.pair_capacity(view, (0,), (1,))
    q2 = ledger.cut_count
    cache.pair_capacity(view, (0,), (1,))
    assert ledger.cut_count == q2


def test_cache_memo_is_keyed_by_either_side(b6):
    """The memo holds one entry for a set and its complement, also for both
    sides of an |S| = n/2 tie, and the transcript records each charged set
    as it was asked. The empty and full sets are never charged."""
    view, ledger, cache = make_view(b6)
    # S, then V minus S: one charge
    assert cache.cut(view, (1,)) == 2
    assert cache.cut(view, (0, 2, 3, 4, 5)) == 2
    assert ledger.cut_count == 1
    # |S| = n/2 = 3: the side without vertex 0 first, then the one with it
    assert cache.cut(view, (3, 4, 5)) == 1
    assert cache.cut(view, (0, 1, 2)) == 1
    # and a tie asked from the side with vertex 0 first
    assert cache.cut(view, (0, 4, 5)) == 4
    assert cache.cut(view, (1, 2, 3)) == 4
    assert ledger.cut_count == 3
    assert [rec.ids for rec in ledger.transcript] == [(1,), (3, 4, 5), (0, 4, 5)]
    assert len(cache._memo) == 4  # the three sets and the empty/full entry
    # base_pair_sum(u, V minus u) asks cut({u}), cut(V minus u) and cut(V):
    # only the first is charged, the full set is free
    view, ledger, cache = make_view(b6)
    assert cache.base_pair_sum(3, mask_of(v for v in range(6) if v != 3)) == 3
    assert ledger.cut_count == 1
    assert [rec.ids for rec in ledger.transcript] == [(3,)]
    # a one-vertex remainder is learned with its capacity, in both directions
    view, ledger, cache = make_view(b6)
    assert cache.base_pair_sum(2, mask_of((3,))) == 1
    assert [rec.ids for rec in ledger.transcript] == [(2,), (3,), (2, 3)]
    assert cache._known[2] == mask_of((3,)) and cache._known[3] == mask_of((2,))
    assert cache.base_pair_sum(3, mask_of((2,))) == 1
    assert ledger.cut_count == 3


def test_cache_learned_pairs_zero_block(b6):
    view, ledger, cache = make_view(b6)
    # 0 has no edges into {3,4,5}: one probe teaches all three pairs, in both
    # directions
    assert cache.base_pair_sum(0, mask_of((3, 4, 5))) == 0
    q = ledger.cut_count
    assert cache.base_pair_sum(0, mask_of((3,))) == 0
    assert cache.base_pair_sum(0, mask_of((4, 5))) == 0
    assert cache.base_pair_sum(4, mask_of((0,))) == 0
    assert ledger.cut_count == q
    # 3 is joined to all of {2,4,5}: on a unit graph the full block is learned
    assert cache.base_pair_sum(3, mask_of((2, 4, 5))) == 3
    q = ledger.cut_count
    assert cache.base_pair_sum(3, mask_of((2, 5))) == 2
    assert cache.base_pair_sum(2, mask_of((3,))) == 1
    assert ledger.cut_count == q
    # a remainder of one vertex is learned with its capacity
    assert cache.base_pair_sum(2, mask_of((0, 3))) == 2
    q = ledger.cut_count
    assert cache.base_pair_sum(0, mask_of((2, 3, 4, 5))) == 1
    assert ledger.cut_count == q


def test_cache_learned_capacities_above_one():
    """On a W=3 graph every pair learned from a one-vertex remainder keeps
    its full capacity, across all three bit planes, and is read back for
    free through CutCache.capacity and base_pair_sum."""
    for seed in range(3):
        g = random_graph(12, 0.6, seed, W=3)
        assert g.W == 3
        view, ledger, cache = make_view(g)
        pairs = [(u, v) for u in range(12) for v in range(u + 1, 12)]
        for u, v in pairs:
            assert cache.capacity(view, u, v) == g.edges.get((u, v), 0)
        assert any(w >= 2 for w in g.edges.values())
        q = ledger.cut_count
        for u, v in pairs:
            assert cache.capacity(view, v, u) == g.edges.get((u, v), 0)
        for u in range(12):
            X = mask_of(v for v in range(12) if v != u)
            assert cache.base_pair_sum(u, X) == g.degree(u)
        assert ledger.cut_count == q


def test_cache_agrees_with_contract_ops():
    """Pair capacities from a cache that has seen earlier sets (memo hits)
    equal those from a fresh cache and the explicit sums."""
    for seed in range(4):
        g = random_graph(9, 0.5, seed, W=3)
        view, _, cache = make_view(g)
        rng = random.Random(seed)
        for _ in range(40):
            k = rng.randint(1, 4)
            A = tuple(sorted(rng.sample(range(9), k)))
            rest = [v for v in range(9) if v not in A]
            B = tuple(sorted(rng.sample(rest, rng.randint(1, 3))))
            brute = sum(g.edges.get((min(a, b), max(a, b)), 0) for a in A for b in B)
            fresh = CutCache(view).pair_capacity(view, A, B)
            assert cache.pair_capacity(view, A, B) == fresh == brute


def assert_learned_sound(cache, g):
    """Every learned pair reads back its hidden capacity from the planes,
    and every block total in the table, once re-keyed, is the hidden
    capacity from its vertex into a nonempty block of unlearned pairs that
    does not hold the vertex."""
    while any(cache._keyed[u] != cache._known[u] for u in range(g.n)):
        for u in range(g.n):
            cache._rekey(u)
    for u in range(g.n):
        for v in ids_of(cache._known[u]):
            got = sum(1 << k for k, rows in enumerate(cache._planes) if rows[u] >> v & 1)
            assert got == g.edges.get((min(u, v), max(u, v)), 0), (u, v, got)
        for R, T in cache._blocks.get(u, {}).items():
            assert R and not R & cache._known[u] and not R >> u & 1, (u, R)
            hidden = sum(g.edges.get((min(u, v), max(u, v)), 0) for v in ids_of(R))
            assert T == hidden, (u, R, T, hidden)


@pytest.mark.parametrize("W", [1, 3])
def test_learned_pairs_and_block_totals_read_back_hidden_capacities(W):
    """After neighborhood (under the zero flow and a nonzero valid flow),
    dinitz_maxflow (on the base graph and on an augmented view with scale 2)
    and global_mincut (unit graphs only), every learned pair and every kept
    block total holds its hidden capacity."""
    for seed in range(3):
        g = random_graph(24, 0.3, seed, W=W)
        view, _, cache = make_view(g)
        f = random_valid_flow(g, 0, 23, seed)
        assert f.value > 0
        for u in range(g.n):
            neighborhood(cache, view, f, u, view.mask ^ 1 << u)
        assert_learned_sound(cache, g)
        view, _, cache = make_view(g)
        for u in range(g.n):
            neighborhood(cache, view, None, u, view.mask ^ 1 << u)
        assert_learned_sound(cache, g)
        view, _, cache = make_view(g)
        for s, t in ((0, 23), (5, 17), (11, 2)):
            dinitz_maxflow(view, s, t, cache)
        assert_learned_sound(cache, g)
        view, _, cache = make_view(g)
        aug = AugmentedView(view, [(0, 3), (4, 2)], [(23, 3), (9, 1)], scale=2)
        assert dinitz_maxflow(aug, aug.s_source, aug.s_sink, cache).value > 0
        assert_learned_sound(cache, g)
        if W == 1:
            view, _, cache = make_view(g)
            global_mincut(view, cache)
            assert_learned_sound(cache, g)


def test_augmented_probes_keep_virtual_terms_and_scale_out_of_base_facts():
    """Blocks of base vertices plus the virtual source, whose edge to the
    terminal has capacity 2, probed on an augmented view of scale 2: two
    base vertices at a time (a total kept in the table, or learned), then
    one (learned, and its partner learned as the sibling). The virtual term
    and the scale never reach a learned pair or a kept total."""
    for seed in range(3):
        g = random_graph(9, 0.6, seed, W=3)
        view, ledger, cache = make_view(g)
        aug = AugmentedView(view, [(0, 2)], [(8, 1)], scale=2)
        for r in range(1, 7, 2):
            got = cache.residual_between(aug, None, 0, mask_of((r, r + 1, aug.s_source)))
            c = g.edges.get((0, r), 0) + g.edges.get((0, r + 1), 0)
            assert got == 2 * c + 2
        assert_learned_sound(cache, g)
        for r in range(1, 8):
            q = ledger.cut_count
            got = cache.residual_between(aug, None, 0, mask_of((r, aug.s_source)))
            assert got == 2 * g.edges.get((0, r), 0) + 2
            if r % 2 == 0:  # learned with its pair, or as the sibling of r - 1
                assert ledger.cut_count == q
        assert cache._known[0] == mask_of(range(1, 8))
        assert_learned_sound(cache, g)
        assert QueryLedger.replay(ledger.transcript, g)


@pytest.mark.parametrize("W", [1, 2])
def test_flow_distorted_residuals_never_become_capacities(W):
    """0 pushes one unit into 5. The halving gets 5's residual by
    subtraction (zero on the unit graph, one above it); that residual is
    not 5's capacity, and whatever the cache learns about 5 is its hidden
    capacity W."""
    g = GraphInstance(6, {(0, 4): 1, (0, 5): W, (5, 1): 1})
    view, _, cache = make_view(g)
    f = Flow(0, 1)
    f.push(0, 5, 1)
    f.push(5, 1, 1)
    f.value = 1
    assert neighborhood(cache, view, f, 0, mask_of([3, 4, 5])) == mask_of([4, 5] if W > 1 else [4])
    assert cache._known[0] & mask_of((3, 4)) == mask_of((3, 4))
    assert_learned_sound(cache, g)
    assert cache.capacity(view, 0, 5) == W


def test_self_probes_are_refused_before_any_charge(b6):
    """A probe whose target holds its own vertex has no meaning (a simple
    graph has no self-capacity): capacity, residual_between and
    base_pair_sum refuse it, on the base view and on a derived view, before
    any charge, count or learning."""
    view, ledger, cache = make_view(b6)
    aug = AugmentedView(view, [(0, 2)], [(5, 1)])
    before = list(cache._known)
    with pytest.raises(QueryInputError):
        cache.capacity(view, 1, 1)
    with pytest.raises(QueryInputError):
        cache.residual_between(view, None, 2, mask_of([2]))
    with pytest.raises(QueryInputError):
        cache.residual_between(view, None, 2, mask_of([0, 2, 3]))
    with pytest.raises(QueryInputError):
        cache.residual_between(aug, None, aug.s_source, mask_of([0, aug.s_source]))
    with pytest.raises(QueryInputError):
        cache.capacity(aug, 0, 0)
    with pytest.raises(QueryInputError):
        cache.base_pair_sum(1, mask_of([1, 2, 3]))
    assert ledger.cut_count == 0 and cache.logical_bis == 0
    assert cache._known == before and not cache._blocks


def residual_capacity_in(cap, f, u, v):
    """Residual capacity from u to v in a view with explicit adjacency cap,
    under f (None: the zero flow)."""
    return cap.get((min(u, v), max(u, v)), 0) - (f.get(u, v) if f is not None else 0)


def _probe_views(g, rng):
    """(view, explicit adjacency) of the base view of g and of an augmented
    view of scale 1, one of scale 3 and a contracted view over it, all
    sharing one ledger and one cache."""
    view, ledger, cache = make_view(g)
    n = g.n
    out = [(view, g.edges)]
    for scale in (1, 3):
        a, b = rng.sample(range(n), 2)
        aug = AugmentedView(view, [(a, rng.randint(1, 3))], [(b, rng.randint(1, 3))], scale)
        out.append((aug, materialize_augmented(g.edges, aug)))
    cv = contracted_view(view, g.edges, sorted(rng.sample(range(n), rng.randint(2, n - 1))))
    out.append((cv, contracted_edges(g.edges, cv)))
    return out, ledger, cache


@settings(max_examples=40, deadline=None)
@given(
    st.integers(4, 12),
    st.sampled_from([1, 3]),
    st.floats(0.2, 0.8),
    st.integers(0, 10_000),
)
def test_block_totals_stay_exact_under_random_probes(n, W, p, seed):
    """Random probes, under the zero flow or a random valid flow, on the
    views of _probe_views: every answer is the explicit view graph's, every
    learned pair and kept block total is the hidden graph's, repeating any
    earlier probe charges nothing, and the ledger replays."""
    g = random_graph(n, p, seed % 97, W=W)
    rng = random.Random(seed)
    views, ledger, cache = _probe_views(g, rng)
    flows = []
    for view, cap in views:
        s, t = rng.sample(view.vertices(), 2)
        explicit = GraphInstance(max(view.vertices()) + 1, {e: w for e, w in cap.items() if w})
        flows.append(random_valid_flow(explicit, s, t, seed, tries=3))
    done = []
    for _ in range(12):
        i = rng.randrange(len(views))
        view, cap = views[i]
        f = rng.choice((None, flows[i]))
        u = rng.choice(view.vertices())
        others = [v for v in view.vertices() if v != u]
        B = rng.sample(others, rng.randint(1, len(others)))
        probe = (view, f, u, mask_of(B))
        want = sum(residual_capacity_in(cap, f, u, b) for b in B)
        assert cache.residual_between(*probe) == want
        assert_learned_sound(cache, g)
        done.append((probe, want))
        q = ledger.cut_count
        for probe, want in done:
            assert cache.residual_between(*probe) == want
        assert ledger.cut_count == q
    assert QueryLedger.replay(ledger.transcript, g)


# ---------------------------------------------------------------------------
# neighbourhoods read from learned pairs


def _learned_views(g):
    """(name, view, explicit adjacency, base vertices) of every view kind
    over one base view of g. The augmented views have scale 2, and one has
    scale 3 (an odd scale of two bits); the nested one sits on an augmented
    view of an induced part that leaves out the top three base ids, so its
    virtual ids reuse them, and the second contracted view's s_r reuses a
    base id the same way."""
    view, _, _ = make_view(g)
    n = g.n
    every = frozenset(range(n))
    yield "base", view, g.edges, every
    low = tuple(range(n - 3))
    iv, iv_edges = induced_view(view, g, low)
    yield "induced", iv, iv_edges, frozenset(low)
    keep = tuple(range(0, n, 2))
    cv = contracted_view(view, g.edges, keep)
    yield "contracted", cv, contracted_edges(g.edges, cv), frozenset(keep)
    keep = low[1::2]
    cv = contracted_view(iv, iv_edges, keep)
    assert cv.s_r == n - 3
    yield "contracted_reused_id", cv, contracted_edges(iv_edges, cv), frozenset(keep)
    aug = AugmentedView(view, [(0, 2), (3, 1)], [(n - 1, 2)], scale=2)
    yield "augmented", aug, materialize_augmented(g.edges, aug), every
    aug = AugmentedView(view, [(1, 3)], [(n - 2, 1), (n - 1, 2)], scale=3)
    yield "augmented_scale3", aug, materialize_augmented(g.edges, aug), every
    inner = AugmentedView(iv, [(1, 1)], [(low[-1], 2)], scale=2)
    outer = AugmentedView(inner, [(inner.s_source, 1), (2, 2)], [(4, 1)], scale=2)
    cap = materialize_augmented(materialize_augmented(iv_edges, inner), outer)
    yield "augmented_nested", outer, cap, frozenset(low)


def _some_flow(view, cap, seed):
    """A nonzero valid flow of the explicit view graph cap."""
    verts = view.vertices()
    explicit = GraphInstance(verts[-1] + 1, {e: w for e, w in cap.items() if w})
    for s, t in itertools.combinations(verts, 2):
        f = random_valid_flow(explicit, s, t, seed)
        if f.value > 0:
            return f
    raise AssertionError("no flow")


def _cache_state(cache):
    return (
        list(cache._known),
        [list(rows) for rows in cache._planes],
        list(cache._support),
        {u: dict(blocks) for u, blocks in cache._blocks.items()},
        list(cache._keyed),
        dict(cache._memo),
        cache.base.ledger.cut_count,
        cache.logical_bis,
    )


@pytest.mark.parametrize("W", [1, 3])
def test_learned_neighbors_match_the_explicit_view_graph(W):
    """On every view kind, under the zero flow and a nonzero valid flow,
    learned_neighbors is None exactly while the base part of X holds a
    vertex whose capacity to u is unlearned, and otherwise lists the
    residual neighbours of the explicit view graph, as neighborhood then
    does. Either way it leaves the cache as it was. Base pairs are learned
    a few at a time with one-pair probes, so the test knows which are."""
    carrying = {"left": 0, "saturated": 0}  # pairs with flow from u
    answered = 0
    for seed in range(2):
        g = random_graph(12, 0.45, seed, W=W)
        rng = random.Random(seed)
        for name, view, cap, real in _learned_views(g):
            flow = _some_flow(view, cap, seed)
            for u, v, val in flow.support():
                c = cap.get((min(u, v), max(u, v)), 0)
                carrying["left" if c > val else "saturated"] += 1
            cache = CutCache(view.base_view)
            verts = view.vertices()
            pending = [(a, b) for a in sorted(real) for b in sorted(real) if a < b]
            rng.shuffle(pending)
            learned = set()
            while True:
                for i in range(10):
                    u = rng.choice(verts)
                    others = [v for v in verts if v != u]
                    B = sorted(rng.sample(others, rng.randint(1, len(others))))
                    if not pending and i < 2:
                        B = others  # once all is learned, every vertex's whole block
                    unknown = u in real and any(
                        (min(u, b), max(u, b)) not in learned for b in B if b in real
                    )
                    for f in (None, flow):
                        before = _cache_state(cache)
                        got = cache.learned_neighbors(view, f, u, mask_of(B))
                        assert _cache_state(cache) == before, (name, u, B)
                        if unknown:
                            assert got is None, (name, u, B)
                            continue
                        want = view_residual_neighbors(cap, f, u, B)
                        assert got is not None and ids_of(got) == want, (name, u, B)
                        got = neighborhood(cache, view, f, u, mask_of(B))
                        assert ids_of(got) == want, (name, u, B)
                        assert _cache_state(cache) == before, (name, u, B)
                        answered += 1
                if not pending:
                    break
                for a, b in pending[-12:]:
                    cache.base_pair_sum(a, 1 << b)
                    learned.add((a, b))
                del pending[-12:]
    assert answered > 100
    if W > 1:
        assert carrying["left"] and carrying["saturated"], carrying


def test_learned_neighbors_none_while_a_pair_is_unlearned(b6):
    """0's block {1, 2} is read from the cache only once both pairs are
    learned; a virtual vertex, which has no base part, is read at once."""
    view, ledger, cache = make_view(b6)
    X = mask_of((1, 2))
    assert cache.learned_neighbors(view, None, 0, X) is None
    cache.base_pair_sum(0, mask_of((1,)))
    assert cache.learned_neighbors(view, None, 0, X) is None
    cache.base_pair_sum(0, mask_of((2,)))
    q = ledger.cut_count
    assert cache.learned_neighbors(view, None, 0, X) == X
    aug = AugmentedView(view, [(0, 2)], [(5, 1)])
    assert cache.learned_neighbors(aug, None, aug.s_source, mask_of((0, 1, 2))) == mask_of((0,))
    # 1's capacity to 0 is learned, to 2 not yet
    assert cache.learned_neighbors(aug, None, 1, mask_of((0, 2, aug.s_source))) is None
    assert ledger.cut_count == q and cache.logical_bis == 0


def test_learned_neighbors_under_flow_and_invalid_flows():
    """From 0, a pair carrying flow stays a neighbour only with capacity
    left, and 4, whose flow enters 0 over a pair of capacity 0, is one, as
    the probes report. Flow above a pair's capacity is refused, also on a
    pair of capacity 0 (4's side of the same flow)."""
    g = GraphInstance(5, {(0, 1): 2, (0, 2): 1, (1, 2): 1, (2, 3): 1})
    view, _, cache = make_view(g)
    for a in range(5):
        for b in range(a + 1, 5):
            cache.base_pair_sum(a, 1 << b)
    f = Flow(0, 3)
    f.push(0, 1, 1)
    f.push(0, 2, 1)
    f.push(4, 0, 1)
    others = mask_of((1, 2, 3, 4))
    assert cache.learned_neighbors(view, f, 0, others) == mask_of((1, 4))
    probed = [v for v in (1, 2, 3, 4) if cache.residual_between(view, f, 0, 1 << v) > 0]
    assert probed == [1, 4]
    with pytest.raises(ContractViolation):
        cache.learned_neighbors(view, f, 4, mask_of((0, 1, 2, 3)))
    f = Flow(2, 3)
    f.push(2, 3, 2)
    with pytest.raises(ContractViolation):
        cache.learned_neighbors(view, f, 2, mask_of((0, 3)))


@pytest.mark.parametrize("W", [1, 3])
def test_learned_reads_issue_no_probe(W, monkeypatch):
    """Once every base pair is learned, a read under a flow that enters
    vertices of X from u issues no probe, on every view kind: it never
    calls residual_between, leaves the cache state (ledger, logical BIS,
    memo, learned planes, block tables) as it was, and still lists the
    explicit view graph's residual neighbours."""
    calls = []
    real = CutCache.residual_between

    def counted(self, *args):
        calls.append(args)
        return real(self, *args)

    monkeypatch.setattr(CutCache, "residual_between", counted)
    g = random_graph(12, 0.45, 1, W=W)
    entered = 0
    for name, view, cap, _real in _learned_views(g):
        cache = CutCache(view.base_view)
        for a, b in itertools.combinations(range(g.n), 2):
            cache.base_pair_sum(a, 1 << b)
        f = _some_flow(view, cap, 1)
        calls.clear()
        for u in view.vertices():
            B = [v for v in view.vertices() if v != u]
            X = mask_of(B)
            entered += bool(f.signs(u)[0] & X)
            before = _cache_state(cache)
            got = cache.learned_neighbors(view, f, u, X)
            assert _cache_state(cache) == before, (name, u)
            assert got is not None and ids_of(got) == view_residual_neighbors(cap, f, u, B)
        assert calls == [], name
    assert entered > 20


def _hub_case(extra=0):
    """A W=3 graph on 12 vertices and an augmented view of scale 3 whose
    source hub has the nine terminals 0..8, of capacities 1, 2, 3 in turn,
    and whose sinks are 9, 10, 11; plus a flow from s_source that sends
    each terminal v its amount over s_source -> v -> 9 + v % 3 -> s_sink.
    The amounts saturate the virtual edges of 0, 2, 4 and 6, leave those of
    1, 5 and 8 partly used and those of 3 and 7 unused, fill the sink
    edges of 10 and 11 and leave 9's partly used; `extra` more units go to
    terminal 0, above its capacity 1."""
    edges = {(v, 9 + v % 3): 1 + v // 3 for v in range(9)}
    for u, v in itertools.combinations(range(9), 2):
        if (u * 7 + v * 5) % 4 == 0:
            edges[(u, v)] = 1 + (u + v) % 3
    g = GraphInstance(12, edges)
    assert g.W == 3
    view, _, cache = make_view(g)
    for a, b in itertools.combinations(range(g.n), 2):
        cache.base_pair_sum(a, 1 << b)
    aug = AugmentedView(view, [(v, 1 + v % 3) for v in range(9)], [(9, 3), (10, 3), (11, 6)], scale=3)
    s, t = aug.s_source, aug.s_sink
    f = Flow(s, t)
    for v, units in enumerate((1 + extra, 1, 3, 0, 2, 1, 1, 0, 2)):
        for a, b in ((s, v), (v, 9 + v % 3), (9 + v % 3, t)):
            f.push(a, b, units)
        f.value += units
    return aug, materialize_augmented(g.edges, aug), cache, f


def test_learned_neighbors_on_a_many_terminal_hub():
    """On a hub with nine terminals of capacities 1 to 3, under a valid
    flow that saturates some virtual edges and leaves others partly used or
    unused, every vertex's learned read, the hub's included, lists the
    explicit view graph's residual neighbours and leaves the cache as it
    was. A flow above a virtual edge's capacity is refused from the hub."""
    aug, cap, cache, f = _hub_case()
    s = aug.s_source
    for u, v, val in f.support():
        assert val <= cap.get((min(u, v), max(u, v)), 0), (u, v)
    saturated = [v for v in range(9) if f.get(s, v) == 1 + v % 3]
    partial = [v for v in range(9) if 0 < f.get(s, v) < 1 + v % 3]
    assert saturated == [0, 2, 4, 6] and partial == [1, 5, 8]
    for u in aug.vertices():
        B = [v for v in aug.vertices() if v != u]
        before = _cache_state(cache)
        got = cache.learned_neighbors(aug, f, u, mask_of(B))
        assert _cache_state(cache) == before, u
        assert got is not None and ids_of(got) == view_residual_neighbors(cap, f, u, B), u
    assert ids_of(cache.learned_neighbors(aug, f, s, mask_of(range(9)))) == [1, 3, 5, 7, 8]
    aug, _cap, cache, f = _hub_case(extra=1)
    with pytest.raises(ContractViolation):
        cache.learned_neighbors(aug, f, aug.s_source, mask_of(range(9)))


# ---------------------------------------------------------------------------
# graph instance + file format


def test_graph_validation_errors():
    with pytest.raises(GraphFormatError):
        GraphInstance(3, {(0, 0): 1})
    with pytest.raises(GraphFormatError):
        GraphInstance(3, {(0, 7): 1})
    with pytest.raises(GraphFormatError):
        GraphInstance(3, {(0, 1): 0})
    with pytest.raises(GraphFormatError):
        GraphInstance(3, {(0, 1): 2**63})
    # a map that is not a dict, or a key that is not a pair, is refused
    # before it is unpacked
    with pytest.raises(GraphFormatError):
        GraphInstance(3, {(0, 1, 2): 1})
    with pytest.raises(GraphFormatError):
        GraphInstance(3, {0: 1})
    with pytest.raises(GraphFormatError):
        GraphInstance(3, [(0, 1)])


@pytest.mark.parametrize(
    "n, edges",
    [
        (2, {(0, 1): True}),
        (2, {(0, 1): 1.0}),
        (2, {(0, 1): np.int64(2)}),
        (2, {(0.0, 1): 1}),
        (3, {(0, 2.0): 1}),
        (3, {(True, 2): 1}),
        (64, {(np.int64(0), np.int64(63)): 1}),
        (4, {(np.int64(0), 1): 1}),
        (True, {}),
        (2.0, {(0, 1): 1}),
        (np.int64(2), {(0, 1): 1}),
    ],
)
def test_graph_instance_refuses_what_is_not_an_int(n, edges):
    """n, vertex ids and capacities must be ints: a bool capacity once
    dumped as "True", which loads refuses, a float id raised a raw
    TypeError and a numpy id an OverflowError at n=64 (a numpy key below
    it). The same graph given in ints is taken and round-trips through
    dumps and loads."""
    with pytest.raises(GraphFormatError):
        GraphInstance(n, edges)
    g = GraphInstance(int(n), {(int(u), int(v)): int(w) for (u, v), w in edges.items()})
    assert all(type(x) is int for e, w in g.edges.items() for x in (*e, w))
    assert GraphInstance.loads(g.dumps()) == g


def test_graph_file_roundtrip(tmp_path, b6):
    path = tmp_path / "b6.graph"
    b6.dump(path)
    again = GraphInstance.load(path)
    assert again == b6


def test_graph_file_errors():
    with pytest.raises(GraphFormatError):
        GraphInstance.loads("3 1\n0 0\n")
    with pytest.raises(GraphFormatError):
        GraphInstance.loads("3 2\n0 1\n1 0\n")
    with pytest.raises(GraphFormatError):
        GraphInstance.loads("3 2\n0 1\n")
    with pytest.raises(GraphFormatError):
        GraphInstance.loads("nonsense\n")
    g = GraphInstance.loads("3 2\n0 1\n1 2 5\n")
    assert g.edges == {(0, 1): 1, (1, 2): 5}
    assert g.W == 5


# ---------------------------------------------------------------------------
# flow invariants


def test_flow_antisymmetry_and_across():
    f = Flow(0, 3)
    f.push(0, 1, 2)
    f.push(1, 2, 2)
    assert f.get(1, 0) == -2
    assert f.out_to(0, mask_of((1,))) == 2
    assert f.out_to(1, mask_of((0,))) == -2
    f.push(1, 0, 2)  # cancel
    assert f.get(0, 1) == 0
    assert (0, 1) not in [(u, v) for u, v, _ in f.support()]


def test_flow_out_to_matches_row_sums():
    """Random pushes with values above 1, cancellations and sign flips,
    against a dict model of the flow kept here: get, out_to, signs and
    support agree with the model for every u and v."""
    rng = random.Random(5)
    n = 10
    for _ in range(20):
        f = Flow(0, n - 1)
        model: dict[tuple[int, int], int] = {}
        for _ in range(80):
            u, v = rng.sample(range(n), 2)
            old = model.get((u, v), 0)
            r = rng.random()
            if r < 0.2:
                amount = -old  # cancel the entry
            elif r < 0.4 and old:
                amount = -old - (1 if old > 0 else -1) * rng.randint(1, 40)  # flip its sign
            else:
                amount = rng.choice((-33, -6, -3, -1, 1, 2, 5, 9, 17))
            f.push(u, v, amount)
            model[u, v] = old + amount
            model[v, u] = -(old + amount)
        for u in range(n):
            row = [model.get((u, v), 0) for v in range(n)]
            assert [f.get(u, v) for v in range(n)] == row, u
            for X in [1 << v for v in range(n)] + [rng.getrandbits(n) for _ in range(4)]:
                want = sum(val for v, val in enumerate(row) if X >> v & 1)
                assert f.out_to(u, X) == want, (u, X)
            pos = mask_of(v for v in range(n) if row[v] > 0)
            neg = mask_of(v for v in range(n) if row[v] < 0)
            assert f.signs(u) == (pos, neg), u
        assert f.support() == sorted((u, v, val) for (u, v), val in model.items() if val > 0)


def test_random_valid_flows_conserve(b6):
    for seed in range(5):
        f = random_valid_flow(b6, 0, 5, seed)
        for v in range(6):
            net = sum(f.get(v, u) for u in range(6))
            if v == 0:
                assert net == f.value
            elif v == 5:
                assert net == -f.value
            else:
                assert net == 0
        for (u, v), c in b6.edges.items():
            assert -c <= f.get(u, v) <= c
