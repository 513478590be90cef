"""Dominating sets, separation, the grown-source sweep, the balanced-case
primitive, the threshold algorithm, and the global min-cut driver,
cross-checked against query-free references."""

import itertools
import math

import pytest

from cutlab import _kernels
from cutlab.config import DESK, PINNED
from cutlab.expander import decompose, matching_player, one_step
from cutlab.harness import (
    InstanceSpec,
    generate,
    is_dominating,
    reference_mincut,
)
from cutlab.mincut import (
    balanced_sparsify,
    degrees,
    dominating_set,
    global_mincut,
    separation_check,
    threshold_mincut,
    unbalanced_case,
)
from cutlab.isolating import isolating_cuts, partition_mincut
from cutlab.oracle import GraphInstance, InducedView, QueryInputError
from conftest import make_view, random_graph, small_corpus


# ---------------------------------------------------------------------------
# dominating set


def test_dominating_set_examples(k4):
    view, _, cache = make_view(k4)
    assert dominating_set(view, cache) == (0,)
    star = generate(InstanceSpec("star", 6))
    view, _, cache = make_view(star)
    assert dominating_set(view, cache) == (0,)


def test_dominating_set_random_domination_and_size():
    for seed in range(10):
        for n in (12, 24, 40, 60):
            g = random_graph(n, 0.3, seed)
            view, _, cache = make_view(g)
            R = dominating_set(view, cache)
            assert is_dominating(g, R), (n, seed)
            _, delta, _ = degrees(view, cache)
            if delta >= 1:
                bound = 8 * (n / delta) * max(math.log2(n), 1)
                assert len(R) <= bound


def test_dominating_set_isolated_vertices():
    g = GraphInstance(4, {(0, 1): 1})
    view, _, cache = make_view(g)
    R = dominating_set(view, cache)
    assert is_dominating(g, R)
    assert {2, 3} <= set(R)


def test_dominating_set_budget_pinned():
    worst = 0.0
    for seed in range(4):
        for n in (16, 32, 64):
            g = random_graph(n, 0.4, seed)
            view, ledger, cache = make_view(g)
            before = ledger.cut_count
            dominating_set(view, cache)
            ratio = (ledger.cut_count - before) / (n * math.log2(n))
            worst = max(worst, ratio)
    assert worst <= PINNED["C2_DOMSET"], worst


# ---------------------------------------------------------------------------
# separation


def test_separation_check_examples(b6):
    assert separation_check(b6, (0, 5), 1) is True
    assert separation_check(b6, (0, 1), 1) is False


def test_separation_check_size_guard():
    g = random_graph(20, 0.3, 0)
    with pytest.raises(QueryInputError):
        separation_check(g, (0, 1), 1)


def test_dominating_sets_are_delta_minus_one_separated():
    for g in small_corpus(max_n=14, seeds=2):
        if g.n > 14:
            continue
        view, _, cache = make_view(g)
        R = dominating_set(view, cache)
        _, delta, _ = degrees(view, cache)
        if delta >= 1:
            assert separation_check(g, R, delta - 1), (g, R)


# ---------------------------------------------------------------------------
# unbalanced / balanced cases


def test_unbalanced_case_examples(b6, k4):
    view, _, cache = make_view(b6)
    found = unbalanced_case(view, (0, 5), 1, cache=cache)
    assert found is not None
    side, value = found
    assert value == 1 and b6.cut_of(side) == 1
    view, _, cache = make_view(k4)
    assert unbalanced_case(view, (0, 1, 2, 3), 2, cache=cache) is None
    star = generate(InstanceSpec("star", 6))
    view, _, cache = make_view(star)
    found = unbalanced_case(view, (0, 1, 2), 1, cache=cache)
    assert found is not None and found[1] == 1


def test_balanced_sparsify_two_cliques_small_cut():
    # with all vertices as terminals the decomposition splits at the bridge
    # and the part boundary is the wanted cut
    g = generate(InstanceSpec("two_cliques_bridge", 12))
    view, _, cache = make_view(g)
    res = balanced_sparsify(view, tuple(range(12)), 1, cache=cache)
    assert res.kind == "cut"
    assert res.value <= 1
    assert g.cut_of(res.side) == res.value


def test_balanced_sparsify_with_small_dominating_terminals():
    # R = {one vertex per clique} makes the whole graph an almost-expander
    # for the desk phi, so sparsification (not a cut) is the correct outcome
    g = generate(InstanceSpec("two_cliques_bridge", 12))
    view, _, cache = make_view(g)
    view2, _, cache2 = make_view(g)
    R = dominating_set(view2, cache2)
    assert R == (0, 6)
    res = balanced_sparsify(view, R, 1, cache=cache)
    assert res.kind == "sparsified"
    assert len(res.terminals) == 1


def test_balanced_sparsify_k8_shrinks():
    g = generate(InstanceSpec("complete", 8))
    view, _, cache = make_view(g)
    res = balanced_sparsify(view, tuple(range(8)), 2, cache=cache)
    assert res.kind == "sparsified"
    assert len(res.terminals) <= 1 + math.ceil(1 / DESK.phi_for(8))
    assert len(res.terminals) >= 1


def test_sparsified_terminals_stay_separated():
    """Acceptance 5(e) in miniature, in the paper's precondition for
    sparsification: the unbalanced sweep found nothing. In that regime
    R-with-a-surviving-cut must still be separated by R~, or the part
    boundary itself must be the cut."""
    events = 0
    for g in small_corpus(max_n=14, seeds=1):
        if g.n > 14:
            continue
        lam, _ = reference_mincut(g)
        view, _, cache = make_view(g)
        _, delta, _ = degrees(view, cache)
        if delta < 2:
            continue
        tau = delta - 1
        if lam > tau:
            continue
        R = dominating_set(view, cache)
        if len(R) < 2:
            continue
        if unbalanced_case(view, R, tau, cache=cache) is not None:
            continue  # the driver would already have returned this cut
        res = balanced_sparsify(view, R, tau, cache=cache)
        events += 1
        if res.kind == "sparsified" and res.terminals:
            assert separation_check(g, res.terminals, tau), (g, R, res.terminals)
        elif res.kind == "cut":
            assert g.cut_of(res.side) <= tau
    # the grown-source sweep finds every cut of size <= tau that splits R,
    # so the loop above may legitimately be vacuous; exercise the
    # sparsifier's structural guarantees directly as well
    g = generate(InstanceSpec("two_cliques_bridge", 12))
    view, _, cache = make_view(g)
    res = balanced_sparsify(view, tuple(range(12)), 1, cache=cache)
    assert res.kind == "cut" and g.cut_of(res.side) <= 1


# ---------------------------------------------------------------------------
# threshold + global


def test_threshold_examples(b6, k4):
    view, _, cache = make_view(b6)
    res = threshold_mincut(view, 1, cache=cache)
    assert res.kind == "cut" and res.value == 1
    view, _, cache = make_view(k4)
    res = threshold_mincut(view, 2, cache=cache)
    assert res.kind == "above"
    with pytest.raises(QueryInputError):
        threshold_mincut(view, 3, cache=cache)  # tau >= delta


def test_threshold_refuses_a_bad_tau_before_any_charge():
    """A tau that is not an int >= 0 is refused before the degrees and the
    dominating set are charged; True is not taken as 1."""
    g = generate(InstanceSpec("two_cliques_bridge", 8))
    for tau in (1.5, -1, None, "1", True, False, 1.0):
        view, ledger, cache = make_view(g)
        with pytest.raises(QueryInputError):
            threshold_mincut(view, tau, cache=cache)
        assert ledger.cut_count == 0, tau


TAU_TAKERS = {
    "unbalanced_case": lambda view, tau, cache: unbalanced_case(view, (0, 3, 5), tau, cache=cache),
    "threshold_mincut": lambda view, tau, cache: threshold_mincut(view, tau, cache=cache),
    "balanced_sparsify": lambda view, tau, cache: balanced_sparsify(view, (0, 5), tau, cache=cache),
    "isolating_cuts": lambda view, tau, cache: isolating_cuts(view, (0, 3, 5), tau, cache=cache),
    "partition_mincut": lambda view, tau, cache: partition_mincut(view, (0,), (5,), tau, cache=cache),
    "one_step": lambda view, tau, cache: one_step(view, (0, 3, 5, 6), tau, cache=cache),
    "matching_player": lambda view, tau, cache: matching_player(
        view, (0,), (5,), tau, 1.0, 1.0, cache=cache
    ),
    "decompose": lambda view, tau, cache: decompose(view, (0, 3, 5, 6), tau, cache=cache),
}


@pytest.mark.parametrize("tau", [True, 1.5, -1, "1"])
@pytest.mark.parametrize("name", sorted(TAU_TAKERS))
def test_every_public_tau_is_refused_before_any_charge(name, tau):
    """Every function that takes a threshold tau refuses one that is not an
    int >= 0 with QueryInputError before any charge. True once ran as 1
    (19, 26 and 23 queries in unbalanced_case, isolating_cuts and one_step
    with the terminals below), "1" raised a raw TypeError, and -1 was
    refused only by the augmented view's terminal-capacity check."""
    g = generate(InstanceSpec("two_cliques_bridge", 8))
    view, ledger, cache = make_view(g)
    with pytest.raises(QueryInputError, match="tau must be an int >= 0"):
        TAU_TAKERS[name](view, tau, cache)
    assert ledger.cut_count == 0


def test_threshold_matches_reference_and_monotone():
    for seed in range(6):
        for n in (10, 16, 24):
            g = random_graph(n, 0.35, seed)
            lam, _ = reference_mincut(g)
            view, _, cache = make_view(g)
            _, delta, _ = degrees(view, cache)
            if delta < 1:
                continue
            outcomes = []
            for tau in range(1, delta):
                res = threshold_mincut(view, tau, cache=cache)
                outcomes.append(res.kind == "cut")
                if res.kind == "cut":
                    assert res.value <= tau
                    assert g.cut_of(res.side) == res.value
                    assert lam <= tau
                else:
                    assert lam > tau
            # monotone: once found, found for every larger threshold
            if True in outcomes:
                first = outcomes.index(True)
                assert all(outcomes[first:])


def _threshold_corpus():
    # two_cliques_bridge takes no randomness, so one seed covers it
    for seed in range(3):
        yield InstanceSpec("random_gnp", 16, seed)
        yield InstanceSpec("random_gnp", 24, seed)
        yield InstanceSpec("planted_cut", 16, seed)
    yield InstanceSpec("two_cliques_bridge", 16)


@pytest.mark.parametrize("spec", list(_threshold_corpus()), ids=InstanceSpec.label)
def test_threshold_with_every_vertex_terminal_matches_reference(spec):
    # R = every vertex: each cut of size <= tau splits it, so the sweep over
    # R finds the minimum cut exactly when it is at most tau
    g = generate(spec)
    lam, _ = reference_mincut(g)
    view, _, cache = make_view(g)
    _, delta, _ = degrees(view, cache)
    for tau in range(delta):
        res = threshold_mincut(view, tau, cache=cache, R=tuple(range(g.n)))
        if lam <= tau:
            assert res.kind == "cut", (g, tau)
            assert res.value == lam and g.cut_of(res.side) == res.value, (g, tau)
        else:
            assert res.kind == "above", (g, tau)


def _two_disjoint_k5() -> GraphInstance:
    edges = {}
    for base in (0, 5):
        for u, v in itertools.combinations(range(base, base + 5), 2):
            edges[(u, v)] = 1
    return GraphInstance(10, edges)


def _sweep_corpus():
    # graphs whose minimum cut lies below delta (planted cuts, bridges, a
    # disconnected graph) or at delta (expanders, dense gnp, a clique)
    for seed in range(3):
        yield InstanceSpec("random_gnp", 12, seed).with_params(p=0.5)
        yield InstanceSpec("random_gnp", 16, seed).with_params(p=0.3)
        yield InstanceSpec("expander_like", 14, seed).with_params(degree=3)
        for k in (1, 2, 3):
            yield InstanceSpec("planted_cut", 16, seed).with_params(k=k)
    yield InstanceSpec("two_cliques_bridge", 16)
    yield InstanceSpec("barbell", 16)
    yield InstanceSpec("complete", 10)
    yield "two_disjoint_k5"


@pytest.mark.parametrize(
    "spec",
    list(_sweep_corpus()),
    ids=lambda s: s if isinstance(s, str) else InstanceSpec.label(s),
)
def test_grown_sweep_threshold_is_exact_at_every_tau(spec):
    """threshold_mincut under the shipped profile (the star sweep with a
    grown source, over the dominating set) answers "cut" exactly when the
    exhaustive minimum cut is at most tau, with a side that cuts the graph
    at the value it reports."""
    g = _two_disjoint_k5() if spec == "two_disjoint_k5" else generate(spec)
    lam, _ = _kernels.min_cut_scan(_kernels.weight_matrix(g.n, g.edges))
    view, _, cache = make_view(g)
    _, delta, _ = degrees(view, cache)
    for tau in range(delta):
        view, _, cache = make_view(g)
        res = threshold_mincut(view, tau, cache=cache)
        assert (res.kind == "cut") == (lam <= tau), (tau, lam)
        if res.kind == "cut":
            assert 0 < len(res.side) < g.n
            assert g.cut_of(res.side) == res.value <= tau


def test_threshold_at_delta_minus_one_finds_the_minimum_cut():
    """At tau = delta-1 the sweep returns the minimum cut itself, not the
    first cut below tau it meets: on planted_cut n=16 seed 12 k=1 the first
    such cut has value 4, where lambda = 1."""
    checked = 0
    for k, seed in itertools.product((1, 2, 3), range(30)):
        g = generate(InstanceSpec("planted_cut", 16, seed).with_params(k=k))
        lam = reference_mincut(g)[0]
        view, _, cache = make_view(g)
        _, delta, _ = degrees(view, cache)
        if lam >= delta:
            continue
        res = threshold_mincut(view, delta - 1, cache=cache)
        assert res.kind == "cut" and res.value == lam, (k, seed, res)
        assert g.cut_of(res.side) == lam
        checked += 1
    assert checked > 0


def test_global_mincut_examples(b6, k4):
    view, _, cache = make_view(b6)
    ans = global_mincut(view, cache=cache)
    assert (ans.value, ans.side) == (1, (0, 1, 2)) or (ans.value, set(ans.side)) == (
        1,
        {3, 4, 5},
    )
    view, _, cache = make_view(k4)
    ans = global_mincut(view, cache=cache)
    assert ans.value == 3 and ans.certificate == "degree_cut"


def test_global_mincut_disconnected():
    g = GraphInstance(6, {(0, 1): 1, (1, 2): 1, (0, 2): 1, (3, 4): 1, (4, 5): 1, (3, 5): 1})
    view, _, cache = make_view(g)
    ans = global_mincut(view, cache=cache)
    assert ans.value == 0
    assert ans.certificate == "disconnected"
    assert set(ans.side) == {0, 1, 2}
    with pytest.raises(QueryInputError):
        view2, _, cache2 = make_view(GraphInstance(1, {}))
        global_mincut(view2, cache=cache2)


def test_global_mincut_refuses_capacitated_graphs():
    # the dominating-set argument holds for simple graphs only: on this W=6
    # instance the degree cut 6 used to come back, where the minimum is 5
    g = random_graph(8, 0.5, 9, W=6)
    assert reference_mincut(g)[0] == 5
    view, ledger, cache = make_view(g)
    with pytest.raises(QueryInputError):
        global_mincut(view, cache=cache)
    assert ledger.cut_count == 0
    # a derived view is refused up front too: an induced view of a unit
    # graph once paid the connectivity BFS before degrees refused it
    view, ledger, cache = make_view(random_graph(8, 0.5, 9))
    with pytest.raises(QueryInputError):
        global_mincut(InducedView(view, range(6)), cache=cache)
    assert ledger.cut_count == 0


def test_global_mincut_reference_sweep():
    for g in small_corpus(max_n=14, seeds=2):
        view, _, cache = make_view(g)
        ans = global_mincut(view, cache=cache)
        lam, _ = reference_mincut(g)
        assert ans.value == lam, g
        if 0 < len(ans.side) < g.n:
            assert g.cut_of(ans.side) == ans.value


def test_global_mincut_value_equals_verified_side():
    # soundness re-verified with one ledger-exempt query
    for seed in range(5):
        g = random_graph(18, 0.35, seed)
        view, _, cache = make_view(g)
        ans = global_mincut(view, cache=cache)
        if ans.value > 0:
            assert g.cut_of(ans.side) == ans.value


@pytest.mark.parametrize(
    "spec",
    [
        InstanceSpec("expander_like", 256).with_params(degree=3),
        InstanceSpec("random_gnp", 128, 0).with_params(p=0.1),
        InstanceSpec("planted_cut", 128, 0).with_params(k=2),
    ],
    ids=["expander_like_d3_n256", "random_gnp_p0.1_n128", "planted_cut_k2_n128"],
)
def test_global_mincut_matches_networkx_stoer_wagner(spec):
    """Min-cut values against networkx above the exhaustive scans' reach;
    the side returned is a cut of that value. The first two graphs answer
    with a degree cut, the planted one with a balanced terminal cut."""
    nx = pytest.importorskip("networkx")
    g = generate(spec)
    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    G.add_weighted_edges_from((u, v, w) for (u, v), w in g.edges.items())
    view, _, cache = make_view(g)
    ans = global_mincut(view, cache=cache)
    assert ans.value == nx.stoer_wagner(G)[0]
    assert g.cut_of(ans.side) == ans.value
