"""Cut player, matching player, pruning, one_step, and the recursive
decomposition, with exhaustive witness/expansion checks at small sizes."""

import itertools
import math
import random
from collections import Counter

import numpy as np
import pytest

from cutlab.config import DESK, PINNED
from cutlab.expander import (
    CUT_PLAYER_EXACT_LIMIT,
    PRUNE_EXACT_LIMIT,
    WitnessGraph,
    bisection_table,
    cut_player,
    decompose,
    matching_player,
    one_step,
    prune,
    _power_direction,
    _spectral_conductance_cut,
)
from cutlab.harness import InstanceSpec, generate, reference_maxflow
from cutlab.oracle import GraphInstance, InducedView, QueryInputError
from conftest import make_view, random_graph


def witness(slots, b, edges=None, fakes=None, rounds=0):
    X = WitnessGraph(slots=tuple(slots), b=b)
    if edges:
        X.edges.update(edges)
    if fakes:
        X.fake.update(fakes)
    X.rounds = rounds
    return X


def test_add_round_refuses_edges_off_the_slots_and_wrong_degrees():
    """A round whose edges leave the slots, or whose slot degrees are not
    b, is refused, and the witness is unchanged; a valid round is added."""
    X = witness((0, 1, 2, 3), 1)
    for matching, fakes in (
        (Counter({(0, 5): 1, (1, 5): 1}), Counter({(2, 3): 1})),
        (Counter({(0, 1): 1}), Counter({(2, 7): 1, (3, 7): 1})),
        (Counter({(0, 1): 1, (1, 2): 1}), Counter({(2, 3): 1})),
        (Counter({(0, 1): 1}), Counter()),
    ):
        with pytest.raises(QueryInputError):
            X.add_round(matching, fakes)
    assert not X.edges and not X.fake and X.rounds == 0
    X.add_round(Counter({(0, 1): 1}), Counter({(2, 3): 1}))
    assert X.rounds == 1 and cut_player(X) == ((0, 1), (2, 3))


# ---------------------------------------------------------------------------
# cut player


def test_cut_player_empty_witness():
    X = witness((0, 1, 2, 3), 2)
    assert cut_player(X) == ((0, 1), (2, 3))


def test_cut_player_exhaustive_minimises_crossing():
    # one matching: the minimum-crossing bisection groups the matched pairs
    X = witness((0, 1, 2, 3), 1, edges={(0, 1): 1, (2, 3): 1})
    A, B = cut_player(X)
    assert {frozenset(A), frozenset(B)} == {frozenset((0, 1)), frozenset((2, 3))}
    # brute-force check of minimality over all bisections
    def crossing(side):
        side = set(side)
        return sum(
            c for (u, v), c in X.combined().items() if (u in side) != (v in side)
        )

    best = min(crossing(c) for c in itertools.combinations((0, 1, 2, 3), 2))
    assert crossing(A) == best


def _first_min_bisection(X):
    """Brute force: the first minimum-crossing bisection over side-A sets
    that hold the lowest slot, in lexicographic order."""
    slots = X.slots
    edges = X.combined()
    best = None
    for rest in itertools.combinations(slots[1:], len(slots) // 2 - 1):
        side = {slots[0], *rest}
        cross = sum(c for (u, v), c in edges.items() if (u in side) != (v in side))
        if best is None or cross < best[0]:
            best = (cross, side)
    A = tuple(s for s in slots if s in best[1])
    return A, tuple(s for s in slots if s not in best[1])


@pytest.mark.parametrize("k", range(2, CUT_PLAYER_EXACT_LIMIT + 1, 2))
def test_cut_player_exact_matches_brute_force(k):
    rng = random.Random(k)
    slots = tuple(sorted(rng.sample(range(5, 10 * k), k)))
    pairs = list(itertools.combinations(slots, 2))
    cases = []
    if k <= 14:
        cases.append(witness(slots, 0))  # empty witness: every crossing is 0
        cases.append(witness(slots, k - 1, edges={p: 3 for p in pairs}))  # all tied
    # above 14 slots one weighted case keeps the brute force short
    for _ in range(4 if k <= 14 else 1):
        edges = Counter({p: rng.randint(1, 9) for p in rng.sample(pairs, min(len(pairs), 2 * k))})
        fakes = Counter({p: rng.randint(1, 2) for p in rng.sample(pairs, min(len(pairs), k // 2))})
        cases.append(witness(slots, 1, edges=edges, fakes=fakes))
    for X in cases:
        assert cut_player(X) == _first_min_bisection(X)
    if k <= 14:
        assert cut_player(cases[0]) == (slots[: k // 2], slots[k // 2 :])


def test_bisection_table_is_memoised_and_read_only():
    table = bisection_table(8)
    assert table is bisection_table(8)
    assert table.shape == (math.comb(7, 3), 8) and table.dtype == bool
    assert table[:, 0].all() and (table.sum(axis=1) == 4).all()
    with pytest.raises(ValueError):
        table[0, 1] = True


def test_cut_player_spectral_path_is_deterministic():
    slots = tuple(range(24))
    edges = Counter({(i, (i + 1) % 24): 1 for i in range(24)})
    edges = Counter({(min(u, v), max(u, v)): c for (u, v), c in edges.items()})
    X = witness(slots, 1, edges=edges, rounds=1)
    first = cut_player(X)
    assert first == cut_player(X)
    A, B = first
    assert len(A) == len(B) == 12


# ---------------------------------------------------------------------------
# matching player


def test_matching_player_k4_perfect(k4):
    view, _, cache = make_view(k4)
    out = matching_player(view, (0, 1), (2, 3), 1, 1.0, 1.0, cache=cache)
    assert out.kind == "matching"
    assert out.flow_value == 4
    deg = Counter()
    for (u, v), c in out.matching.items():
        deg[u] += c
        deg[v] += c
    assert all(deg[t] == 2 for t in (0, 1, 2, 3))


def test_matching_player_zero_edge_graph_sparse_cut():
    g = GraphInstance(4, {})
    view, _, cache = make_view(g)
    out = matching_player(view, (0, 1), (2, 3), 1, 1.0, 1.0, cache=cache)
    assert out.kind == "sparse_cut"
    assert out.flow_value == 0
    assert set(out.cut) == {0, 1}


def test_matching_player_b6_boundary_case(b6):
    # beta=1 with singleton sides makes the threshold zero, so the single
    # unit across the bridge is already a 1-almost-perfect matching
    view, _, cache = make_view(b6)
    out = matching_player(view, (0,), (5,), 1, 1.0, 1.0, cache=cache)
    assert out.kind == "matching"
    assert out.flow_value == 1
    assert out.matching == Counter({(0, 5): 1})


def test_matching_player_flow_value_matches_reference(b6):
    # explicit augmented instance: subdivided terminals, scaled inner edges
    tau, phi = 1, 0.5
    scale = 2
    edges = {}
    for (u, v), w in b6.edges.items():
        edges[(u, v)] = w * scale
    nxt = 6
    s_source, s_sink = 6, 7
    nxt = 8
    for a in (0, 1):
        for _ in range(tau + 1):
            edges[(min(s_source, nxt), max(s_source, nxt))] = 1
            edges[(min(a, nxt), max(a, nxt))] = 1
            nxt += 1
    for b in (4, 5):
        for _ in range(tau + 1):
            edges[(min(b, nxt), max(b, nxt))] = 1
            edges[(min(s_sink, nxt), max(s_sink, nxt))] = 1
            nxt += 1
    explicit = GraphInstance(nxt, edges)
    want = reference_maxflow(explicit, s_source, s_sink)
    view, _, cache = make_view(b6)
    out = matching_player(view, (0, 1), (4, 5), tau, phi, 1.0, cache=cache)
    assert out.flow_value == want


# ---------------------------------------------------------------------------
# pruning


def test_prune_no_fakes_expander_untouched():
    X = witness(
        (0, 1, 2, 3), 3,
        edges={(0, 1): 1, (0, 2): 1, (0, 3): 1, (1, 2): 1, (1, 3): 1, (2, 3): 1},
        rounds=1,
    )
    rep = prune(X)
    assert rep.pruned == ()


def test_prune_fake_joined_cliques():
    X = witness(
        (0, 1, 2, 3, 4, 5), 2,
        edges={(0, 1): 2, (0, 2): 2, (1, 2): 2, (3, 4): 2, (3, 5): 2, (4, 5): 2},
        fakes={(0, 3): 2, (1, 4): 2, (2, 5): 2},
        rounds=3,
    )
    rep = prune(X)
    assert rep.pruned in ((0, 1, 2), (3, 4, 5))
    assert rep.within_budget


def _reference_sweep(W):
    """The sweep as a direct prefix loop over the Fiedler order: an
    adjacency list and running cut and volume sums, keeping the first
    prefix of strictly least cut/volume."""
    k = W.shape[0]
    deg = W.sum(axis=1)
    order = np.argsort(_power_direction(W, deg), kind="stable")
    total = deg.sum()
    adj = {i: [(j, int(W[i, j])) for j in range(k) if W[i, j]] for i in range(k)}
    best = (-1, -1, 0)
    inside: set[int] = set()
    mask = vol_in = cross = 0
    for idx in order[:-1]:
        idx = int(idx)
        inside.add(idx)
        mask |= 1 << idx
        vol_in += int(deg[idx])
        for nbr, w in adj[idx]:
            cross += w if nbr not in inside else -w
        small = min(vol_in, total - vol_in)
        if small <= 0:
            continue
        if best[0] < 0 or cross * best[1] < best[0] * small:
            best = (cross, int(small), mask)
    return best


def _seeded_matrix(k, seed, p, isolated=0, copies=1):
    """Symmetric weights 0..3 on k slots: `copies` disjoint copies of one
    random block (so prefixes tie), then `isolated` slots with no edge, the
    slot ids shuffled."""
    rng = random.Random(seed)
    size = (k - isolated) // copies
    block = np.zeros((size, size), dtype=np.int64)
    for i, j in itertools.combinations(range(size), 2):
        if rng.random() < p:
            block[i, j] = block[j, i] = rng.randint(1, 3)
    W = np.zeros((k, k), dtype=np.int64)
    for c in range(copies):
        W[c * size : (c + 1) * size, c * size : (c + 1) * size] = block
    perm = list(range(k))
    rng.shuffle(perm)
    return W[np.ix_(perm, perm)]


def test_spectral_sweep_matches_a_direct_prefix_loop():
    """The prefix-sum sweep returns what a direct loop over the same order
    returns, on seeded matrices with weights up to 3: sparse and dense,
    with isolated slots, with disjoint equal copies whose prefixes tie, and
    at k above PRUNE_EXACT_LIMIT, where pruning uses the sweep. A matrix
    with no edge has no prefix of volume on both sides."""
    cases = []
    for seed in range(6):
        for k in (2, 5, 9, 16, PRUNE_EXACT_LIMIT + 1, 24, 40):
            cases.append(_seeded_matrix(k, seed, 0.3))
            cases.append(_seeded_matrix(k, seed, 0.8, isolated=k // 4))
        for k, copies in ((12, 3), (20, 4), (36, 2)):
            cases.append(_seeded_matrix(k, seed, 0.6, copies=copies))
            cases.append(_seeded_matrix(k, seed, 0.5, isolated=4, copies=copies))
    tied = 0  # cases where more than one prefix has the least ratio
    for W in cases:
        if not W.any():
            continue
        got = _spectral_conductance_cut(W)
        assert got == _reference_sweep(W), W
        cross, vol, _ = got
        deg = W.sum(axis=1)
        order = np.argsort(_power_direction(W, deg), kind="stable")
        least = 0
        for j in range(1, W.shape[0]):
            side, rest = order[:j], order[j:]
            small = min(deg[side].sum(), deg[rest].sum())
            least += bool(small) and W[np.ix_(side, rest)].sum() * vol == cross * small
        tied += least > 1
    assert tied >= 20
    assert _spectral_conductance_cut(np.zeros((6, 6), dtype=np.int64)) == (-1, -1, 0)


def test_prune_volume_budget_on_random_trials():
    # randomized small witnesses: the peeling stays within the stated volume
    # budget whenever it prunes anything
    import random

    rng = random.Random(0)
    for _ in range(10):
        slots = tuple(range(8))
        edges = Counter()
        for u, v in itertools.combinations(slots, 2):
            if rng.random() < 0.5:
                edges[(u, v)] += 1
        fakes = Counter()
        for u, v in itertools.combinations(slots, 2):
            if rng.random() < 0.15:
                fakes[(u, v)] += 1
        X = witness(slots, 2, edges=edges, fakes=fakes, rounds=2)
        rep = prune(X, phi_x=0.4)
        target = 0.4 / 6.0
        # verify the postcondition with an exhaustive conductance scan of the
        # remaining fake-free witness
        alive = [v for v in slots if v not in set(rep.pruned)]
        deg = Counter()
        for (u, v), c in X.edges.items():
            if u in alive and v in alive:
                deg[u] += c
                deg[v] += c
        for k in range(1, len(alive)):
            for side in itertools.combinations(alive, k):
                cross = sum(
                    c
                    for (u, v), c in X.edges.items()
                    if u in alive and v in alive and ((u in side) != (v in side))
                )
                vol_in = sum(deg[v] for v in side)
                vol_out = sum(deg[v] for v in alive) - vol_in
                small = min(vol_in, vol_out)
                if small > 0:
                    assert cross >= target * small - 1e-9


# ---------------------------------------------------------------------------
# one_step


def test_one_step_k8_core_is_everything():
    g = generate(InstanceSpec("complete", 8))
    view, _, cache = make_view(g)
    res = one_step(view, tuple(range(8)), 1, cache=cache)
    assert res.kind == "core"
    assert res.core == tuple(range(8))
    assert res.witness.sparsity_at_least(2)


def test_one_step_two_cliques_returns_balanced_cut():
    g = generate(InstanceSpec("two_cliques_bridge", 12))
    view, _, cache = make_view(g)
    res = one_step(view, tuple(range(12)), 1, cache=cache)
    assert res.kind == "cut"
    assert set(res.cut) in ({0, 1, 2, 3, 4, 5}, {6, 7, 8, 9, 10, 11})
    inside = len(set(res.cut) & set(range(12)))
    assert 0 < inside < 12


def test_one_step_two_terminals_core():
    g = generate(InstanceSpec("complete", 8))
    view, _, cache = make_view(g)
    res = one_step(view, (2, 5), 1, cache=cache)
    assert res.kind == "core"
    assert res.core == (2, 5)


def test_one_step_core_keeps_half_the_terminals():
    for seed in range(4):
        g = random_graph(12, 0.6, seed)
        view, _, cache = make_view(g)
        R = tuple(range(0, 12, 2))
        res = one_step(view, R, 1, cache=cache)
        if res.kind == "core":
            assert len(res.core) >= 0.5 * len(R)


def test_witness_sparsity_after_full_game():
    # every core return on a small witness leaves X (fakes included) with
    # sparsity at least tau+1, verified exhaustively
    cores = 0
    for fam, ps in (
        ("complete", ()),
        ("random_gnp", (("p", 0.5),)),
        ("expander_like", ()),
    ):
        for n in (6, 8, 10, 12, 14):
            for seed in range(2):
                g = generate(InstanceSpec(fam, n, seed, ps))
                view, _, cache = make_view(g)
                res = one_step(view, tuple(range(n)), 1, cache=cache)
                if res.kind == "core" and len(res.witness.slots) <= 16:
                    assert res.witness.sparsity_at_least(2), (fam, n, seed)
                    cores += 1
    assert cores > 0


def test_isolating_query_budget_pinned():
    import math

    from cutlab.isolating import isolating_cuts

    for fam, ps in (("random_gnp", (("p", 0.4),)), ("two_cliques_bridge", ())):
        for n in (8, 16, 32):
            for seed in range(2):
                g = generate(InstanceSpec(fam, n, seed, ps))
                view, ledger, cache = make_view(g)
                isolating_cuts(view, (0, n // 3, n - 1), 1, cache=cache)
                bound = PINNED["C_ISO"] * n ** (5 / 3) * math.log2(n)
                assert ledger.cut_count <= bound, (fam, n, seed, ledger.cut_count)


def test_one_step_odd_terminals_padded():
    g = generate(InstanceSpec("complete", 7))
    view, _, cache = make_view(g)
    res = one_step(view, (0, 2, 4), 1, cache=cache)
    assert res.kind == "core"
    assert set(res.core) <= {0, 2, 4}


# ---------------------------------------------------------------------------
# decompose


def cut_between(g, A, B):
    return sum(
        w for (u, v), w in g.edges.items() if (u in A) != (u in B) and ((u in A and v in B) or (u in B and v in A))
    )


def test_decompose_two_cliques():
    g = generate(InstanceSpec("two_cliques_bridge", 12))
    view, _, cache = make_view(g)
    parts = decompose(view, tuple(range(12)), 1, cache=cache)
    assert len(parts) == 2
    covered = sorted(v for p in parts for v in p.vertices)
    assert covered == list(range(12))
    crossing = sum(g.cut_of(p.vertices) for p in parts) // 2
    assert crossing == 1


def test_decompose_refuses_terminals_outside_the_view_and_negative_tau():
    """Fewer than two terminals once skipped every check, so terminal 999
    or tau -5 came back as a core; each case is refused before any charge,
    as are two terminals with one outside an induced view and a tau that
    is not an int (True is not taken as 1)."""
    g = generate(InstanceSpec("two_cliques_bridge", 12))
    view, ledger, cache = make_view(g)
    left = InducedView(view, range(6))
    for v, R, tau in (
        (view, (999,), 1),
        (view, (-3,), -5),
        (view, (0,), -5),
        (view, (0,), 1.5),
        (view, (0,), True),
        (view, (0,), "1"),
        (view, (), -1),
        (view, (0, 999), 1),
        (view, (0, 5), -1),
        (left, (7,), 1),
        (left, (0, 7), 1),
    ):
        with pytest.raises(QueryInputError):
            decompose(v, R, tau, cache=cache)
    assert ledger.cut_count == 0


def test_decompose_k8_single_part():
    g = generate(InstanceSpec("complete", 8))
    view, _, cache = make_view(g)
    parts = decompose(view, tuple(range(8)), 1, cache=cache)
    assert len(parts) == 1
    assert parts[0].core == tuple(range(8))


def test_decompose_path16_splits():
    g = generate(InstanceSpec("path", 16))
    view, _, cache = make_view(g)
    parts = decompose(view, tuple(range(16)), 1, cache=cache)
    assert len(parts) >= 2
    covered = sorted(v for p in parts for v in p.vertices)
    assert covered == list(range(16))


def test_decompose_partitions_and_small_parts_expand():
    # partition property always; exhaustive almost-expander check on small parts
    phi = DESK.phi_for(12)
    for seed in range(4):
        g = random_graph(12, 0.4, seed)
        view, _, cache = make_view(g)
        R = tuple(range(12))
        parts = decompose(view, R, 1, cache=cache)
        covered = sorted(v for p in parts for v in p.vertices)
        assert covered == list(range(12))
        for p in parts:
            assert p.terminals == tuple(sorted(set(p.vertices) & set(R)))
            assert set(p.core) <= set(p.terminals)
            if len(p.vertices) > 18 or len(p.core) < 2:
                continue
            inner = set(p.vertices)
            core = set(p.core)
            threshold = phi * 2  # tau + 1 = 2
            for k in range(1, len(p.vertices)):
                for side in itertools.combinations(sorted(inner), k):
                    boundary = sum(
                        w
                        for (u, v), w in g.edges.items()
                        if u in inner and v in inner and ((u in side) != (v in side))
                    )
                    small = min(len(core & set(side)), len(core - set(side)))
                    if small:
                        assert boundary >= threshold * small - 1e-9, (p, side)


def test_decompose_crossing_bound_pinned():
    import math

    for seed in range(3):
        g = random_graph(14, 0.35, seed)
        view, _, cache = make_view(g)
        R = tuple(range(14))
        tau = 1
        parts = decompose(view, R, tau, cache=cache)
        crossing = sum(g.cut_of(p.vertices) for p in parts if len(p.vertices) < 14) // 2
        phi = DESK.phi_for(14)
        bound = PINNED["C_CROSSING"] * phi * len(R) * (tau + 1) * math.log2(14) ** 6
        assert crossing <= bound
