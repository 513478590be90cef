"""The kernels must agree with direct itertools enumeration and with direct
sums over the edge list on small instances."""

import itertools
import random

import pytest

from cutlab import _kernels
from cutlab.oracle import GraphInstance
from conftest import random_graph


def matrix(g):
    return _kernels.weight_matrix(g.n, g.edges)


def brute_min_cut(g):
    best = None
    for size in range(1, g.n):
        for side in itertools.combinations(range(g.n), size):
            val = g.cut_of(side)
            if best is None or val < best:
                best = val
    return best


def direct_cut(g, side):
    inside = set(side)
    return sum(w for (u, v), w in g.edges.items() if (u in inside) != (v in inside))


def kernel_graphs():
    graphs = [random_graph(9, 0.5, seed, W=3) for seed in range(3)]
    graphs += [random_graph(8, 0.4, 5), GraphInstance(6, {}), GraphInstance(1, {})]
    # a capacity of 2^40 + 5 adds the planes 2 and 40 to the planes 0 and 1
    edges = dict(random_graph(8, 0.5, 7, W=3).edges)
    edges[next(iter(edges))] = (1 << 40) + 5
    graphs.append(GraphInstance(8, edges))
    return graphs


def test_cut_value_matches_instance():
    # against a direct sum over the edge list: GraphInstance.cut_of calls
    # the kernel itself, so it cannot serve as the reference
    graphs = kernel_graphs()
    assert [k for k, _ in graphs[-1]._planes] == [0, 1, 2, 40]
    for g in graphs:
        # every side, the empty and full ones included; for even n that
        # covers both sides of each |S| = n/2 tie, where the kernel sums over S
        for bits in range(1 << g.n):
            side = tuple(v for v in range(g.n) if (bits >> v) & 1)
            want = direct_cut(g, side)
            # the kernel takes the side as a bitmask; cut_of takes its ids
            assert _kernels.cut_value(g._planes, g.n, bits) == want, (g, side)
            assert g.cut_of(side) == want, (g, side)
            if side:  # a repeated id counts once
                assert g.cut_of(side + side[:1]) == want, (g, side)
        # a bit at n or above, a negative mask or a non-int is refused
        for bad in (1 << g.n, (1 << (g.n + 1)) - 1, -1, 1.0):
            with pytest.raises(IndexError):
                _kernels.cut_value(g._planes, g.n, bad)
    # on 40 vertices the kernel lists a smaller side of up to 4 vertices and
    # selects the rows of a larger one: every side of at most 2 vertices,
    # their complements, and random sides of every size
    g = random_graph(40, 0.3, 11, W=3)
    rng = random.Random(3)
    sides = [s for size in range(3) for s in itertools.combinations(range(g.n), size)]
    sides += [tuple(sorted(rng.sample(range(g.n), size))) for size in range(g.n + 1)]
    for side in sides:
        for s in (side, tuple(v for v in range(g.n) if v not in side)):
            bits = sum(1 << v for v in s)
            want = direct_cut(g, s)
            assert _kernels.cut_value(g._planes, g.n, bits) == want, s
            assert g.cut_of(s) == want, s


def test_ids_of_lists_sparse_and_dense_masks():
    """ids_of lists a mask's bits in increasing order on both of its
    branches, sparse masks and dense ones, at widths from 0 to 2,100
    bits."""
    rng = random.Random(3)
    branches = set()
    for _ in range(400):
        width = rng.randint(0, 2100)
        density = rng.choice((0.001, 0.01, 0.05, 0.5))
        ids = [v for v in range(width) if rng.random() < density]
        mask = sum(1 << v for v in ids)
        branches.add(64 * len(ids) < mask.bit_length() + 128)
        assert _kernels.ids_of(mask) == ids
    assert branches == {True, False}


def test_degree_matches_edge_list():
    for g in kernel_graphs():
        for v in range(g.n):
            want = sum(w for (a, b), w in g.edges.items() if v in (a, b))
            assert g.degree(v) == want, (g, v)


def test_subset_cuts_match_every_set():
    # the doubling table against a direct sum for each set, with vertices
    # added in a shuffled order on top of a base set
    rng = random.Random(4)
    for n in range(2, 13):
        for g in (GraphInstance(n, {}), random_graph(n, 0.5, n), random_graph(n, 0.5, n, W=9)):
            W = matrix(g)
            order = rng.sample(range(g.n), rng.randint(1, g.n))
            base = sum(1 << v for v in range(g.n) if v not in order and rng.random() < 0.5)
            for vertices, base_mask in ((range(g.n), 0), (order, base)):
                cuts = _kernels.subset_cuts(W, vertices, base_mask)
                assert cuts.shape == (1 << len(vertices),)
                for m in range(1 << len(vertices)):
                    side = [v for v in range(g.n) if (base_mask >> v) & 1]
                    side += [v for j, v in enumerate(vertices) if (m >> j) & 1]
                    assert cuts[m] == direct_cut(g, side), (g, vertices, base_mask, m)


def test_min_isolating_every_forbidden_mask():
    # every terminal and every forbidden set: the first minimum over the
    # free vertices' subsets in binary-counting order
    for n in range(2, 8):
        g = random_graph(n, 0.6, n, W=3)
        W = matrix(g)
        for r in range(g.n):
            for forbidden in range(1 << g.n):
                if (forbidden >> r) & 1:
                    continue
                free = [v for v in range(g.n) if v != r and not (forbidden >> v) & 1]
                best = None
                for sub in range(1 << len(free)):
                    side = [r] + [v for j, v in enumerate(free) if (sub >> j) & 1]
                    val = direct_cut(g, side)
                    if best is None or val < best[0]:
                        best = (val, sum(1 << v for v in side))
                assert _kernels.min_isolating(W, r, forbidden) == best


def test_min_cut_scan_vs_brute():
    for seed in range(4):
        g = random_graph(8, 0.45, seed, W=2)
        W = matrix(g)
        val, mask = _kernels.min_cut_scan(W)
        side = [v for v in range(g.n) if (mask >> v) & 1]
        assert val == brute_min_cut(g)
        assert g.cut_of(side) == val


def test_separation_violation_vs_brute():
    for seed in range(4):
        g = random_graph(8, 0.4, seed)
        W = matrix(g)
        r_mask = (1 << 0) | (1 << 5)
        for c in (0, 1, 2, 3):
            got = _kernels.separation_violation(W, r_mask, c)
            brute = None
            for mask in range(1, 1 << (g.n - 1)):
                side = [v for v in range(g.n) if (mask >> v) & 1]
                inter = mask & r_mask
                if g.cut_of(side) <= c and inter in (0, r_mask):
                    brute = mask
                    break
            assert got == (brute if brute is not None else -1)


def test_min_isolating_vs_brute():
    for seed in range(3):
        g = random_graph(8, 0.5, seed)
        W = matrix(g)
        R = [0, 3, 6]
        for r in R:
            forbidden = sum(1 << x for x in R if x != r)
            val, mask = _kernels.min_isolating(W, r, forbidden)
            best = None
            free = [v for v in range(g.n) if v != r and v not in R]
            for k in range(len(free) + 1):
                for extra in itertools.combinations(free, k):
                    side = (r,) + extra
                    cand = g.cut_of(side)
                    if best is None or cand < best:
                        best = cand
            assert val == best
            side = [v for v in range(g.n) if (mask >> v) & 1]
            assert r in side and not (set(side) & (set(R) - {r}))
            assert g.cut_of(side) == val


def test_expansion_violation_vs_brute():
    for seed in range(3):
        g = random_graph(8, 0.4, seed)
        W = matrix(g)
        core = [0, 2, 4, 6]
        core_mask = sum(1 << v for v in core)
        num, den = 3, 2
        got = _kernels.expansion_violation(W, core_mask, num, den)
        brute = -1
        for mask in range(1, 1 << (g.n - 1)):
            side = [v for v in range(g.n) if (mask >> v) & 1]
            a = len(set(side) & set(core))
            small = min(a, len(core) - a)
            if small and den * g.cut_of(side) < num * small:
                brute = mask
                break
        assert got == brute


def test_best_conductance_vs_brute():
    for seed in range(3):
        g = random_graph(7, 0.5, seed, W=2)
        W = matrix(g)
        cross, vol, mask = _kernels.best_conductance_cut(W)
        deg = {v: g.degree(v) for v in range(g.n)}
        total = sum(deg.values())
        best = None
        for m in range(1, 1 << (g.n - 1)):
            side = [v for v in range(g.n) if (m >> v) & 1]
            vol_in = sum(deg[v] for v in side)
            small = min(vol_in, total - vol_in)
            if small == 0:
                continue
            c = g.cut_of(side)
            if best is None or c * best[1] < best[0] * small:
                best = (c, small, m)
        assert (cross, vol, mask) == best
