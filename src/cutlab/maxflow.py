"""Blocking-flow max-flow over the oracle.

Each round rebuilds the layered residual graph with a BFS costing Õ(n) BIS
calls, then finds a blocking flow with a stack-based search: extend the
partial path one layer at a time via find_neighbor, pop-and-delete dead
ends, and on reaching the sink push the full path bottleneck and reset the
stack. The source-sink distance strictly increases between rounds, which is
asserted, and the final flow is maximum once the sink becomes unreachable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .oracle import ContractViolation, CutCache, Flow, OracleView, QueryInputError, mask_of
from .primitives import BfsTree, bfs_tree, find_neighbor


@dataclass
class LayeredGraph:
    layers: list[list[int]]
    dist: dict[int, int]
    d: int


@dataclass
class RoundStats:
    d: int
    value: int
    cut_queries: int


@dataclass
class FlowResult:
    flow: Flow
    value: int
    mincut_source_side: tuple[int, ...]
    rounds: list[RoundStats] = field(default_factory=list)

    @property
    def round_count(self) -> int:
        return len(self.rounds)


def _layers_from_tree(tree: BfsTree, s: int, t: int) -> Optional[LayeredGraph]:
    if t not in tree.dist:
        return None
    d = tree.dist[t]
    layers: list[list[int]] = [[] for _ in range(d + 1)]
    dist: dict[int, int] = {}
    for v in sorted(tree.dist):
        dv = tree.dist[v]
        if dv < d:
            layers[dv].append(v)
            dist[v] = dv
    layers[d] = [t]  # drop non-sink vertices of the last layer
    dist[t] = d
    return LayeredGraph(layers=layers, dist=dist, d=d)


def _residual_capacity(cache: CutCache, view: OracleView, f: Flow, u: int, v: int) -> int:
    fv = f.get(u, v)
    if fv >= 0 and view.unit_real_capacities() and view.linear_form(u).keep >> v & 1:
        # a residual edge between real vertices with nonnegative flow on a
        # unit-capacity view must be an unused real edge; an edge with a
        # virtual end may be heavier, and its capacity is read free
        return 1 - fv
    return cache.capacity(view, u, v) - fv


def blocking_flow_round(
    cache: CutCache,
    view: OracleView,
    f: Flow,
    layered: LayeredGraph,
) -> int:
    """Find a blocking flow in the layered graph, augment f with it, and
    return its value. Dead-end vertices are deleted for the rest of the
    round; the layered graph is rebuilt by the caller afterwards."""
    s = layered.layers[0][0]
    t = layered.layers[-1][0]
    d = layered.d
    # the vertices of each layer not yet found to be dead ends, as a sorted
    # list and as a bitmask
    alive = [sorted(layer) for layer in layered.layers]
    alive_mask = [mask_of(layer) for layer in layered.layers]
    pushed = 0
    stack = [s]
    while stack:
        u = stack[-1]
        depth = len(stack) - 1
        v = find_neighbor(cache, view, f, u, alive[depth + 1], alive_mask[depth + 1])
        if v is None:
            stack.pop()
            if depth > 0:
                alive[depth].remove(u)
                alive_mask[depth] ^= 1 << u
            continue
        stack.append(v)
        if len(stack) == d + 1:
            bottleneck = None
            for a, b in zip(stack, stack[1:]):
                r = _residual_capacity(cache, view, f, a, b)
                if bottleneck is None or r < bottleneck:
                    bottleneck = r
            if bottleneck is None or bottleneck < 1:
                raise ContractViolation("found path with no residual capacity")
            for a, b in zip(stack, stack[1:]):
                f.push(a, b, bottleneck)
            f.value += bottleneck
            pushed += bottleneck
            stack = [s]
    return pushed


def dinitz_maxflow(
    view: OracleView,
    s: int,
    t: int,
    cache: Optional[CutCache] = None,
) -> FlowResult:
    """Repeated blocking flow until the sink is unreachable; also extracts
    the source side of a minimum cut as the final residual-reachable set."""
    if s == t:
        raise QueryInputError("source and sink must differ")
    if s not in view.universe or t not in view.universe:
        raise QueryInputError("source or sink outside the view universe")
    if cache is None:
        cache = CutCache(view.base_view)
    f = Flow.zero(s, t)
    rounds: list[RoundStats] = []
    prev_d = 0
    while True:
        tree = bfs_tree(cache, view, f, s)
        if t not in tree.dist or tree.dist[t] > view.universe_size:
            side = tree.reached()
            break
        layered = _layers_from_tree(tree, s, t)
        if layered.d <= prev_d and rounds:
            raise ContractViolation(
                f"source-sink distance did not increase: {layered.d} after {prev_d}"
            )
        prev_d = layered.d
        pushed = blocking_flow_round(cache, view, f, layered)
        if pushed < 1:
            raise ContractViolation("blocking flow round made no progress")
        rounds.append(RoundStats(layered.d, pushed, view.ledger.cut_count))
    return FlowResult(flow=f, value=f.value, mincut_source_side=side, rounds=rounds)


def path_decomposition(f: Flow) -> list[tuple[tuple[int, ...], int]]:
    """Strip an integral s-t flow into at most |support| weighted paths;
    cycles in the support are cancelled, not emitted."""
    out: dict[int, dict[int, int]] = {}
    for u, v, val in f.support():
        if not isinstance(val, int):
            raise ContractViolation("path decomposition needs an integral flow")
        out.setdefault(u, {})[v] = val

    def drop(a: int, b: int, amount: int) -> None:
        out[a][b] -= amount
        if out[a][b] == 0:
            del out[a][b]
            if not out[a]:
                del out[a]

    paths: list[tuple[tuple[int, ...], int]] = []
    s, t = f.source, f.sink
    while out.get(s):
        path = [s]
        pos = {s: 0}
        while path[-1] != t:
            u = path[-1]
            if not out.get(u):
                raise ContractViolation(f"flow conservation broken at {u}")
            nxt = min(out[u])
            if nxt in pos:
                cyc = path[pos[nxt] :] + [nxt]
                amt = min(out[a][b] for a, b in zip(cyc, cyc[1:]))
                for a, b in zip(cyc, cyc[1:]):
                    drop(a, b, amt)
                path = path[: pos[nxt] + 1]
                pos = {v: i for i, v in enumerate(path)}
                continue
            path.append(nxt)
            pos[nxt] = len(path) - 1
        amt = min(out[a][b] for a, b in zip(path, path[1:]))
        for a, b in zip(path, path[1:]):
            drop(a, b, amt)
        paths.append((tuple(path), amt))
    # leftover support consists of cycles disjoint from every s-t walk
    while out:
        u = min(out)
        walk = [u]
        seen = {u: 0}
        while True:
            nxt = min(out[walk[-1]])
            if nxt in seen:
                cyc = walk[seen[nxt] :] + [nxt]
                amt = min(out[a][b] for a, b in zip(cyc, cyc[1:]))
                for a, b in zip(cyc, cyc[1:]):
                    drop(a, b, amt)
                break
            walk.append(nxt)
            seen[nxt] = len(walk) - 1
    return paths
