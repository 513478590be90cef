"""Blocking-flow max-flow over the oracle.

Each round rebuilds the layered residual graph, one bitmask of vertices per
distance, with a BFS costing Õ(n) BIS calls, stopped as soon as it
discovers the sink, since the layered graph keeps nothing beyond the sink's
layer. It then finds a blocking flow with a stack-based search: extend the
partial path one layer at a time to the lowest-id live vertex with a
residual edge, pop-and-delete dead ends, and on reaching the sink push the
full path bottleneck and retreat to the tail of the first saturated edge.
Residual rows whose pairs are all learned are read as bitmasks
(CutCache.learned_neighbors, memoised per flow), so a round over a learned
graph charges nothing and probes nothing. The
source-sink distance strictly increases between rounds, which is asserted,
and the final flow is maximum once the sink becomes unreachable; that last
BFS explores the whole residual-reachable set, the source side of a
minimum cut. A caller that only needs to know whether the flow reaches a
limit can stop it there, before that last BFS.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .oracle import ContractViolation, CutCache, Flow, OracleView, QueryInputError, ids_of
from .primitives import bfs_tree, find_neighbor


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


def blocking_flow_round(
    cache: CutCache,
    view: OracleView,
    f: Flow,
    layers: list[int],
) -> int:
    """Find a blocking flow in the layered graph, augment f with it, and
    return its value. `layers[d]` is the bitmask of the vertices at
    distance d from the source; layers[0] holds the source alone and the
    last layer the sink alone. Dead-end vertices are deleted for the rest of
    the round; the layered graph is rebuilt by the caller afterwards.

    The search extends its path to the lowest-id live vertex of the next
    layer with a residual edge from the path's end (find_neighbor, which
    reads it from the learned pairs when they cover the layer). After
    pushing a path's bottleneck it retreats to the tail of the path's first
    saturated edge. Restarting from s would choose the same vertices again,
    since the push changes residual capacities on path edges only, so the
    retreat only skips those repeated searches. The path's capacities are
    read with CutCache.capacity; the search that found each path edge
    taught its pair, so these reads charge nothing. Each path edge's flow is
    read once and handed to the push."""
    s = layers[0].bit_length() - 1
    d = len(layers) - 1
    # the vertices of each layer not yet found to be dead ends
    alive = list(layers)
    pushed = 0
    stack = [s]
    while stack:
        u = stack[-1]
        depth = len(stack) - 1
        v = find_neighbor(cache, view, f, u, alive[depth + 1])
        if v is None:
            stack.pop()
            alive[depth] &= ~(1 << u)
            continue
        stack.append(v)
        if len(stack) == d + 1:
            edges = list(zip(stack, stack[1:]))
            flows = [f.get(a, b) for a, b in edges]
            caps = [cache.capacity(view, a, b) - x for (a, b), x in zip(edges, flows)]
            bottleneck = min(caps)
            if bottleneck < 1:
                raise ContractViolation("found path with no residual capacity")
            for (a, b), x in zip(edges, flows):
                f.push(a, b, bottleneck, x)
            f.value += bottleneck
            pushed += bottleneck
            del stack[caps.index(bottleneck) + 1 :]
    return pushed


def dinitz_maxflow(
    view: OracleView,
    s: int,
    t: int,
    cache: Optional[CutCache] = None,
    limit: Optional[int] = None,
) -> FlowResult:
    """Repeated blocking flow until the sink is unreachable; also extracts
    the source side of a minimum cut as the final residual-reachable set.
    Each round's BFS stops once it discovers t; the last one, which does
    not, explores all the residual-reachable set.

    With a limit, the flow also stops once its value reaches the limit,
    before the next BFS: a caller that only asks whether the max flow is
    below the limit skips that last, whole-set BFS. Such a result has no
    source side (mincut_source_side is empty). A flow whose max is below
    the limit runs exactly as without it."""
    if s == t:
        raise QueryInputError("source and sink must differ")
    if s not in view or t not in view:
        raise QueryInputError("source or sink outside the view")
    if limit is not None and limit < 1:
        raise QueryInputError("flow limit must be >= 1")
    if cache is None:
        cache = CutCache(view.base_view)
    f = Flow(s, t)
    rounds: list[RoundStats] = []
    prev_d = 0
    side: tuple[int, ...] = ()
    while limit is None or f.value < limit:
        tree = bfs_tree(cache, view, f, s, sink=t)
        layers = tree.layers
        if not layers[-1] >> t & 1:
            side = tuple(ids_of(tree.reached()))
            break
        d = len(layers) - 1
        if d <= prev_d and rounds:
            raise ContractViolation(f"source-sink distance did not increase: {d} after {prev_d}")
        prev_d = d
        layers[-1] = 1 << t  # the sink's layer keeps the sink alone
        pushed = blocking_flow_round(cache, view, f, layers)
        if pushed < 1:
            raise ContractViolation("blocking flow round made no progress")
        rounds.append(RoundStats(d, pushed, view.ledger.cut_count))
    return FlowResult(flow=f, value=f.value, mincut_source_side=side, rounds=rounds)


def path_decomposition(f: Flow) -> list[tuple[tuple[int, ...], int]]:
    """Strip an integral s-t flow into at most |support| weighted paths;
    cycles in the support are cancelled, not emitted."""
    out: dict[int, dict[int, int]] = {}
    for u, v, val in f.support():
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
