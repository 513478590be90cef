"""Residual-graph discovery using only BIS-style queries: find one neighbor
by binary search, enumerate a whole neighborhood by group testing (one
adaptive halving that probes low halves only and gets high halves by
subtraction), and grow a layered BFS, optionally stopped at a sink. Vertex
sets are bitmasks throughout: candidates, neighborhoods and BFS layers. A
search whose candidates' capacities from the probing vertex are all learned
reads its answer from the cache as one bitmask and probes nothing; the
candidates are listed by id only when a search has to probe."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .oracle import CutCache, Flow, OracleView, QueryInputError, ids_of


@dataclass
class BfsTree:
    # layers[d] is the bitmask of the vertices at residual distance d
    layers: list[int]

    def reached(self) -> int:
        """Bitmask of every vertex the search reached."""
        out = 0
        for layer in self.layers:
            out |= layer
        return out


def _check_mask(view: OracleView, B: int) -> None:
    """Refuse anything but the bitmask of a set of view vertices (a negative
    int has bits outside any view)."""
    if type(B) is not int or B | view.mask != view.mask:
        raise QueryInputError("vertex outside the view universe")


def _check_probe(view: OracleView, u: int, B: int, name: str) -> None:
    if u not in view.universe:
        raise QueryInputError("vertex outside the view universe")
    _check_mask(view, B)
    if B >> u & 1:
        raise QueryInputError(f"{name} sets must be disjoint")


def find_neighbor(
    cache: CutCache, view: OracleView, f: Optional[Flow], u: int, B: int
) -> Optional[int]:
    """Lowest-id vertex of the bitmask B with a residual edge from u, or
    None.

    When the capacities from u to every base vertex of B are learned, the
    answer is read from the cache (CutCache.learned_neighbors) and costs no
    BIS. Otherwise it costs one BIS when there is no neighbor, and
    1 + ceil(log2 |B|) BIS when there is one. The halving always splits at
    the sorted-id midpoint. When the lower half has no residual capacity,
    the upper half holds all of the current total, which is positive, so
    descending into it costs nothing extra. Raises QueryInputError when u
    or a vertex of B is outside the view, or B holds u."""
    _check_probe(view, u, B, "find_neighbor")
    learned = cache.learned_neighbors(view, f, u, B)
    if learned is not None:
        return (learned & -learned).bit_length() - 1 if learned else None
    if cache.residual_between(view, f, u, B) <= 0:
        return None
    ids = ids_of(B)
    # cur is the bitmask of ids[lo:hi]
    cur, lo, hi = B, 0, len(ids)
    while hi - lo > 1:
        mid = lo + (hi - lo + 1) // 2
        low = cur & ((1 << ids[mid]) - 1)
        if cache.residual_between(view, f, u, low) > 0:
            cur, hi = low, mid
        else:
            cur, lo = cur ^ low, mid
    return ids[lo]


def neighborhood(
    cache: CutCache, view: OracleView, f: Optional[Flow], u: int, B: int
) -> int:
    """Bitmask of all residual neighbors of u among the bitmask B, by one
    adaptive halving.

    When the capacities from u to every base vertex of B are learned, the
    whole neighborhood is read from the cache (CutCache.learned_neighbors)
    at no BIS. Otherwise one BIS probes all of B. Every block with a
    positive residual total then splits at the sorted-id midpoint, as in
    find_neighbor: only the low half is probed, and the high half's total is
    the block's minus the low half's, since residual capacity from u is
    additive in the target set under a valid flow. This costs at most one
    BIS when there is no neighbor (none when the block is learned) and at
    most 1 + d * ceil(log2 |B|) for d neighbors. The high halves need no
    call of their own: the cache keeps each probed block's base total, so
    the probe of a low half also gives it the high half's (see
    CutCache.base_pair_sum), and learns its pairs where that total
    teaches them. Raises QueryInputError when u or a vertex of B is outside
    the view, or B holds u."""
    _check_probe(view, u, B, "neighborhood")
    return _expand(cache, view, f, u, B)


def _expand(cache: CutCache, view: OracleView, f: Optional[Flow], u: int, B: int) -> int:
    """neighborhood after its checks: the learned read, else the halving."""
    found = cache.learned_neighbors(view, f, u, B)
    if found is not None:
        return found
    total = cache.residual_between(view, f, u, B)
    if total <= 0:
        return 0
    ids = ids_of(B)
    found = 0
    # blocks ids[lo:hi] with bitmask cur and positive total; the low half is
    # pushed last, so it is split first
    stack = [(0, len(ids), B, total)]
    while stack:
        lo, hi, cur, total = stack.pop()
        if hi - lo == 1:
            found |= cur
            continue
        mid = lo + (hi - lo + 1) // 2
        low = cur & ((1 << ids[mid]) - 1)
        low_total = cache.residual_between(view, f, u, low)
        high_total = total - low_total
        if high_total > 0:
            stack.append((mid, hi, cur ^ low, high_total))
        if low_total > 0:
            stack.append((lo, mid, low, low_total))
    return found


def bfs_tree(
    cache: CutCache,
    view: OracleView,
    f: Optional[Flow],
    root: int,
    within: Optional[int] = None,
    sink: Optional[int] = None,
) -> BfsTree:
    """Layered BFS over the residual graph. Frontier vertices expand in
    (distance, id) order; `within`, a bitmask of view vertices, restricts
    the search to those candidates.

    Each frontier vertex u takes all its undiscovered residual neighbors at
    once, as neighborhood would over the undiscovered vertices. Each layer
    is listed by id once, as the next frontier. With a `sink`, the search
    returns as soon as it discovers the sink: every layer below the sink's
    is then complete, and the sink's own layer holds only the vertices found
    so far."""
    if root not in view.universe:
        raise QueryInputError(f"root {root} outside the view universe")
    if within is None:
        within = view.mask
    else:
        _check_mask(view, within)
    # the undiscovered vertices
    mask = within & ~(1 << root)
    layers = [1 << root]
    frontier = [root]
    while frontier and mask:
        layer = 0
        for u in frontier:
            if not mask:
                break
            new = _expand(cache, view, f, u, mask)
            mask ^= new
            layer |= new
            if sink is not None and new >> sink & 1:
                layers.append(layer)
                return BfsTree(layers)
        if layer:
            layers.append(layer)
        frontier = ids_of(layer)
    return BfsTree(layers)
