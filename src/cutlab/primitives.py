"""Residual-graph discovery using only BIS-style queries, by one adaptive
halving that probes low halves only and gets high halves by subtraction:
find one neighbor (its first leaf), enumerate a whole neighborhood, and
grow a layered BFS, optionally stopped at a sink. Vertex sets are bitmasks
throughout: candidates, neighborhoods and BFS layers. A search whose
candidates' capacities from the probing vertex are all learned reads its
answer from the cache as one bitmask and probes nothing; the candidates are
listed by id only when a search has to probe."""

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
        raise QueryInputError("vertex outside the view")


def _check_probe(view: OracleView, u: int, B: int, name: str) -> None:
    mask = view.mask
    if not (type(u) is int and u >= 0 and mask >> u & 1) or type(B) is not int or B | mask != mask:
        raise QueryInputError("vertex outside the view")
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
    1 + ceil(log2 |B|) BIS when there is one: neighborhood's halving,
    stopped at its first leaf. When the lower half has no residual capacity,
    the upper half holds all of the current total, which is positive, so
    descending into it costs nothing extra. Raises QueryInputError when u
    or a vertex of B is outside the view, or B holds u."""
    _check_probe(view, u, B, "find_neighbor")
    found = cache.learned_neighbors(view, f, u, B)
    if found is None:
        found = _halve(cache, view, f, u, B, True)
    return (found & -found).bit_length() - 1 if found else None


def neighborhood(
    cache: CutCache, view: OracleView, f: Optional[Flow], u: int, B: int
) -> int:
    """Bitmask of all residual neighbors of u among the bitmask B, by one
    adaptive halving.

    When the capacities from u to every base vertex of B are learned, the
    whole neighborhood is read from the cache (CutCache.learned_neighbors)
    at no BIS. Otherwise one BIS probes all of B. Every block with a
    positive residual total then splits at the sorted-id midpoint (_halve):
    only the low half is probed, and the high half's total is the block's
    minus the low half's, since residual capacity from u is additive in the
    target set under a valid flow. This costs at most one
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
    if found is None:
        found = _halve(cache, view, f, u, B, False)
    return found


def _halve(
    cache: CutCache, view: OracleView, f: Optional[Flow], u: int, B: int, first: bool
) -> int:
    """Bitmask of the residual neighbors of u among the bitmask B, by one
    probe of B and then the halving of each block with a positive total.
    With `first`, returns the first leaf reached alone: the lowest-id
    neighbor, since the low half of each block is split first."""
    total = cache.residual_between(view, f, u, B)
    if total <= 0:
        return 0
    ids = ids_of(B)
    found = 0
    # the block ids[lo:hi] (bitmask cur, positive total) descends through
    # its low halves to its first leaf; the positive high halves passed on
    # the way wait on the stack, the deepest on top, unless `first`
    lo, hi, cur = 0, len(ids), B
    stack = []
    while True:
        while hi - lo > 1:
            mid = lo + (hi - lo + 1) // 2
            low = cur & ((1 << ids[mid]) - 1)
            low_total = cache.residual_between(view, f, u, low)
            if low_total > 0:
                if total > low_total and not first:
                    stack.append((mid, hi, cur ^ low, total - low_total))
                hi, cur, total = mid, low, low_total
            else:
                lo, cur = mid, cur ^ low
        if first:
            return cur
        found |= cur
        if not stack:
            return found
        lo, hi, cur, total = stack.pop()


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
    so far. Raises QueryInputError, before any charge, for a root or a sink
    outside the view."""
    if root not in view:
        raise QueryInputError(f"root {root!r} outside the view")
    if sink is not None and sink not in view:
        raise QueryInputError(f"sink {sink!r} outside the view")
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
