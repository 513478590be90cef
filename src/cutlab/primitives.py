"""Residual-graph discovery using only BIS-style queries: find one neighbor
by binary search, enumerate a whole neighborhood by group testing (one
adaptive halving that probes low halves only and gets high halves by
subtraction), and grow a layered BFS tree, optionally stopped at a sink. A
search whose candidates' capacities from the probing vertex are all learned
reads its answer from the cache as one bitmask and probes nothing."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from .oracle import CutCache, Flow, OracleView, QueryInputError, canon, ids_of, mask_of


@dataclass
class BfsTree:
    root: int
    parent: dict[int, Optional[int]] = field(default_factory=dict)
    dist: dict[int, int] = field(default_factory=dict)

    def reached(self) -> tuple[int, ...]:
        return canon(self.dist)


def _candidate_mask(view: OracleView, B: Sequence[int]) -> int:
    """Bitmask of the candidates B, refusing one outside the view before
    any shift (a negative id cannot be shifted)."""
    if not view.universe.issuperset(B):
        raise QueryInputError("vertex outside the view universe")
    return mask_of(B)


def find_neighbor(
    cache: CutCache,
    view: OracleView,
    f: Optional[Flow],
    u: int,
    B: Sequence[int],
    mask: Optional[int] = None,
) -> Optional[int]:
    """Lowest-id vertex of B with a residual edge from u, or None. `mask`
    is the bitmask of B when the caller already holds it; a caller that
    passes it must also pass B sorted by increasing id, which is then used
    as given.

    When the capacities from u to every base vertex of B are learned, the
    answer is read from the cache (CutCache.learned_neighbors) and costs no
    BIS. Otherwise it costs one BIS when there is no neighbor, and
    1 + ceil(log2 |B|) BIS when there is one. The halving always splits at
    the sorted-id midpoint. When the lower half has no residual capacity,
    the upper half holds all of the current total, which is positive, so
    descending into it costs nothing extra. Raises QueryInputError when u
    or a vertex of B is outside the view.
    """
    if mask is None:
        B = sorted(B)
        mask = _candidate_mask(view, B)
    if u not in view.universe or mask | view.mask != view.mask:
        raise QueryInputError("vertex outside the view universe")
    if mask >> u & 1:
        raise QueryInputError("find_neighbor sets must be disjoint")
    cur = mask
    learned = cache.learned_neighbors(view, f, u, cur)
    if learned is not None:
        return (learned & -learned).bit_length() - 1 if learned else None
    if cache.residual_between(view, f, u, cur) <= 0:
        return None
    # cur is the bitmask of B[lo:hi]
    lo, hi = 0, len(B)
    while hi - lo > 1:
        mid = lo + (hi - lo + 1) // 2
        low = cur & ((1 << B[mid]) - 1)
        if cache.residual_between(view, f, u, low) > 0:
            cur, hi = low, mid
        else:
            cur, lo = cur ^ low, mid
    return B[lo]


def neighborhood(
    cache: CutCache,
    view: OracleView,
    f: Optional[Flow],
    u: int,
    candidates: Iterable[int],
    mask: Optional[int] = None,
) -> list[int]:
    """All residual neighbors of u among the candidates B, in increasing id
    order, by one adaptive halving. `mask` is the bitmask of the candidates
    when the caller already holds it; as in find_neighbor, a caller that
    passes it must also pass the candidates as a sequence sorted by
    increasing id, which is then used as given.

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
    teaches them. Raises QueryInputError when u or a candidate is outside
    the view."""
    if mask is None:
        B = sorted(candidates)
        mask = _candidate_mask(view, B)
    else:
        B = candidates
    if u not in view.universe or mask | view.mask != view.mask:
        raise QueryInputError("vertex outside the view universe")
    if mask >> u & 1:
        raise QueryInputError("neighborhood sets must be disjoint")
    learned = cache.learned_neighbors(view, f, u, mask)
    if learned is not None:
        return ids_of(learned) if learned else []
    return _group_test(cache, view, f, u, B, mask)


def _group_test(
    cache: CutCache, view: OracleView, f: Optional[Flow], u: int, B: Sequence[int], mask: int
) -> list[int]:
    """The probing half of neighborhood: the residual neighbors of u among
    the candidates B (sorted, with bitmask `mask`), by adaptive halving."""
    total = cache.residual_between(view, f, u, mask)
    if total <= 0:
        return []
    found: list[int] = []
    # blocks B[lo:hi] with bitmask cur and positive total; the low half is
    # pushed last, so it is split first and neighbors come out in order
    stack = [(0, len(B), mask, total)]
    while stack:
        lo, hi, cur, total = stack.pop()
        if hi - lo == 1:
            found.append(B[lo])
            continue
        mid = lo + (hi - lo + 1) // 2
        low = cur & ((1 << B[mid]) - 1)
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
    within: Optional[Iterable[int]] = None,
    sink: Optional[int] = None,
) -> BfsTree:
    """Layered BFS over the residual graph. Frontier vertices expand in
    (distance, id) order; `within` restricts the search to a candidate set,
    which must lie inside the view.

    Each frontier vertex u takes all its undiscovered residual neighbors
    at once: read from the learned pairs as one bitmask when they cover
    them (CutCache.learned_neighbors), else found by neighborhood's
    halving over the undiscovered vertices, listed in increasing order only
    then. With a `sink`, the search returns as soon as it discovers the
    sink: every layer below the sink's is then complete, and the sink's
    own layer holds only the vertices found so far."""
    if root not in view.universe:
        raise QueryInputError(f"root {root} outside the view universe")
    # the undiscovered vertices, as a bitmask
    if within is None:
        mask = view.mask ^ 1 << root
    else:
        within = set(within)
        within.discard(root)
        mask = _candidate_mask(view, within)
    tree = BfsTree(root=root, parent={root: None}, dist={root: 0})
    parent, dist = tree.parent, tree.dist
    frontier = [root]
    d = 0
    while frontier and mask:
        d += 1
        layer = 0
        for u in frontier:
            if not mask:
                break
            new = cache.learned_neighbors(view, f, u, mask)
            if new is None:
                found = _group_test(cache, view, f, u, ids_of(mask), mask)
                new = mask_of(found)
            elif new:
                found = ids_of(new)
            else:
                continue
            for v in found:
                parent[v] = u
                dist[v] = d
            mask ^= new
            layer |= new
            if sink is not None and new >> sink & 1:
                return tree
        frontier = ids_of(layer)
    return tree
