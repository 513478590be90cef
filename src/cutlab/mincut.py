"""Global minimum cut through the oracle: dominating-set terminals and one
grown-source threshold sweep. The paper's balanced-case primitive, terminal
sparsification via the expander decomposition, stays here as
`balanced_sparsify`; the min-cut path does not call it.

Key structural fact exploited throughout: in a simple graph a dominating set
is separated by every cut of size at most delta-1, so it can serve as the
terminal set for Steiner-style machinery while keeping every flow instance
at bounded value.

The threshold step is one sweep that grows its source (Hao–Orlin 1994): the
i-th flow runs from all of R[:i] to Ri. Take any cut that splits R and its
first terminal Ri on the far side from R0. Every earlier terminal lies on
R0's side, so the flow from R[:i] to Ri is at most the cut: the least flow
of the sweep is the minimum cut that splits R. Each flow stops as soon as it
reaches the least cut found so far (tau+1 before the first), which certifies
its step without a last, whole-graph BFS. At tau = delta-1 the one sweep
therefore finds the global minimum cut, or certifies the degree cut.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

from . import _kernels
from .config import DESK, Params
from .expander import decompose
from .maxflow import dinitz_maxflow
from .oracle import (
    AugmentedView,
    BaseView,
    CutCache,
    GraphInstance,
    OracleView,
    QueryInputError,
    canon,
    ids_of,
)
from .primitives import bfs_tree, neighborhood


def degrees(view: OracleView, cache: CutCache) -> tuple[dict[int, int], int, int]:
    """All singleton cuts (cached after the first call), the minimum degree,
    and the lowest-id vertex attaining it."""
    deg = {v: cache.cut(view, (v,)) for v in view.vertices()}
    delta = min(deg.values())
    v_min = min(v for v, d in deg.items() if d == delta)
    return deg, delta, v_min


# ---------------------------------------------------------------------------
# dominating set


def dominating_set(view: OracleView, cache: Optional[CutCache] = None) -> tuple[int, ...]:
    """Two-phase construction. Reduction rule: any vertex whose remaining
    degree exceeds delta/2 joins R and its closed neighborhood is deleted.
    Afterwards, binary search over W1 = N(R) repeatedly extracts a vertex
    with at least average connectivity into the remainder."""
    if cache is None:
        cache = CutCache(view.base_view)
    verts = view.vertices()
    everyone = view.mask
    deg, delta, _ = degrees(view, cache)
    # vertices not yet deleted, and the members of R, as bitmasks
    alive = everyone
    in_R = 0
    R: list[int] = []

    def take(w: int, candidates: int) -> None:
        """Put w in R, and delete it and its neighbors among the bitmask
        `candidates` of live vertices."""
        nonlocal alive, in_R
        R.append(w)
        in_R |= 1 << w
        alive &= ~(1 << w)
        alive &= ~neighborhood(cache, view, None, w, candidates)

    for w in verts:
        if not alive >> w & 1:
            continue
        if alive == everyone:
            dw = deg[w]
        else:
            rest = ids_of(alive & ~(1 << w))
            dw = cache.pair_capacity(view, (w,), rest) if rest else 0
        if 2 * dw > delta:
            take(w, alive & ~(1 << w))

    while alive:
        W1 = ids_of(everyone & ~alive & ~in_R)  # deleted, but not in R
        W2 = ids_of(alive)
        total = cache.pair_capacity(view, W1, W2) if W1 else 0
        if total <= 0:
            # only reachable when delta = 0 (isolated remainder)
            take(W2[0], alive & ~(1 << W2[0]))
            continue
        cur, cur_val = W1, total
        while len(cur) > 1:
            mid = (len(cur) + 1) // 2
            low = cur[:mid]
            low_val = cache.pair_capacity(view, low, W2)
            if low_val * len(cur) >= cur_val * len(low):
                cur, cur_val = low, low_val
            else:
                cur, cur_val = cur[mid:], cur_val - low_val
        take(cur[0], alive)
    return canon(R)


# ---------------------------------------------------------------------------
# separation (test-only ground truth; bypasses the oracle)


def separation_check(instance: GraphInstance, R: Iterable[int], c: int) -> bool:
    """True iff every cut of size <= c has R on both sides, by exhaustive
    enumeration of the explicit hidden graph. Requires n <= 18."""
    if instance.n > 18:
        raise QueryInputError("exhaustive separation check requires n <= 18")
    if instance.n < 2:
        return True
    r_mask = 0
    for r in R:
        if not (0 <= r < instance.n):
            raise QueryInputError(f"terminal {r} out of range")
        r_mask |= 1 << r
    eu, ev, ew = instance.edge_arrays()
    return _kernels.separation_violation(instance.n, eu, ev, ew, r_mask, c) == -1


# ---------------------------------------------------------------------------
# threshold algorithm


@dataclass
class ThresholdResult:
    kind: str  # "cut" | "above"
    side: tuple[int, ...] = ()
    value: int = 0


def unbalanced_case(
    view: OracleView,
    R: Iterable[int],
    tau: int,
    cache: Optional[CutCache] = None,
) -> Optional[tuple[tuple[int, ...], int]]:
    """The minimum cut that separates two terminals of R, as (side, value),
    when it is at most tau; None when every such cut exceeds tau.

    The sweep grows its source, the source-growing step of Hao–Orlin
    (1994): for i = 1 .. |R|-1 it runs one flow from all of R[:i] to Ri.
    Each terminal edge has capacity `bound`, the least cut found so far
    (tau+1 before the first), and the flow stops once it reaches `bound`.
    A flow below `bound` is a new least cut, with its min-cut source side,
    and lowers `bound` to its value. The minimum cut that splits R has a
    first terminal Ri on the far side from R0; all of R[:i] lies on R0's
    side, so the flow from R[:i] to Ri is at most that cut, and the sweep
    has found it once step i is done. The cut it returns need not isolate
    a terminal."""
    R = canon(R)
    if cache is None:
        cache = CutCache(view.base_view)
    found = None
    bound = tau + 1
    for i in range(1, len(R)):
        aug = AugmentedView(view, [(r, bound) for r in R[:i]], [(R[i], bound)])
        res = dinitz_maxflow(aug, aug.s_source, aug.s_sink, cache=cache, limit=bound)
        if res.value < bound:
            # a flow below bound saturates no terminal edge, so its min cut
            # cuts res.value real edges between R[:i] and Ri
            found = tuple(v for v in res.mincut_source_side if v in view), res.value
            bound = res.value
            if not bound:
                # no cut is below 0, and a terminal edge needs capacity >= 1
                break
    return found


@dataclass
class SparsifyResult:
    kind: str  # "cut" | "sparsified"
    side: tuple[int, ...] = ()
    value: int = 0
    terminals: tuple[int, ...] = ()


def balanced_sparsify(
    view: OracleView,
    R: Iterable[int],
    tau: int,
    params: Params = DESK,
    cache: Optional[CutCache] = None,
) -> SparsifyResult:
    """The paper's balanced-case primitive, kept as a standalone function:
    the min-cut path does not call it, since the grown-source sweep settles
    every threshold on its own. Decompose into almost-expanders; a part
    boundary of size <= tau is itself the wanted cut, otherwise the cores
    shrink R to a smaller set that small cuts still separate."""
    R = canon(R)
    if cache is None:
        cache = CutCache(view.base_view)
    parts = decompose(view, R, tau, params=params, cache=cache)
    full = view.mask.bit_count()
    for part in parts:
        if len(part.vertices) == full:
            continue
        boundary = cache.cut(view, part.vertices)
        if boundary <= tau:
            return SparsifyResult("cut", side=part.vertices, value=boundary)
    large_pick = 1 + math.ceil(1.0 / params.phi_for(view.base_view.n))
    chosen: set[int] = set()
    for part in parts:
        core = part.core
        chosen.update(r for r in part.terminals if r not in set(core))
        if not core:
            continue
        if part.classification == "small":
            chosen.add(core[0])
        else:
            chosen.update(core[:large_pick])
    return SparsifyResult("sparsified", terminals=canon(chosen))


def threshold_mincut(
    view: OracleView,
    tau: int,
    cache: Optional[CutCache] = None,
    R: Optional[tuple[int, ...]] = None,
) -> ThresholdResult:
    """The minimum cut splitting R when it is at most tau, else the
    certificate that the global min cut exceeds tau. Requires
    tau <= delta - 1.

    R is the dominating set (computed when not given) or any set that every
    cut of size <= tau splits, so such a cut is also the global minimum
    cut: one `unbalanced_case` sweep over R finds it, and an empty sweep
    answers "above". Raises QueryInputError for a tau that is not an int
    >= 0 before any charge, and for a tau >= delta."""
    if not isinstance(tau, int) or tau < 0:
        raise QueryInputError(f"tau must be an int >= 0, got {tau!r}")
    if cache is None:
        cache = CutCache(view.base_view)
    _, delta, _ = degrees(view, cache)
    if tau >= delta:
        raise QueryInputError(f"tau must satisfy 0 <= tau <= delta-1 = {delta - 1}")
    if R is None:
        R = dominating_set(view, cache)
    found = unbalanced_case(view, R, tau, cache=cache)
    if found is None:
        return ThresholdResult("above")
    side, value = found
    return ThresholdResult("cut", side=side, value=value)


# ---------------------------------------------------------------------------
# global driver


@dataclass
class MinCutAnswer:
    value: int
    side: tuple[int, ...]
    certificate: str  # degree_cut | terminal_cut | disconnected


def global_mincut(view: BaseView, cache: Optional[CutCache] = None) -> MinCutAnswer:
    """The threshold algorithm at tau = delta-1, run once: its sweep finds
    the minimum cut that splits the dominating set when that cut is below
    delta, which is then the global minimum cut, and "above" certifies the
    degree cut. Refuses, before any charge, a view other than the base
    view, fewer than two vertices and a graph that is not a unit graph."""
    if view is not view.base_view:
        raise QueryInputError("global min cut runs on the base view only")
    if view.n < 2:
        raise QueryInputError("global min cut needs n >= 2")
    if not view.unit:
        # the dominating-set argument below holds for simple graphs only
        raise QueryInputError("global min cut needs unit edge capacities")
    if cache is None:
        cache = CutCache(view.base_view)

    reached = bfs_tree(cache, view, None, view.vertices()[0]).reached()
    if reached != view.mask:
        return MinCutAnswer(0, tuple(ids_of(reached)), "disconnected")

    _, delta, v_min = degrees(view, cache)
    if delta >= 2:
        R = dominating_set(view, cache)
        res = threshold_mincut(view, delta - 1, cache=cache, R=R)
        if res.kind == "cut":
            return MinCutAnswer(res.value, res.side, "terminal_cut")
    return MinCutAnswer(delta, (v_min,), "degree_cut")
