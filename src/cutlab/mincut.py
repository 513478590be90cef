"""Global minimum cut through the oracle: dominating-set terminals, the
splitter-driven unbalanced case, balanced-case terminal sparsification via
the expander decomposition, the threshold algorithm, and the binary-search
driver.

Key structural fact exploited throughout: in a simple graph a dominating set
is separated by every cut of size at most delta-1, so it can serve as the
terminal set for Steiner-style machinery while keeping every flow instance
at bounded value.

When the splitter family is the star {R0, Ri}, as under both shipped
profiles, the sweep grows its source (Hao–Orlin 1994): the i-th flow runs
from all of R[:i] to Ri. Take any cut of size <= tau that splits R and its
first terminal Ri on the far side from R0. Every earlier terminal lies on
R0's side, so the flow from R[:i] to Ri is at most the cut, and the sweep
finds a cut of size <= tau at step i or before. Each flow stops as soon as
it reaches tau+1, which certifies its step without a last, whole-graph BFS.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

from . import _kernels
from .config import DESK, Params
from .expander import decompose
from .isolating import isolating_cuts
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
# splitter families


@dataclass(frozen=True)
class SplitterFamily:
    n: int
    k: int
    sets: tuple[tuple[int, ...], ...]

    def hits_exactly_once(self, S: Iterable[int]) -> bool:
        s = set(S)
        return any(len(s & set(F)) == 1 for F in self.sets)


def _primes(count: int) -> list[int]:
    out: list[int] = []
    x = 2
    while len(out) < count:
        if all(x % p for p in out if p * p <= x):
            out.append(x)
        x += 1
    return out


def _prime_count(n: int, k: int) -> int:
    """How many primes the residue-class family over [n] needs for k."""
    return int(k * k / 2 * max(math.log2(n), 1.0)) + 1


def sweeps_star(n: int, k: int) -> bool:
    """True when the star {0, i} is the splitter family for (n, k): the
    residue-class family would list at least n-1 primes, each giving at
    least one set, so it is never smaller than the star's n-1 pairs. This
    holds whenever k >= n-1. The star hits every nonempty proper subset of
    [n] exactly once, so an empty star sweep certifies every trace."""
    return _prime_count(n, k) >= n - 1


def splitter_family(n: int, k: int) -> SplitterFamily:
    """Deterministic family of subsets of [n], each of size >= 2, such that
    every nonempty S with |S| <= k satisfies |S ∩ F| = 1 for some member F.

    The star of pairs {0, i} when `sweeps_star(n, k)`. Otherwise residue
    classes of enough primes shatter every small S somewhere; singleton
    residue classes are replaced by k+1 guard pairs so every member keeps
    size >= 2.
    """
    if k >= n:
        raise QueryInputError("splitter needs k < n")
    if k <= 0:
        return SplitterFamily(n, k, ())
    if sweeps_star(n, k):
        return SplitterFamily(n, k, tuple((0, i) for i in range(1, n)))
    found: set[tuple[int, ...]] = set()
    for p in _primes(_prime_count(n, k)):
        for a in range(min(p, n)):
            cls = tuple(range(a, n, p))
            if len(cls) >= 2:
                found.add(cls)
            elif len(cls) == 1:
                x = cls[0]
                guards = [y for y in range(n) if y != x][: k + 1]
                for y in guards:
                    found.add((x, y) if x < y else (y, x))
    return SplitterFamily(n, k, tuple(sorted(found)))


# ---------------------------------------------------------------------------
# threshold algorithm


@dataclass
class ThresholdResult:
    kind: str  # "cut" | "above"
    side: tuple[int, ...] = ()
    value: int = 0
    certificate: str = ""


def unbalanced_case(
    view: OracleView,
    R: Iterable[int],
    tau: int,
    params: Params = DESK,
    cache: Optional[CutCache] = None,
    k: Optional[int] = None,
) -> Optional[tuple[tuple[int, ...], int]]:
    """A cut of size <= tau that separates two terminals of R, as (side,
    value), or None when the sweep finds none.

    When the star is the splitter family (`sweeps_star`), the sweep grows
    its source, the source-growing step of Hao–Orlin (1994): for i = 1 ..
    |R|-1 it runs one flow from all of R[:i] to Ri, each terminal edge of
    capacity tau+1, stopped once the flow reaches tau+1, and returns the
    first flow of value <= tau with its min-cut source side. Any cut of
    size <= tau that splits R has a first terminal Ri on the far side from
    R0; all of R[:i] lies on R0's side, so the flow from R[:i] to Ri is at
    most that cut and the sweep stops at step i or earlier. The cut it
    returns need not isolate a terminal. Otherwise isolating cuts run over
    every set of the residue-class family; the first cut of size <= tau
    wins (the family order is deterministic)."""
    R = canon(R)
    if len(R) < 2:
        return None
    if cache is None:
        cache = CutCache(view.base_view)
    n = view.base_view.n
    if k is None:
        k = params.k_unbalanced(len(R), n)
    if sweeps_star(len(R), k):
        real = view.universe
        for i in range(1, len(R)):
            aug = AugmentedView(view, [(r, tau + 1) for r in R[:i]], [(R[i], tau + 1)])
            res = dinitz_maxflow(aug, aug.s_source, aug.s_sink, cache=cache, limit=tau + 1)
            if res.value <= tau:
                # a flow below tau+1 saturates no terminal edge, so its min
                # cut cuts res.value real edges between R[:i] and Ri
                return tuple(v for v in res.mincut_source_side if v in real), res.value
        return None
    family = splitter_family(len(R), k)
    for F in family.sets:
        terminals = tuple(R[i] for i in F)
        res = isolating_cuts(view, terminals, tau, cache=cache)
        if res.verdict == "found":
            return res.cut_side, res.cut_value
    return None


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
    """Decompose into almost-expanders; a part boundary of size <= tau is
    itself the wanted cut, otherwise the cores shrink R to a smaller set
    that small cuts still separate."""
    R = canon(R)
    if cache is None:
        cache = CutCache(view.base_view)
    parts = decompose(view, R, tau, params=params, cache=cache)
    full = view.universe_size
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
    params: Params = DESK,
    cache: Optional[CutCache] = None,
    R: Optional[tuple[int, ...]] = None,
) -> ThresholdResult:
    """Either a cut of size <= tau or the certificate that the global min
    cut exceeds tau. Requires tau <= delta - 1.

    Every cut of size <= tau splits R (a dominating set, or any set that
    such cuts split), so it suffices to find a cut of size <= tau between
    terminals of R. Each pass runs `unbalanced_case` over R. When it sweeps
    the star, an empty sweep certifies "above": a cut of size <= tau would
    have a first terminal Ri on the far side from R0, and the grown-source
    flow from R[:i] to Ri would have found it. Otherwise balanced
    sparsification shrinks R to at most half; if it cannot, the next pass
    sweeps the star over R. A cut from `unbalanced_case` carries the
    certificate `terminal_cut`, one from a part boundary `threshold_path`."""
    if cache is None:
        cache = CutCache(view.base_view)
    _, delta, _ = degrees(view, cache)
    if tau < 0 or tau >= delta:
        raise QueryInputError(f"tau must satisfy 0 <= tau <= delta-1 = {delta - 1}")
    if R is None:
        R = dominating_set(view, cache)
    R = canon(R)
    n = view.base_view.n
    k = params.k_unbalanced(len(R), n)
    while len(R) > 1:
        found = unbalanced_case(view, R, tau, params=params, cache=cache, k=k)
        if found is not None:
            side, value = found
            return ThresholdResult("cut", side=side, value=value, certificate="terminal_cut")
        if sweeps_star(len(R), k):
            # the grown-source sweep finds every cut of size <= tau that
            # splits R, so an empty sweep certifies the threshold outright
            return ThresholdResult("above")
        res = balanced_sparsify(view, R, tau, params=params, cache=cache)
        if res.kind == "cut":
            return ThresholdResult(
                "cut", side=res.side, value=res.value, certificate="threshold_path"
            )
        if 2 * len(res.terminals) > len(R):
            # sparsification stalled: sweep the star over R next
            k = len(R) - 1
        else:
            R = res.terminals
            k = params.k_unbalanced(len(R), n)
    # R is tau-separated and cannot be split, so no cut of size <= tau exists
    return ThresholdResult("above")


# ---------------------------------------------------------------------------
# global driver


@dataclass
class MinCutAnswer:
    value: int
    side: tuple[int, ...]
    certificate: str  # degree_cut | terminal_cut | threshold_path | disconnected
    cut_queries: int = 0  # charged base-graph queries
    bis_queries: int = 0  # residual probes issued (CutCache.logical_bis); learned reads issue none
    probes: int = 0


def global_mincut(
    view: BaseView,
    cache: Optional[CutCache] = None,
    params: Params = DESK,
) -> MinCutAnswer:
    """Binary search over the threshold algorithm. The top threshold
    delta-1 is probed first: failure there certifies the degree cut
    immediately. Each cut found, at the top or at a midpoint, bounds lambda
    from above, so it lowers the top of the search interval to its own
    value; the search ends at a found cut of value lambda. Refuses, before
    any charge, a view other than the base view, fewer than two vertices
    and a graph that is not a unit graph."""
    if view is not view.base_view:
        raise QueryInputError("global min cut runs on the base view only")
    if view.n < 2:
        raise QueryInputError("global min cut needs n >= 2")
    if not view.unit:
        # the dominating-set argument below holds for simple graphs only
        raise QueryInputError("global min cut needs unit edge capacities")
    if cache is None:
        cache = CutCache(view.base_view)
    ledger = view.ledger

    reached = bfs_tree(cache, view, None, view.vertices()[0]).reached()
    if reached != view.mask:
        return MinCutAnswer(
            0, tuple(ids_of(reached)), "disconnected", ledger.cut_count, cache.logical_bis, 0
        )

    _, delta, v_min = degrees(view, cache)
    probes = 0
    best: Optional[ThresholdResult] = None
    if delta >= 2:
        R = dominating_set(view, cache)
        top = delta - 1
        res = threshold_mincut(view, top, params=params, cache=cache, R=R)
        probes += 1
        if res.kind == "cut":
            best = res
            lo, hi = 1, res.value
            while lo < hi:
                mid = (lo + hi) // 2
                probe = threshold_mincut(view, mid, params=params, cache=cache, R=R)
                probes += 1
                if probe.kind == "cut":
                    hi = probe.value
                    best = probe
                else:
                    lo = mid + 1
    if best is None:
        return MinCutAnswer(
            delta, (v_min,), "degree_cut", ledger.cut_count, cache.logical_bis, probes
        )
    return MinCutAnswer(
        best.value,
        best.side,
        best.certificate,
        ledger.cut_count,
        cache.logical_bis,
        probes,
    )
