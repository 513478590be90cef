"""Global minimum cut through the oracle: dominating-set terminals, the
splitter-driven unbalanced case, balanced-case terminal sparsification via
the expander decomposition, the threshold algorithm, and the binary-search
driver.

Key structural fact exploited throughout: in a simple graph a dominating set
is separated by every cut of size at most delta-1, so it can serve as the
terminal set for Steiner-style machinery while keeping every flow instance
at bounded value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

from . import _kernels
from .config import DESK, Params
from .expander import decompose
from .isolating import isolating_cuts
from .oracle import (
    CutCache,
    GraphInstance,
    OracleView,
    QueryInputError,
    canon,
    ids_of,
    mask_of,
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
        found = neighborhood(cache, view, None, w, ids_of(candidates), candidates)
        alive &= ~mask_of(found)

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


def splitter_family(n: int, k: int) -> SplitterFamily:
    """Deterministic family of subsets of [n], each of size >= 2, such that
    every nonempty S with |S| <= k satisfies |S ∩ F| = 1 for some member F.

    For k >= n-1 the star of pairs {0, i} suffices. Otherwise residue
    classes of enough primes shatter every small S somewhere; singleton
    residue classes are replaced by k+1 guard pairs so every member keeps
    size >= 2.
    """
    if k >= n:
        raise QueryInputError("splitter needs k < n")
    if k <= 0:
        return SplitterFamily(n, k, ())
    found: set[tuple[int, ...]] = set()
    if k >= n - 1:
        for i in range(1, n):
            found.add((0, i))
    else:
        count = int(k * k / 2 * max(math.log2(n), 1.0)) + 1
        for p in _primes(count):
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
    """Isolating cuts over every splitter set; first cut of size <= tau wins
    (the family order is deterministic)."""
    R = canon(R)
    if len(R) < 2:
        return None
    if cache is None:
        cache = CutCache(view.base_view)
    n = view.base_view.n
    if k is None:
        k = params.k_unbalanced(len(R), n)
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
    n = view.base_view.n
    phi = params.phi_for(n)
    parts = decompose(view, R, tau, params=params, cache=cache, phi=phi)
    full = view.universe_size
    for part in parts:
        if len(part.vertices) == full:
            continue
        boundary = cache.cut(view, part.vertices)
        if boundary <= tau:
            return SparsifyResult("cut", side=part.vertices, value=boundary)
    small_limit = (1.0 / phi) ** 2
    large_pick = 1 + math.ceil(1.0 / phi)
    chosen: set[int] = set()
    for part in parts:
        core = part.core
        chosen.update(r for r in part.terminals if r not in set(core))
        if not core:
            continue
        if len(core) <= small_limit:
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
    cut exceeds tau. Requires tau <= delta - 1."""
    if cache is None:
        cache = CutCache(view.base_view)
    _, delta, _ = degrees(view, cache)
    if tau < 0 or tau >= delta:
        raise QueryInputError(f"tau must satisfy 0 <= tau <= delta-1 = {delta - 1}")
    if R is None:
        R = dominating_set(view, cache)
    R = canon(R)
    n = view.base_view.n
    max_iters = math.ceil(math.log2(max(len(R), 2))) + 1
    for _ in range(max_iters):
        if len(R) <= 1:
            # R is tau-separated and cannot be split, so no cut of size
            # <= tau exists
            return ThresholdResult("above")
        k = params.k_unbalanced(len(R), n)
        found = unbalanced_case(view, R, tau, params=params, cache=cache, k=k)
        if found is not None:
            side, value = found
            return ThresholdResult("cut", side=side, value=value, certificate="isolating_cut")
        if k >= len(R) - 1:
            # the capped splitter family already hits every proper trace of
            # R, so an unsuccessful sweep certifies the threshold outright
            return ThresholdResult("above")
        res = balanced_sparsify(view, R, tau, params=params, cache=cache)
        if res.kind == "cut":
            return ThresholdResult(
                "cut", side=res.side, value=res.value, certificate="threshold_path"
            )
        if len(res.terminals) > params.zeta * len(R):
            return _exhaustive_threshold(view, R, tau, params, cache)
        R = res.terminals
    return _exhaustive_threshold(view, R, tau, params, cache)


def _exhaustive_threshold(view, R, tau, params, cache) -> ThresholdResult:
    """Correctness-preserving fallback: full coverage with k = |R|-1. Every
    cut of size <= tau separating R leaves a nonempty proper trace on R,
    and the fallback family hits it."""
    found = unbalanced_case(view, R, tau, params=params, cache=cache, k=len(R) - 1)
    if found is not None:
        side, value = found
        return ThresholdResult("cut", side=side, value=value, certificate="isolating_cut")
    return ThresholdResult("above")


# ---------------------------------------------------------------------------
# global driver


@dataclass
class MinCutAnswer:
    value: int
    side: tuple[int, ...]
    certificate: str  # degree_cut | isolating_cut | threshold_path | disconnected
    cut_queries: int = 0  # charged base-graph queries
    bis_queries: int = 0  # residual probes issued (CutCache.logical_bis); learned reads issue none
    probes: int = 0


def global_mincut(
    view: OracleView,
    cache: Optional[CutCache] = None,
    params: Params = DESK,
) -> MinCutAnswer:
    """Binary search over the threshold algorithm. The top threshold
    delta-1 is probed first: failure there certifies the degree cut
    immediately, success pins the search interval."""
    n = view.universe_size
    if n < 2:
        raise QueryInputError("global min cut needs n >= 2")
    if not view.unit_real_capacities():
        # the dominating-set argument below holds for simple graphs only
        raise QueryInputError("global min cut needs unit edge capacities")
    if cache is None:
        cache = CutCache(view.base_view)
    ledger = view.ledger

    tree = bfs_tree(cache, view, None, view.vertices()[0])
    if len(tree.dist) < n:
        side = tree.reached()
        return MinCutAnswer(
            0, side, "disconnected", ledger.cut_count, cache.logical_bis, 0
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
            lo, hi = 1, top
            while lo < hi:
                mid = (lo + hi) // 2
                probe = threshold_mincut(view, mid, params=params, cache=cache, R=R)
                probes += 1
                if probe.kind == "cut":
                    hi = mid
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
