"""Deterministic minimum isolating cuts under a size threshold tau.

Terminals are encoded with bit vectors; each bit gives one bipartition (A,B)
of the terminal set, and each bipartition is solved as a bounded-capacity
flow instance (one virtual edge of capacity tau+1 per terminal).
Deleting all the resulting closest-cut boundaries splits the graph into
signature classes; the region of a surviving terminal is its component
inside its own class, and the final per-terminal min-cut runs on a view
contracting everything outside the region into a single vertex.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .maxflow import dinitz_maxflow
from .oracle import (
    AugmentedView,
    ContractedView,
    CutCache,
    OracleView,
    QueryInputError,
    canon,
    ids_of,
    mask_of,
)
from .primitives import bfs_tree


def bit_partitions(R: Iterable[int]) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """ceil(log2 |R|) bipartitions by bit position of each terminal's rank;
    every pair of terminals is separated by at least one of them."""
    R = canon(R)
    if len(R) < 2:
        raise QueryInputError("bit_partitions needs at least two terminals")
    bits = max(1, math.ceil(math.log2(len(R))))
    out = []
    for b in range(bits):
        A = tuple(r for i, r in enumerate(R) if not (i >> b) & 1)
        B = tuple(r for i, r in enumerate(R) if (i >> b) & 1)
        out.append((A, B))
    return out


@dataclass
class PartitionCut:
    source_side: tuple[int, ...]  # closest min-cut side restricted to the view
    saturated: tuple[int, ...]  # terminals whose virtual edge carries tau+1
    flow_value: int


def partition_mincut(
    view: OracleView,
    A: Iterable[int],
    B: Iterable[int],
    tau: int,
    cache: Optional[CutCache] = None,
) -> PartitionCut:
    """Closest min-cut of the (A,B) flow instance with terminal capacity
    tau+1, plus the set of saturated terminals."""
    A, B = canon(A), canon(B)
    if cache is None:
        cache = CutCache(view.base_view)
    aug = AugmentedView(
        view,
        [(a, tau + 1) for a in A],
        [(b, tau + 1) for b in B],
        scale=1,
    )
    res = dinitz_maxflow(aug, aug.s_source, aug.s_sink, cache=cache)
    side = tuple(v for v in res.mincut_source_side if v in view)
    saturated = []
    for a in A:
        if aug.bundle_flow(res.flow, a) == tau + 1:
            saturated.append(a)
    for b in B:
        if aug.bundle_flow(res.flow, b) == tau + 1:
            saturated.append(b)
    return PartitionCut(side, tuple(sorted(saturated)), res.value)


@dataclass
class TerminalRecord:
    terminal: int
    value: float  # cut capacity, or math.inf for terminals outside the core set
    side: Optional[tuple[int, ...]]


@dataclass
class IsolatingResult:
    records: list[TerminalRecord]
    verdict: str  # "found" | "all_exceed_tau"
    best_terminal: Optional[int] = None
    cut_value: Optional[int] = None
    cut_side: Optional[tuple[int, ...]] = None
    regions: dict[int, tuple[int, ...]] = field(default_factory=dict)


def isolating_cuts(
    view: OracleView,
    R: Iterable[int],
    tau: int,
    cache: Optional[CutCache] = None,
) -> IsolatingResult:
    """Minimum isolating cut of R when it has size at most tau, else the
    verdict that every isolating cut exceeds tau. Per-terminal records reuse
    the same computations at no extra query cost."""
    R = canon(R)
    if len(R) < 2:
        raise QueryInputError("isolating_cuts needs at least two terminals")
    if cache is None:
        cache = CutCache(view.base_view)

    partitions = bit_partitions(R)
    # each partition's closest min-cut side, as a bitmask
    sides: list[int] = []
    ever_saturated: set[int] = set()
    for A, B in partitions:
        pc = partition_mincut(view, A, B, tau, cache=cache)
        sides.append(mask_of(pc.source_side))
        ever_saturated.update(pc.saturated)

    def on_own_side(r: int) -> bool:
        return all((r in A) == bool(side >> r & 1) for (A, _B), side in zip(partitions, sides))

    core_terminals = [
        r for r in R if r not in ever_saturated and on_own_side(r)
    ]

    everyone = view.mask

    def signature_class(r: int) -> int:
        """Bitmask of the vertices on r's side of every partition's cut."""
        cls = everyone
        for side in sides:
            cls &= side if side >> r & 1 else ~side
        return cls

    r_mask = mask_of(R)
    records: list[TerminalRecord] = []
    regions: dict[int, tuple[int, ...]] = {}
    best: Optional[TerminalRecord] = None
    for r in R:
        if r not in core_terminals:
            records.append(TerminalRecord(r, math.inf, None))
            continue
        # region of r: its component inside its signature class; the deleted
        # cut boundaries are exactly the edges between distinct classes, so
        # a class-restricted BFS explores the surviving graph for free
        region = bfs_tree(cache, view, None, r, within=signature_class(r)).reached()
        regions[r] = tuple(ids_of(region))
        keep_mask = (region & ~r_mask) | 1 << r
        keep = tuple(ids_of(keep_mask))
        # each kept vertex's capacity to the outside, which s_r contracts
        outside = everyone & ~keep_mask
        w_out = {x: cache.residual_between(view, None, x, outside) for x in keep}
        # r's own edges to the outside are counted directly, not in the flow
        direct = w_out[r]
        w_out[r] = 0
        lam: float
        if len(keep) == 1:
            lam = direct
            side = (r,)
        else:
            cv = ContractedView(view, keep, w_out)
            local = dinitz_maxflow(cv, r, cv.s_r, cache=cache)
            lam = direct + local.value
            side = local.mincut_source_side
        rec = TerminalRecord(r, lam, side)
        records.append(rec)
        if rec.value <= tau and (best is None or rec.value < best.value):
            best = rec
    if best is None:
        return IsolatingResult(records, "all_exceed_tau", regions=regions)
    return IsolatingResult(
        records,
        "found",
        best_terminal=best.terminal,
        cut_value=int(best.value),
        cut_side=best.side,
        regions=regions,
    )
