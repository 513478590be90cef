"""Kernels: the oracle's cut evaluation on per-vertex neighbour bitsets
(`cut_value`, which takes the vertex set as a bitmask; `ids_of` lists a
bitmask's vertices) and the exhaustive numpy cut scans behind the reference
checkers."""

from __future__ import annotations

from ._pykern import (
    best_conductance_cut,
    cut_value,
    expansion_violation,
    ids_of,
    min_cut_scan,
    min_isolating,
    separation_violation,
)

USING = "bitset"  # the cut-evaluation backend, as recorded in benchmark reports

__all__ = [
    "USING",
    "cut_value",
    "ids_of",
    "min_cut_scan",
    "separation_violation",
    "min_isolating",
    "expansion_violation",
    "best_conductance_cut",
]
