"""Kernels: the oracle's cut evaluation on per-vertex neighbour bitsets
(`cut_value`, which takes the vertex set as a bitmask; `ids_of` lists a
bitmask's vertices) and the exhaustive cut scans behind the reference
checkers and the witness graph, all read from one table of the cuts of every
subset of a vertex list, built by doubling (`subset_cuts`)."""

from __future__ import annotations

from ._pykern import (
    best_conductance_cut,
    cut_value,
    expansion_violation,
    ids_of,
    min_cut_scan,
    min_isolating,
    separation_violation,
    subset_cuts,
)

USING = "bitset"  # the cut-evaluation backend, as recorded in benchmark reports

__all__ = [
    "USING",
    "cut_value",
    "ids_of",
    "subset_cuts",
    "min_cut_scan",
    "separation_violation",
    "min_isolating",
    "expansion_violation",
    "best_conductance_cut",
]
