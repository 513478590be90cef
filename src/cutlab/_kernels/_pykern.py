"""Numpy fallbacks for the compiled kernels.

Semantics (including tie-breaking by lowest mask) match cutlab._core exactly;
the test suite cross-checks the two implementations on random instances.
"""

from __future__ import annotations

import numpy as np


def cut_value(indptr, indices, weights, mask):
    # every CSR entry (u, v) with u inside and v outside; `indices` holds one
    # padding slot when the graph has no edges, so slice it to indptr[-1]
    inside = mask.astype(bool)
    m2 = int(indptr[-1])
    crossing = np.repeat(inside, indptr[1:] - indptr[:-1]) & ~inside[indices[:m2]]
    return int(weights[:m2][crossing].sum())


def _all_masks(n):
    return np.arange(1, 1 << (n - 1), dtype=np.int64)


def _cuts_for_masks(masks, eu, ev, ew):
    cuts = np.zeros(masks.shape[0], dtype=np.int64)
    for u, v, w in zip(eu, ev, ew):
        cuts += (((masks >> int(u)) ^ (masks >> int(v))) & 1) * int(w)
    return cuts


def min_cut_scan(n, eu, ev, ew):
    masks = _all_masks(n)
    cuts = _cuts_for_masks(masks, eu, ev, ew)
    i = int(np.argmin(cuts))
    return int(cuts[i]), int(masks[i])


def separation_violation(n, eu, ev, ew, r_mask, c):
    masks = _all_masks(n)
    cuts = _cuts_for_masks(masks, eu, ev, ew)
    inter = masks & r_mask
    bad = (cuts <= c) & ((inter == 0) | (inter == r_mask))
    idx = np.nonzero(bad)[0]
    if idx.size == 0:
        return -1
    return int(masks[idx[0]])


def min_isolating(n, eu, ev, ew, r, forbidden_mask):
    free = [v for v in range(n) if v != r and not ((forbidden_mask >> v) & 1)]
    subs = np.arange(1 << len(free), dtype=np.int64)
    masks = np.full(subs.shape, np.int64(1) << r, dtype=np.int64)
    for b, v in enumerate(free):
        masks |= ((subs >> b) & 1) << v
    cuts = _cuts_for_masks(masks, eu, ev, ew)
    i = int(np.argmin(cuts))
    return int(cuts[i]), int(masks[i])


def expansion_violation(n, eu, ev, ew, core_mask, num, den):
    masks = _all_masks(n)
    cuts = _cuts_for_masks(masks, eu, ev, ew)
    inside = np.zeros(masks.shape[0], dtype=np.int64)
    core_size = 0
    for v in range(n):
        if (core_mask >> v) & 1:
            core_size += 1
            inside += (masks >> v) & 1
    small = np.minimum(inside, core_size - inside)
    bad = (small > 0) & (den * cuts < num * small)
    idx = np.nonzero(bad)[0]
    if idx.size == 0:
        return -1
    return int(masks[idx[0]])


def best_conductance_cut(n, eu, ev, ew):
    deg = np.zeros(n, dtype=np.int64)
    for u, v, w in zip(eu, ev, ew):
        deg[int(u)] += int(w)
        deg[int(v)] += int(w)
    masks = _all_masks(n)
    cuts = _cuts_for_masks(masks, eu, ev, ew)
    vol_in = np.zeros(masks.shape[0], dtype=np.int64)
    for v in range(n):
        vol_in += ((masks >> v) & 1) * int(deg[v])
    total = int(deg.sum())
    small = np.minimum(vol_in, total - vol_in)
    valid = np.nonzero(small > 0)[0]
    if valid.size == 0:
        return -1, -1, 0
    # Exact rational minimisation of cuts/small: repeatedly jump to the first
    # strictly-better mask, then take the first exact tie, which reproduces
    # the compiled loop's lowest-mask tie-break.
    cand = valid[0]
    while True:
        better = valid[cuts[valid] * small[cand] < cuts[cand] * small[valid]]
        if better.size == 0:
            break
        cand = better[0]
    ties = valid[cuts[valid] * small[cand] == cuts[cand] * small[valid]]
    cand = ties[0]
    return int(cuts[cand]), int(small[cand]), int(masks[cand])
