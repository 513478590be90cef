"""The oracle's cut evaluation on neighbour bitsets, and the exhaustive
numpy cut scans behind the reference checkers (ties go to the lowest mask).
"""

from __future__ import annotations

from itertools import compress

import numpy as np


_BYTE_BITS = tuple(tuple(p for p in range(8) if b >> p & 1) for b in range(256))


def ids_of(mask):
    """The vertices of a bitmask, in increasing order."""
    out = []
    base = 0
    for byte in mask.to_bytes((mask.bit_length() + 7) // 8, "little"):
        if byte:
            for p in _BYTE_BITS[byte]:
                out.append(base + p)
        base += 8
    return out


# bin() digits to selector bytes for itertools.compress
_DIGIT_TO_BYTE = bytes.maketrans(b"01", b"\x00\x01")


def cut_value(planes, n, inside):
    """Capacity of the edges between the vertex set S and the rest, where
    `inside` is the bitmask of S (bit v set for every v in S).

    `planes` holds (k, rows) pairs: rows[v] is the bitset of the neighbours
    of v joined by an edge whose capacity has bit k set. The sum runs over
    the smaller side T of the cut (S itself on a tie):
    cut = sum_k 2^k sum_{v in T} popcount(rows_k[v] & (V - T)). Raises
    IndexError unless `inside` is a Python int in [0, 2^n)."""
    if type(inside) is not int or inside >> n:
        raise IndexError(f"vertex set must be a bitmask of ids in [0, {n})")
    everyone = (1 << n) - 1
    size = inside.bit_count()
    if 2 * size > n:
        inside ^= everyone
        size = n - size
    outside = inside ^ everyone  # nonnegative, so & takes CPython's fast path
    total = 0
    if 8 * size < n:
        # listing a small side costs less than scanning all n digits
        side = ids_of(inside)
        for k, rows in planes:
            total += sum([(rows[v] & outside).bit_count() for v in side]) << k
    else:
        # select T's rows in C from its binary digits, lowest vertex first
        picks = bin(inside)[:1:-1].encode().translate(_DIGIT_TO_BYTE)
        for k, rows in planes:
            total += sum([(r & outside).bit_count() for r in compress(rows, picks)]) << k
    return total


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
    # strictly-better mask, then take the first exact tie, which is the
    # lowest-mask tie-break.
    cand = valid[0]
    while True:
        better = valid[cuts[valid] * small[cand] < cuts[cand] * small[valid]]
        if better.size == 0:
            break
        cand = better[0]
    ties = valid[cuts[valid] * small[cand] == cuts[cand] * small[valid]]
    cand = ties[0]
    return int(cuts[cand]), int(small[cand]), int(masks[cand])
