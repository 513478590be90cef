"""Kernels: the oracle's cut evaluation on per-vertex neighbour bitsets
(`cut_value`, which takes the vertex set as a bitmask; `ids_of` lists a
bitmask's vertices) and the exhaustive cut scans behind the reference
checkers and the witness graph, all read from one table of the cuts of every
subset of a vertex list, built by doubling (`subset_cuts`; ties go to the
lowest mask)."""

from __future__ import annotations

from itertools import compress

import numpy as np

USING = "bitset"  # the cut-evaluation backend, as recorded in benchmark reports


_BYTE_BITS = tuple(tuple(p for p in range(8) if b >> p & 1) for b in range(256))


def ids_of(mask):
    """The vertices of a bitmask, in increasing order. A sparse mask (about
    one set bit per 64 positions or fewer, past two) is listed bit by bit, a
    denser one byte by byte, so the cost follows the count of set bits or
    of bytes, whichever is lower."""
    out = []
    if 64 * mask.bit_count() < mask.bit_length() + 128:
        while mask:
            low = mask & -mask
            out.append(low.bit_length() - 1)
            mask ^= low
        return out
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


def _bits(mask, n):
    """The 0/1 membership vector of a bitmask over vertices 0 .. n-1."""
    return np.array([(mask >> v) & 1 for v in range(n)], dtype=np.int64)


def weight_matrix(n, eu, ev, ew):
    """The n x n int64 weight matrix of an edge list, both directions."""
    W = np.zeros((n, n), dtype=np.int64)
    np.add.at(W, (eu, ev), ew)
    np.add.at(W, (ev, eu), ew)
    return W


def _subset_sums(first, steps, out):
    """Fill out[m] = first + the sum of steps[j] over the bits j of m, for
    every m < 2^len(steps), by doubling; returns that prefix of out."""
    out[0] = first
    h = 1
    for step in steps:
        np.add(out[:h], step, out=out[h : 2 * h])
        h *= 2
    return out[:h]


def subset_cuts(n, eu, ev, ew, order, base=0):
    """cuts[m] = the cut of base | {order[j] : bit j of m} for every
    m < 2^len(order), in binary-counting order; `base` is a bitmask of
    vertices outside `order`.

    Built by doubling: adding order[j] to a set of base | order[:j] adds
    deg_j - 2 w_j[m] to its cut, where w_j[m], the weight from order[j] into
    that set, is itself a doubling sum. O(2^len(order)) element work; every
    value is exact in int64 while the total capacity is below 2^62."""
    order = np.asarray(order, dtype=np.intp)
    W = weight_matrix(n, eu, ev, ew)
    deg = W.sum(axis=1)
    in_base = _bits(base, n)
    into_base = W @ in_base
    cuts = np.empty(1 << order.size, dtype=np.int64)
    cuts[0] = deg @ in_base - in_base @ into_base
    step = np.empty(max(1, cuts.size // 2), dtype=np.int64)
    h = 1
    for j, v in enumerate(order):
        # deg_j - 2 w_j is summed as one term, so it stays within +-deg_j
        _subset_sums(deg[v] - 2 * into_base[v], -2 * W[v, order[:j]], step)
        np.add(cuts[:h], step[:h], out=cuts[h : 2 * h])
        h *= 2
    return cuts


# The scans below read every mask 1 .. 2^(n-1) - 1 (vertex n-1 on the
# outside), in increasing order: entry i is the mask i + 1.


def _all_mask_cuts(n, eu, ev, ew):
    return subset_cuts(n, eu, ev, ew, range(n - 1))[1:]


def _all_mask_sums(values):
    steps = values[:-1]
    return _subset_sums(0, steps, np.empty(1 << len(steps), dtype=np.int64))[1:]


def _first_mask(bad):
    """The lowest mask whose entry of `bad` is set, or -1."""
    idx = np.flatnonzero(bad)
    return int(idx[0]) + 1 if idx.size else -1


def min_cut_scan(n, eu, ev, ew):
    cuts = _all_mask_cuts(n, eu, ev, ew)
    i = int(np.argmin(cuts))
    return int(cuts[i]), i + 1


def separation_violation(n, eu, ev, ew, r_mask, c):
    cuts = _all_mask_cuts(n, eu, ev, ew)
    inter = _all_mask_sums(_bits(r_mask, n))
    return _first_mask((cuts <= c) & ((inter == 0) | (inter == r_mask.bit_count())))


def min_isolating(n, eu, ev, ew, r, forbidden_mask):
    free = [v for v in range(n) if v != r and not ((forbidden_mask >> v) & 1)]
    cuts = subset_cuts(n, eu, ev, ew, free, base=1 << r)
    i = int(np.argmin(cuts))
    mask = 1 << r
    for b, v in enumerate(free):
        mask |= (i >> b & 1) << v
    return int(cuts[i]), mask


def expansion_violation(n, eu, ev, ew, core_mask, num, den):
    cuts = _all_mask_cuts(n, eu, ev, ew)
    core = _bits(core_mask, n)
    inside = _all_mask_sums(core)
    small = np.minimum(inside, int(core.sum()) - inside)
    return _first_mask((small > 0) & (den * cuts < num * small))


def best_conductance_cut(n, eu, ev, ew):
    deg = weight_matrix(n, eu, ev, ew).sum(axis=1)
    vol_in = _all_mask_sums(deg)
    small = np.minimum(vol_in, int(deg.sum()) - vol_in)
    valid = np.nonzero(small > 0)[0]
    if valid.size == 0:
        return -1, -1, 0
    cuts = _all_mask_cuts(n, eu, ev, ew)[valid]
    small = small[valid]
    # Every exact minimum of cuts/small has a float ratio within rounding of
    # the least one, so the exact search below runs on those masks alone.
    ratio = cuts / small
    near = np.nonzero(ratio <= ratio.min() * (1 + 1e-9))[0]
    # Exact rational minimisation of cuts/small: repeatedly jump to the first
    # strictly-better mask, then take the first exact tie, which is the
    # lowest-mask tie-break.
    cand = near[0]
    while True:
        better = near[cuts[near] * small[cand] < cuts[cand] * small[near]]
        if better.size == 0:
            break
        cand = better[0]
    ties = near[cuts[near] * small[cand] == cuts[cand] * small[near]]
    cand = ties[0]
    return int(cuts[cand]), int(small[cand]), int(valid[cand]) + 1
