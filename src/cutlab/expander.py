"""Cut-matching-game expander decomposition in the cut-query model.

The cut player works on the explicit witness multigraph X and spends no
queries: exhaustive minimum-crossing bisection up to a size limit, then a
deterministic spectral bisection. The matching player embeds perfect
(tau+1)-matchings through bounded-capacity flow instances on the oracle;
short matchings are completed with fake edges that expander pruning charges
back later. One step either finds a balanced sparse cut or certifies a core
of terminals; the decomposition recurses on induced sub-views, which answer
through their parent's linear forms.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

from . import _kernels
from .config import DESK, Params
from .maxflow import dinitz_maxflow, path_decomposition
from .oracle import (
    AugmentedView,
    ContractViolation,
    CutCache,
    InducedView,
    OracleView,
    QueryInputError,
    canon,
    check_tau,
)

# Slot counts up to which the witness graph is searched exhaustively: the
# cut player's bisection, pruning's conductance cut and the expansion check.
# An exhaustive scan over k slots holds tables of 2^(k-1) int64 entries,
# 4 MiB each at k = 20.
CUT_PLAYER_EXACT_LIMIT = 20
PRUNE_EXACT_LIMIT = 18
WITNESS_CHECK_LIMIT = 18


# ---------------------------------------------------------------------------
# witness graph


def _pair(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


@dataclass
class WitnessGraph:
    """Union of the per-round matchings, with fake edges tracked separately.
    Every slot has degree exactly b per completed round, counting fakes."""

    slots: tuple[int, ...]
    b: int
    edges: Counter = field(default_factory=Counter)
    fake: Counter = field(default_factory=Counter)
    rounds: int = 0

    def add_round(self, matching: Counter, fakes: Counter) -> None:
        """Add one round's matching and fake edges. Raises QueryInputError
        for an edge with an end outside the slots and for a slot whose
        degree in the round is not b."""
        deg: Counter = Counter()
        for (u, v), c in itertools.chain(matching.items(), fakes.items()):
            deg[u] += c
            deg[v] += c
        outside = deg.keys() - set(self.slots)
        if outside:
            raise QueryInputError(f"round edges leave the slots at {sorted(outside)}")
        for s in self.slots:
            if deg[s] != self.b:
                raise QueryInputError(
                    f"round degree of slot {s} is {deg[s]}, expected {self.b}"
                )
        self.edges.update(matching)
        self.fake.update(fakes)
        self.rounds += 1

    def combined(self) -> Counter:
        out = Counter(self.edges)
        out.update(self.fake)
        return out

    def matrix(self, edges: Counter) -> np.ndarray:
        """The weight matrix of `edges`, pairs of slots, over the slots'
        positions in `slots`."""
        pos = {s: i for i, s in enumerate(self.slots)}
        return _kernels.weight_matrix(
            len(self.slots), {(pos[u], pos[v]): c for (u, v), c in edges.items()}
        )

    def sparsity_at_least(self, threshold: int) -> bool:
        """Exhaustive check that every cut of X (fakes included) has at least
        threshold * min(|S|, |S̄|) crossing edges. Only for small X."""
        k = len(self.slots)
        if k < 2:
            return True
        W = self.matrix(self.combined())
        return _kernels.expansion_violation(W, (1 << k) - 1, threshold, 1) == -1


# ---------------------------------------------------------------------------
# cut player


@functools.cache
def bisection_table(k: int) -> np.ndarray:
    """Read-only boolean table of every bisection of k slots with slot 0 on
    side A: row i marks side A of the i-th combination of the other k/2 - 1
    members, in itertools.combinations order. Built once per k."""
    rows = math.comb(k - 1, k // 2 - 1)
    members = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(1, k), k // 2 - 1)),
        dtype=np.intp,
        count=rows * (k // 2 - 1),
    ).reshape(rows, k // 2 - 1)
    table = np.zeros((rows, k), dtype=bool)
    table[:, 0] = True
    table[np.arange(rows)[:, None], members] = True
    table.flags.writeable = False
    return table


@functools.cache
def _bisection_masks(k: int) -> np.ndarray:
    """Read-only index of each row of bisection_table(k) into the table of
    cuts of the masks over slots 0 .. k-2: the row's side-A mask, or its
    complement when side A holds slot k-1 (both sides cross equally)."""
    M = bisection_table(k)
    masks = np.zeros(M.shape[0], dtype=np.int64)
    for i in range(k):
        masks[M[:, i]] |= 1 << i
    masks[M[:, k - 1]] ^= (1 << k) - 1
    masks.flags.writeable = False
    return masks


def cut_player(X: WitnessGraph) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Bisection of the witness slots: the exact minimum-crossing bisection
    by exhaustive search up to CUT_PLAYER_EXACT_LIMIT slots, else a
    deterministic spectral split. Costs zero queries (X is explicit)."""
    slots = X.slots
    k = len(slots)
    if k < 2 or k % 2:
        raise QueryInputError("cut player needs an even number of slots")
    W = X.matrix(X.combined())
    if k <= CUT_PLAYER_EXACT_LIMIT:
        cuts = _kernels.subset_cuts(W, range(k - 1))
        # argmin keeps the first minimum in the table's order
        pick = bisection_table(k)[int(np.argmin(cuts[_bisection_masks(k)]))]
    else:
        x = _power_direction(W, np.ones(k))
        # smallest k/2 by (value, slot id); complement of the dominant
        # mixing direction approximates the sparse direction
        order = sorted(range(k), key=lambda i: (x[i], slots[i]))
        pick = np.zeros(k, dtype=bool)
        pick[order[: k // 2]] = True
    A = tuple(slots[i] for i in range(k) if pick[i])
    B = tuple(slots[i] for i in range(k) if not pick[i])
    return A, B


# ---------------------------------------------------------------------------
# matching player


@dataclass
class MatchOutcome:
    kind: str  # "matching" | "sparse_cut"
    matching: Counter = field(default_factory=Counter)
    cut: tuple[int, ...] = ()
    flow_value: int = 0
    demand: int = 0


def matching_player(
    view: OracleView,
    A: Iterable[int],
    B: Iterable[int],
    tau: int,
    phi: float,
    beta: float,
    cache: Optional[CutCache] = None,
) -> MatchOutcome:
    """Route tau+1 units from every A-terminal to B-terminals through edges
    of capacity ceil(1/phi), on an augmented view with one virtual edge of
    capacity tau+1 from its source to each A-terminal and from each
    B-terminal to its sink. A large enough flow yields an almost-perfect
    matching read off the path decomposition, each path matching the first
    and last real vertex; otherwise the residual-reachable set is a sparse
    cut with unsaturated terminals on both sides. Raises QueryInputError
    for a tau that is not an int >= 0 before any charge."""
    check_tau(tau)
    A, B = canon(A), canon(B)
    if not A or not B:
        raise QueryInputError("matching player needs nonempty sides")
    if cache is None:
        cache = CutCache(view.base_view)
    cap_int = max(1, math.ceil(1.0 / phi))
    aug = AugmentedView(
        view,
        [(a, tau + 1) for a in A],
        [(b, tau + 1) for b in B],
        scale=cap_int,
    )
    res = dinitz_maxflow(aug, aug.s_source, aug.s_sink, cache=cache)
    demand = min(len(A), len(B)) * (tau + 1)
    threshold = (min(len(A), len(B)) - beta) * (tau + 1)
    if res.value >= threshold:
        matching: Counter = Counter()
        for path, units in path_decomposition(res.flow):
            matching[_pair(path[1], path[-2])] += units
        return MatchOutcome("matching", matching=matching, flow_value=res.value, demand=demand)
    side = tuple(v for v in res.mincut_source_side if v in view)
    return MatchOutcome("sparse_cut", cut=side, flow_value=res.value, demand=demand)


# ---------------------------------------------------------------------------
# expander pruning


@dataclass
class PruneReport:
    pruned: tuple[int, ...]
    volume: int
    budget: float
    within_budget: bool


def prune(X: WitnessGraph, phi_x: Optional[float] = None) -> PruneReport:
    """Iterative peeling realisation of expander pruning: while the fake-free
    witness has a cut of conductance below phi_x/6, move its smaller-volume
    side into the prune set. phi_x defaults to 1/(6 ln|X| + 6). The volume
    bound vol(P) <= (8/phi_x)|F'| is reported as a diagnostic, not
    enforced."""
    if phi_x is None:
        phi_x = 1.0 / (6.0 * math.log(max(len(X.slots), 2)) + 6.0)
    target = phi_x / 6.0
    # the fake-free witness over slot positions; volumes are its degrees
    W = X.matrix(X.edges)
    alive = np.arange(len(X.slots))
    pruned = np.zeros(len(X.slots), dtype=bool)
    while alive.size > 1:
        live = W[np.ix_(alive, alive)]
        if not live.any():
            break
        if alive.size <= PRUNE_EXACT_LIMIT:
            cross, vol, mask = _kernels.best_conductance_cut(live)
        else:
            cross, vol, mask = _spectral_conductance_cut(live)
        if cross < 0 or cross >= target * vol:
            break
        inside = np.array([mask >> i & 1 for i in range(alive.size)], dtype=bool)
        deg = live.sum(axis=1)
        side = inside if deg[inside].sum() <= deg[~inside].sum() else ~inside
        pruned[alive[side]] = True
        alive = alive[~side]
    volume = int(W.sum(axis=1)[pruned].sum())
    fake_count = sum(X.fake.values())
    budget = (8.0 / phi_x) * fake_count
    return PruneReport(
        pruned=canon(X.slots[i] for i in np.flatnonzero(pruned)),
        volume=volume,
        budget=budget,
        within_budget=volume <= budget,
    )


def _power_direction(W, weights):
    """Approximate Fiedler direction of the weight matrix W: 120 steps of
    the lazy random walk from a fixed start, each centred by the mean of
    the iterate under `weights`, stopping early if the iterate vanishes."""
    k = W.shape[0]
    P = W / np.maximum(W.sum(axis=1), 1.0)[:, None]
    total = max(weights.sum(), 1.0)
    x = np.arange(k, dtype=float) - (k - 1) / 2.0
    x /= np.linalg.norm(x)
    for _ in range(120):
        x = x - (x * weights).sum() / total
        y = 0.5 * (x + P @ x)
        norm = np.linalg.norm(y)
        if norm < 1e-12:
            break
        x = y / norm
    return x


def _spectral_conductance_cut(W):
    """Deterministic sweep cut by approximate Fiedler order, centred by the
    degree-weighted mean: (cut, smaller volume, mask) of the first prefix of
    that order with the least conductance, or (-1, -1, 0) when no prefix
    has volume on both sides."""
    deg = W.sum(axis=1)
    order = np.argsort(_power_direction(W, deg), kind="stable")
    # adding order[j] to the prefix order[:j] adds its degree minus twice
    # its weight into the prefix to the cut
    into = np.tril(W[np.ix_(order, order)], -1).sum(axis=1)
    cuts = np.cumsum(deg[order] - 2 * into)[:-1]
    vol_in = np.cumsum(deg[order])[:-1]
    small = np.minimum(vol_in, deg.sum() - vol_in)
    i = _kernels.first_min_ratio(cuts, small)
    if i < 0:
        return -1, -1, 0
    return int(cuts[i]), int(small[i]), sum(1 << int(v) for v in order[: i + 1])


# ---------------------------------------------------------------------------
# one step and full decomposition


@dataclass
class OneStepResult:
    kind: str  # "cut" | "core"
    cut: tuple[int, ...] = ()
    core: tuple[int, ...] = ()
    witness: Optional[WitnessGraph] = None
    rounds: int = 0


def one_step(
    view: OracleView,
    R: Iterable[int],
    tau: int,
    params: Params = DESK,
    cache: Optional[CutCache] = None,
) -> OneStepResult:
    """One round of the decomposition: either a balanced sparse cut, or a
    core R' of terminals certified by the witness graph after pruning.
    Raises QueryInputError for a tau that is not an int >= 0 before any
    charge."""
    check_tau(tau)
    R = canon(R)
    if len(R) < 2:
        raise QueryInputError("one_step needs at least two terminals")
    if cache is None:
        cache = CutCache(view.base_view)
    n = view.base_view.n
    phi = params.phi_for(n)
    beta = params.beta_for(len(R), n)
    pad = None
    slots = R
    if len(slots) % 2:
        pad = max(slots) + 1
        slots = slots + (pad,)
    X = WitnessGraph(slots=slots, b=tau + 1)
    r_max = params.rounds_for(len(slots))
    for _ in range(r_max):
        A, B = cut_player(X)
        A_real = tuple(a for a in A if a != pad)
        B_real = tuple(b for b in B if b != pad)
        out = matching_player(view, A_real, B_real, tau, phi, beta, cache=cache)
        if out.kind == "sparse_cut":
            inside = len(set(out.cut) & set(R))
            if not (0 < inside < len(R)):
                raise ContractViolation("matching player returned an unbalanced cut")
            return OneStepResult("cut", cut=out.cut, witness=X, rounds=X.rounds)
        deficit: Counter = Counter()
        for s in A + B:
            deficit[s] = tau + 1
        for (u, v), c in out.matching.items():
            deficit[u] -= c
            deficit[v] -= c
        fakes = _complete_with_fakes(A, B, deficit)
        X.add_round(out.matching, fakes)
        if len(slots) <= WITNESS_CHECK_LIMIT and X.sparsity_at_least(tau + 1):
            break
    report = prune(X)
    pruned = set(report.pruned)
    budget = params.bad_budget(tau)
    # fake degree plus the real edges into pruned slots, in one pass each
    bad: Counter = Counter()
    for (a, b), c in X.fake.items():
        bad[a] += c
        bad[b] += c
    for (a, b), c in X.edges.items():
        if b in pruned:
            bad[a] += c
        if a in pruned:
            bad[b] += c
    core = [v for v in R if v not in pruned and bad[v] <= budget]
    return OneStepResult("core", core=canon(core), witness=X, rounds=X.rounds)


def _complete_with_fakes(A, B, deficit: Counter) -> Counter:
    """Pair leftover demand greedily in sorted-id order into fake edges."""
    fakes: Counter = Counter()
    a_list = [[s, deficit[s]] for s in sorted(A) if deficit[s] > 0]
    b_list = [[s, deficit[s]] for s in sorted(B) if deficit[s] > 0]
    i = j = 0
    while i < len(a_list) and j < len(b_list):
        take = min(a_list[i][1], b_list[j][1])
        fakes[_pair(a_list[i][0], b_list[j][0])] += take
        a_list[i][1] -= take
        b_list[j][1] -= take
        if a_list[i][1] == 0:
            i += 1
        if b_list[j][1] == 0:
            j += 1
    if i < len(a_list) or j < len(b_list):
        raise QueryInputError("unbalanced fake-edge completion")
    return fakes


@dataclass
class DecompositionPart:
    vertices: tuple[int, ...]
    terminals: tuple[int, ...]
    core: tuple[int, ...]
    classification: str  # "empty" | "small" | "large"


def classify_core(core_size: int, phi: float) -> str:
    if core_size == 0:
        return "empty"
    if core_size <= (1.0 / phi) ** 2:
        return "small"
    return "large"


def decompose(
    view: OracleView,
    R: Iterable[int],
    tau: int,
    params: Params = DESK,
    cache: Optional[CutCache] = None,
) -> list[DecompositionPart]:
    """Recursive one_step over induced sub-views. A sub-view answers
    through its parent's linear forms, so creating one costs nothing.
    Raises QueryInputError, before any charge, for a terminal outside the
    view and for a tau that is not an int >= 0."""
    R = tuple(R)
    for r in R:
        if r not in view:
            raise QueryInputError(f"terminal {r!r} not in the view")
    R = canon(R)
    check_tau(tau)
    if cache is None:
        cache = CutCache(view.base_view)
    phi = params.phi_for(view.base_view.n)
    parts: list[DecompositionPart] = []

    def emit(sub_view: OracleView, terms: tuple[int, ...], core: tuple[int, ...]):
        parts.append(
            DecompositionPart(
                vertices=sub_view.vertices(),
                terminals=terms,
                core=core,
                classification=classify_core(len(core), phi),
            )
        )

    def rec(sub_view: OracleView, terms: tuple[int, ...]):
        if len(terms) < 2:
            emit(sub_view, terms, terms)
            return
        res = one_step(sub_view, terms, tau, params=params, cache=cache)
        if res.kind == "core":
            emit(sub_view, terms, res.core)
            return
        side = canon(res.cut)
        rest = canon(set(sub_view.vertices()) - set(side))
        # nothing is learned here: a flow inside either induced view reads
        # only pairs inside it, never the pairs that cross the split
        children = [
            (InducedView(sub_view, side), canon(set(terms) & set(side))),
            (InducedView(sub_view, rest), canon(set(terms) - set(side))),
        ]
        children.sort(key=lambda child: child[0].vertices()[0])
        for child_view, child_terms in children:
            rec(child_view, child_terms)

    rec(view, R)
    parts.sort(key=lambda p: p.vertices[0] if p.vertices else -1)
    return parts
