"""Instance generation, query-free reference oracles, and the experiment
runner that measures query scaling and emits CSV plus replayable transcripts.

The reference oracles read the hidden graph directly and never touch the
query ledger; they exist to keep the oracle-driven algorithms honest.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional

import numpy as np

from . import _kernels
from .oracle import (
    BaseView,
    CutCache,
    GraphFormatError,
    GraphInstance,
    QueryInputError,
    QueryLedger,
)

FAMILIES = (
    "random_gnp",
    "barbell",
    "two_cliques_bridge",
    "path",
    "star",
    "complete",
    "expander_like",
    "planted_cut",
)


@dataclass(frozen=True)
class InstanceSpec:
    family: str
    n: int
    seed: int = 0
    params: tuple[tuple[str, float], ...] = ()

    def param(self, name: str, default):
        for key, val in self.params:
            if key == name:
                return val
        return default

    def with_params(self, **kw) -> "InstanceSpec":
        merged = dict(self.params)
        merged.update(kw)
        return InstanceSpec(self.family, self.n, self.seed, tuple(sorted(merged.items())))

    def label(self) -> str:
        extra = "_".join(f"{k}{v}" for k, v in self.params)
        return f"{self.family}_n{self.n}_s{self.seed}" + (f"_{extra}" if extra else "")


def _rng(spec: InstanceSpec) -> random.Random:
    return random.Random(f"{spec.family}:{spec.n}:{spec.seed}:{sorted(spec.params)}")


def generate(spec: InstanceSpec) -> GraphInstance:
    """Deterministic instance construction; identical specs give identical
    graphs byte for byte."""
    n = spec.n
    fam = spec.family
    edges: dict[tuple[int, int], int] = {}

    def add(u: int, v: int, w: int = 1):
        key = (u, v) if u < v else (v, u)
        if u == v or key in edges:
            raise GraphFormatError(f"family {fam} produced a non-simple edge {key}")
        edges[key] = w

    if fam == "complete":
        for u in range(n):
            for v in range(u + 1, n):
                add(u, v)
    elif fam == "path":
        for u in range(n - 1):
            add(u, u + 1)
    elif fam == "star":
        for v in range(1, n):
            add(0, v)
    elif fam == "two_cliques_bridge":
        if n < 4:
            raise GraphFormatError("two_cliques_bridge needs n >= 4")
        h = n // 2
        for u in range(h):
            for v in range(u + 1, h):
                add(u, v)
        for u in range(h, n):
            for v in range(u + 1, n):
                add(u, v)
        add(h - 1, h)
    elif fam == "barbell":
        k = int(spec.param("clique", max(2, (n + 2) // 3)))
        if n < 2 * k:
            raise GraphFormatError("barbell needs n >= 2*clique")
        for u in range(k):
            for v in range(u + 1, k):
                add(u, v)
        for u in range(n - k, n):
            for v in range(u + 1, n):
                add(u, v)
        chain = [k - 1] + list(range(k, n - k)) + [n - k]
        for a, b in zip(chain, chain[1:]):
            add(a, b)
    elif fam == "random_gnp":
        p = float(spec.param("p", 0.5))
        W = int(spec.param("W", 1))
        rng = _rng(spec)
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < p:
                    add(u, v, rng.randint(1, W) if W > 1 else 1)
    elif fam == "expander_like":
        d = int(spec.param("degree", 3))
        for u in range(n):
            for j in range(1, d + 1):
                v = (u + j) % n
                if u != v:
                    key = (u, v) if u < v else (v, u)
                    edges.setdefault(key, 1)
    elif fam == "planted_cut":
        k = int(spec.param("k", 1))
        p_in = float(spec.param("p_in", 0.85))
        if n < 4:
            raise GraphFormatError("planted_cut needs n >= 4")
        h = n // 2
        if k > min(h, n - h):
            raise GraphFormatError("planted_cut k too large for the halves")
        rng = _rng(spec)
        for lo, hi in ((0, h), (h, n)):
            for u in range(lo, hi - 1):
                add(u, u + 1)  # backbone keeps each half connected
            for u in range(lo, hi):
                for v in range(u + 2, hi):
                    if rng.random() < p_in:
                        add(u, v)
        for i in range(k):
            add(i, h + i)
    else:
        raise GraphFormatError(f"unknown family {fam!r}")
    return GraphInstance(n, edges)


# ---------------------------------------------------------------------------
# reference oracles (no query accounting; harness-side ground truth)


def _components(adj: dict[int, dict[int, int]], n: int) -> list[list[int]]:
    seen: set[int] = set()
    comps = []
    for start in range(n):
        if start in seen:
            continue
        comp = [start]
        seen.add(start)
        queue = [start]
        while queue:
            u = queue.pop()
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    comp.append(v)
                    queue.append(v)
        comps.append(sorted(comp))
    return comps


def reference_maxflow(g: GraphInstance, s: int, t: int) -> int:
    """Classical blocking-flow max-flow on the explicit graph."""
    if s == t:
        raise ValueError("s and t must differ")
    cap: dict[int, dict[int, int]] = {v: {} for v in range(g.n)}
    for (u, v), w in g.edges.items():
        cap[u][v] = w
        cap[v][u] = w
    flow = 0
    while True:
        level = {s: 0}
        queue = [s]
        for u in queue:
            for v, c in cap[u].items():
                if c > 0 and v not in level:
                    level[v] = level[u] + 1
                    queue.append(v)
        if t not in level:
            return flow
        it = {v: iter(sorted(cap[v])) for v in range(g.n)}

        def dfs(u: int, pushed: int) -> int:
            if u == t:
                return pushed
            for v in it[u]:
                if cap[u][v] > 0 and level.get(v, -1) == level[u] + 1:
                    got = dfs(v, min(pushed, cap[u][v]))
                    if got > 0:
                        cap[u][v] -= got
                        cap[v][u] += got
                        return got
            return 0

        while True:
            pushed = dfs(s, 1 << 62)
            if pushed == 0:
                break
            flow += pushed


def _mask_to_side(mask: int, n: int) -> tuple[int, ...]:
    return tuple(v for v in range(n) if (mask >> v) & 1)


def reference_mincut(g: GraphInstance) -> tuple[int, tuple[int, ...]]:
    """Exact global min cut: exhaustive for n <= 18, contraction-based
    (maximum adjacency order) otherwise."""
    if g.n < 2:
        raise ValueError("min cut needs n >= 2")
    adj = g.adjacency()
    comps = _components(adj, g.n)
    if len(comps) > 1:
        return 0, tuple(comps[0])
    if g.n <= 18:
        eu, ev, ew = g.edge_arrays()
        value, mask = _kernels.min_cut_scan(g.n, eu, ev, ew)
        return value, _mask_to_side(mask, g.n)
    return _stoer_wagner(g)


def _stoer_wagner(g: GraphInstance) -> tuple[int, tuple[int, ...]]:
    n = g.n
    W = np.zeros((n, n), dtype=np.int64)
    for (u, v), w in g.edges.items():
        W[u, v] = w
        W[v, u] = w
    groups: list[list[int]] = [[v] for v in range(n)]
    active = list(range(n))
    best_val: Optional[int] = None
    best_side: tuple[int, ...] = ()
    while len(active) > 1:
        act = np.array(active)
        weights = W[act, act[0]].copy()
        done = np.zeros(len(act), dtype=bool)
        done[0] = True
        weights[0] = -1
        order = [active[0]]
        last_w = 0
        for _ in range(len(act) - 1):
            nxt_i = int(np.argmax(weights))
            last_w = int(weights[nxt_i])
            order.append(int(act[nxt_i]))
            done[nxt_i] = True
            weights += W[act, act[nxt_i]]
            weights[done] = -1
        tail, prev = order[-1], order[-2]
        if best_val is None or last_w < best_val:
            best_val = last_w
            best_side = tuple(sorted(groups[tail]))
        # merge tail into prev
        W[prev, :] += W[tail, :]
        W[:, prev] += W[:, tail]
        W[prev, prev] = 0
        groups[prev] = sorted(groups[prev] + groups[tail])
        active.remove(tail)
    return int(best_val), best_side


def reference_isolating(
    g: GraphInstance, R: Iterable[int]
) -> tuple[int, tuple[int, ...]]:
    """Minimum isolating cut over all terminals of R by exhaustive scan."""
    R = sorted(R)
    eu, ev, ew = g.edge_arrays()
    best = None
    best_side: tuple[int, ...] = ()
    for r in R:
        forbidden = 0
        for x in R:
            if x != r:
                forbidden |= 1 << x
        val, mask = _kernels.min_isolating(g.n, eu, ev, ew, r, forbidden)
        if best is None or val < best:
            best, best_side = val, _mask_to_side(mask, g.n)
    return int(best), best_side


def is_dominating(g: GraphInstance, R: Iterable[int]) -> bool:
    adj = g.adjacency()
    rset = set(R)
    for v in range(g.n):
        if v in rset:
            continue
        if not any(u in rset for u in adj[v]):
            return False
    return True


# ---------------------------------------------------------------------------
# experiment runner


@dataclass
class ExperimentRow:
    family: str
    n: int
    m: int
    seed: int
    algorithm: str
    answer: int
    reference_answer: int
    cut_queries: int  # charged base-graph queries (= transcript length)
    bis_queries: int  # residual probes issued (CutCache.logical_bis); learned reads issue none
    rounds: int  # maxflow's blocking-flow rounds; 0 for mincut and domset
    wall_ms: int

    CSV_HEADER = (
        "family,n,m,seed,algorithm,answer,reference_answer,"
        "cut_queries,bis_queries,rounds,wall_ms"
    )

    def csv_line(self) -> str:
        return (
            f"{self.family},{self.n},{self.m},{self.seed},{self.algorithm},"
            f"{self.answer},{self.reference_answer},{self.cut_queries},"
            f"{self.bis_queries},{self.rounds},{self.wall_ms}"
        )


class SuiteMismatch(RuntimeError):
    def __init__(self, row: ExperimentRow, bundle: Optional[str]):
        msg = (
            f"{row.algorithm} on {row.family} n={row.n} seed={row.seed}: "
            f"answer {row.answer} != reference {row.reference_answer}"
        )
        if bundle:
            msg += f" (diagnostics in {bundle})"
        super().__init__(msg)
        self.row = row


def run_one(instance: GraphInstance, algorithm: str) -> tuple[ExperimentRow, QueryLedger]:
    """Run one algorithm against one instance with a fresh ledger."""
    from . import mincut as mincut_mod
    from .maxflow import dinitz_maxflow

    ledger = QueryLedger()
    view = BaseView(instance, ledger)
    cache = CutCache(view)
    start = time.perf_counter()
    rounds = 0
    if algorithm == "mincut":
        answer = mincut_mod.global_mincut(view, cache=cache).value
        reference = reference_mincut(instance)[0]
    elif algorithm == "maxflow":
        s, t = 0, instance.n - 1
        res = dinitz_maxflow(view, s, t, cache=cache)
        answer = res.value
        reference = reference_maxflow(instance, s, t)
        rounds = res.round_count
    elif algorithm == "domset":
        R = mincut_mod.dominating_set(view, cache=cache)
        answer = len(R)
        reference = len(R) if is_dominating(instance, R) else -1
    else:
        raise QueryInputError(f"unknown algorithm {algorithm!r}")
    wall_ms = int((time.perf_counter() - start) * 1000)
    row = ExperimentRow(
        family="",
        n=instance.n,
        m=instance.m,
        seed=0,
        algorithm=algorithm,
        answer=answer,
        reference_answer=reference,
        cut_queries=ledger.cut_count,
        bis_queries=cache.logical_bis,
        rounds=rounds,
        wall_ms=wall_ms,
    )
    return row, ledger


def run_suite(
    specs: list[InstanceSpec],
    algorithms: list[str],
    csv_path: Optional[str] = None,
    transcripts_dir: Optional[str] = None,
) -> list[ExperimentRow]:
    """Execute every (spec, algorithm) pair with fresh ledgers. A row whose
    answer disagrees with the reference aborts the suite with a diagnostic
    bundle (instance file plus transcript)."""
    rows: list[ExperimentRow] = []
    tdir = Path(transcripts_dir) if transcripts_dir else None
    if tdir:
        tdir.mkdir(parents=True, exist_ok=True)
    for spec in specs:
        instance = generate(spec)
        for algo in algorithms:
            row, ledger = run_one(instance, algo)
            row.family = spec.family
            row.seed = spec.seed
            if tdir:
                base = f"{spec.label()}_{algo}"
                ledger.write_transcript(tdir / f"{base}.transcript")
            if row.answer != row.reference_answer:
                bundle = None
                if tdir:
                    instance.dump(tdir / f"{spec.label()}_{algo}.graph")
                    bundle = str(tdir)
                raise SuiteMismatch(row, bundle)
            rows.append(row)
    if csv_path:
        write_csv(rows, csv_path)
    return rows


def write_csv(rows: list[ExperimentRow], path) -> None:
    lines = [ExperimentRow.CSV_HEADER] + [r.csv_line() for r in rows]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def csv_without_wall(text: str) -> str:
    """Strip the wall_ms column, found by its header name, so determinism
    checks can compare runs."""
    lines = text.splitlines()
    col = lines[0].split(",").index("wall_ms")
    out = []
    for ln in lines:
        parts = ln.split(",")
        out.append(",".join(parts[:col] + parts[col + 1 :]))
    return "\n".join(out)


def scaling_summary(rows: list[ExperimentRow]) -> dict[tuple[str, str], float]:
    """Least-squares slope of log(cut_queries) against log(n), per
    (family, algorithm)."""
    grouped: dict[tuple[str, str], list[tuple[int, int]]] = {}
    for row in rows:
        grouped.setdefault((row.family, row.algorithm), []).append(
            (row.n, max(row.cut_queries, 1))
        )
    slopes: dict[tuple[str, str], float] = {}
    for key, pts in grouped.items():
        if len({n for n, _ in pts}) < 2:
            continue
        xs = np.log([n for n, _ in pts])
        ys = np.log([q for _, q in pts])
        slope = float(np.polyfit(xs, ys, 1)[0])
        slopes[key] = slope
    return slopes


def format_summary(slopes: dict[tuple[str, str], float]) -> str:
    lines = ["family,algorithm,loglog_slope"]
    for (fam, algo), slope in sorted(slopes.items()):
        lines.append(f"{fam},{algo},{slope:.4f}")
    return "\n".join(lines) + "\n"
