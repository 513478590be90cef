"""Seeded workloads for the cutlab benchmark.

Each workload turns a seed into a fixed list of cases (one case is one solve)
plus the query-free reference answers, and knows how to run one pass over
those cases. The program under test only ever receives the generated
``GraphInstance`` objects; the seed drives the instance generator, a vertex
relabelling (for families whose generator ignores the seed), and the choice
of s-t pairs.

Every solve goes through the correctness gate: the answer must equal the
reference computed at set-up, the charged transcript must replay against the
hidden graph, and a decomposition must partition V with each core inside its
part's terminals. A solve that raises or fails the gate is counted, not fatal.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

import numpy as np

from cutlab import expander, maxflow, mincut
from cutlab.harness import InstanceSpec, generate, reference_maxflow, reference_mincut
from cutlab.oracle import BaseView, CutCache, GraphInstance, QueryLedger


# ---------------------------------------------------------------------------
# seeded input generator


def relabel(instance: GraphInstance, rng: random.Random) -> tuple[GraphInstance, list[int]]:
    """Isomorphic copy of the instance under a seeded permutation p: vertex
    v of the input becomes p[v]."""
    perm = list(range(instance.n))
    rng.shuffle(perm)
    edges = {(perm[u], perm[v]): w for (u, v), w in instance.edges.items()}
    return GraphInstance(instance.n, edges), perm


@dataclass
class Case:
    """One solve: an algorithm, its input, and the reference answer."""

    label: str
    algo: str  # "mincut" | "maxflow" | "decompose"
    instance: GraphInstance
    group: int = 0  # maxflow cases of one group share a BaseView and CutCache
    s: int = 0
    t: int = 0
    R: tuple[int, ...] = ()
    tau: int = 1
    reference: Optional[int] = None
    dense: Optional["DenseGraph"] = None  # query-free cut evaluator, set with the reference

    @property
    def pairs(self) -> int:
        """n(n-1)/2, the query count of learning every pair of the graph."""
        n = self.instance.n
        return n * (n - 1) // 2


def _spec_seed(rng: random.Random) -> int:
    return rng.randrange(1 << 30)


def build_mincut_sparse(rng: random.Random) -> list[Case]:
    cases = []
    for i in range(22):
        g, _ = relabel(generate(InstanceSpec("expander_like", 64).with_params(degree=3)), rng)
        cases.append(Case(f"expander_like_d3_n64_r{i}", "mincut", g))
    return cases


def build_mincut_dense(rng: random.Random) -> list[Case]:
    cases = []
    for _ in range(13):
        spec = InstanceSpec("random_gnp", 80, _spec_seed(rng)).with_params(p=0.5)
        cases.append(Case(spec.label(), "mincut", generate(spec)))
        spec = InstanceSpec("planted_cut", 64, _spec_seed(rng)).with_params(k=2)
        cases.append(Case(spec.label(), "mincut", generate(spec)))
    return cases


def build_maxflow_sweep(rng: random.Random) -> list[Case]:
    cases = []
    for group in range(10):
        spec = InstanceSpec("random_gnp", 128, _spec_seed(rng)).with_params(p=0.2)
        g = generate(spec)
        for _ in range(8):
            s, t = rng.sample(range(g.n), 2)
            cases.append(Case(f"{spec.label()}_st{s}-{t}", "maxflow", g, group=group, s=s, t=t))
    return cases


def build_expdecomp(rng: random.Random) -> list[Case]:
    cases = []
    for i in range(12):
        g, _ = relabel(generate(InstanceSpec("two_cliques_bridge", 32)), rng)
        cases.append(Case(f"two_cliques_bridge_n32_r{i}", "decompose", g, R=tuple(range(32)), tau=1))
        g, perm = relabel(generate(InstanceSpec("expander_like", 48).with_params(degree=4)), rng)
        evens = tuple(sorted(perm[v] for v in range(0, 48, 2)))
        cases.append(Case(f"expander_like_d4_n48_r{i}", "decompose", g, R=evens, tau=1))
    return cases


@dataclass(frozen=True)
class Workload:
    """A named case generator; `traffic` records the input dimensions. The
    reason for each workload is its `why` in BENCHMARK.json."""

    name: str
    traffic: dict
    build: Callable[[random.Random], list[Case]]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "mincut_sparse",
            {"family": "expander_like", "degree": 3, "n": 64, "instances": 22,
             "relabelled": True, "cache": "fresh per solve"},
            build_mincut_sparse,
        ),
        Workload(
            "mincut_dense",
            {"families": {"random_gnp": {"n": 80, "p": 0.5, "instances": 13},
                          "planted_cut": {"n": 64, "k": 2, "planted_cut_value": 2, "instances": 13}},
             "cache": "fresh per solve"},
            build_mincut_dense,
        ),
        Workload(
            "maxflow_sweep",
            {"family": "random_gnp", "n": 128, "p": 0.2, "graphs": 10, "pairs_per_graph": 8,
             "cache": "shared per graph: the first pair fills it, later pairs read it"},
            build_maxflow_sweep,
        ),
        Workload(
            "expdecomp",
            {"families": {"two_cliques_bridge": {"n": 32, "R": "all vertices", "tau": 1, "instances": 12},
                          "expander_like": {"n": 48, "degree": 4, "R": "even vertices before relabelling",
                                            "tau": 1, "instances": 12}},
             "relabelled": True, "cache": "fresh per solve"},
            build_expdecomp,
        ),
    )
}


def build_cases(workload: str, seed: int) -> list[Case]:
    """Generate the cases of a workload from its seed (no reference answers)."""
    return WORKLOADS[workload].build(random.Random(f"cutbench:{workload}:{seed}"))


class DenseGraph:
    """Query-free cut evaluator on a dense adjacency matrix. It shares no
    code with cutlab's cut kernels, so replaying a transcript against it
    checks the oracle's answers independently of them."""

    def __init__(self, instance: GraphInstance):
        self.n = instance.n
        self.adj = np.zeros((self.n, self.n), dtype=np.int64)
        for (u, v), w in instance.edges.items():
            self.adj[u, v] = self.adj[v, u] = w

    def cut_of(self, ids) -> int:
        inside = np.zeros(self.n, dtype=bool)
        inside[list(ids)] = True
        return int(self.adj[inside][:, ~inside].sum())


def attach_references(cases: list[Case]) -> None:
    """Query-free reference answers and cut evaluators, read straight off
    the hidden graph."""
    dense: dict[int, DenseGraph] = {}
    for case in cases:
        key = id(case.instance)
        if key not in dense:
            dense[key] = DenseGraph(case.instance)
        case.dense = dense[key]
        if case.algo == "mincut":
            case.reference = reference_mincut(case.instance)[0]
        elif case.algo == "maxflow":
            case.reference = reference_maxflow(case.instance, case.s, case.t)


# ---------------------------------------------------------------------------
# solving and the correctness gate


@dataclass
class Outcome:
    case: Case
    seconds: float
    answer: object = None
    error: Optional[str] = None
    records: list = field(default_factory=list)
    logical_bis: int = 0

    @property
    def queries(self) -> int:
        return len(self.records)


def transcript_digest(records) -> str:
    ledger = QueryLedger()
    ledger.transcript = list(records)
    return hashlib.sha256(ledger.transcript_text().encode()).hexdigest()


def check(case: Case, outcome: Outcome, digest: str, replayed: set[str]) -> Optional[str]:
    """None if the solve is correct, else the reason it is not. `digest` is
    the transcript's digest; `replayed` holds digests of transcripts that
    already replayed, so identical transcripts are replayed once."""
    if outcome.error is not None:
        return outcome.error
    g = case.instance
    ans = outcome.answer
    if case.algo == "mincut":
        if ans.value != case.reference:
            return f"min cut {ans.value} != reference {case.reference}"
        if not 0 < len(ans.side) < g.n or case.dense.cut_of(ans.side) != ans.value:
            return "returned side does not cut the graph at the returned value"
    elif case.algo == "maxflow":
        if ans.value != case.reference:
            return f"max flow {ans.value} != reference {case.reference}"
    else:
        seen: list[int] = []
        rset = set(case.R)
        for part in ans:
            seen.extend(part.vertices)
            if set(part.terminals) != rset & set(part.vertices):
                return "part terminals are not R restricted to the part"
            if not set(part.core) <= set(part.terminals):
                return "core outside its part's terminals"
        if sorted(seen) != list(range(g.n)):
            return "parts do not partition V"
    if digest not in replayed:
        if not QueryLedger.replay(outcome.records, case.dense):
            return "transcript does not replay"
        replayed.add(digest)
    return None


def pass_digest(digests: list[str]) -> str:
    """One SHA-256 over the per-solve transcript digests of a pass."""
    return hashlib.sha256("".join(digests).encode()).hexdigest()


class Gate:
    """Counts every solve and its verdict. `failures` also collects the
    run-level checks (determinism, tracer cross-checks)."""

    def __init__(self):
        self.replayed: set[str] = set()
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def __call__(self, outcome: Outcome) -> str:
        """Gate one solve; returns the SHA-256 digest of its transcript."""
        self.attempted += 1
        digest = transcript_digest(outcome.records)
        reason = check(outcome.case, outcome, digest, self.replayed)
        if reason is not None:
            self.failed += 1
            self.failures.append(f"{outcome.case.label}: {reason}")
        return digest


def solve_pass(cases: list[Case], clock, on_start=None) -> Iterator[Outcome]:
    """One pass over the cases, yielding each solve as it completes, timed
    with `clock`. Caches are fresh per solve, except that consecutive
    maxflow cases of one group share one view, ledger and cache. `on_start`
    runs before each solve."""
    group, view, cache = None, None, None
    for case in cases:
        if on_start is not None:
            on_start()
        if case.algo == "maxflow":
            if case.group != group:
                group = case.group
                view = BaseView(case.instance, QueryLedger())
                cache = CutCache(view)
        else:
            view = BaseView(case.instance, QueryLedger())
            cache = CutCache(view)
        ledger = view.ledger
        q0, bis0 = ledger.cut_count, cache.logical_bis
        answer, error = None, None
        start = clock()
        try:
            if case.algo == "mincut":
                answer = mincut.global_mincut(view, cache=cache)
            elif case.algo == "maxflow":
                answer = maxflow.dinitz_maxflow(view, case.s, case.t, cache=cache)
            else:
                answer = expander.decompose(view, case.R, case.tau, cache=cache)
        except Exception as exc:  # a raising solve is a counted failure
            error = f"{type(exc).__name__}: {exc}"
        seconds = clock() - start
        yield Outcome(case, seconds, answer, error, ledger.transcript[q0:], cache.logical_bis - bis0)
