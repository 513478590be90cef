"""Span tracer for the cutlab benchmark.

The tracer lives entirely in benchmark code: it replaces cutlab's public
functions and the CutCache, view and Flow methods with wrappers that record
a span per call, and puts the originals back afterwards. Functions are
replaced at every module binding, because modules import them by name
(`from .primitives import bfs_tree, find_neighbor` and so on); methods are
replaced on the class that defines them.

Per call the tracer keeps a span (name, start, end, parent span, solve id)
and, at the same boundary, the number of charged base-graph queries made
inside it. Aggregates are kept per (name, parent name): calls, inclusive
seconds, self seconds (inclusive minus the time covered by child spans) and
inclusive queries. For a recursive name (view methods delegate to their
parent view) only the outermost span adds to inclusive time and queries.
Raw spans are kept in memory up to a cap and written out on request.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import defaultdict

# (span name, module, attribute) for module-level functions; the function is
# replaced wherever a cutlab module binds it
FUNCTIONS = (
    ("kernels.cut_value", "cutlab._kernels", "cut_value"),
    ("primitives.find_neighbor", "cutlab.primitives", "find_neighbor"),
    ("primitives.neighborhood", "cutlab.primitives", "neighborhood"),
    ("primitives.bfs_tree", "cutlab.primitives", "bfs_tree"),
    ("maxflow.dinitz_maxflow", "cutlab.maxflow", "dinitz_maxflow"),
    ("maxflow.blocking_flow_round", "cutlab.maxflow", "blocking_flow_round"),
    ("maxflow.path_decomposition", "cutlab.maxflow", "path_decomposition"),
    ("isolating.isolating_cuts", "cutlab.isolating", "isolating_cuts"),
    ("isolating.partition_mincut", "cutlab.isolating", "partition_mincut"),
    ("mincut.global_mincut", "cutlab.mincut", "global_mincut"),
    ("mincut.degrees", "cutlab.mincut", "degrees"),
    ("mincut.dominating_set", "cutlab.mincut", "dominating_set"),
    ("mincut.threshold_mincut", "cutlab.mincut", "threshold_mincut"),
    ("mincut.unbalanced_case", "cutlab.mincut", "unbalanced_case"),
    ("mincut.balanced_sparsify", "cutlab.mincut", "balanced_sparsify"),
    ("expander.decompose", "cutlab.expander", "decompose"),
    ("expander.one_step", "cutlab.expander", "one_step"),
    ("expander.cut_player", "cutlab.expander", "cut_player"),
    ("expander.matching_player", "cutlab.expander", "matching_player"),
    ("expander.prune", "cutlab.expander", "prune"),
)

# (span name, class name in cutlab.oracle, method); a method is wrapped on
# every listed class whose own namespace defines it
METHODS = (
    ("oracle.raw_cut", ("BaseView",), "raw_cut"),
    ("oracle.cache.cut", ("CutCache",), "cut"),
    ("oracle.cache.pair_capacity", ("CutCache",), "pair_capacity"),
    ("oracle.cache.base_pair_sum", ("CutCache",), "base_pair_sum"),
    ("oracle.cache.residual_between", ("CutCache",), "residual_between"),
    ("oracle.cache.capacity", ("CutCache",), "capacity"),
    ("oracle.flow.across", ("Flow",), "across"),
) + tuple(
    (f"oracle.view.{meth}", ("OracleView", "BaseView", "AugmentedView", "ContractedView", "InducedView"), meth)
    for meth in ("cut_plan", "pair_known", "known_capacity", "singleton_decompose", "bundle_flow")
)

CHARGED = "oracle.raw_cut"
ROOT = ""  # parent name of spans opened outside any traced call
SPAN_CAP = 50_000  # raw spans kept for the dump; aggregates cover every call


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.charged = 0  # charged queries seen so far (raw_cut calls)
        self.solve_id = -1
        self._stack: list[list] = []  # [name id, child seconds, charged at entry, span index]
        self._depth: dict[int, int] = defaultdict(int)
        # (name, parent name) -> [calls, inclusive s, self s, queries]
        self.agg: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0, 0.0, 0])
        self.result_counts: dict[str, int] = defaultdict(int)
        self.spans_dropped = 0
        self._span_name = array("i")
        self._span_parent = array("i")
        self._span_solve = array("i")
        self._span_start = array("d")
        self._span_end = array("d")
        self._restore: list[tuple[object, str, object]] = []

    # -- recording

    def new_solve(self) -> None:
        """Start a new solve id for the spans that follow."""
        self.solve_id += 1

    @property
    def spans_kept(self) -> int:
        return len(self._span_start)

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, name: str, fn, on_result=None):
        nid = self._id(name)
        charged = name == CHARGED
        stack = self._stack
        depth = self._depth
        agg = self.agg
        names = self.names
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            idx = -1
            if len(self._span_start) < SPAN_CAP:
                idx = len(self._span_start)
                self._span_name.append(nid)
                self._span_parent.append(parent[3] if parent else -1)
                self._span_solve.append(self.solve_id)
                self._span_start.append(0.0)
                self._span_end.append(0.0)
            else:
                self.spans_dropped += 1
            if charged:
                self.charged += 1
            frame = [nid, 0.0, self.charged, idx]
            stack.append(frame)
            depth[nid] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                depth[nid] -= 1
                dur = end - start
                if parent is not None:
                    parent[1] += dur
                a = agg[(name, names[parent[0]] if parent else ROOT)]
                a[0] += 1
                a[2] += dur - frame[1]
                if depth[nid] == 0:
                    a[1] += dur
                    a[3] += self.charged - frame[2] + (1 if charged else 0)
                if idx >= 0:
                    self._span_start[idx] = start
                    self._span_end[idx] = end
            if on_result is not None:
                for key, val in on_result(result).items():
                    self.result_counts[key] += val
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installing and removing the wrappers

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        from cutlab import oracle

        hooks = {
            "maxflow.dinitz_maxflow": lambda r: {"maxflow.rounds": r.round_count},
            "expander.one_step": lambda r: {"expander.rounds": r.rounds},
        }
        modules = [m for k, m in sorted(sys.modules.items()) if k == "cutlab" or k.startswith("cutlab.")]
        for name, modname, attr in FUNCTIONS:
            original = getattr(sys.modules[modname], attr)
            wrapper = self._wrap(name, original, hooks.get(name))
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapper)
        for name, classes, meth in METHODS:
            for cls_name in classes:
                cls = getattr(oracle, cls_name)
                original = cls.__dict__.get(meth)
                if original is None:
                    continue
                self._restore.append((cls, meth, original))
                setattr(cls, meth, self._wrap(name, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    # -- reading the results

    def calls(self, name: str, parent: str | None = None) -> int:
        return sum(v[0] for (n, p), v in self.agg.items() if n == name and parent in (None, p))

    def inclusive_s(self, name: str, parent: str | None = None) -> float:
        return sum(v[1] for (n, p), v in self.agg.items() if n == name and parent in (None, p))

    def self_s(self, name: str) -> float:
        return sum(v[2] for (n, _p), v in self.agg.items() if n == name)

    def queries(self, name: str, parent: str | None = None) -> int:
        return sum(v[3] for (n, p), v in self.agg.items() if n == name and parent in (None, p))

    def dump(self, path) -> None:
        """Write the kept spans and the aggregates as one JSON document."""
        doc = {
            "names": self.names,
            "spans_kept": self.spans_kept,
            "spans_dropped": self.spans_dropped,
            "columns": ["name", "parent", "solve", "start", "end"],
            "spans": [
                list(row)
                for row in zip(
                    self._span_name, self._span_parent, self._span_solve,
                    self._span_start, self._span_end,
                )
            ],
            "aggregates": [
                {"name": n, "parent": p, "calls": v[0], "inclusive_s": v[1], "self_s": v[2], "queries": v[3]}
                for (n, p), v in sorted(self.agg.items())
            ],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def per_layer_metrics(tr: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics named after cutlab's modules, as totals over
    everything the tracer saw: name -> (value, unit)."""
    cache_cut_calls = tr.calls("oracle.cache.cut")
    charged_in_cut = tr.calls(CHARGED, "oracle.cache.cut")
    c, s, q = "count", "s", "count"
    m = {
        "oracle.raw_cut.calls": (tr.calls(CHARGED), c),
        "oracle.raw_cut.s": (tr.inclusive_s(CHARGED), s),
        "oracle.cache.cut.calls": (cache_cut_calls, c),
        "oracle.cache.hit_ratio": (
            (cache_cut_calls - charged_in_cut) / cache_cut_calls if cache_cut_calls else 0.0, "ratio"
        ),
        "oracle.cache.residual_between.calls": (tr.calls("oracle.cache.residual_between"), c),
        "oracle.cache.residual_between.self_s": (tr.self_s("oracle.cache.residual_between"), s),
        "oracle.cache.base_pair_sum.calls": (tr.calls("oracle.cache.base_pair_sum"), c),
        "oracle.cache.base_pair_sum.self_s": (tr.self_s("oracle.cache.base_pair_sum"), s),
        "oracle.view.singleton_decompose.self_s": (tr.self_s("oracle.view.singleton_decompose"), s),
        "oracle.view.cut_plan.self_s": (tr.self_s("oracle.view.cut_plan"), s),
        "oracle.view.pair_known.self_s": (tr.self_s("oracle.view.pair_known"), s),
        "oracle.flow.across.calls": (tr.calls("oracle.flow.across"), c),
        "oracle.flow.across.self_s": (tr.self_s("oracle.flow.across"), s),
        "kernels.cut_value.calls": (tr.calls("kernels.cut_value"), c),
        "kernels.cut_value.self_s": (tr.self_s("kernels.cut_value"), s),
        "primitives.find_neighbor.calls": (tr.calls("primitives.find_neighbor"), c),
        "primitives.find_neighbor.self_s": (tr.self_s("primitives.find_neighbor"), s),
        "primitives.bfs_tree.calls": (tr.calls("primitives.bfs_tree"), c),
        "maxflow.calls": (tr.calls("maxflow.dinitz_maxflow"), c),
        "maxflow.rounds": (tr.result_counts["maxflow.rounds"], c),
        "maxflow.bfs.queries": (tr.queries("primitives.bfs_tree", "maxflow.dinitz_maxflow"), q),
        "maxflow.bfs.s": (tr.inclusive_s("primitives.bfs_tree", "maxflow.dinitz_maxflow"), s),
        "maxflow.blocking.queries": (tr.queries("maxflow.blocking_flow_round"), q),
        "maxflow.blocking.s": (tr.inclusive_s("maxflow.blocking_flow_round"), s),
        "maxflow.path_decomposition.s": (tr.inclusive_s("maxflow.path_decomposition"), s),
        "isolating.calls": (tr.calls("isolating.isolating_cuts"), c),
        "isolating.s": (tr.inclusive_s("isolating.isolating_cuts"), s),
        "isolating.partition_flows.calls": (tr.calls("isolating.partition_mincut"), c),
        "isolating.partition_flows.queries": (tr.queries("isolating.partition_mincut"), q),
        "isolating.partition_flows.s": (tr.inclusive_s("isolating.partition_mincut"), s),
        "isolating.region_bfs.queries": (tr.queries("primitives.bfs_tree", "isolating.isolating_cuts"), q),
        "isolating.region_bfs.s": (tr.inclusive_s("primitives.bfs_tree", "isolating.isolating_cuts"), s),
        "isolating.local_flows.calls": (tr.calls("maxflow.dinitz_maxflow", "isolating.isolating_cuts"), c),
        "isolating.local_flows.queries": (tr.queries("maxflow.dinitz_maxflow", "isolating.isolating_cuts"), q),
        "isolating.local_flows.s": (tr.inclusive_s("maxflow.dinitz_maxflow", "isolating.isolating_cuts"), s),
        "mincut.connectivity_bfs.queries": (tr.queries("primitives.bfs_tree", "mincut.global_mincut"), q),
        "mincut.connectivity_bfs.s": (tr.inclusive_s("primitives.bfs_tree", "mincut.global_mincut"), s),
        "mincut.degrees.queries": (tr.queries("mincut.degrees"), q),
        "mincut.degrees.s": (tr.inclusive_s("mincut.degrees"), s),
        "mincut.dominating_set.queries": (tr.queries("mincut.dominating_set"), q),
        "mincut.dominating_set.s": (tr.inclusive_s("mincut.dominating_set"), s),
        "mincut.threshold.calls": (tr.calls("mincut.threshold_mincut"), c),
        "mincut.threshold.queries": (tr.queries("mincut.threshold_mincut"), q),
        "mincut.threshold.s": (tr.inclusive_s("mincut.threshold_mincut"), s),
        "mincut.unbalanced.splitter_sets": (
            tr.calls("isolating.isolating_cuts", "mincut.unbalanced_case"), c
        ),
        "expander.one_step.calls": (tr.calls("expander.one_step"), c),
        "expander.one_step.s": (tr.inclusive_s("expander.one_step"), s),
        "expander.rounds": (tr.result_counts["expander.rounds"], c),
        "expander.cut_player.calls": (tr.calls("expander.cut_player"), c),
        "expander.cut_player.s": (tr.inclusive_s("expander.cut_player"), s),
        "expander.matching_player.calls": (tr.calls("expander.matching_player"), c),
        "expander.matching_player.queries": (tr.queries("expander.matching_player"), q),
        "expander.matching_player.s": (tr.inclusive_s("expander.matching_player"), s),
        "expander.prune.s": (tr.inclusive_s("expander.prune"), s),
    }
    return m
