"""Self-tests of the benchmark on tiny sizes.

    python3 -m pytest cutbench -q
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads as wl  # noqa: E402
from cutlab import maxflow, mincut, primitives  # noqa: E402
from cutlab.harness import InstanceSpec, generate  # noqa: E402
from cutlab.oracle import BaseView, CutCache  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _tiny_cases(rng: random.Random) -> list[wl.Case]:
    g, _ = wl.relabel(generate(InstanceSpec("expander_like", 12).with_params(degree=3)), rng)
    flow_g = generate(InstanceSpec("random_gnp", 16, rng.randrange(100)).with_params(p=0.4))
    tcb, _ = wl.relabel(generate(InstanceSpec("two_cliques_bridge", 8)), rng)
    return [
        wl.Case("tiny_mincut", "mincut", g),
        wl.Case("tiny_flow_a", "maxflow", flow_g, group=0, s=0, t=15),
        wl.Case("tiny_flow_b", "maxflow", flow_g, group=0, s=3, t=9),
        wl.Case("tiny_decompose", "decompose", tcb, R=tuple(range(8)), tau=1),
    ]


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    monkeypatch.setitem(wl.WORKLOADS, "tiny", wl.Workload("tiny", {}, _tiny_cases))
    monkeypatch.setattr(run, "SPAN_DIR", tmp_path)
    return "tiny"


def _run(capsys, *argv) -> tuple[dict, str]:
    assert run.main(list(argv)) == 0
    out = capsys.readouterr().out
    return json.loads(out.strip().splitlines()[-1]), out


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_named_metric_prints_with_its_unit(tiny, capsys, trace, section):
    result, out = _run(capsys, "--workload", tiny, "--seed", "3", "--seconds", "0.01", "--trace", str(trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCH[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    lines = out.splitlines()
    for name, unit in declared.items():
        assert any(ln.split()[0] == name and ln.split()[-1] == unit for ln in lines), name


def test_traced_counts_match_untraced_pass(tiny, capsys):
    result, out = _run(capsys, "--workload", tiny, "--seed", "5", "--seconds", "0.01", "--trace", "1")
    report = json.loads(out.splitlines()[-2])["report"]
    assert result["correct"], report["failures"]
    assert result["metrics"]["oracle.raw_cut.calls"]["value"] == report["cut_queries"]


def test_benchmark_json_matches_workloads():
    assert [w["name"] for w in BENCH["workloads"]] == list(wl.WORKLOADS)
    assert BENCH["paths"] == [HERE.name]
    assert [m["name"] for m in BENCH["end_to_end"]] == list(run.E2E_UNITS)
    setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCH["end_to_end"])


def test_same_seed_same_inputs_other_seed_other_inputs():
    for name in wl.WORKLOADS:
        a, b, c = wl.build_cases(name, 7), wl.build_cases(name, 7), wl.build_cases(name, 8)
        assert [(x.instance.edges, x.s, x.t, x.R) for x in a] == [(x.instance.edges, x.s, x.t, x.R) for x in b]
        assert [(x.instance.edges, x.s, x.t, x.R) for x in a] != [(x.instance.edges, x.s, x.t, x.R) for x in c]


def test_gate_trips_on_wrong_reference_and_on_raise():
    cases = _tiny_cases(random.Random(1))
    wl.attach_references(cases)
    gate = wl.Gate()
    for out in wl.solve_pass(cases, run.time.perf_counter):
        gate(out)
    assert gate.failed == 0, gate.failures
    for case in cases[:2]:
        case.reference += 1
    bad = wl.Case("raises", "maxflow", cases[1].instance, group=1, s=2, t=2, reference=0)
    for out in wl.solve_pass(cases + [bad], run.time.perf_counter):
        gate(out)
    assert gate.attempted == 2 * len(cases) + 1
    assert gate.failed == 3
    assert any("QueryInputError" in f for f in gate.failures)


def test_gate_trips_on_a_transcript_that_does_not_replay():
    case = _tiny_cases(random.Random(2))[0]
    wl.attach_references([case])
    (out,) = wl.solve_pass([case], run.time.perf_counter)
    rec = out.records[0]
    out.records[0] = type(rec)(rec.seq, rec.ids, rec.answer + 1, rec.tag)
    assert wl.check(case, out, wl.transcript_digest(out.records), set()) == "transcript does not replay"


def test_tracer_counts_match_cache_and_ledger():
    g = generate(InstanceSpec("random_gnp", 14, 4).with_params(p=0.5))
    view = BaseView(g)
    cache = CutCache(view)
    original = primitives.bfs_tree
    tr = tracer_mod.Tracer()
    tr.install()
    try:
        assert maxflow.bfs_tree is mincut.bfs_tree is primitives.bfs_tree is not original
        mincut.global_mincut(view, cache=cache)
    finally:
        tr.uninstall()
    assert maxflow.bfs_tree is mincut.bfs_tree is primitives.bfs_tree is original
    assert not hasattr(CutCache.cut, "__wrapped__")
    assert tr.calls("oracle.cache.residual_between") == cache.logical_bis
    assert tr.calls(tracer_mod.CHARGED) == view.ledger.cut_count
    assert tr.queries("mincut.global_mincut") == view.ledger.cut_count
    assert tr.calls("mincut.global_mincut") == 1
    # self time never exceeds inclusive time for a non-recursive span
    assert 0 <= tr.self_s("mincut.global_mincut") <= tr.inclusive_s("mincut.global_mincut")


def test_tail_leaves_ten_samples_above():
    samples = [float(i) for i in range(40)]
    value, pct = run.tail(samples)
    assert sum(x > value for x in samples) == 10 and pct == 75.0
    assert run.tail([1.0, 2.0]) == (2.0, 100.0)
