"""Acceptance gate: seven criteria, one pass/fail line each.

Run `pytest tests/test_acceptance.py -s` to watch the lines as they print;
the same lines land in acceptance_report.txt next to this file.
"""

import itertools
import math
import time
from pathlib import Path

import numpy as np
from cutlab.config import DESK, PINNED
from cutlab.harness import (
    InstanceSpec,
    csv_without_wall,
    generate,
    is_dominating,
    reference_isolating,
    reference_maxflow,
    reference_mincut,
    run_suite,
)
from cutlab.isolating import isolating_cuts
from cutlab.maxflow import dinitz_maxflow
from cutlab.mincut import (
    balanced_sparsify,
    degrees,
    dominating_set,
    global_mincut,
    separation_check,
    unbalanced_case,
)
from cutlab.expander import decompose
from cutlab.primitives import bfs_tree
from conftest import make_view

REPORT = Path(__file__).parent / "acceptance_report.txt"


def _report(number: int, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line, flush=True)
    mode = "a" if number > 1 and REPORT.exists() else "w"
    with open(REPORT, mode) as fh:
        fh.write(line + "\n")
    assert ok, line


# ---------------------------------------------------------------------------
# corpora


def mincut_corpus() -> list[InstanceSpec]:
    specs: list[InstanceSpec] = []
    for n in range(4, 13):
        specs.append(InstanceSpec("complete", n))
    for n in (5, 8, 12, 16, 24, 40):
        specs.append(InstanceSpec("path", n))
        specs.append(InstanceSpec("star", n))
    for n in (6, 8, 10, 14, 20, 28, 40):
        specs.append(InstanceSpec("two_cliques_bridge", n))
    for n in (8, 12, 20, 30, 40):
        specs.append(InstanceSpec("barbell", n))
    for n in (6, 10, 16, 24, 30, 36, 40):
        for d in (2, 3, 4):
            specs.append(InstanceSpec("expander_like", n, 0, (("degree", d),)))
    for p in (0.2, 0.35, 0.5, 0.7, 0.85):
        for n in (6, 8, 10, 13, 16, 20, 26, 33, 40):
            for seed in range(8):
                specs.append(InstanceSpec("random_gnp", n, seed, (("p", p),)))
    # planted cuts of sizes 0..delta-1 (delta of the planted family is far
    # above the plant for the dense halves used here)
    for n in (12, 20, 30, 40):
        for k in range(0, 6):
            for seed in range(4):
                if k <= n // 2:
                    specs.append(InstanceSpec("planted_cut", n, seed, (("k", k),)))
    return specs


def exhaustive_corpus(max_n: int) -> list[InstanceSpec]:
    specs = []
    for fam, ps in [
        ("complete", ()),
        ("path", ()),
        ("star", ()),
        ("two_cliques_bridge", ()),
        ("expander_like", ()),
        ("random_gnp", (("p", 0.35),)),
        ("random_gnp", (("p", 0.6),)),
        ("planted_cut", (("k", 2),)),
    ]:
        for n in (6, 8, 10, 12, max_n):
            if fam in ("two_cliques_bridge", "planted_cut") and n < 6:
                continue
            for seed in range(2):
                specs.append(InstanceSpec(fam, n, seed, ps))
    return specs


# ---------------------------------------------------------------------------
# criterion 1: exactness gate (min cut)


def test_criterion_1_mincut_exactness():
    specs = mincut_corpus()
    assert len(specs) >= 500
    count = 0
    t0 = time.time()
    for spec in specs:
        g = generate(spec)
        view, _, cache = make_view(g)
        ans = global_mincut(view, cache=cache)
        ref_val, _ = reference_mincut(g)
        assert ans.value == ref_val, (spec, ans.value, ref_val)
        if ans.value > 0 or ans.certificate == "disconnected":
            if 0 < len(ans.side) < g.n:
                assert g.cut_of(ans.side) == ans.value, spec
        count += 1
    elapsed = time.time() - t0
    _report(
        1,
        count >= 500 and elapsed < 300,
        f"global_mincut == reference on {count} instances (n<=40) in {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# criterion 2: exactness gate (max flow)


def test_criterion_2_maxflow_exactness():
    trials = 0
    t0 = time.time()
    for W in (1, 2, 3):
        for p in (0.25, 0.45, 0.65):
            for n in (6, 9, 12, 16, 21, 27, 34, 40):
                for seed in range(4):
                    ps = (("W", W), ("p", p)) if W > 1 else (("p", p),)
                    g = generate(InstanceSpec("random_gnp", n, seed, ps))
                    for s, t in ((0, n - 1), (1, n // 2)):
                        view, _, cache = make_view(g)
                        res = dinitz_maxflow(view, s, t, cache=cache)
                        assert res.value == reference_maxflow(g, s, t), (n, seed, W, s, t)
                        side = set(res.mincut_source_side)
                        if 0 < len(side) < g.n:
                            assert g.cut_of(side) == res.value
                        trials += 1
    for n in (6, 10, 16, 24, 32, 40):
        for fam in ("two_cliques_bridge", "complete", "barbell"):
            g = generate(InstanceSpec(fam, n))
            view, _, cache = make_view(g)
            res = dinitz_maxflow(view, 0, n - 1, cache=cache)
            assert res.value == reference_maxflow(g, 0, n - 1)
            trials += 1
    elapsed = time.time() - t0
    _report(
        2,
        trials >= 500 and elapsed < 300,
        f"dinitz == reference with duality self-check on {trials} trials in {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# criterion 3: query accounting


def test_criterion_3_query_accounting():
    # a BIS on fresh sets costs exactly 3 cut queries
    g = generate(InstanceSpec("random_gnp", 12, 0, (("p", 0.5),)))
    view, ledger, cache = make_view(g)
    for A, B in (((0,), (1, 2)), ((3, 4), (5,)), ((0, 6), (7, 8, 9))):
        before = ledger.cut_count
        cache.pair_capacity(view, A, B)
        assert ledger.cut_count - before == 3
    assert ledger.cut_count == 9

    # bfs budget (logical BIS calls)
    worst_bfs = 0.0
    for seed in range(4):
        for n in (8, 16, 32, 64):
            g = generate(InstanceSpec("random_gnp", n, seed, (("p", 0.4),)))
            view, _, cache = make_view(g)
            bfs_tree(cache, view, None, 0)
            worst_bfs = max(worst_bfs, cache.logical_bis / (n * math.log2(n)))

    # dominating-set budget (charged cut queries)
    worst_dom = 0.0
    for seed in range(4):
        for n in (8, 16, 32, 64):
            for fam, ps in (("random_gnp", (("p", 0.4),)), ("two_cliques_bridge", ())):
                g = generate(InstanceSpec(fam, n, seed, ps))
                view, ledger, cache = make_view(g)
                dominating_set(view, cache)
                worst_dom = max(worst_dom, ledger.cut_count / (n * math.log2(n)))

    ok = worst_bfs <= PINNED["C1_BFS"] and worst_dom <= PINNED["C2_DOMSET"]
    _report(
        3,
        ok,
        f"BIS=3 exactly; bfs ratio {worst_bfs:.3f} <= C1={PINNED['C1_BFS']}; "
        f"domset ratio {worst_dom:.3f} <= C2={PINNED['C2_DOMSET']}",
    )


# ---------------------------------------------------------------------------
# criterion 4: sub-learning scaling


def test_criterion_4_scaling():
    t0 = time.time()
    lines = []
    ok = True
    for fam, ps in (
        ("complete", ()),
        ("random_gnp", (("p", 0.5),)),
        ("two_cliques_bridge", ()),
    ):
        pts = []
        for n in (32, 64, 128, 256):
            g = generate(InstanceSpec(fam, n, 0, ps))
            view, ledger, cache = make_view(g)
            ans = global_mincut(view, cache=cache)
            ref_val, _ = reference_mincut(g)
            assert ans.value == ref_val, (fam, n)
            pts.append((n, ledger.cut_count))
            if n >= 64 and ledger.cut_count >= n * (n - 1) // 2:
                ok = False
            budget = (
                PINNED["C_GLOBAL"] * n ** (5 / 3) * math.log2(n) ** PINNED["K_GLOBAL"]
            )
            if ledger.cut_count > budget:
                ok = False
        slope = float(
            np.polyfit(np.log([p[0] for p in pts]), np.log([p[1] for p in pts]), 1)[0]
        )
        if slope > PINNED["SLOPE_MAX"]:
            ok = False
        lines.append(f"{fam}: slope {slope:.3f}, queries {[p[1] for p in pts]}")
    elapsed = time.time() - t0
    _report(4, ok and elapsed < 1200, "; ".join(lines) + f" ({elapsed:.0f}s)")


# ---------------------------------------------------------------------------
# criterion 5: structural property suites


def test_criterion_5_structural_properties():
    checks = {"separated": 0, "regions": 0, "distance": 0,
              "sparsified": 0, "expander_parts": 0}

    # (a) dominating sets are (delta-1)-separated
    for spec in exhaustive_corpus(14):
        g = generate(spec)
        if g.n > 18:
            continue
        view, _, cache = make_view(g)
        R = dominating_set(view, cache)
        assert is_dominating(g, R), spec
        _, delta, _ = degrees(view, cache)
        if delta >= 1:
            assert separation_check(g, R, delta - 1), (spec, R)
            checks["separated"] += 1

    # (c) T_r regions pairwise disjoint
    for spec in exhaustive_corpus(14):
        g = generate(spec)
        if g.n < 6:
            continue
        view, _, cache = make_view(g)
        R = (0, g.n // 2, g.n - 1)
        res = isolating_cuts(view, R, 2, cache=cache)
        regions = sorted(res.regions.items())
        for (r1, t1), (r2, t2) in itertools.combinations(regions, 2):
            assert not (set(t1) & set(t2)), (spec, r1, r2)
        checks["regions"] += 1

    # (d) strict distance increase across blocking-flow rounds
    for spec in exhaustive_corpus(14):
        g = generate(spec)
        view, _, cache = make_view(g)
        res = dinitz_maxflow(view, 0, g.n - 1, cache=cache)
        ds = [r.d for r in res.rounds]
        assert ds == sorted(set(ds)), (spec, ds)
        checks["distance"] += 1

    # (e) sparsified terminal sets stay tau-separated in the paper's
    # precondition regime (unbalanced sweep found nothing)
    for spec in exhaustive_corpus(14):
        g = generate(spec)
        lam, _ = reference_mincut(g)
        view, _, cache = make_view(g)
        _, delta, _ = degrees(view, cache)
        if delta < 2:
            continue
        tau = delta - 1
        if lam > tau:
            continue
        R = dominating_set(view, cache)
        if len(R) < 2:
            continue
        if unbalanced_case(view, R, tau, cache=cache) is not None:
            continue
        res = balanced_sparsify(view, R, tau, cache=cache)
        if res.kind == "sparsified" and res.terminals:
            assert separation_check(g, res.terminals, tau), spec
            checks["sparsified"] += 1
        elif res.kind == "cut":
            assert g.cut_of(res.side) <= tau
            checks["sparsified"] += 1
    # direct sparsifier exercise (the grown-source sweep finds every cut of
    # size <= tau that splits R, so the conditional loop above may be vacuous)
    g = generate(InstanceSpec("two_cliques_bridge", 12))
    view, _, cache = make_view(g)
    res = balanced_sparsify(view, tuple(range(12)), 1, cache=cache)
    assert res.kind == "cut" and g.cut_of(res.side) <= 1
    checks["sparsified"] += 1

    # (f) small decomposition parts pass the exhaustive almost-expander check
    phi = DESK.phi_for(14)
    for spec in exhaustive_corpus(14):
        g = generate(spec)
        if g.n < 6:
            continue
        tau = 1
        view, _, cache = make_view(g)
        parts = decompose(view, tuple(range(g.n)), tau, cache=cache)
        covered = sorted(v for p in parts for v in p.vertices)
        assert covered == list(range(g.n)), spec
        for p in parts:
            if len(p.vertices) > 18 or len(p.core) < 2:
                continue
            inner = set(p.vertices)
            core = set(p.core)
            threshold = phi * (tau + 1)
            for k in range(1, len(p.vertices)):
                for side in itertools.combinations(sorted(inner), k):
                    boundary = sum(
                        w for (u, v), w in g.edges.items()
                        if u in inner and v in inner and ((u in side) != (v in side))
                    )
                    small = min(len(core & set(side)), len(core - set(side)))
                    if small:
                        assert boundary >= threshold * small - 1e-9, (spec, p, side)
            checks["expander_parts"] += 1

    detail = ", ".join(f"{k}={v}" for k, v in checks.items())
    _report(5, all(v > 0 for v in checks.values()), detail)


# ---------------------------------------------------------------------------
# criterion 6: isolating-cut completeness


def test_criterion_6_isolating_completeness():
    t0 = time.time()
    runs = 0
    specs = [s for s in exhaustive_corpus(10) if s.n <= 10]
    for spec in specs:
        g = generate(spec)
        view, _, cache = make_view(g)
        for size in (2, 3, 4):
            for R in itertools.combinations(range(g.n), size):
                best, _ = reference_isolating(g, R)
                for tau in (best - 1, best):
                    if tau < 0:
                        continue
                    res = isolating_cuts(view, R, tau, cache=cache)
                    runs += 1
                    if best <= tau:
                        assert res.verdict == "found", (spec, R, tau)
                        assert res.cut_value == best, (spec, R, tau)
                        assert set(res.cut_side) & set(R) == {res.best_terminal}
                        assert g.cut_of(res.cut_side) == best
                    else:
                        assert res.verdict == "all_exceed_tau", (spec, R, tau)
    elapsed = time.time() - t0
    _report(
        6,
        runs > 0 and elapsed < 600,
        f"{runs} isolating runs vs brute force on n<=10 (|R| in 2..4) in {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# criterion 7: determinism


def test_criterion_7_determinism(tmp_path):
    specs = [
        InstanceSpec("two_cliques_bridge", 10, 0),
        InstanceSpec("random_gnp", 12, 1, (("p", 0.5),)),
        InstanceSpec("complete", 8, 0),
        InstanceSpec("planted_cut", 12, 0, (("k", 1),)),
    ]
    outs = []
    for tag in ("one", "two"):
        csv = tmp_path / f"{tag}.csv"
        tdir = tmp_path / tag
        run_suite(specs, ["mincut", "maxflow"], csv_path=csv, transcripts_dir=tdir)
        transcripts = {
            p.name: p.read_text() for p in sorted(tdir.iterdir()) if p.suffix == ".transcript"
        }
        outs.append((csv_without_wall(csv.read_text()), transcripts))
    same_csv = outs[0][0] == outs[1][0]
    same_tr = outs[0][1] == outs[1][1]
    _report(
        7,
        same_csv and same_tr,
        f"byte-identical CSV (wall_ms excluded) and {len(outs[0][1])} transcripts across reruns",
    )
