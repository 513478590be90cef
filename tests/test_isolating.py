"""Isolating cuts: bit partitions, partition flows, region disjointness, and
completeness against exhaustive search."""

import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cutlab
from cutlab.harness import InstanceSpec, generate, reference_isolating
from cutlab.isolating import bit_partitions, isolating_cuts, partition_mincut
from cutlab.oracle import QueryInputError
from conftest import make_view, random_graph, small_corpus


def test_import_cutlab_loads_isolating():
    # no other algorithm module imports isolating, and the benchmark's
    # tracer looks each wrapped module up in sys.modules, so `import cutlab`
    # loads it; a fresh interpreter shows it (this process imported it above)
    src = str(Path(cutlab.__file__).resolve().parents[1])
    code = "import sys, cutlab; assert 'cutlab.isolating' in sys.modules"
    env = {**os.environ, "PYTHONPATH": src}
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_bit_partitions_two_and_four():
    assert bit_partitions([7, 3]) == [((3,), (7,))]
    parts = bit_partitions([1, 2, 5, 9])
    assert len(parts) == 2
    for r, rp in itertools.combinations([1, 2, 5, 9], 2):
        assert any(
            (r in A and rp in B) or (r in B and rp in A) for A, B in parts
        ), (r, rp)


def test_bit_partitions_separate_all_pairs_generic():
    for R in ([3, 7, 8], list(range(10, 23)), [0, 4, 9, 11, 30]):
        parts = bit_partitions(R)
        assert len(parts) == max(1, math.ceil(math.log2(len(R))))
        for r, rp in itertools.combinations(R, 2):
            assert any(
                (r in A and rp in B) or (r in B and rp in A) for A, B in parts
            )
        for A, B in parts:
            assert A and B and not (set(A) & set(B))


def test_bit_partitions_requires_two():
    with pytest.raises(QueryInputError):
        bit_partitions([4])


def test_partition_mincut_b6(b6):
    view, _, cache = make_view(b6)
    pc = partition_mincut(view, (0,), (5,), 1, cache=cache)
    assert pc.source_side == (0, 1, 2)
    assert pc.saturated == ()
    assert pc.flow_value == 1


def test_partition_mincut_k4_saturates(k4):
    view, _, cache = make_view(k4)
    pc = partition_mincut(view, (0,), (3,), 1, cache=cache)
    # terminal budget tau+1=2 is below the 0-3 min cut, so both saturate
    assert pc.flow_value == 2
    assert pc.saturated == (0, 3)


def test_isolating_examples(b6, k4):
    view, _, cache = make_view(b6)
    res = isolating_cuts(view, (0, 5), 1, cache=cache)
    assert res.verdict == "found"
    assert res.cut_value == 1
    assert res.cut_side in ((0, 1, 2), (3, 4, 5))
    view, _, cache = make_view(k4)
    res = isolating_cuts(view, (0, 1, 2, 3), 2, cache=cache)
    assert res.verdict == "all_exceed_tau"


def test_isolating_star_leaf():
    star = generate(InstanceSpec("star", 5))
    view, _, cache = make_view(star)
    res = isolating_cuts(view, (1, 2, 3), 1, cache=cache)
    assert res.verdict == "found"
    assert res.cut_value == 1
    assert res.best_terminal == 1
    assert res.cut_side == (1,)


def test_regions_disjoint_and_isolating_sides():
    for seed in range(6):
        g = random_graph(10, 0.35, seed)
        view, _, cache = make_view(g)
        R = (0, 3, 7)
        res = isolating_cuts(view, R, 2, cache=cache)
        regions = list(res.regions.items())
        for (r1, t1), (r2, t2) in itertools.combinations(regions, 2):
            assert not (set(t1) & set(t2)), (r1, r2)
        for rec in res.records:
            if rec.side is not None:
                assert set(rec.side) & set(R) == {rec.terminal}
                assert g.cut_of(rec.side) == rec.value


def test_isolating_completeness_small():
    tested = 0
    for g in small_corpus(max_n=10, seeds=1):
        if g.n > 10:
            continue
        for R in itertools.combinations(range(g.n), 3):
            best, _ = reference_isolating(g, R)
            for tau in (best - 1, best):
                if tau < 0:
                    continue
                view, _, cache = make_view(g)
                res = isolating_cuts(view, R, tau, cache=cache)
                tested += 1
                if best <= tau:
                    assert res.verdict == "found"
                    assert res.cut_value == best
                    assert g.cut_of(res.cut_side) == best
                else:
                    assert res.verdict == "all_exceed_tau"
            break  # one terminal set per instance here; the volume test is acceptance 6
    assert tested > 0


def test_submodularity_spot_check():
    # sanity for the no-crossing machinery
    for seed in range(4):
        g = random_graph(9, 0.5, seed)
        sides = [(0, 1, 2), (1, 2, 3, 4), (0, 2, 5), (3, 4, 5, 6)]
        for S1, S2 in itertools.combinations(sides, 2):
            a, b = set(S1), set(S2)
            lhs = g.cut_of(a) + g.cut_of(b)
            rhs = g.cut_of(a & b) + g.cut_of(a | b)
            assert lhs >= rhs


def test_terminals_outside_core_get_infinity(k4):
    view, _, cache = make_view(k4)
    res = isolating_cuts(view, (0, 1, 2, 3), 1, cache=cache)
    assert res.verdict == "all_exceed_tau"
    assert all(rec.value == math.inf for rec in res.records)


def test_isolating_requires_two_terminals(b6):
    view, _, cache = make_view(b6)
    with pytest.raises(QueryInputError):
        isolating_cuts(view, (3,), 1, cache=cache)
