"""Golden transcripts: the SHA-256 of `transcript_text()` for a few fixed
small solves. Any change to which base sets are charged, in which order, or
with which answers or tags changes a digest. A change that is meant to leave
the charged queries alone (a faster kernel, an index, less canonicalisation)
must keep every digest as it is.

Each case also records the residual probes its solve issued
(`CutCache.logical_bis`), so a change to what that counter counts must be
declared with the new figures. A neighbourhood read from learned pairs
issues none."""

import hashlib

import pytest

from cutlab.expander import decompose
from cutlab.harness import InstanceSpec, generate
from cutlab.maxflow import dinitz_maxflow
from cutlab.mincut import global_mincut
from conftest import make_view


def _digest(ledger) -> str:
    return hashlib.sha256(ledger.transcript_text().encode()).hexdigest()


def _mincut(spec):
    view, ledger, cache = make_view(generate(spec))
    return global_mincut(view, cache).value, ledger, cache


def _maxflow(spec, s, t):
    view, ledger, cache = make_view(generate(spec))
    return dinitz_maxflow(view, s, t, cache).value, ledger, cache


def _maxflow_pairs(spec, pairs):
    # every pair runs on the same cache, so later pairs start from the
    # capacities the earlier ones learned
    view, ledger, cache = make_view(generate(spec))
    return tuple(dinitz_maxflow(view, s, t, cache).value for s, t in pairs), ledger, cache


def _decompose(spec):
    g = generate(spec)
    view, ledger, cache = make_view(g)
    return len(decompose(view, range(g.n), 1, cache=cache)), ledger, cache


GNP32 = InstanceSpec("random_gnp", 32, 2).with_params(p=0.2)

GOLDEN = [
    (
        "mincut_expander_d3_n32",
        lambda: _mincut(InstanceSpec("expander_like", 32).with_params(degree=3)),
        6,
        334,
        406,
        "246c1b4dd11d25de17afe0837aabe0251403f8feb25a9aab8872108803f41651",
    ),
    (
        "mincut_gnp_n24",
        lambda: _mincut(InstanceSpec("random_gnp", 24, 1).with_params(p=0.3)),
        3,
        165,
        155,
        "20b7e479e2697c0f25d1f7e19082654f9eaa90ba86880a7485e4a6248b174f58",
    ),
    (
        "maxflow_gnp_n32_0_31",
        lambda: _maxflow(GNP32, 0, 31),
        3,
        170,
        96,
        "b54b09fe7158b7d28c03bb971d6b703c88a8317f434bdf435934672d693cc00d",
    ),
    (
        "maxflow_gnp_n32_5_17",
        lambda: _maxflow(GNP32, 5, 17),
        3,
        273,
        320,
        "38f1bfa80c8c956c57a4c220d1608eff2d4f11d832f32d4dd9d951eeb900296b",
    ),
    (
        "mincut_expander_d3_n128",
        lambda: _mincut(InstanceSpec("expander_like", 128).with_params(degree=3)),
        6,
        1812,
        2313,
        "9b6e2b1ea0ab0ae56ff9b13f137e082f0924131e2d12370acd42925fc9dc6e76",
    ),
    (
        "maxflow_gnp_w3_n48_shared_cache",
        lambda: _maxflow_pairs(
            InstanceSpec("random_gnp", 48, 3).with_params(p=0.3, W=3), ((0, 47), (7, 30))
        ),
        (24, 18),
        863,
        1008,
        "3a89fd35572184421d0f70a5cff0304beaf93ad73351a28188cb4af09a478a23",
    ),
    (
        # builds contracted views, whose probes read their linear forms
        "mincut_planted_cut_n32",
        lambda: _mincut(InstanceSpec("planted_cut", 32, 5).with_params(k=2)),
        2,
        213,
        335,
        "efa5a805e418061fe528ec76b274109650e953fe8824c65d170f4e70070cb779",
    ),
    (
        "decompose_two_cliques_n16",
        lambda: _decompose(InstanceSpec("two_cliques_bridge", 16)),
        2,
        63,
        94,
        "d815ea6f89d6e6942436324225f3aa51dfb6c8dd6503ec8f3c828cbc77b244f9",
    ),
    (
        # 8 exact cut-player calls at k=16 slots and 1 spectral call at k=32
        "decompose_two_cliques_n32",
        lambda: _decompose(InstanceSpec("two_cliques_bridge", 32)),
        2,
        150,
        278,
        "e0dd875055d0ef036e616b6d2a415504e9c84db3e49277aff6693f838ca6472d",
    ),
]


@pytest.mark.parametrize(
    "solve,answer,queries,logical_bis,digest",
    [g[1:] for g in GOLDEN],
    ids=[g[0] for g in GOLDEN],
)
def test_golden_transcript(solve, answer, queries, logical_bis, digest):
    value, ledger, cache = solve()
    assert value == answer
    assert ledger.cut_count == queries
    assert cache.logical_bis == logical_bis
    assert _digest(ledger) == digest
