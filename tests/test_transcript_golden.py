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
from cutlab.isolating import isolating_cuts
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


def _isolating(spec, R, tau):
    view, ledger, cache = make_view(generate(spec))
    return isolating_cuts(view, R, tau, cache).cut_value, ledger, cache


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
        323,
        361,
        "2363bc8f3dec835cd43e835f6b8e63c5361dd9d34bf0a3ad2310ac785b071592",
    ),
    (
        "mincut_gnp_n24",
        lambda: _mincut(InstanceSpec("random_gnp", 24, 1).with_params(p=0.3)),
        3,
        166,
        129,
        "78ed68b547720609df5ff41236a16eeca0faa3876a4bc3c2ffc5ec6eb467c38d",
    ),
    (
        "maxflow_gnp_n32_0_31",
        lambda: _maxflow(GNP32, 0, 31),
        3,
        51,
        28,
        "1c084b8e6efc222194b0ec09b70bf9cac0b603ddc727e09c3a36dae623b342f1",
    ),
    (
        "maxflow_gnp_n32_5_17",
        lambda: _maxflow(GNP32, 5, 17),
        3,
        253,
        303,
        "b75145f5d1b72ce2c8b8824c17ffb5eddd0f9bb00772dba9f877e932e9508acc",
    ),
    (
        "mincut_expander_d3_n128",
        lambda: _mincut(InstanceSpec("expander_like", 128).with_params(degree=3)),
        6,
        1664,
        2066,
        "5702b3ac0d350d0bf7b9f9ae9d1adc35bf5a67b8f1e6d3fdafce973b7732d72b",
    ),
    (
        "maxflow_gnp_w3_n48_shared_cache",
        lambda: _maxflow_pairs(
            InstanceSpec("random_gnp", 48, 3).with_params(p=0.3, W=3), ((0, 47), (7, 30))
        ),
        (24, 18),
        696,
        879,
        "27f74c8b3569e8c1d9a9f768ca33628d5e3e115fce63f656f2f1f43d1e630c66",
    ),
    (
        # a cut below delta, found by the grown-source sweep
        "mincut_planted_cut_n32",
        lambda: _mincut(InstanceSpec("planted_cut", 32, 5).with_params(k=2)),
        2,
        181,
        171,
        "01ae9f9ba832ed18b066ba46b37eb1404c547f472a702648fab8b8a5f4d203cc",
    ),
    (
        # a dense graph whose minimum cut is the degree cut: the top probe
        # sweeps every terminal of R and certifies "above"
        "mincut_gnp_dense_n48",
        lambda: _mincut(InstanceSpec("random_gnp", 48, 1).with_params(p=0.5)),
        15,
        466,
        453,
        "bb0093ea13f21ad720d898d60dbf233287db8f23b529837226fe123caac8f629",
    ),
    (
        # the sweep's first cut is the planted one, of value 3; each later
        # flow stops once it reaches 3, not delta = 45
        "mincut_planted_cut_n128",
        lambda: _mincut(InstanceSpec("planted_cut", 128, 1).with_params(k=3)),
        3,
        712,
        832,
        "daca2181773bee0f8083d61446e1957238b56fb05abd6b652cca2389f55c2434",
    ),
    (
        # terminal 3 alone on its side of the planted cut: its region is
        # contracted, and the local flow runs on the ContractedView
        "isolating_planted_cut_n32",
        lambda: _isolating(InstanceSpec("planted_cut", 32, 5).with_params(k=2), (3, 17, 22, 28), 2),
        2,
        157,
        226,
        "6c85cf4c09edb9259c74d57dc6132e52d46c45583e675c077c4e68ecefc342af",
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
