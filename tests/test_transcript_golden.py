"""Golden transcripts: the SHA-256 of `transcript_text()` for a few fixed
small solves. Any change to which base sets are charged, in which order, or
with which answers or tags changes a digest. A change that is meant to leave
the charged queries alone (a faster kernel, an index, less canonicalisation)
must keep every digest as it is."""

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
    return global_mincut(view, cache).value, ledger


def _maxflow(spec, s, t):
    view, ledger, cache = make_view(generate(spec))
    return dinitz_maxflow(view, s, t, cache).value, ledger


def _maxflow_pairs(spec, pairs):
    # every pair runs on the same cache, so later pairs start from the
    # capacities the earlier ones learned
    view, ledger, cache = make_view(generate(spec))
    return tuple(dinitz_maxflow(view, s, t, cache).value for s, t in pairs), ledger


def _decompose(spec):
    g = generate(spec)
    view, ledger, cache = make_view(g)
    return len(decompose(view, range(g.n), 1, cache=cache)), ledger


GNP32 = InstanceSpec("random_gnp", 32, 2).with_params(p=0.2)

GOLDEN = [
    (
        "mincut_expander_d3_n32",
        lambda: _mincut(InstanceSpec("expander_like", 32).with_params(degree=3)),
        6,
        375,
        "b4f08c115f395d1590dd4fbd265da811bb1f83700b231af863ee264bdf53987e",
    ),
    (
        "mincut_gnp_n24",
        lambda: _mincut(InstanceSpec("random_gnp", 24, 1).with_params(p=0.3)),
        3,
        242,
        "d8243071c3251dfca4cba285f299eda5f16390081bb9d4fdfbbf708566743f43",
    ),
    (
        "maxflow_gnp_n32_0_31",
        lambda: _maxflow(GNP32, 0, 31),
        3,
        255,
        "2e790e5ced79a0dbebd501a0521f52c4e34e424b5e6ed14ee1946b6359366a50",
    ),
    (
        "maxflow_gnp_n32_5_17",
        lambda: _maxflow(GNP32, 5, 17),
        3,
        374,
        "f06363b9275c2a4bdd502e8a2de4267ca576ba3d8e9f361eb133cf0229187605",
    ),
    (
        "mincut_expander_d3_n128",
        lambda: _mincut(InstanceSpec("expander_like", 128).with_params(degree=3)),
        6,
        1939,
        "ecd8d14c89f81c700d70f36011585936c9c4d6e75902722edd6ff7a3c5d2fdd5",
    ),
    (
        "maxflow_gnp_w3_n48_shared_cache",
        lambda: _maxflow_pairs(
            InstanceSpec("random_gnp", 48, 3).with_params(p=0.3, W=3), ((0, 47), (7, 30))
        ),
        (24, 18),
        1464,
        "429993771581a99bf403328a0b8748ef2bfed958dd31161158da2d3d8351045e",
    ),
    (
        "decompose_two_cliques_n16",
        lambda: _decompose(InstanceSpec("two_cliques_bridge", 16)),
        2,
        64,
        "889ead02ef898b605bc8f5586e7b0f37963e14f8d4d95385ac20c67017707e7f",
    ),
    (
        # 8 exact cut-player calls at k=16 slots and 1 spectral call at k=32
        "decompose_two_cliques_n32",
        lambda: _decompose(InstanceSpec("two_cliques_bridge", 32)),
        2,
        151,
        "5d17ce84bb2bc7959d9e1a363dfe0fe410565b68aad33e6c9c205d7d53e4ec62",
    ),
]


@pytest.mark.parametrize(
    "solve,answer,queries,digest", [g[1:] for g in GOLDEN], ids=[g[0] for g in GOLDEN]
)
def test_golden_transcript(solve, answer, queries, digest):
    value, ledger = solve()
    assert value == answer
    assert ledger.cut_count == queries
    assert _digest(ledger) == digest
