"""Shared fixtures and brute-force oracles.

The brute helpers read the hidden graph directly (adjacency scans, explicit
residual graphs, exhaustive cut enumeration); they are the independent side
of every dual-route check in the suite.
"""

from __future__ import annotations

import random

import pytest

from cutlab.harness import InstanceSpec, generate
from cutlab.oracle import (
    AugmentedView,
    BaseView,
    ContractedView,
    CutCache,
    Flow,
    GraphInstance,
    InducedView,
    QueryLedger,
)


def make_view(g: GraphInstance):
    ledger = QueryLedger()
    view = BaseView(g, ledger)
    return view, ledger, CutCache(view)


@pytest.fixture
def b6() -> GraphInstance:
    # two triangles {0,1,2},{3,4,5} plus the bridge (2,3)
    return generate(InstanceSpec("two_cliques_bridge", 6))


@pytest.fixture
def k4() -> GraphInstance:
    return generate(InstanceSpec("complete", 4))


@pytest.fixture
def k3() -> GraphInstance:
    return generate(InstanceSpec("complete", 3))


@pytest.fixture
def p4() -> GraphInstance:
    return generate(InstanceSpec("path", 4))


def random_graph(n: int, p: float, seed: int, W: int = 1) -> GraphInstance:
    params = (("W", W), ("p", p)) if W > 1 else (("p", p),)
    return generate(InstanceSpec("random_gnp", n, seed, params))


# ---------------------------------------------------------------------------
# explicit residual-graph oracles


def residual_capacity(g: GraphInstance, f: Flow | None, u: int, v: int) -> int:
    key = (u, v) if u < v else (v, u)
    c = g.edges.get(key, 0)
    return c - (f.get(u, v) if f is not None else 0)


def brute_residual_neighbors(g, f, A, B) -> list[int]:
    out = []
    for b in sorted(B):
        if any(residual_capacity(g, f, a, b) > 0 for a in A):
            out.append(b)
    return out


def brute_bfs_layers(g: GraphInstance, f: Flow | None, root: int) -> list[int]:
    """The residual BFS layers of g from root under f, as bitmasks: layers[d]
    holds the vertices at distance d, found by scanning every vertex pair."""
    layers = [1 << root]
    seen = 1 << root
    frontier = [root]
    while True:
        nxt = 0
        for u in frontier:
            for v in range(g.n):
                if not (seen | nxt) >> v & 1 and residual_capacity(g, f, u, v) > 0:
                    nxt |= 1 << v
        if not nxt:
            return layers
        layers.append(nxt)
        seen |= nxt
        frontier = [v for v in range(g.n) if nxt >> v & 1]


# ---------------------------------------------------------------------------
# explicit adjacency {(u, v): capacity} of derived views


def materialize_augmented(parent_edges, aug):
    """Explicit adjacency of the augmented graph for brute-force cuts, from
    the explicit adjacency {(u, v): capacity} of its parent view."""
    cap = {}

    def add(u, v, w):
        key = (min(u, v), max(u, v))
        cap[key] = cap.get(key, 0) + w

    for (u, v), w in parent_edges.items():
        add(u, v, w * aug.scale)
    for u, v, w in aug.virtual_edges:
        add(u, v, w)
    return cap


def contracted_edges(parent_edges, cv, drop=None):
    """Explicit adjacency of a contracted view, from the explicit adjacency
    of its parent: parallel edges into s_r merge, and the edge between
    `drop` and s_r, if given, comes off."""
    cap = {}
    for (u, v), w in parent_edges.items():
        uu = u if u in cv else cv.s_r
        vv = v if v in cv else cv.s_r
        if uu != vv:
            key = (min(uu, vv), max(uu, vv))
            cap[key] = cap.get(key, 0) + w
    if drop is not None:
        cap.pop((drop, cv.s_r), None)
    return cap


def contracted_view(parent, parent_edges, keep, drop=None):
    """Contracted view of `keep` with its true crossing capacities, from the
    explicit adjacency of its parent; the kept vertex `drop`, if given, gets
    capacity 0 to s_r, as isolating_cuts gives its terminal."""
    w_out = dict.fromkeys(keep, 0)
    for (a, b), w in parent_edges.items():
        if (a in w_out) != (b in w_out):
            w_out[a if a in w_out else b] += w
    if drop is not None:
        w_out[drop] = 0
    return ContractedView(parent, keep, w_out)


def induced_view(view, g, part):
    """Induced view on `part`, plus its explicit adjacency."""
    edges = {(u, v): w for (u, v), w in g.edges.items() if u in part and v in part}
    return InducedView(view, part), edges


def view_residual_neighbors(cap, f: Flow | None, u: int, B) -> list[int]:
    """Residual neighbours of u among B in a view with explicit adjacency
    cap, under f (None: the zero flow)."""
    out = []
    for b in sorted(B):
        c = cap.get((min(u, b), max(u, b)), 0)
        if c - (f.get(u, b) if f is not None else 0) > 0:
            out.append(b)
    return out


def push_random_path(g: GraphInstance, f: Flow, rng: random.Random) -> bool:
    """Push a random amount along a random residual f.source-f.sink path of
    g, found by a random DFS; False when there is none."""
    s, t = f.source, f.sink
    stack = [(s, [s])]
    seen = {s}
    path = None
    while stack:
        u, pth = stack.pop()
        if u == t:
            path = pth
            break
        nbrs = [v for v in range(g.n) if v not in seen and residual_capacity(g, f, u, v) > 0]
        rng.shuffle(nbrs)
        for v in nbrs:
            seen.add(v)
            stack.append((v, pth + [v]))
    if path is None:
        return False
    bottleneck = min(residual_capacity(g, f, a, b) for a, b in zip(path, path[1:]))
    amt = rng.randint(1, bottleneck)
    for a, b in zip(path, path[1:]):
        f.push(a, b, amt)
    f.value += amt
    return True


def random_valid_flow(g: GraphInstance, s: int, t: int, seed: int, tries: int = 6) -> Flow:
    """Valid integral s-t flow built by pushing random amounts along random
    residual augmenting paths."""
    rng = random.Random(seed)
    f = Flow(s, t)
    for _ in range(tries):
        if not push_random_path(g, f, rng):
            break
    return f


def copy_flow(f: Flow) -> Flow:
    """A flow with f's entries and value, rebuilt by pushes, so its row
    memo starts empty."""
    g = Flow(f.source, f.sink)
    for u, v, val in f.support():
        g.push(u, v, val)
    g.value = f.value
    return g


def explicit_graph(view, cap) -> GraphInstance:
    """The view graph with explicit adjacency cap as a GraphInstance on the
    ids 0..max view id, for the explicit residual-graph oracles."""
    return GraphInstance(view.vertices()[-1] + 1, {e: w for e, w in cap.items() if w})


def flow_views(g: GraphInstance):
    """(name, view, cap, s, t, real) for flows over one base view of g
    (n >= 6): the base view, augmented views of scale 1 and 2 with two
    terminals on each side, and a contracted view of all but the top three
    ids. cap is the view's explicit adjacency, s and t its flow terminals,
    and real the view vertices backed by base vertices."""
    view, _, _ = make_view(g)
    n = g.n
    every = frozenset(range(n))
    yield "base", view, g.edges, 0, n - 1, every
    for scale in (1, 2):
        aug = AugmentedView(view, [(0, 2), (1, 1)], [(n - 1, 2), (n - 2, 1)], scale=scale)
        cap = materialize_augmented(g.edges, aug)
        yield f"augmented_scale{scale}", aug, cap, aug.s_source, aug.s_sink, every
    keep = tuple(range(n - 3))
    cv = contracted_view(view, g.edges, keep)
    yield "contracted", cv, contracted_edges(g.edges, cv), 0, cv.s_r, frozenset(keep)


def brute_cut(g: GraphInstance, side) -> int:
    return g.cut_of(side)


def small_corpus(max_n: int = 14, seeds: int = 2) -> list[GraphInstance]:
    """Deterministic mixed bag of small instances for exhaustive-mode tests."""
    out = []
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
        for n in (6, 9, 12, max_n):
            if fam in ("two_cliques_bridge", "planted_cut") and n < 6:
                continue
            for seed in range(seeds):
                out.append(generate(InstanceSpec(fam, n, seed, ps)))
    return out
