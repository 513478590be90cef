"""Hidden-graph cut oracle with exact query accounting.

A GraphInstance holds the hidden capacitated simple graph. Algorithms only
ever reach it through a view and the CutCache over it; the base view charges
every base-graph query on a QueryLedger, which keeps a replayable
transcript. Every view holds its vertex set once, as a bitmask; a derived
view (augmented, contracted, induced) is that bitmask plus one reduction:
the capacity of one vertex towards a vertex set, as a LinearForm over
base-graph capacities and explicitly known virtual structure, so only
base-graph information ever costs anything. Cut and pair queries are asked
of the base view alone.

The CutCache charges through the base view and memoises: a deterministic
algorithm never needs to issue the same base query twice, so the cache
answers repeats for free while the ledger keeps counting real queries. It
also keeps what the answers teach about the hidden graph: pair capacities,
and the totals of probed blocks whose pairs are not learned yet.

Concurrency: a view plus its ledger (and any cache over them) is
single-owner, single-threaded state; distinct GraphInstances with distinct
ledgers may be used from different threads without coordination.
"""

from __future__ import annotations

import json
import operator
from contextlib import contextmanager
from typing import Iterable, NamedTuple, Optional

import numpy as np

from . import _kernels
from ._kernels import ids_of

MAX_TOTAL_CAPACITY = 1 << 62  # cut sums must stay inside 64-bit ints


class GraphFormatError(ValueError):
    pass


class QueryInputError(ValueError):
    pass


class ContractViolation(RuntimeError):
    pass


def canon(ids: Iterable[int]) -> tuple[int, ...]:
    return tuple(sorted(ids))


def mask_of(ids: Iterable[int]) -> int:
    """Bitmask with bit v set for every vertex v of `ids`."""
    mask = 0
    for v in ids:
        mask |= 1 << v
    return mask


def _checked_mask(ids: Iterable[int], n: int) -> int:
    """Bitmask of the vertex ids `ids`; a repeated id counts once. Raises
    QueryInputError for an id that is not an integer in [0, n)."""
    side = ids if type(ids) is tuple else tuple(ids)
    try:
        # Python ints in range; the bound comes before any shift, since
        # 1 << v allocates v bits, and a negative v raises ValueError
        if side and max(side) >= n:
            raise IndexError
        mask = 0
        for v in side:
            mask |= 1 << v
        if type(mask) is not int:  # numpy ints
            raise TypeError
    except (IndexError, TypeError, ValueError, OverflowError):
        # convert other integer types (numpy's), refuse everything else
        mask = 0
        for v in side:
            try:
                v = operator.index(v)
            except TypeError:
                raise QueryInputError("vertex ids must be integers") from None
            if not 0 <= v < n:
                raise QueryInputError(f"vertex {v} outside [0, {n})")
            mask |= 1 << v
    return mask


# ---------------------------------------------------------------------------
# hidden graph


class GraphInstance:
    """The hidden simple capacitated graph. Algorithms must not touch it;
    only the oracle and the harness-side reference checkers may."""

    def __init__(self, n: int, edges: dict[tuple[int, int], int]):
        if n < 1:
            raise GraphFormatError("need at least one vertex")
        norm: dict[tuple[int, int], int] = {}
        total = 0
        for (u, v), w in edges.items():
            if u == v:
                raise GraphFormatError(f"self-loop at {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise GraphFormatError(f"vertex out of range in edge ({u},{v})")
            if not isinstance(w, int) or w < 1:
                raise GraphFormatError(f"capacity of ({u},{v}) must be an integer >= 1")
            key = (u, v) if u < v else (v, u)
            if key in norm:
                raise GraphFormatError(f"duplicate edge {key}")
            norm[key] = w
            total += w
        if total >= MAX_TOTAL_CAPACITY:
            raise GraphFormatError("total capacity overflows the 64-bit budget")
        self.n = n
        self.edges = dict(sorted(norm.items()))
        self.W = max(self.edges.values(), default=1)
        self._planes = self._build_planes()

    def _build_planes(self):
        """One bitset per vertex and weight bit k: rows[v] holds the
        neighbours of v joined by an edge whose capacity has bit k set.
        Returns the (k, rows) pairs of the planes that hold an edge."""
        planes = [[0] * self.n for _ in range(self.W.bit_length())]
        for (u, v), w in self.edges.items():
            k = 0
            while w:
                if w & 1:
                    rows = planes[k]
                    rows[u] |= 1 << v
                    rows[v] |= 1 << u
                w >>= 1
                k += 1
        return tuple((k, tuple(rows)) for k, rows in enumerate(planes) if any(rows))

    def __eq__(self, other):
        return (
            isinstance(other, GraphInstance)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __repr__(self):
        return f"GraphInstance(n={self.n}, m={len(self.edges)}, W={self.W})"

    @property
    def m(self) -> int:
        return len(self.edges)

    def cut_of(self, ids: Iterable[int]) -> int:
        """Capacity of the edges leaving `ids`; a repeated id counts once.
        Raises QueryInputError for an id that is not an integer in [0, n)."""
        return _kernels.cut_value(self._planes, self.n, _checked_mask(ids, self.n))

    def adjacency(self) -> dict[int, dict[int, int]]:
        adj: dict[int, dict[int, int]] = {v: {} for v in range(self.n)}
        for (u, v), w in self.edges.items():
            adj[u][v] = w
            adj[v][u] = w
        return adj

    def degree(self, v: int) -> int:
        if not 0 <= v < self.n:  # a negative v would index from the end
            raise QueryInputError(f"vertex {v} outside [0, {self.n})")
        return sum(rows[v].bit_count() << k for k, rows in self._planes)

    def edge_arrays(self):
        m = max(len(self.edges), 1)
        eu = np.zeros(m, dtype=np.int64)
        ev = np.zeros(m, dtype=np.int64)
        ew = np.zeros(m, dtype=np.int64)
        for i, ((u, v), w) in enumerate(self.edges.items()):
            eu[i], ev[i], ew[i] = u, v, w
        if not self.edges:
            return eu[:0], ev[:0], ew[:0]
        return eu, ev, ew

    # -- plain text format: first line "n m", then m lines "u v [w]"

    @classmethod
    def load(cls, path) -> "GraphInstance":
        with open(path) as fh:
            return cls.loads(fh.read())

    @classmethod
    def loads(cls, text: str) -> "GraphInstance":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise GraphFormatError("empty graph file")
        head = lines[0].split()
        if len(head) != 2:
            raise GraphFormatError("first line must be 'n m'")
        try:
            n, m = int(head[0]), int(head[1])
        except ValueError as exc:
            raise GraphFormatError("first line must be 'n m'") from exc
        if len(lines) - 1 != m:
            raise GraphFormatError(f"expected {m} edge lines, found {len(lines) - 1}")
        edges: dict[tuple[int, int], int] = {}
        for ln in lines[1:]:
            parts = ln.split()
            if len(parts) not in (2, 3):
                raise GraphFormatError(f"bad edge line: {ln!r}")
            try:
                u, v = int(parts[0]), int(parts[1])
                w = int(parts[2]) if len(parts) == 3 else 1
            except ValueError as exc:
                raise GraphFormatError(f"bad edge line: {ln!r}") from exc
            key = (u, v) if u < v else (v, u)
            if key in edges:
                raise GraphFormatError(f"duplicate edge {key}")
            edges[key] = w
        return cls(n, edges)

    def dumps(self) -> str:
        out = [f"{self.n} {len(self.edges)}"]
        for (u, v), w in self.edges.items():
            out.append(f"{u} {v} {w}")
        return "\n".join(out) + "\n"

    def dump(self, path):
        with open(path, "w") as fh:
            fh.write(self.dumps())


# ---------------------------------------------------------------------------
# ledger


class TranscriptRecord:
    """One query: sequence number, vertex set, answer and phase tag.
    Records compare by value.

    A charged query is recorded by the bitmask of its set (`from_mask`),
    and `ids` lists it in increasing order when first read, so the set is
    listed only when the transcript is."""

    __slots__ = ("seq", "answer", "tag", "_ids", "_mask")

    def __init__(self, seq: int, ids: Iterable[int], answer: int, tag: str):
        self.seq = seq
        self._ids = tuple(ids)
        self.answer = answer
        self.tag = tag

    @classmethod
    def from_mask(cls, seq: int, mask: int, answer: int, tag: str) -> "TranscriptRecord":
        rec = cls.__new__(cls)
        rec.seq = seq
        rec._ids = None
        rec._mask = mask
        rec.answer = answer
        rec.tag = tag
        return rec

    @property
    def ids(self) -> tuple[int, ...]:
        if self._ids is None:
            self._ids = tuple(ids_of(self._mask))
        return self._ids

    def _fields(self):
        return (self.seq, self.ids, self.answer, self.tag)

    def __eq__(self, other):
        if type(other) is not TranscriptRecord:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        return "TranscriptRecord(seq=%r, ids=%r, answer=%r, tag=%r)" % self._fields()


class QueryLedger:
    """Exact counters plus a replayable transcript of every charged query."""

    def __init__(self):
        self.cut_count = 0
        self.transcript: list[TranscriptRecord] = []
        self.phase_tags: dict[str, int] = {}
        self._tags: list[str] = []

    @property
    def tag(self) -> str:
        return self._tags[-1] if self._tags else ""

    @contextmanager
    def phase(self, label: str):
        self._tags.append(label)
        try:
            yield self
        finally:
            self._tags.pop()

    def record_cut(self, mask: int, answer: int) -> None:
        """Charge one query: the base set with bitmask `mask`."""
        self.transcript.append(TranscriptRecord.from_mask(self.cut_count, mask, answer, self.tag))
        self.cut_count += 1
        if self.tag:
            self.phase_tags[self.tag] = self.phase_tags.get(self.tag, 0) + 1

    # -- transcript format: one JSON object per line

    def transcript_text(self) -> str:
        out = []
        for rec in self.transcript:
            out.append(
                json.dumps(
                    {"seq": rec.seq, "set": list(rec.ids), "answer": rec.answer, "tag": rec.tag},
                    sort_keys=True,
                    separators=(",", ":"),
                )
            )
        return "\n".join(out) + ("\n" if out else "")

    def write_transcript(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.transcript_text())

    @staticmethod
    def parse_transcript(text: str) -> list[TranscriptRecord]:
        recs = []
        for ln in text.splitlines():
            if not ln.strip():
                continue
            obj = json.loads(ln)
            recs.append(
                TranscriptRecord(obj["seq"], tuple(obj["set"]), obj["answer"], obj.get("tag", ""))
            )
        return recs

    @staticmethod
    def replay(records: list[TranscriptRecord], instance: GraphInstance) -> bool:
        """True iff the hidden instance reproduces every recorded answer."""
        for rec in records:
            if instance.cut_of(rec.ids) != rec.answer:
                return False
        return True


# ---------------------------------------------------------------------------
# flows


def _toggle(rows: dict[int, list[int]], u: int, bit: int, mag: int) -> None:
    """Toggle `bit` in the planes of u's row in rows whose index is a set
    bit of mag."""
    planes = rows.get(u)
    if planes is None:
        planes = rows[u] = []
    while len(planes) < mag.bit_length():
        planes.append(0)
    k = 0
    while mag:
        if mag & 1:
            planes[k] ^= bit
        mag >>= 1
        k += 1


class Flow:
    """Antisymmetric integral flow assignment: get(u, v) == -get(v, u).

    Each row is held as signed bit planes: bit v of _pos[u][k] (of
    _neg[u][k]) says f(u, v) is positive (negative) and bit k of its
    magnitude is set. push toggles the old value out of the planes and the
    new one in; two toggles of the same planes compose by XOR, so each
    side's planes are toggled once, by the XOR of its old and new
    magnitudes.

    _rows memoises each vertex's learned residual row for
    CutCache.learned_neighbors: _rows[u] is (view, base_u, snapshot, res,
    unknown), where snapshot is the cache's learned-pair mask of base_u when
    the row was read, unknown the bitmask of view vertices whose base pair
    with base_u was not learned then, and res the residual neighbours of u
    among the other view vertices. push drops the rows of both ends."""

    __slots__ = ("source", "sink", "value", "_pos", "_neg", "_rows")

    def __init__(self, source: int, sink: int):
        if source == sink:
            raise QueryInputError("source and sink must differ")
        self.source = source
        self.sink = sink
        self.value = 0
        self._pos: dict[int, list[int]] = {}
        self._neg: dict[int, list[int]] = {}
        self._rows: dict[int, tuple] = {}

    def get(self, u: int, v: int) -> int:
        bit = 1 << v
        val = 0
        k = 1
        for m in self._pos.get(u, ()):
            if m & bit:
                val += k
            k <<= 1
        k = 1
        for m in self._neg.get(u, ()):
            if m & bit:
                val -= k
            k <<= 1
        return val

    def push(self, u: int, v: int, amount: int, old: Optional[int] = None) -> None:
        """Add amount to f(u, v). A caller that has just read f(u, v) passes
        it as old, which spares the read here."""
        if amount == 0:
            return
        if old is None:
            old = self.get(u, v)
        new = old + amount
        dpos = max(old, 0) ^ max(new, 0)
        dneg = max(-old, 0) ^ max(-new, 0)
        if dpos:
            _toggle(self._pos, u, 1 << v, dpos)
            _toggle(self._neg, v, 1 << u, dpos)
        if dneg:
            _toggle(self._neg, u, 1 << v, dneg)
            _toggle(self._pos, v, 1 << u, dneg)
        rows = self._rows
        rows.pop(u, None)
        rows.pop(v, None)

    def out_to(self, u: int, X: int) -> int:
        """Net flow from u into the vertices of the bitmask X."""
        total = 0
        planes = self._pos.get(u)
        if planes:
            for k, m in enumerate(planes):
                total += (m & X).bit_count() << k
        planes = self._neg.get(u)
        if planes:
            for k, m in enumerate(planes):
                total -= (m & X).bit_count() << k
        return total

    def signs(self, u: int) -> tuple[int, int]:
        """Bitmasks of the vertices v with f(u, v) > 0 and with f(u, v) < 0."""
        pos = neg = 0
        for m in self._pos.get(u, ()):
            pos |= m
        for m in self._neg.get(u, ()):
            neg |= m
        return pos, neg

    def pos_planes(self, u: int) -> list[int]:
        """u's positive flow, bit-sliced: bit v of the k-th mask says
        f(u, v) > 0 and has bit k set."""
        return self._pos.get(u, [])

    def support(self) -> list[tuple[int, int, int]]:
        """Positive-direction entries, sorted."""
        out = []
        for u in sorted(self._pos):
            planes = self._pos[u]
            pos = 0
            for m in planes:
                pos |= m
            for v in ids_of(pos):
                val = 0
                for k, m in enumerate(planes):
                    val += (m >> v & 1) << k
                out.append((u, v, val))
        return out


# ---------------------------------------------------------------------------
# views


class LinearForm(NamedTuple):
    """Capacity between one view vertex u and a bitmask X of view vertices:

        c_view(u, X) = sum(w * |m & X| for w, m in terms) + scale * c_base(base_u, X & keep)

    The terms are virtual neighbourhoods and learned crossing capacities,
    known for free. The base part is empty when X & keep is; base_u is None
    only for a form with no base part (keep 0)."""

    terms: tuple[tuple[int, int], ...]
    scale: int
    base_u: Optional[int]
    keep: int


class OracleView:
    """A vertex set over the hidden graph, held once as the bitmask `mask`
    (bit v set for every vertex v), with the one reduction the CutCache
    charges through: linear_form, the capacity of one vertex towards a set.
    vertices() lists the mask in increasing id order on first use. A vertex
    of the view is an int whose bit is set in mask (`u in view`); a float, a
    bool, a numpy integer or any other object is not."""

    mask: int
    _listed: Optional[tuple[int, ...]] = None

    def __init__(self, base: "BaseView"):
        self._base = base
        self._forms: dict[int, LinearForm] = {}

    @property
    def ledger(self) -> QueryLedger:
        return self._base._ledger

    @property
    def base_view(self) -> "BaseView":
        return self._base

    def vertices(self) -> tuple[int, ...]:
        if self._listed is None:
            self._listed = tuple(ids_of(self.mask))
        return self._listed

    def __contains__(self, u) -> bool:
        return type(u) is int and u >= 0 and self.mask >> u & 1 == 1

    def _sub_mask(self, ids: Iterable[int]) -> int:
        """Bitmask of the vertex ids `ids` of this view; a repeated id
        counts once. Raises QueryInputError for an id outside it."""
        mask = _checked_mask(ids, self.mask.bit_length())
        outside = mask & ~self.mask
        if outside:
            raise QueryInputError(f"vertex {outside.bit_length() - 1} not in the parent view")
        return mask

    def linear_form(self, u: int) -> LinearForm:
        """The capacity of u towards any vertex set, as a LinearForm, built
        once per view and vertex."""
        form = self._forms.get(u)
        if form is None:
            form = self._forms[u] = self._build_form(u)
        return form

    def _build_form(self, u: int) -> LinearForm:
        raise NotImplementedError


class BaseView(OracleView):
    """Direct window onto the hidden graph. `unit` is True when every
    edge of the hidden graph has capacity 1 (a simple unit graph)."""

    def __init__(self, instance: GraphInstance, ledger: Optional[QueryLedger] = None):
        self._instance = instance
        self._ledger = ledger or QueryLedger()
        self.n = instance.n
        self.mask = (1 << instance.n) - 1
        self.unit = instance.W == 1
        self._forms: dict[int, LinearForm] = {}

    @property
    def _base(self) -> "BaseView":
        # a property, not an attribute, so a view is not its own referent and
        # dies (with its ledger and transcript) by reference counting alone
        return self

    def _build_form(self, u: int) -> LinearForm:
        return LinearForm((), 1, u, self.mask)

    def raw_cut(self, S: int) -> int:
        """Charge one query: the cut of the base set with bitmask S."""
        try:
            answer = _kernels.cut_value(self._instance._planes, self.n, S)
        except IndexError:
            raise QueryInputError(f"base set not a set of vertices in [0, {self.n})") from None
        self._ledger.record_cut(S, answer)
        return answer


class AugmentedView(OracleView):
    """Adds a virtual source s_source and sink s_sink: one virtual edge
    (s_source, a) of capacity cap for each source (a, cap), and one
    (b, s_sink) for each sink (b, cap). Base-graph edge capacities are
    multiplied by `scale`. All virtual structure is explicit, so queries
    touching only it are free."""

    def __init__(
        self,
        parent: OracleView,
        sources: list[tuple[int, int]],
        sinks: list[tuple[int, int]],
        scale: int = 1,
    ):
        super().__init__(parent.base_view)
        if scale < 1:
            raise QueryInputError("scale must be >= 1")
        self.parent = parent
        self.scale = scale
        pmask = parent.mask
        seen = 0
        for v, cap in sources + sinks:
            if not (type(v) is int and v >= 0 and pmask >> v & 1):
                raise QueryInputError(f"terminal {v!r} not in the parent view")
            if type(cap) is not int or cap < 1:
                raise QueryInputError("terminal capacity must be an integer >= 1")
            if seen >> v & 1:
                raise QueryInputError(f"terminal {v} listed twice")
            seen |= 1 << v
        # the virtual ids are the two above every vertex of the parent
        self.s_source = pmask.bit_length()
        self.s_sink = self.s_source + 1
        self.virtual_edges = [(self.s_source, a, cap) for a, cap in sources] + [
            (b, self.s_sink, cap) for b, cap in sinks
        ]
        self._source_cap = dict(sources)
        self._sink_cap = dict(sinks)
        # each vertex's virtual neighbours as (capacity, bitmask) terms; the
        # terminals of s_source (of s_sink) are grouped by their capacity
        self._vterms: dict[int, tuple[tuple[int, int], ...]] = {}
        for hub, caps in ((self.s_source, self._source_cap), (self.s_sink, self._sink_cap)):
            groups: dict[int, int] = {}
            for v, cap in caps.items():
                groups[cap] = groups.get(cap, 0) | 1 << v
                self._vterms[v] = ((cap, 1 << hub),)
            self._vterms[hub] = tuple(sorted(groups.items()))
        self.mask = pmask | 1 << self.s_source | 1 << self.s_sink

    def bundle_flow(self, f: Flow, terminal: int) -> int:
        """Units the flow routes over a terminal's virtual edge."""
        if type(terminal) is not int:
            raise QueryInputError(f"{terminal!r} is not an augmented terminal")
        if terminal in self._source_cap:
            return f.get(self.s_source, terminal)
        if terminal in self._sink_cap:
            return f.get(terminal, self.s_sink)
        raise QueryInputError(f"{terminal} is not an augmented terminal")

    def _build_form(self, u: int) -> LinearForm:
        terms = self._vterms.get(u, ())
        if u >= self.s_source:
            return LinearForm(terms, 1, None, 0)
        sub = self.parent.linear_form(u)
        s = self.scale
        terms += tuple((s * w, m) for w, m in sub.terms)
        # a virtual id may equal the id of a base vertex outside the parent
        # (an induced parent need not hold the highest ids), so the base
        # part keeps the parent's vertices only
        return LinearForm(terms, s * sub.scale, sub.base_u, sub.keep & self.parent.mask)


class ContractedView(OracleView):
    """Everything outside `keep` is contracted into one vertex s_r, parallel
    edges merging into summed capacities. `w_out` gives each kept vertex's
    capacity to s_r (0 when missing), learned once by the caller; the
    linear forms read it at zero query cost. A caller may give a vertex
    less than its parent capacity to the outside, to drop edges whose value
    it already knows. A capacity to s_r that is not an int >= 0 (a float,
    a bool, a negative int) is refused."""

    def __init__(self, parent: OracleView, keep: Iterable[int], w_out: dict[int, int]):
        super().__init__(parent.base_view)
        keep_mask = parent._sub_mask(keep)
        if not keep_mask:
            raise QueryInputError("keep must be nonempty")
        if keep_mask == parent.mask:
            raise QueryInputError("keep must be a proper subset")
        self.parent = parent
        self.s_r = parent.mask.bit_length()
        # capacity between each kept vertex and s_r
        self._to_s = {v: w_out.get(v, 0) for v in ids_of(keep_mask)}
        for v, w in self._to_s.items():
            if type(w) is not int or w < 0:
                raise QueryInputError(f"capacity {w!r} of vertex {v} to s_r is not an int >= 0")
        self.mask = keep_mask | 1 << self.s_r

    def _build_form(self, u: int) -> LinearForm:
        if u == self.s_r:
            # the kept vertices grouped by their capacity to s_r
            groups: dict[int, int] = {}
            for v, w in self._to_s.items():
                if w:
                    groups[w] = groups.get(w, 0) | 1 << v
            return LinearForm(tuple(sorted(groups.items())), 1, None, 0)
        sub = self.parent.linear_form(u)
        w = self._to_s[u]
        terms = sub.terms + ((w, 1 << self.s_r),) if w else sub.terms
        # s_r may equal the id of a base vertex outside an induced parent
        # (as in AugmentedView._build_form), so the base part keeps the kept
        # vertices only
        return LinearForm(terms, sub.scale, sub.base_u, sub.keep & self.mask & self.parent.mask)


class InducedView(OracleView):
    """Induced subgraph on `part`: a pair capacity inside the part is the
    parent's, so the linear forms are the parent's, read on the part."""

    def __init__(self, parent: OracleView, part: Iterable[int]):
        super().__init__(parent.base_view)
        self.mask = parent._sub_mask(part)
        if not self.mask:
            raise QueryInputError("part must be nonempty")
        self.parent = parent

    def linear_form(self, u: int) -> LinearForm:
        return self.parent.linear_form(u)


# ---------------------------------------------------------------------------
# algorithm-side memoisation


def _add_scaled(acc: list[int], planes: list[int], w: int) -> None:
    """acc += w * planes for nonnegative w, where both sides are
    bit-sliced numbers (bit v of planes[k] is bit k of v's number): one
    ripple-carry addition of the planes, shifted up by j, per set bit j of
    w; planes that land wholly above acc's top are appended."""
    j = 0
    while w:
        if w & 1:
            if len(acc) <= j:
                acc.extend([0] * (j - len(acc)))
                acc.extend(planes)
            else:
                carry = 0
                k = j
                for p in planes:
                    if k == len(acc):
                        acc.append(0)
                    a = acc[k]
                    acc[k] = a ^ p ^ carry
                    carry = a & p | carry & (a ^ p)
                    k += 1
                while carry:
                    if k == len(acc):
                        acc.append(0)
                    a = acc[k]
                    acc[k] = a ^ carry
                    carry &= a
                    k += 1
        w >>= 1
        j += 1


class CutCache:
    """Shared memo over base-graph cut sets.

    Cut and pair queries (cut, pair_capacity) are asked of the base view;
    a derived view answers only through its linear forms (residual_between,
    capacity). The cache answers previously-seen base sets (and their
    complements) without touching the oracle again. The memo is keyed by
    bitmask: of a set and its complement, the smaller side, or on a tie the
    side that holds vertex 0. The empty and the full set share the key 0,
    which holds their cut 0 from the start, so neither is ever charged.
    `logical_bis` counts the residual probes issued (residual_between), so
    query budgets can be expressed in BIS calls independently of cache
    hits; a neighbourhood answered from learned pairs (learned_neighbors)
    issues none.

    Pair capacities are learned from every block whose total is known
    (base_pair_sum). A block total that teaches no pair is kept in a table
    per base vertex u, {R: c(u, R)}, keyed by the block's still-unlearned
    remainder R: a later probe of the same remainder reads it for free, and
    a charged remainder U inside a stored block R also gives the total of
    R - U by subtraction. The totals are facts about the hidden graph, so
    they hold on every view over the cache. An entry is re-keyed when pairs
    of it are learned, and dies when all of them are."""

    def __init__(self, base: BaseView):
        self.base = base
        self._n = base.n
        self._all = base.mask
        self._memo: dict[int, int] = {0: 0}
        # learned hidden-graph pair capacities, as bitsets laid out like
        # GraphInstance._planes: bit v of _known[u] says c(u, v) is learned,
        # bit v of _planes[k][u] says its bit k is set, and bit v of
        # _support[u] says it is positive (the OR of u's planes). Blocks of
        # total capacity zero (and, on unit graphs, saturated blocks) teach
        # all members at once
        self._known = [0] * base.n
        self._planes: list[list[int]] = []
        self._support = [0] * base.n
        self._unit_base = base.unit
        # block totals that taught no pair: _blocks[u] maps a bitmask R of
        # vertices to c(u, R); no key meets _keyed[u], the learned pairs of u
        # when the table was last re-keyed (a subset of _known[u])
        self._blocks: list[dict[int, int]] = [{} for _ in range(base.n)]
        self._keyed = [0] * base.n
        self.logical_bis = 0

    def _base_cut(self, S: int) -> int:
        """Cut of the base set with bitmask S. The first use of S or of its
        complement charges S itself; later uses read the memo."""
        twice = 2 * S.bit_count()
        n = self._n
        key = S if twice < n or (twice == n and S & 1) else S ^ self._all
        val = self._memo.get(key)
        if val is None:
            val = self._memo[key] = self.base.raw_cut(S)
        return val

    def _query_mask(self, view: OracleView, ids: Iterable[int]) -> int:
        """Bitmask of the base vertex ids `ids`, a repeated id counted once.
        Raises QueryInputError for a view other than the base view and for
        an id outside it."""
        if view is not self.base:
            raise QueryInputError("cut queries are asked of the base view only")
        return _checked_mask(ids, self._n)

    def cut(self, view: OracleView, ids: Iterable[int]) -> int:
        """Cut of the base set `ids`; the empty and the full set are free."""
        return self._base_cut(self._query_mask(view, ids))

    def pair_capacity(self, view: OracleView, A: Iterable[int], B: Iterable[int]) -> int:
        """Total capacity between the disjoint base sets A and B, as
        cut(A) + cut(B) - cut(A + B), charged in that order."""
        a, b = self._query_mask(view, A), self._query_mask(view, B)
        if a & b:
            raise QueryInputError("pair_capacity sets must be disjoint")
        total = self._base_cut(a) + self._base_cut(b) - self._base_cut(a | b)
        if total % 2 or total < 0:
            raise ContractViolation("inconsistent cut answers in pair_capacity")
        return total // 2

    def _learn(self, u: int, block: int, members: Iterable[int], c: int) -> None:
        """Record capacity c between u and every vertex of the bitmask block,
        whose vertices are `members`."""
        known, planes = self._known, self._planes
        bit = 1 << u
        known[u] |= block
        for v in members:
            known[v] |= bit
        if not c:
            return
        support = self._support
        support[u] |= block
        for v in members:
            support[v] |= bit
        while len(planes) < c.bit_length():
            planes.append([0] * len(known))
        for k, rows in enumerate(planes):
            if c >> k & 1:
                rows[u] |= block
                for v in members:
                    rows[v] |= bit

    def _learned_sum(self, u: int, X: int) -> int:
        """Learned capacity between base vertex u and the bitmask X."""
        total = 0
        for k, rows in enumerate(self._planes):
            total += (rows[u] & X).bit_count() << k
        return total

    def _learn_block(self, u: int, unknown: int, val: int) -> bool:
        """Learn what a total of val between u and the nonempty bitmask of
        unlearned vertices `unknown` teaches: every member's capacity when
        the block is one vertex, has total zero, or (on unit graphs) is
        saturated. Returns whether it taught them."""
        single = not unknown & (unknown - 1)
        if single or val == 0:
            c = val
        elif self._unit_base and val == unknown.bit_count():
            c = 1
        else:
            return False
        rest = [unknown.bit_length() - 1] if single else ids_of(unknown)
        self._learn(u, unknown, rest, c)
        return True

    def _learn_or_keep(self, u: int, block: int, val: int) -> None:
        """Learn the block total c(u, block) = val by the rules of
        _learn_block, or else keep it in u's table."""
        if not self._learn_block(u, block, val):
            self._blocks[u][block] = val

    def _rekey(self, u: int) -> None:
        """Reduce the keys of u's table by the pairs learned since it was
        last keyed: each block loses its learned vertices and their learned
        capacity, and is learned or kept again. Repeats while that teaches
        new pairs of u."""
        blocks, known = self._blocks[u], self._known
        while self._keyed[u] != known[u]:
            K = self._keyed[u] = known[u]
            for R in [R for R in blocks if R & K]:
                T = blocks.pop(R)
                if R & ~K:
                    self._learn_or_keep(u, R & ~K, T - self._learned_sum(u, R & K))

    def base_pair_sum(self, u: int, X: int) -> int:
        """Total hidden-graph capacity between u and the bitmask X of base
        vertices, served from the learned pairs where possible and querying
        only the unknown remainder U, as cut({u}) + cut(U) - cut(U + u)
        (the last is free when U + u is all of V). A remainder of one
        vertex, of capacity zero, or (on unit graphs) of full capacity
        teaches every member; any other is kept in u's table of block
        totals.

        The table is read before U is charged: a stored U is answered at no
        charge, and a U that is charged inside a stored block R (the
        smallest) also gives the total of R - U, learned or kept in turn.
        Raises QueryInputError when X holds u, before any charge."""
        if X >> u & 1:
            raise QueryInputError("a probe's target set must not hold its vertex")
        total = self._learned_sum(u, X)
        unknown = X & ~self._known[u]
        if not unknown:
            return total
        outer = None
        blocks = self._blocks[u]
        if blocks:
            known = self._known[u]
            if self._keyed[u] != known:
                self._rekey(u)
                if self._known[u] != known:
                    total = self._learned_sum(u, X)
                    unknown = X & ~self._known[u]
                    if not unknown:
                        return total
            val = blocks.get(unknown)
            if val is not None:
                return total + val
            size = 0
            for R, T in blocks.items():
                if R | unknown == R and (outer is None or R.bit_count() < size):
                    outer, outer_val, size = R, T, R.bit_count()
        bit = 1 << u
        val = self._base_cut(bit) + self._base_cut(unknown) - self._base_cut(unknown | bit)
        if val % 2 or val < 0:
            raise ContractViolation("inconsistent cut answers in base_pair_sum")
        val //= 2
        self._learn_or_keep(u, unknown, val)
        if outer is not None:
            self._learn_or_keep(u, outer ^ unknown, outer_val - val)
        return total + val

    def _from_form(self, view: OracleView, f: Optional[Flow], u: int, X: int) -> int:
        """Residual capacity from view vertex u into the bitmask X of view
        vertices under f (None: the zero flow), read from the view's linear
        form of u: the virtual terms, plus scale times the base capacity
        (base_pair_sum), minus the net flow from u into X."""
        terms, scale, base_u, keep = view.linear_form(u)
        real = X & keep
        val = 0
        for w, m in terms:
            val += w * (m & X).bit_count()
        if real:
            val += scale * self.base_pair_sum(base_u, real)
        if f is not None:
            val -= f.out_to(u, X)
            if val < 0:
                raise ContractViolation("negative residual capacity: invalid flow")
        return val

    def residual_between(self, view: OracleView, f: Optional[Flow], u: int, X: int) -> int:
        """Residual capacity from view vertex u into the bitmask X of view
        vertices; one logical BIS. A None flow means the zero flow. Raises
        QueryInputError when u or a vertex of X is outside the view, and
        when X holds u, before any charge."""
        mask = view.mask
        if not (type(u) is int and u >= 0 and mask >> u & 1) or X | mask != mask:
            raise QueryInputError("vertex outside the view")
        if X >> u & 1:
            raise QueryInputError("a probe's target set must not hold its vertex")
        self.logical_bis += 1
        return self._from_form(view, f, u, X)

    def learned_neighbors(
        self, view: OracleView, f: Optional[Flow], u: int, X: int
    ) -> Optional[int]:
        """Bitmask of the vertices v of the bitmask X with positive residual
        capacity from view vertex u under f (None: the zero flow), read from
        the learned pairs alone; None when the base part of X holds a vertex
        whose capacity to u is not learned yet.

        The answer is read from u's learned residual row (_learned_row).
        Under a flow, f memoises the row (Flow._rows) until a push touches
        u or a pair of base_u is learned. Either way a fixed number of
        bitmask operations for any X; charges nothing and counts no logical
        BIS, and a probe of any part of X could not charge either, as its
        base part has no unlearned remainder."""
        if f is None:
            row = self._learned_row(view, None, u)
        else:
            row = f._rows.get(u)
            if row is None or row[0] is not view or row[1] is not None and self._known[row[1]] != row[2]:
                row = f._rows[u] = self._learned_row(view, f, u)
        if X & row[4]:
            return None
        return row[3] & X

    def _learned_row(self, view: OracleView, f: Optional[Flow], u: int) -> tuple:
        """u's learned residual row under f (None: the zero flow), as
        Flow._rows holds it: the vertices whose base pair with u is
        unlearned, and the residual neighbours among the other vertices of
        the view. Under the zero flow these are the capacity support: the
        form's virtual terms plus u's learned support mask. A vertex that
        sends flow into u is a neighbour; the vertices u sends flow into are
        compared with their capacities all at once (_unsaturated), which
        refuses an invalid flow."""
        form = view.linear_form(u)
        terms, _scale, base_u, keep = form
        others = view.mask & ~(1 << u)
        real = others & keep
        snapshot = unknown = support = 0
        if base_u is not None:
            snapshot = self._known[base_u]
            unknown = real & ~snapshot
            support = self._support[base_u] & real
        for _w, m in terms:
            support |= m
        learned = others & ~unknown
        if f is None:
            return view, base_u, snapshot, support & learned, unknown
        pos, neg = f.signs(u)
        pos &= learned
        res = (support | neg) & learned & ~pos
        if pos:
            res |= self._unsaturated(form, f, u, pos)
        return view, base_u, snapshot, res, unknown

    def _unsaturated(self, form: LinearForm, f: Flow, u: int, P: int) -> int:
        """Bitmask of the vertices v of the bitmask P with c(u, v) > f(u, v),
        where every capacity from u into P is learned. The capacities are
        summed bit-sliced (bit v of cap[k] is bit k of c(u, v)): the learned
        planes times the form's scale, plus each term's weight on its mask,
        by shift-and-add, so the term weights must be nonnegative. They are
        then compared with f's positive planes from the top bit down. Raises
        ContractViolation when some f(u, v) exceeds c(u, v), as
        residual_between does."""
        terms, scale, base_u, keep = form
        cap: list[int] = []
        real = P & keep
        if real:
            _add_scaled(cap, [rows[base_u] & real for rows in self._planes], scale)
        for w, m in terms:
            if m & P:
                _add_scaled(cap, [m & P], w)
        flow = f.pos_planes(u)
        more = less = 0
        tied = P
        for k in range(max(len(cap), len(flow)) - 1, -1, -1):
            c = cap[k] if k < len(cap) else 0
            fl = flow[k] & P if k < len(flow) else 0
            diff = tied & (c ^ fl)
            more |= diff & c
            less |= diff & fl
            tied ^= diff
        if less:
            raise ContractViolation("negative residual capacity: invalid flow")
        return more

    def capacity(self, view: OracleView, u: int, v: int) -> int:
        """Capacity between the distinct view vertices u and v, read from the
        view's linear form of u."""
        mask = view.mask
        if not (type(u) is int and u >= 0 and mask >> u & 1
                and type(v) is int and v >= 0 and mask >> v & 1):
            raise QueryInputError("vertex outside the view")
        if u == v:
            raise QueryInputError("capacity needs two distinct vertices")
        return self._from_form(view, None, u, 1 << v)
