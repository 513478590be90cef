"""Generators, reference oracles, and the suite runner (CSV, transcripts,
determinism, mismatch diagnostics)."""

import pytest

from cutlab.harness import (
    ExperimentRow,
    InstanceSpec,
    SuiteMismatch,
    csv_without_wall,
    format_summary,
    generate,
    is_dominating,
    reference_maxflow,
    reference_mincut,
    run_one,
    run_suite,
    scaling_summary,
)
from cutlab.oracle import GraphFormatError, GraphInstance, QueryLedger
from conftest import random_graph


# ---------------------------------------------------------------------------
# generation


def test_generate_examples():
    k4 = generate(InstanceSpec("complete", 4))
    assert (k4.n, k4.m) == (4, 6)
    b6 = generate(InstanceSpec("two_cliques_bridge", 6))
    assert (b6.n, b6.m) == (6, 7)
    p5 = generate(InstanceSpec("path", 5))
    assert p5.m == 4
    star = generate(InstanceSpec("star", 7))
    assert star.degree(0) == 6
    barb = generate(InstanceSpec("barbell", 10))
    assert reference_mincut(barb)[0] == 1
    exp = generate(InstanceSpec("expander_like", 12, 0, (("degree", 2),)))
    assert all(exp.degree(v) == 4 for v in range(12))


def test_generate_determinism():
    for fam, ps in [("random_gnp", (("p", 0.4),)), ("planted_cut", (("k", 2),))]:
        a = generate(InstanceSpec(fam, 20, 3, ps))
        b = generate(InstanceSpec(fam, 20, 3, ps))
        assert a == b
        c = generate(InstanceSpec(fam, 20, 4, ps))
        assert a != c


def test_generate_planted_cut_bound():
    for seed in (1, 7, 11):
        spec = InstanceSpec("planted_cut", 30, seed, (("k", 2),))
        g = generate(spec)
        lam, _ = reference_mincut(g)
        assert lam <= 2
        halves_cut = g.cut_of(range(15))
        assert halves_cut == 2


def test_generate_validation():
    with pytest.raises(GraphFormatError):
        generate(InstanceSpec("two_cliques_bridge", 3))
    with pytest.raises(GraphFormatError):
        generate(InstanceSpec("planted_cut", 10, 0, (("k", 9),)))
    with pytest.raises(GraphFormatError):
        generate(InstanceSpec("no_such_family", 5))


# ---------------------------------------------------------------------------
# references


def test_reference_mincut_examples(b6, k4):
    assert reference_mincut(b6)[0] == 1
    assert reference_mincut(k4)[0] == 3
    two = GraphInstance(6, {(0, 1): 1, (0, 2): 1, (1, 2): 1, (3, 4): 1, (3, 5): 1, (4, 5): 1})
    val, side = reference_mincut(two)
    assert val == 0 and set(side) == {0, 1, 2}


def test_reference_mincut_exhaustive_vs_contraction():
    # the two reference implementations must agree where both apply
    from cutlab.harness import _stoer_wagner

    for seed in range(8):
        g = random_graph(12, 0.45, seed, W=2)
        exh_val, exh_side = reference_mincut(g)
        sw_val, sw_side = _stoer_wagner(g)
        assert exh_val == sw_val
        assert g.cut_of(sw_side) == sw_val
        assert g.cut_of(exh_side) == exh_val


def test_reference_maxflow_examples(b6, k4):
    assert reference_maxflow(b6, 0, 5) == 1
    assert reference_maxflow(k4, 0, 3) == 3


def test_is_dominating(b6):
    assert is_dominating(b6, [0, 5])
    assert is_dominating(b6, [2, 3])
    assert not is_dominating(b6, [0])


# ---------------------------------------------------------------------------
# suite runner


def test_run_suite_rows_and_determinism(tmp_path):
    specs = [
        InstanceSpec("two_cliques_bridge", 8, 0),
        InstanceSpec("complete", 6, 0),
        InstanceSpec("random_gnp", 10, 1, (("p", 0.5),)),
    ]
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    t1 = tmp_path / "t1"
    t2 = tmp_path / "t2"
    rows1 = run_suite(specs, ["mincut", "maxflow"], csv_path=out1, transcripts_dir=t1)
    rows2 = run_suite(specs, ["mincut", "maxflow"], csv_path=out2, transcripts_dir=t2)
    assert all(r.answer == r.reference_answer for r in rows1)
    # byte-identical CSV once the wall-clock column is stripped
    assert csv_without_wall(out1.read_text()) == csv_without_wall(out2.read_text())
    header = ExperimentRow.CSV_HEADER.split(",")
    stripped = csv_without_wall(out1.read_text()).splitlines()
    assert stripped[0].split(",") == [c for c in header if c != "wall_ms"]
    assert all(len(ln.split(",")) == len(header) - 1 for ln in stripped)
    # byte-identical transcripts
    names = sorted(p.name for p in t1.iterdir())
    assert names == sorted(p.name for p in t2.iterdir())
    for name in names:
        assert (t1 / name).read_text() == (t2 / name).read_text()


def test_suite_transcripts_replay(tmp_path):
    specs = [InstanceSpec("two_cliques_bridge", 8, 0)]
    tdir = tmp_path / "t"
    rows = run_suite(specs, ["mincut"], transcripts_dir=tdir)
    g = generate(specs[0])
    text = (tdir / f"{specs[0].label()}_mincut.transcript").read_text()
    records = QueryLedger.parse_transcript(text)
    assert QueryLedger.replay(records, g)
    assert rows[0].cut_queries == len(records)


def test_run_one_domset():
    g = generate(InstanceSpec("random_gnp", 16, 2, (("p", 0.4),)))
    row, ledger = run_one(g, "domset")
    assert row.answer == row.reference_answer  # verified dominating
    assert row.cut_queries == ledger.cut_count


def test_suite_mismatch_aborts(tmp_path, monkeypatch):
    import cutlab.harness as hz

    def bogus(instance):
        return (99, (0,))

    monkeypatch.setattr(hz, "reference_mincut", bogus)
    with pytest.raises(SuiteMismatch):
        hz.run_suite([InstanceSpec("complete", 5, 0)], ["mincut"], transcripts_dir=tmp_path)
    assert any(p.suffix == ".graph" for p in tmp_path.iterdir())


def test_scaling_summary_format():
    rows = [
        ExperimentRow("complete", n, n * (n - 1) // 2, 0, "mincut", 1, 1, q, 0, 0, 0)
        for n, q in ((8, 100), (16, 300), (32, 900))
    ]
    slopes = scaling_summary(rows)
    assert ("complete", "mincut") in slopes
    text = format_summary(slopes)
    assert text.startswith("family,algorithm,loglog_slope")
    assert "complete,mincut," in text
