"""CLI smoke tests for every subcommand."""

from dataclasses import replace

import pytest

from cutlab import cli
from cutlab.cli import main
from cutlab.harness import InstanceSpec, generate
from cutlab.oracle import QueryLedger


@pytest.fixture
def b6_file(tmp_path):
    path = tmp_path / "b6.graph"
    generate(InstanceSpec("two_cliques_bridge", 6)).dump(path)
    return str(path)


@pytest.fixture
def tc12_file(tmp_path):
    path = tmp_path / "tc12.graph"
    generate(InstanceSpec("two_cliques_bridge", 12)).dump(path)
    return str(path)


def counter(out: str, name: str) -> int:
    """The value of the one line `name <int>` of a command's output."""
    lines = [ln for ln in out.splitlines() if ln.split()[:1] == [name]]
    assert len(lines) == 1, (name, out)
    return int(lines[0].split()[1])


def test_cli_maxflow(b6_file, tmp_path, capsys):
    transcript = tmp_path / "flow.transcript"
    rc = main(
        ["maxflow", "--graph", b6_file, "--source", "0", "--sink", "5",
         "--transcript", str(transcript)]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "value 1" in out
    assert "cut 0 1 2" in out
    assert counter(out, "bis_queries") > 0
    records = QueryLedger.parse_transcript(transcript.read_text())
    g = generate(InstanceSpec("two_cliques_bridge", 6))
    assert QueryLedger.replay(records, g)


def test_cli_mincut(b6_file, tmp_path, capsys):
    csv = tmp_path / "row.csv"
    rc = main(["mincut", "--graph", b6_file, "--csv", str(csv)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "value 1" in out
    assert "certificate terminal_cut" in out
    assert csv.read_text().startswith("family,n,m,seed,algorithm")


def test_cli_mincut_csv_reference_is_not_the_answer(b6_file, tmp_path, capsys, monkeypatch):
    """The CSV row's reference answer comes from the query-free reference,
    so a wrong answer shows as a mismatch in the row."""
    real = cli.global_mincut

    def wrong(view, cache=None):
        ans = real(view, cache=cache)
        return replace(ans, value=ans.value + 1)

    monkeypatch.setattr(cli, "global_mincut", wrong)
    csv = tmp_path / "row.csv"
    assert main(["mincut", "--graph", b6_file, "--csv", str(csv)]) == 0
    header, row = csv.read_text().splitlines()
    fields = dict(zip(header.split(","), row.split(",")))
    assert (fields["answer"], fields["reference_answer"]) == ("2", "1")


def test_cli_isocuts(b6_file, capsys):
    rc = main(["isocuts", "--graph", b6_file, "--terminals", "0,5", "--tau", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "verdict found" in out
    assert "value 1" in out


def test_cli_expdecomp(tc12_file, capsys):
    rc = main(
        ["expdecomp", "--graph", tc12_file, "--terminals",
         ",".join(map(str, range(12))), "--tau", "1"]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "parts 2" in out
    assert "crossing_edges 1" in out


def test_cli_domset(b6_file, capsys):
    rc = main(["domset", "--graph", b6_file])
    out = capsys.readouterr().out
    assert rc == 0
    assert "size" in out and "cut_queries" in out


def test_cli_bench(tmp_path, capsys):
    csv = tmp_path / "bench.csv"
    rc = main(
        ["bench", "--families", "complete,two_cliques_bridge", "--sizes", "6,8",
         "--seeds", "0", "--algos", "mincut", "--csv", str(csv)]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "loglog_slope" in out
    lines = csv.read_text().strip().splitlines()
    assert len(lines) == 1 + 4


def test_cli_verify(b6_file, capsys):
    rc = main(["verify", "--graph", b6_file, "--algo", "mincut"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.startswith("ok")
    assert out.count(" bis_queries=") == 1


@pytest.mark.parametrize(
    "command",
    [
        ["maxflow", "--source", "0", "--sink", "11"],
        ["isocuts", "--terminals", "0,11", "--tau", "1"],
        ["expdecomp", "--terminals", ",".join(map(str, range(12))), "--tau", "1"],
        ["mincut"],
        ["domset"],
    ],
)
def test_cli_prints_one_bis_queries_line(tc12_file, capsys, command):
    """Every answering subcommand prints the residual probes it issued
    (CutCache.logical_bis) once, next to its charged queries; a command
    that ran a flow or a BFS has issued some."""
    rc = main([command[0], "--graph", tc12_file, *command[1:]])
    out = capsys.readouterr().out
    assert rc == 0
    assert counter(out, "cut_queries") > 0
    assert counter(out, "bis_queries") > 0


def test_cli_config_override(tc12_file, tmp_path, capsys):
    cfg = tmp_path / "knobs.cfg"
    cfg.write_text("phi = 0.25\nbad_fraction = 0.4\n")
    expdecomp = ["expdecomp", "--graph", tc12_file, "--terminals",
                 ",".join(map(str, range(12))), "--tau", "1", "--config", str(cfg)]
    rc = main(expdecomp)
    assert rc == 0
    assert "phi 0.25" in capsys.readouterr().out
    # removed knobs, an unknown key (a method name too), a non-numeric
    # value and a profile (chosen by --profile only, not a config key) are
    # refused in one line with status 2
    for text, needle in (
        ("reset_policy = full\n", "unknown config key"),
        ("zeta = 0.5\n", "unknown config key"),
        ("phi_x = 0.5\n", "unknown config key"),
        ("cut_player_exact_limit = 20\n", "unknown config key"),
        ("prune_exact_limit = 18\n", "unknown config key"),
        ("witness_check_limit = 18\n", "unknown config key"),
        ("bogus = 1\n", "unknown config key"),
        ("phi_for = 1\n", "unknown config key"),
        ("phi = abc\n", "needs a number"),
        ("profile = paper\n", "unknown config key"),
        ("profile = bogus\n", "unknown config key"),
    ):
        cfg.write_text(text)
        rc = main(expdecomp)
        captured = capsys.readouterr()
        assert rc == 2, text
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and needle in err[0], (text, err)


@pytest.mark.parametrize(
    "command",
    [
        ["maxflow", "--source", "0", "--sink", "5"],
        ["isocuts", "--terminals", "0,5", "--tau", "1"],
        ["mincut"],
        ["domset"],
        ["verify"],
        ["bench", "--families", "complete", "--sizes", "6"],
    ],
    ids=lambda c: c[0],
)
def test_cli_profile_and_config_only_on_expdecomp(b6_file, tmp_path, capsys, command):
    """Only expdecomp reads Params; every other command refuses --profile
    and --config as unknown arguments (argparse exits 2), instead of
    accepting a setting that would change nothing."""
    cfg = tmp_path / "knobs.cfg"
    cfg.write_text("phi = 0.25\n")
    graph = [] if command[0] == "bench" else ["--graph", b6_file]
    for extra in (["--profile", "paper"], ["--config", str(cfg)]):
        with pytest.raises(SystemExit) as exc:
            main([command[0], *graph, *command[1:], *extra])
        assert exc.value.code == 2, extra
        captured = capsys.readouterr()
        assert captured.out == ""
        assert extra[0] in captured.err


def test_cli_refuses_malformed_input(b6_file, tmp_path, capsys):
    """Non-integer vertex lists, an unknown algorithm, a graph file that
    does not exist, and expdecomp terminals outside the graph or a negative
    tau (once answered with exit 0 and a core) are refused in one line with
    status 2, not a traceback."""
    missing = str(tmp_path / "missing.graph")
    for argv, needle in (
        (["isocuts", "--graph", b6_file, "--terminals", "a,b", "--tau", "1"], "'a,b'"),
        (["bench", "--families", "complete", "--sizes", "x"], "'x'"),
        (["bench", "--families", "complete", "--sizes", "4", "--algos", "bogus"], "'bogus'"),
        (["mincut", "--graph", missing], missing),
        (["expdecomp", "--graph", b6_file, "--terminals", "999", "--tau", "1"], "999"),
        (["expdecomp", "--graph", b6_file, "--terminals", "-3", "--tau", "-5"], "-3"),
        (["expdecomp", "--graph", b6_file, "--terminals", "0", "--tau", "-5"], "tau"),
    ):
        rc = main(argv)
        captured = capsys.readouterr()
        assert rc == 2, argv
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and needle in err[0], (argv, err)


@pytest.mark.parametrize("phi", ["0", "-0.5", "inf", "nan", "1e-300"])
def test_cli_refuses_phi_out_of_range(tc12_file, tmp_path, capsys, phi):
    """On two_cliques_bridge n=12 (min cut 1), phi = -0.5 or inf once gave
    the degree cut 5 and 0, nan or 1e-300 a traceback; each is refused in
    one line with status 2 by expdecomp, from a --config file and from
    --phi."""
    cfg = tmp_path / "phi.cfg"
    cfg.write_text(f"phi = {phi}\n")
    terminals = ",".join(map(str, range(12)))
    for argv in (
        ["expdecomp", "--graph", tc12_file, "--terminals", terminals, "--tau", "1",
         "--config", str(cfg)],
        ["expdecomp", "--graph", tc12_file, "--terminals", terminals, "--tau", "1",
         "--phi", phi],
    ):
        rc = main(argv)
        captured = capsys.readouterr()
        assert rc == 2, argv
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and "phi must be a number in" in err[0], (argv, err)


@pytest.mark.parametrize("command", [["mincut"], ["verify", "--algo", "mincut"]])
def test_cli_refuses_capacitated_mincut(tmp_path, capsys, command):
    path = tmp_path / "w6.graph"
    generate(InstanceSpec("random_gnp", 8, 9, (("W", 6), ("p", 0.5)))).dump(path)
    rc = main([command[0], "--graph", str(path), *command[1:]])
    captured = capsys.readouterr()
    assert rc != 0
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and "unit edge capacities" in err[0]
