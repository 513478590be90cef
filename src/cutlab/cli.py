"""Command-line front end.

Subcommands: maxflow, isocuts, expdecomp, mincut, domset, bench, verify.
Every run prints its answer plus exact query counts; transcripts and CSV
outputs are byte-stable across identical invocations (wall-clock excluded).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from . import harness
from .config import get_profile, load_config_overrides
from .expander import decompose
from .isolating import isolating_cuts
from .maxflow import dinitz_maxflow
from .mincut import dominating_set, global_mincut
from .oracle import (
    BaseView,
    CutCache,
    GraphFormatError,
    GraphInstance,
    QueryInputError,
    QueryLedger,
)


def _ids(text: str) -> list[int]:
    try:
        return [int(x) for x in text.replace(",", " ").split()]
    except ValueError:
        raise QueryInputError(f"expected integers, got {text!r}") from None


def _setup(args):
    instance = GraphInstance.load(args.graph)
    ledger = QueryLedger()
    view = BaseView(instance, ledger)
    cache = CutCache(view)
    return instance, view, cache, ledger


def cmd_maxflow(args) -> int:
    _, view, cache, ledger = _setup(args)
    res = dinitz_maxflow(view, args.source, args.sink, cache=cache)
    print(f"value {res.value}")
    print(f"cut {' '.join(map(str, res.mincut_source_side))}")
    print(f"rounds {res.round_count}")
    print(f"cut_queries {ledger.cut_count}")
    print(f"bis_queries {cache.logical_bis}")
    if args.transcript:
        ledger.write_transcript(args.transcript)
    return 0


def cmd_isocuts(args) -> int:
    _, view, cache, ledger = _setup(args)
    res = isolating_cuts(view, _ids(args.terminals), args.tau, cache=cache)
    print(f"verdict {res.verdict}")
    if res.verdict == "found":
        print(f"terminal {res.best_terminal}")
        print(f"value {res.cut_value}")
        print(f"side {' '.join(map(str, res.cut_side))}")
    for rec in res.records:
        val = "inf" if rec.value == float("inf") else int(rec.value)
        print(f"lambda {rec.terminal} {val}")
    print(f"cut_queries {ledger.cut_count}")
    print(f"bis_queries {cache.logical_bis}")
    return 0


def cmd_expdecomp(args) -> int:
    params = get_profile(args.profile)
    if args.config:
        params = load_config_overrides(args.config, params)
    _, view, cache, ledger = _setup(args)
    if args.phi is not None:
        params = replace(params, phi=args.phi)
    parts = decompose(view, _ids(args.terminals), args.tau, params=params, cache=cache)
    crossing = 0
    for part in parts:
        boundary = cache.cut(view, part.vertices) if len(part.vertices) < view.n else 0
        crossing += boundary
        print(
            f"part {part.classification} boundary={boundary} "
            f"vertices={','.join(map(str, part.vertices))} "
            f"core={','.join(map(str, part.core))}"
        )
    print(f"parts {len(parts)}")
    print(f"crossing_edges {crossing // 2}")
    print(f"phi {params.phi_for(view.n)}")
    print(f"cut_queries {ledger.cut_count}")
    print(f"bis_queries {cache.logical_bis}")
    return 0


def cmd_mincut(args) -> int:
    instance, view, cache, ledger = _setup(args)
    ans = global_mincut(view, cache=cache)
    print(f"value {ans.value}")
    print(f"side {' '.join(map(str, ans.side))}")
    print(f"certificate {ans.certificate}")
    print(f"cut_queries {ledger.cut_count}")
    print(f"bis_queries {cache.logical_bis}")
    if args.transcript:
        ledger.write_transcript(args.transcript)
    if args.csv:
        row = harness.ExperimentRow(
            family="file", n=instance.n, m=instance.m, seed=0, algorithm="mincut",
            answer=ans.value, reference_answer=harness.reference_mincut(instance)[0],
            cut_queries=ledger.cut_count, bis_queries=cache.logical_bis,
            rounds=0, wall_ms=0,
        )
        harness.write_csv([row], args.csv)
    return 0


def cmd_domset(args) -> int:
    _, view, cache, ledger = _setup(args)
    R = dominating_set(view, cache=cache)
    print(f"size {len(R)}")
    print(f"set {' '.join(map(str, R))}")
    print(f"cut_queries {ledger.cut_count}")
    print(f"bis_queries {cache.logical_bis}")
    return 0


def cmd_bench(args) -> int:
    specs = [
        harness.InstanceSpec(fam, n, seed)
        for fam in args.families.split(",")
        for n in _ids(args.sizes)
        for seed in _ids(args.seeds)
    ]
    rows = harness.run_suite(
        specs,
        args.algos.split(","),
        csv_path=args.csv,
        transcripts_dir=args.transcripts,
    )
    sys.stdout.write(harness.format_summary(harness.scaling_summary(rows)))
    return 0


def cmd_verify(args) -> int:
    row, _ = harness.run_one(GraphInstance.load(args.graph), args.algo)
    status = "ok" if row.answer == row.reference_answer else "MISMATCH"
    print(
        f"{status} algo={args.algo} answer={row.answer} "
        f"reference={row.reference_answer} cut_queries={row.cut_queries} "
        f"bis_queries={row.bis_queries}"
    )
    return 0 if status == "ok" else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cutlab")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("maxflow", help="s-t max flow through the oracle")
    p.add_argument("--graph", required=True)
    p.add_argument("--source", type=int, required=True)
    p.add_argument("--sink", type=int, required=True)
    p.add_argument("--transcript", default=None)
    p.set_defaults(func=cmd_maxflow)

    p = sub.add_parser("isocuts", help="minimum isolating cuts under a threshold")
    p.add_argument("--graph", required=True)
    p.add_argument("--terminals", required=True)
    p.add_argument("--tau", type=int, required=True)
    p.set_defaults(func=cmd_isocuts)

    p = sub.add_parser("expdecomp", help="almost-expander decomposition")
    p.add_argument("--graph", required=True)
    p.add_argument("--profile", default="desk", choices=["desk", "paper"])
    p.add_argument("--config", default=None, help="key=value overrides")
    p.add_argument("--terminals", required=True)
    p.add_argument("--tau", type=int, required=True)
    p.add_argument("--phi", type=float, default=None)
    p.set_defaults(func=cmd_expdecomp)

    p = sub.add_parser("mincut", help="global minimum cut")
    p.add_argument("--graph", required=True)
    p.add_argument("--transcript", default=None)
    p.add_argument("--csv", default=None)
    p.set_defaults(func=cmd_mincut)

    p = sub.add_parser("domset", help="dominating set")
    p.add_argument("--graph", required=True)
    p.set_defaults(func=cmd_domset)

    p = sub.add_parser("bench", help="benchmark suite with CSV output")
    p.add_argument("--families", required=True)
    p.add_argument("--sizes", required=True)
    p.add_argument("--seeds", default="0")
    p.add_argument("--algos", default="mincut")
    p.add_argument("--csv", default=None)
    p.add_argument("--transcripts", default=None)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("verify", help="single cross-check against the reference")
    p.add_argument("--graph", required=True)
    p.add_argument("--algo", default="mincut", choices=["mincut", "maxflow", "domset"])
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (GraphFormatError, QueryInputError, OSError) as exc:
        print(f"cutlab {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
