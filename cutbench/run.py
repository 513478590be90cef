"""cutlab benchmark: one command, named seeded workloads, checked answers.

    python3 cutbench/run.py --workload mincut_sparse --seed 1 --seconds 20 --trace 0

Run from the root of a cutlab checkout; the program is imported from that
checkout's `src/`. One process, one thread (BLAS/OpenMP pools pinned to 1),
one closed-loop client: solves run back to back with no arrival rate.

With `--trace 0` the run measures the end-to-end metrics, with timings
scaled by a calibration loop run alongside (see `calibrate`); with
`--trace 1` it runs one untraced pass, then one traced pass, and reports the
per-layer metrics of the traced pass. Human-readable metric lines and a JSON report line go to
stdout first; the last line is the result object
`{"correct", "attempted", "failed", "metrics"}`.
"""

import time

_T0 = time.perf_counter()

import os  # noqa: E402

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPAN_DIR = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 5
TAIL_ABOVE = 10  # samples that must lie above the reported tail percentile
CAL_REF_S = 0.007  # calibration time on the reference host; timings are scaled to it

E2E_UNITS = {
    "setup_s": "s",
    "solves_per_s": "1/s",
    "solve_ms_p50": "ms",
    "solve_ms_tail": "ms",
    "cut_queries": "count",
    "learn_ratio": "ratio",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
}


def import_program():
    """Import cutlab from this checkout's src/ and refuse any other copy."""
    sys.path.insert(0, str(SRC))
    try:
        import cutlab
    except ImportError as exc:
        raise SystemExit(f"cutbench: cannot import cutlab from {SRC}: {exc}")
    if not Path(cutlab.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"cutbench: cutlab imported from {cutlab.__file__}, not from {SRC}")


def workload_whys() -> dict:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {w["name"]: w["why"] for w in bench["workloads"]}


def provenance() -> dict:
    import numpy

    from cutlab import _kernels

    return {
        "kernels": _kernels.USING,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads_env": {v: os.environ[v] for v in THREAD_VARS},
        "load": "closed loop, 1 client, 1 process, 1 thread",
    }


def calibrate() -> float:
    """Seconds taken now by a fixed arithmetic loop that shares no code with
    cutlab. On a shared host the CPU speed drifts by up to 1.6x for minutes
    at a time; a timing divided by this loop's time, taken in the same
    stretch of the run, carries much less of that drift."""
    start = time.perf_counter()
    s = 0
    for i in range(60_000):
        s += i * i % 7
    return time.perf_counter() - start


def tail(samples: list[float]) -> tuple[float, float]:
    """Value at the highest percentile with at least TAIL_ABOVE samples
    above it, and that percentile. Falls back to the maximum."""
    xs = sorted(samples)
    n = len(xs)
    if n <= TAIL_ABOVE:
        return xs[-1], 100.0
    return xs[n - TAIL_ABOVE - 1], 100.0 * (n - TAIL_ABOVE) / n


def setup(wl, workload: str, seed: int, gate):
    """Instance generation, reference answers and one warm-up solve,
    repeated; returns the cases, the median set-up and reference times, and
    the median calibration time taken alongside."""
    totals, refs, cals = [], [], []
    cases = None
    for _ in range(SETUP_REPEATS):
        cals += [calibrate() for _ in range(6)]
        t0 = time.perf_counter()
        cases = wl.build_cases(workload, seed)
        t1 = time.perf_counter()
        wl.attach_references(cases)
        refs.append(time.perf_counter() - t1)
        gate(next(wl.solve_pass(cases, time.perf_counter)))
        totals.append(time.perf_counter() - t0)
    return cases, statistics.median(totals), statistics.median(refs), statistics.median(cals)


def repeated_passes(wl, cases):
    """(case index, outcome) over pass after pass, without end."""
    while True:
        gc.collect()
        yield from enumerate(wl.solve_pass(cases, time.perf_counter))


def run_untraced(wl, cases, seconds: float, gate, report: dict) -> dict:
    """Solves back to back until the first pass is complete and the summed
    solve time reaches `seconds`; later passes must repeat the first one's
    transcripts exactly. Timings are scaled to the reference host by the
    calibration loop, run once after each solve."""
    samples: list[float] = []
    cals: list[float] = []
    measured = 0.0
    first: list[str] = []  # transcript digest per case, from the first pass
    queries = 0
    for i, out in repeated_passes(wl, cases):
        samples.append(out.seconds)
        measured += out.seconds
        digest = gate(out)
        if len(first) < len(cases):
            first.append(digest)
            queries += out.queries
        elif digest != first[i]:
            gate.failures.append(f"{out.case.label}: transcript differs between passes")
        cals.append(calibrate())
        if len(first) == len(cases) and measured >= seconds:
            break
    tail_s, tail_pct = tail(samples)
    raw = {
        "solves_per_s": len(samples) / measured,
        "solve_ms_p50": 1000.0 * statistics.median(samples),
        "solve_ms_tail": 1000.0 * tail_s,
    }
    scale = CAL_REF_S / statistics.median(cals)
    report.update(
        samples=len(samples), measured_s=measured, tail_percentile=tail_pct,
        pass_digest=wl.pass_digest(first), calibration_ms=1000.0 * statistics.median(cals),
        unscaled=raw,
    )
    return {
        "solves_per_s": raw["solves_per_s"] / scale,
        "solve_ms_p50": raw["solve_ms_p50"] * scale,
        "solve_ms_tail": raw["solve_ms_tail"] * scale,
        "cut_queries": queries,
        "learn_ratio": queries / sum(c.pairs for c in cases),
    }


def run_traced(wl, cases, gate, report: dict) -> dict:
    """One untraced pass, then one traced pass; per-layer metrics of the
    traced pass, checked against the untraced one."""
    from tracer import CHARGED, Tracer, per_layer_metrics

    untraced = list(wl.solve_pass(cases, time.perf_counter))
    digests = [gate(out) for out in untraced]
    queries = sum(out.queries for out in untraced)

    tr = Tracer()
    tr.install()
    try:
        traced = list(wl.solve_pass(cases, time.perf_counter, on_start=tr.new_solve))
    finally:
        tr.uninstall()
    # gate only after the wrappers are gone, so replays are not traced
    for out, digest in zip(traced, digests):
        if gate(out) != digest:
            gate.failures.append(f"{out.case.label}: traced transcript differs from the untraced one")
    if tr.calls(CHARGED) != queries:
        gate.failures.append(f"traced raw_cut calls {tr.calls(CHARGED)} != {queries} charged queries")
    if tr.calls("oracle.cache.residual_between") != sum(out.logical_bis for out in traced):
        gate.failures.append("traced residual_between calls differ from CutCache.logical_bis")
    untraced_s = sum(out.seconds for out in untraced)
    traced_s = sum(out.seconds for out in traced)
    metrics = per_layer_metrics(tr)
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    SPAN_DIR.mkdir(exist_ok=True)
    span_path = SPAN_DIR / f"spans_{report['workload']}_seed{report['seed']}.json"
    tr.dump(span_path)
    report.update(
        cut_queries=queries, pass_digest=wl.pass_digest(digests),
        untraced_pass_s=untraced_s, traced_pass_s=traced_s,
        spans_kept=tr.spans_kept, spans_dropped=tr.spans_dropped, span_file=str(span_path),
    )
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    import_program()
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        raise SystemExit(f"cutbench: unknown workload {args.workload!r}; one of {sorted(wl.WORKLOADS)}")
    import_s = time.perf_counter() - _T0

    gate = wl.Gate()
    cases, setup_rep_s, reference_s, setup_cal_s = setup(wl, args.workload, args.seed, gate)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "why": workload_whys().get(args.workload, ""),
        "traffic": wl.WORKLOADS[args.workload].traffic,
        "cases": [c.label for c in cases],
        "provenance": provenance(),
    }
    if args.trace:
        metrics = run_traced(wl, cases, gate, report)
        metrics["harness.reference.s"] = (reference_s, "s")
    else:
        values = run_untraced(wl, cases, args.seconds, gate, report)
        report["unscaled"]["setup_s"] = import_s + setup_rep_s
        report["setup_calibration_ms"] = 1000.0 * setup_cal_s
        values["setup_s"] = (import_s + setup_rep_s) * CAL_REF_S / setup_cal_s
        values["ok_frac"] = 1.0 - gate.failed / gate.attempted
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {name: (values[name], unit) for name, unit in E2E_UNITS.items()}

    for name, (val, unit) in metrics.items():
        print(f"{name:40s} {val:>16.6g} {unit}")
    report["failures"] = gate.failures
    print(json.dumps({"report": report}, sort_keys=True))
    for reason in gate.failures:
        print(f"cutbench: FAILED {reason}", file=sys.stderr)
    result = {
        "correct": not gate.failures,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": val, "unit": unit} for name, (val, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
