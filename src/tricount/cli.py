"""Command-line front end: stats, estimate, rse-sweep, sample-size.

All results go to standard output (or ``--output``); diagnostics go to
standard error, so CSV/JSON output is never interleaved with messages.
Exit status is 0 only when the full output was produced. The default
seed is the documented constant ``DEFAULT_SEED`` so repeated
invocations are reproducible; pass ``--seed`` to change it.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .analysis import SampleSizeRequest, rse_sweep, sample_size_for_rse
from .estimators import LEVELS, METHODS, SamplingPlan, check_p, estimate
from .exact import METRICS_CSV_HEADER, GraphMetrics, compute_metrics, csv_cell
from .graph import load_edge_list
from .rng import RandomSource

DEFAULT_SEED = 42
DEFAULT_SWEEP_RUNS = 1000

ESTIMATE_CSV_HEADER = "method,p_or_k,seed,raw,sampled,estimate,seconds"
SIZES_CSV_HEADER = "target_rse,ews,ws,es,ws_over_ews"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tricount",
        description="Triangle counting and sampling estimators for sparse graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, graph_required=True):
        if graph_required:
            p.add_argument("--graph", required=True, metavar="PATH",
                           help="edge-list file ('#' comments, two ids per line)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--output", metavar="PATH",
                       help="write results here instead of stdout")

    p_stats = sub.add_parser("stats", help="exact metrics of a graph")
    common(p_stats)

    p_est = sub.add_parser("estimate", help="one sampling estimate")
    common(p_est)
    p_est.add_argument("--method", choices=METHODS, required=True)
    p_est.add_argument("--p", type=float, help="edge probability for ews/es")
    p_est.add_argument("--k", type=int, help="wedge count for ws")
    p_est.add_argument("--seed", type=int, default=DEFAULT_SEED)

    p_sweep = sub.add_parser("rse-sweep",
                             help="empirical vs theoretical RSE per (method, p)")
    common(p_sweep)
    p_sweep.add_argument("--method", action="append", choices=METHODS,
                         help="repeatable; default: all three")
    p_sweep.add_argument("--p", action="append", type=float, required=True,
                         help="repeatable sampling probability")
    p_sweep.add_argument("--runs", type=int, default=DEFAULT_SWEEP_RUNS)
    p_sweep.add_argument("--seed", type=int, default=DEFAULT_SEED)

    p_size = sub.add_parser("sample-size",
                            help="entities needed to hit a target RSE")
    common(p_size, graph_required=False)
    p_size.add_argument("--graph", metavar="PATH",
                        help="compute metrics from this edge-list file")
    p_size.add_argument("--metrics", metavar="n,m,delta,lambda,phi,K",
                        help="inline metrics instead of a graph file")
    p_size.add_argument("--rse", type=float, required=True,
                        help="target relative standard error in (0, 1]")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "stats":
            text = _run_stats(args)
        elif args.command == "estimate":
            text = _run_estimate(args, parser)
        elif args.command == "rse-sweep":
            text = _run_rse_sweep(args)
        else:
            text = _run_sample_size(args, parser)
        _emit(text, args.output)
    except (ValueError, OSError) as exc:
        print(f"tricount: error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"tricount: error: out of memory: {exc}", file=sys.stderr)
        return 1
    return 0


def _emit(text: str, output: str | None):
    if output:
        Path(output).write_text(text)
    else:
        sys.stdout.write(text)


def _to_json(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _run_stats(args) -> str:
    metrics = compute_metrics(load_edge_list(args.graph))
    if args.format == "json":
        return _to_json(metrics.to_dict())
    return f"{METRICS_CSV_HEADER}\n{metrics.to_csv_row()}\n"


def _run_estimate(args, parser) -> str:
    name = LEVELS[args.method]
    level = getattr(args, name)
    if level is None:
        parser.error(f"--method {args.method} requires --{name}")
    try:
        plan = SamplingPlan(method=args.method, seed=args.seed, **{name: level})
    except ValueError as exc:
        parser.error(f"--{name}: {exc}")
    g = load_edge_list(args.graph)
    result = estimate(g, plan.method, plan.level, RandomSource(plan.seed))
    if args.format == "json":
        return _to_json(result.to_dict())
    row = ",".join(csv_cell(v) for v in result.to_dict().values())
    return f"{ESTIMATE_CSV_HEADER}\n{row}\n"


def _run_rse_sweep(args) -> str:
    methods = args.method or list(METHODS)
    try:
        for p in args.p:
            check_p(p)
    except ValueError as exc:
        raise ValueError(f"--p: {exc}") from None
    if args.runs < 2:
        raise ValueError(f"--runs must be >= 2, got {args.runs}")
    g = load_edge_list(args.graph)
    # Echoed so any row is re-runnable: row i uses mix_seed(seed, i),
    # trial j of that row uses derive(j) of the row seed.
    print(f"tricount: rse-sweep base seed {args.seed}, {args.runs} runs/row",
          file=sys.stderr)
    report = rse_sweep(g, methods, args.p, args.runs, args.seed)
    if args.format == "json":
        return _to_json(report.to_json_obj())
    return report.to_csv()


_INLINE_FIELDS = ("n", "m", "delta", "lambda", "phi", "K")


def _parse_inline_metrics(text: str) -> GraphMetrics:
    parts = text.split(",")
    if len(parts) != len(_INLINE_FIELDS):
        raise ValueError("--metrics needs six values: n,m,delta,lambda,phi,K")
    values = []
    for field, token in zip(_INLINE_FIELDS, parts):
        try:
            x = float(token)
        except ValueError:
            raise ValueError(
                f"--metrics: {field} is not a number: {token!r}") from None
        if not (math.isfinite(x) and x >= 0):
            raise ValueError(
                f"--metrics: {field} must be finite and >= 0, got {token.strip()}")
        values.append(x)
    n, m, delta, wedges, phi, shared = values
    if 3.0 * delta > wedges:  # each triangle closes three wedges
        raise ValueError(f"--metrics: delta must be <= lambda/3, got delta "
                         f"{parts[2].strip()} and lambda {parts[3].strip()}")
    c = 3.0 * delta / wedges if wedges > 0 else 0.0
    return GraphMetrics(n=int(n), m=int(m), triangle_count=delta,
                        wedge_count=wedges, clustering_coefficient=c,
                        phi=phi, shared_edge_pairs=shared)


def _run_sample_size(args, parser) -> str:
    if (args.graph is None) == (args.metrics is None):
        parser.error("sample-size needs exactly one of --graph / --metrics")
    if args.metrics is not None:
        metrics = _parse_inline_metrics(args.metrics)
    else:
        metrics = compute_metrics(load_edge_list(args.graph))
    request = SampleSizeRequest(target_rse=args.rse, metrics=metrics)
    sizes = {method: sample_size_for_rse(request, method)
             for method in ("ews", "ws", "es")}
    obj = {"target_rse": args.rse, **sizes, "ws_over_ews": sizes["ws"] / sizes["ews"]}
    if args.format == "json":
        return _to_json(obj)
    row = ",".join(csv_cell(v) for v in obj.values())
    return f"{SIZES_CSV_HEADER}\n{row}\n"


if __name__ == "__main__":
    sys.exit(main())
