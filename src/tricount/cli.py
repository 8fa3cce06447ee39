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

from .analysis import rse_sweep, sample_size_for_rse
from .estimators import (METHODS, check_level, check_p, check_rse, check_runs,
                         estimate, method_spec)
from .exact import GraphMetrics, compute_metrics
from .graph import load_edge_list
from .rng import RandomSource

DEFAULT_SEED = 42
DEFAULT_SWEEP_RUNS = 1000

# The ``GraphMetrics.to_dict`` keys that the CSV of ``stats`` shows, in
# order: all but the raw variance drivers phi and K, which JSON alone carries.
_METRICS_CSV_KEYS = ("n", "m", "delta", "lambda", "C", "tri_per_edge",
                     "phi_over_3delta", "K_over_delta")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tricount",
        description="Triangle counting and sampling estimators for sparse graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, run, help: str, graph=True):
        """Subcommand ``name``, run by ``run``, with a required ``--graph``
        unless ``graph`` is false."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        if graph:
            p.add_argument("--graph", required=True, metavar="PATH",
                           help="edge-list file ('#' comments, two ids per line)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--output", metavar="PATH",
                       help="write results here instead of stdout")
        return p

    command("stats", _run_stats, "exact metrics of a graph")

    p_est = command("estimate", _run_estimate, "one sampling estimate")
    p_est.add_argument("--method", choices=METHODS, required=True)
    p_est.add_argument("--p", type=float, help="edge probability for ews/es")
    p_est.add_argument("--k", type=int, help="wedge count for ws")
    p_est.add_argument("--seed", type=int, default=DEFAULT_SEED)

    p_sweep = command("rse-sweep", _run_rse_sweep,
                      "empirical vs theoretical RSE per (method, p)")
    p_sweep.add_argument("--method", action="append", choices=METHODS,
                         help="repeatable; default: all three")
    p_sweep.add_argument("--p", action="append", type=float, required=True,
                         help="repeatable sampling probability")
    p_sweep.add_argument("--runs", type=int, default=DEFAULT_SWEEP_RUNS)
    p_sweep.add_argument("--seed", type=int, default=DEFAULT_SEED)

    p_size = command("sample-size", _run_sample_size,
                     "entities needed to hit a target RSE", graph=False)
    source = p_size.add_mutually_exclusive_group(required=True)
    source.add_argument("--graph", metavar="PATH",
                        help="compute metrics from this edge-list file")
    source.add_argument("--metrics", metavar="n,m,delta,lambda,phi,K",
                        help="inline metrics instead of a graph file")
    p_size.add_argument("--rse", type=float, required=True,
                        help="target relative standard error in (0, 1]")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.run(args, parser)
    except (ValueError, OSError) as exc:
        print(f"tricount: error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"tricount: error: out of memory: {exc}", file=sys.stderr)
        return 1
    return 0


def csv_cell(x) -> str:
    """One CSV cell: empty for None, integral floats without a fraction,
    other floats by ``repr`` (shortest round-trip form)."""
    if x is None:
        return ""
    if isinstance(x, float):
        return str(int(x)) if x.is_integer() else repr(x)
    return str(x)


def csv_text(rows, keys) -> str:
    """CSV of ``rows`` (mappings): a header line of ``keys``, then each
    row's values at those keys, one ``csv_cell`` each."""
    lines = [keys, *([csv_cell(row[k]) for k in keys] for row in rows)]
    return "".join(",".join(line) + "\n" for line in lines)


def _render(args, record, csv_keys=None):
    """Write ``record`` (a dict, or a list of one dict per row) to ``--output``
    or stdout, as JSON or as CSV headed by ``csv_keys``, else by its keys."""
    if args.format == "json":
        text = json.dumps(record, indent=2) + "\n"
    else:
        rows = record if isinstance(record, list) else [record]
        text = csv_text(rows, csv_keys or list(rows[0]))
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)


def _run_stats(args, parser):
    metrics = compute_metrics(load_edge_list(args.graph))
    _render(args, metrics.to_dict(), _METRICS_CSV_KEYS)


def _run_estimate(args, parser):
    name = method_spec(args.method).level
    level = getattr(args, name)
    if level is None:
        parser.error(f"--method {args.method} requires --{name}")
    # The level flag alone first, so the pair's error names the other flag.
    try:
        check_level(args.method, **{name: level})
    except ValueError as exc:
        parser.error(f"--{name}: {exc}")
    try:
        check_level(args.method, args.p, args.k)
    except ValueError as exc:
        parser.error(f"--{'k' if name == 'p' else 'p'}: {exc}")
    g = load_edge_list(args.graph)
    result = estimate(g, args.method, level, RandomSource(args.seed))
    _render(args, result.to_dict())


def _run_rse_sweep(args, parser):
    methods = args.method or list(METHODS)
    try:
        for p in args.p:
            check_p(p)
    except ValueError as exc:
        raise ValueError(f"--p: {exc}") from None
    try:
        check_runs(args.runs)
    except ValueError as exc:
        raise ValueError(f"--runs: {exc}") from None
    g = load_edge_list(args.graph)
    # Echoed so any row is re-runnable: row i uses mix_seed(seed, i),
    # trial j of that row uses derive(j) of the row seed.
    print(f"tricount: rse-sweep base seed {args.seed}, {args.runs} runs/row",
          file=sys.stderr)
    rows = rse_sweep(g, methods, args.p, args.runs, args.seed)
    _render(args, [row.to_dict() for row in rows])


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
        if field in ("n", "m") and not x.is_integer():
            raise ValueError(
                f"--metrics: {field} must be a whole number, got {token.strip()}")
        values.append(x)
    n, m, delta, wedges, phi, shared = values
    if 3.0 * delta > wedges:  # each triangle closes three wedges
        raise ValueError(f"--metrics: delta must be <= lambda/3, got delta "
                         f"{parts[2].strip()} and lambda {parts[3].strip()}")
    if phi < 3.0 * delta:  # each triangle adds 2a + b - 3 >= 3 to phi
        raise ValueError(f"--metrics: phi must be >= 3*delta, got phi "
                         f"{parts[4].strip()} and delta {parts[2].strip()}")
    c = 3.0 * delta / wedges if wedges > 0 else 0.0
    return GraphMetrics(n=int(n), m=int(m), triangle_count=delta,
                        wedge_count=wedges, clustering_coefficient=c,
                        phi=phi, shared_edge_pairs=shared)


def _run_sample_size(args, parser):
    # The target first, so a bad one costs neither the metrics nor a file read.
    try:
        check_rse(args.rse)
    except ValueError as exc:
        raise ValueError(f"--rse: {exc}") from None
    metrics = (_parse_inline_metrics(args.metrics) if args.metrics is not None
               else compute_metrics(load_edge_list(args.graph)))
    sizes = {method: sample_size_for_rse(method, metrics, args.rse)
             for method in ("ews", "ws", "es")}
    _render(args, {"target_rse": args.rse, **sizes,
                   "ws_over_ews": sizes["ws"] / sizes["ews"]})


if __name__ == "__main__":
    sys.exit(main())
