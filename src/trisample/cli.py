"""Command-line front end: exact, estimate, variance, plan, stream, bench.

Every command prints one machine-readable report (JSON by default, TSV on
request) to stdout; diagnostics go to stderr; the exit code is 0 exactly
when the command completed.  Randomized commands echo the seed that
reproduces them.

There is one report path: a ``cmd_*`` handler only loads and computes,
and returns its input digest, result payload and seed; :func:`main`
reads the clock around it and wraps every report as ``{command, input,
result, elapsed_ms, seed}``.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import shutil
import sys
import tempfile
import time

import numpy as np

from .analytics import (
    EDGE_BOUND,
    VERTEX_BOUND,
    make_plan,
    plan_from_profile,
    variance_closed_form,
    variance_report,
)
from .estimator import Estimate, estimate
from .exact import count_exact
from .graph import FileEdgeStream, Graph, ParseError, load_edge_list
from .samplers import OPTIMAL, SAMPLER_KINDS
from .streaming import StreamFormatError, stream_estimate


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _epsilon(text: str) -> float:
    value = float(text)
    if not 0.0 < value < 1.0:  # NaN included
        raise argparse.ArgumentTypeError(f"epsilon must be in (0, 1), got {text}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not 0.0 < value < math.inf:  # NaN included
        raise argparse.ArgumentTypeError(f"expected a finite positive number, got {text}")
    return value


def _entries(text: str) -> list[str]:
    """The entries of a comma-separated list; a list without any is a usage error."""
    entries = [tok.strip() for tok in text.split(",") if tok.strip()]
    if not entries:
        raise argparse.ArgumentTypeError(f"expected a comma-separated list, got {text!r}")
    return entries


def _kind_list(text: str) -> list[str]:
    kinds = _entries(text)
    for k in kinds:
        if k not in SAMPLER_KINDS:
            raise argparse.ArgumentTypeError(f"unknown sampler {k!r}")
    return kinds


def _int_list(text: str) -> list[int]:
    return [_positive_int(tok) for tok in _entries(text)]


def _digest(path: str, g: Graph) -> dict:
    return {"path": path, "n": g.n, "m": g.m}


_Z95 = 1.959963984540054  # the standard normal's 97.5% quantile


def _estimate_fields(est: Estimate) -> dict:
    """The :class:`Estimate` fields that ``estimate`` and ``stream`` report,
    with the standard error ``sqrt(empirical_variance)`` and the normal 95%
    interval it gives; :func:`main` fills ``elapsed_ms`` with the run's one
    clock reading."""
    std_error = math.sqrt(est.empirical_variance)
    return {
        "estimate": est.value,
        "s": est.trials,
        "sampler": est.kind,
        "seed": est.seed,
        "empirical_variance": est.empirical_variance,
        "std_error": std_error,
        "ci95": [est.value - _Z95 * std_error, est.value + _Z95 * std_error],
        "degenerate_trials": est.degenerate_trials,
        "elapsed_ms": None,
    }


def _flatten(prefix: str, obj, rows: list[tuple[str, str]]) -> None:
    if isinstance(obj, dict):
        for k in sorted(obj):
            _flatten(f"{prefix}.{k}" if prefix else str(k), obj[k], rows)
    else:
        rows.append((prefix, json.dumps(obj)))


def emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
        return
    result = report.get("result", {})
    rows = result.get("rows") if isinstance(result, dict) else None
    if isinstance(rows, list) and rows and isinstance(rows[0], dict):
        cols = list(rows[0])
        sys.stdout.write("\t".join(cols) + "\n")
        for row in rows:
            sys.stdout.write("\t".join(str(row[c]) for c in cols) + "\n")
        return
    flat: list[tuple[str, str]] = []
    _flatten("", report, flat)
    for key, value in flat:
        sys.stdout.write(f"{key}\t{value}\n")


def cmd_exact(args) -> tuple[dict, dict, int | None]:
    g = load_edge_list(args.file)
    profile = count_exact(g)
    result: dict = {"triangles": profile.total}
    if args.profile:
        result["per_vertex"] = profile.per_vertex.tolist()
        # the edges are already in lexicographic order
        result["per_edge"] = np.column_stack([profile.edges, profile.edge_counts]).tolist()
    return _digest(args.file, g), result, None


def cmd_estimate(args) -> tuple[dict, dict, int | None]:
    g = load_edge_list(args.file)
    est = estimate(g, args.sampler, args.samples, seed=args.seed)
    return _digest(args.file, g), _estimate_fields(est), args.seed


def cmd_variance(args) -> tuple[dict, dict, int | None]:
    g = load_edge_list(args.file)
    profile = count_exact(g)
    rep = variance_report(g, profile, args.sampler, args.samples)
    result = {
        "sampler": rep.kind,
        "s": rep.s,
        "analytical_variance": rep.analytical_variance,
        "generic_variance": rep.generic_variance,
        "difference": rep.analytical_variance - rep.generic_variance,
    }
    return _digest(args.file, g), result, None


def cmd_plan(args) -> tuple[dict, dict, int | None]:
    if args.file is not None:
        if args.n is not None:
            raise ValueError("plan reads n from its edge-list file; --n is for a plan without one")
        g = load_edge_list(args.file)
        profile = count_exact(g)
        plan = plan_from_profile(g, profile, args.epsilon, args.c, args.bound, args.upper_bound)
        upper_source = "user-supplied" if args.upper_bound is not None else "oracle-derived"
        average_source = "oracle-derived"
        digest = _digest(args.file, g)
    else:
        if args.n is None:
            raise ValueError("plan needs an edge-list file or an explicit --n")
        if args.upper_bound is None or args.upper_bound < 1.0:
            raise ValueError("plan without a file needs --upper-bound >= 1, the bound/average ratio")
        plan = make_plan(args.epsilon, args.c, args.n, args.upper_bound, 1.0, args.bound)
        upper_source = "user-supplied"
        average_source = "assumed-1"
        digest = {"path": None, "n": args.n, "m": None}
    result = {
        "epsilon": plan.epsilon,
        "c": plan.c,
        "bound": plan.bound_kind,
        "n": digest["n"],
        "upper_bound": plan.upper_bound,
        "average": plan.average,
        "upper_bound_source": upper_source,
        "average_source": average_source,
        "s": plan.s,
    }
    return digest, result, None


def cmd_stream(args) -> tuple[dict, dict, int | None]:
    with contextlib.ExitStack() as stack:
        source = args.file
        if source == "-":
            # An anonymous file: it has no directory entry to leave behind. The bytes
            # are copied as they come, so the reader sees what it would in a file.
            source = stack.enter_context(tempfile.TemporaryFile())
            shutil.copyfileobj(sys.stdin.buffer, source)
        run = stream_estimate(
            FileEdgeStream(source), args.samples, seed=args.seed, n=args.n, strict=args.strict
        )
    result = {
        **_estimate_fields(run.estimate),
        "n": run.state.n,
        "passes_used": run.passes_used,
        "peak_state_bytes": run.state.state_bytes,
    }
    return {"path": args.file, "n": run.state.n, "m": run.state.m}, result, args.seed


def cmd_bench(args) -> tuple[dict, dict, int | None]:
    g = load_edge_list(args.file)
    profile = count_exact(g)
    truth = profile.total
    kinds = args.samplers
    if kinds is None:  # optimal sampling is undefined without triangles
        kinds = [k for k in SAMPLER_KINDS if k != OPTIMAL or truth > 0]
    rows = []
    for kind in kinds:
        for s in args.samples:
            row_t0 = time.perf_counter()
            values = [
                estimate(g, kind, s, seed=args.seed + rep, oracle=profile).value
                for rep in range(args.repetitions)
            ]
            row_ms = (time.perf_counter() - row_t0) * 1000.0
            if truth > 0:
                errors = [abs(v - truth) / truth for v in values]
                metric = "relative"
            else:
                errors = [abs(v - truth) for v in values]
                metric = "absolute"
            emp_var = float(np.var(values, ddof=1)) if len(values) > 1 else 0.0
            rows.append(
                {
                    "sampler": kind,
                    "s": s,
                    "repetitions": args.repetitions,
                    "mean_error": float(np.mean(errors)),
                    "error_metric": metric,
                    "empirical_variance": emp_var,
                    "analytical_variance": variance_closed_form(g, profile, kind, s),
                    "elapsed_ms": row_ms,
                }
            )
    return _digest(args.file, g), {"triangles": truth, "rows": rows}, args.seed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trisample",
        description="Triangle counting: exact oracle, sampling estimators, "
        "variance analytics, sample-size planning, and edge-stream estimation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("json", "tsv"), default="json")

    p = sub.add_parser("exact", help="exact triangle count of an edge-list file")
    p.add_argument("file")
    p.add_argument("--profile", action="store_true", help="include per-vertex/per-edge counts")
    add_format(p)
    p.set_defaults(handler=cmd_exact)

    p = sub.add_parser("estimate", help="randomized estimate with a chosen sampler")
    p.add_argument("file")
    p.add_argument("--sampler", choices=SAMPLER_KINDS, required=True)
    p.add_argument("--samples", type=_positive_int, required=True, help="trial count s")
    p.add_argument("--seed", type=int, default=0)
    add_format(p)
    p.set_defaults(handler=cmd_estimate)

    p = sub.add_parser("variance", help="analytical variance of a sampler on a graph")
    p.add_argument("file")
    p.add_argument("--sampler", choices=SAMPLER_KINDS, required=True)
    p.add_argument("--samples", type=_positive_int, default=1)
    add_format(p)
    p.set_defaults(handler=cmd_variance)

    p = sub.add_parser("plan", help="trial count for a relative-error target")
    p.add_argument("file", nargs="?", default=None)
    p.add_argument("--epsilon", type=_epsilon, required=True)
    p.add_argument("--c", type=_positive_float, default=1.0, help="failure exponent in n^-c")
    p.add_argument("--bound", choices=(VERTEX_BOUND, EDGE_BOUND), default=VERTEX_BOUND)
    p.add_argument("--upper-bound", type=_positive_float, default=None)
    p.add_argument("--n", type=_positive_int, default=None, help="vertex count when no file given")
    add_format(p)
    p.set_defaults(handler=cmd_plan)

    p = sub.add_parser("stream", help="two-pass estimate over an edge stream")
    p.add_argument("file", help="edge-list file, or - for stdin")
    p.add_argument("--samples", type=_positive_int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=_positive_int, default=None, help="vertex count, skips a pass; must agree with a '# n=' header")
    p.add_argument("--strict", action="store_true", help="hash all edges to reject duplicates")
    add_format(p)
    p.set_defaults(handler=cmd_stream)

    p = sub.add_parser("bench", help="error/variance/time table across samplers and s")
    p.add_argument("file")
    p.add_argument("--samplers", type=_kind_list, default=None, help="default: every defined kind")
    p.add_argument("--samples", type=_int_list, default=[10, 100, 1000], help="s grid, comma-separated")
    p.add_argument("--repetitions", type=_positive_int, default=100)
    p.add_argument("--seed", type=int, default=0)
    add_format(p)
    p.set_defaults(handler=cmd_bench)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of :func:`main`, built once: parsing leaves it as it was."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        digest, result, seed = args.handler(args)
    except (ParseError, StreamFormatError, ValueError, OSError, RuntimeError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    elapsed_ms = (time.perf_counter() - t0) * 1000.0
    if "elapsed_ms" in result:  # estimate and stream repeat it in their result
        result["elapsed_ms"] = elapsed_ms
    report = {
        "command": args.command,
        "input": digest,
        "result": result,
        "elapsed_ms": elapsed_ms,
        "seed": seed,
    }
    emit(report, args.format)
    return 0


if __name__ == "__main__":
    sys.exit(main())
