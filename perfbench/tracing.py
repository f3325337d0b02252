"""Per-layer tracing of trisample from outside the library.

:class:`Tracer` replaces public functions of trisample, in the module
namespace each one is called from, with wrappers that record a span per
call: name, span id, parent span id, operation id, start, end, self time
(duration minus the time covered by child spans) and one number taken
from the call (trial count, degenerate flag, local count, state bytes,
lines parsed).  Spans are kept in compact arrays and written to disk
when the run ends.  A function the library no longer has is reported as
absent instead of failing the run.
"""

from __future__ import annotations

import functools
import math
import os
from array import array
from dataclasses import dataclass
from functools import cached_property
from time import perf_counter

import numpy as np

KINDS = ("qopt-uniform", "qopt-degree", "edge-uniform", "edge-degree")

_MISSING = object()


@dataclass(frozen=True)
class Target:
    """A public function to wrap: where it is looked up and what it records."""

    module: str  # dotted module path inside trisample, "" for the package
    attr: str  # attribute name; "Class.attr" for methods and cached properties
    span: str  # span name, prefixed by its layer
    detail: object = None  # (args, kwargs, result) -> float, or None


def _m_of_first(args, kwargs, result):
    return float(args[0].m)


def _trials_arg(args, kwargs, result):
    return float(args[1] if len(args) > 1 else kwargs["s"])


def _degenerate(args, kwargs, result):
    return 1.0 if getattr(result, "degenerate", False) else 0.0


def _result_value(args, kwargs, result):
    return float(result)


def _state_bytes(args, kwargs, result):
    return float(result.state_bytes)


def _first_arg_path(args, kwargs, result):
    return args[0] if args and isinstance(args[0], (str, os.PathLike)) else None


TARGETS = (
    # graph
    Target("", "load_edge_list", "graph.load", _first_arg_path),
    Target("cli", "load_edge_list", "graph.load", _first_arg_path),
    Target("graph", "Graph.from_edges", "graph.csr_build"),
    Target("graph", "Graph.adjacency_lists", "graph.adjacency_cache"),
    Target("graph", "Graph.degree_list", "graph.degree_cache"),
    Target("", "FileEdgeStream", "graph.stream_open"),
    Target("cli", "FileEdgeStream", "graph.stream_open"),
    # exact
    Target("cli", "count_exact", "exact.count", _m_of_first),
    Target("estimator", "count_exact", "exact.count", _m_of_first),
    Target("estimator", "local_edge_count", "estimator.local_count", _result_value),
    # samplers
    Target("", "build_sampler", "samplers.build"),
    Target("estimator", "build_sampler", "samplers.build"),
    Target("analytics", "build_sampler", "samplers.build"),
    Target("estimator", "draw", "samplers.draw"),
    Target("samplers", "draw_vertex", "samplers.draw_vertex"),
    Target("samplers", "draw_given_i", "samplers.draw_given_i", _degenerate),
    # estimator
    Target("", "estimate", "estimator.estimate"),
    Target("cli", "estimate", "estimator.estimate"),
    Target("estimator", "run_trials", "estimator.run_trials", _trials_arg),
    # analytics
    Target("cli", "variance_report", "analytics.variance_report"),
    Target("analytics", "variance_closed_form", "analytics.closed_form"),
    Target("analytics", "variance_generic", "analytics.generic"),
    # streaming
    Target("cli", "stream_estimate", "streaming.stream_estimate"),
    Target("streaming", "pass_count_n", "streaming.pass0"),
    Target("streaming", "pass1_neighborhoods", "streaming.pass1", _state_bytes),
    Target("streaming", "pass2_local_counts", "streaming.pass2"),
    Target("streaming", "finalize_stream_estimate", "streaming.finalize"),
    # cli
    Target("cli", "main", "cli.main"),
    # rng
    Target("estimator", "seed_streams", "rng.seed_streams"),
    Target("streaming", "seed_streams", "rng.seed_streams"),
    Target("samplers", "weighted_choice", "rng.weighted_choice"),
    Target("streaming", "weighted_choice", "rng.weighted_choice"),
)


class Tracer:
    """Span recorder with wrappers installed into trisample's namespaces."""

    def __init__(self, line_counts: dict[str, int]) -> None:
        self.line_counts = line_counts  # path -> lines, for the parse counters
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_id = array("q")
        self.parent = array("q")
        self.name_id = array("i")
        self.op_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.self_time = array("d")
        self.detail = array("d")
        self.op = -1  # current operation id; set by the runner
        self.ops: dict[int, tuple[str, str | None]] = {}  # op id -> (label, kind)
        self.absent: list[str] = []
        self._stack: list[list] = []  # [span id, time covered by children]
        self._next_id = 0
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def _name(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, fn, span: str, detail=None):
        nid = self._name(span)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            result = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                value = math.nan
                if detail is not None:
                    try:
                        value = detail(args, kwargs, result)
                    except Exception:  # a call that raised has no detail to give
                        value = math.nan
                    if isinstance(value, (str, os.PathLike)):
                        value = float(self.line_counts.get(os.fspath(value), math.nan))
                    elif value is None:
                        value = math.nan
                self.span_id.append(sid)
                self.parent.append(parent)
                self.name_id.append(nid)
                self.op_id.append(self.op)
                self.start.append(t0)
                self.end.append(t1)
                self.self_time.append(dur - frame[1])
                self.detail.append(value)

        return traced

    def install(self, ts) -> None:
        """Wrap every target that exists; note the ones that do not."""
        for t in TARGETS:
            module = ts
            for part in filter(None, t.module.split(".")):
                module = getattr(module, part, None)
            owner_name, _, attr = t.attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            raw = owner.__dict__.get(attr, _MISSING) if owner is not None else _MISSING
            where = ".".join(filter(None, ["trisample", t.module, t.attr]))
            if raw is _MISSING:
                self.absent.append(where)
                continue
            if isinstance(raw, cached_property):
                new = cached_property(self.wrap(raw.func, t.span, t.detail))
                new.__set_name__(owner, attr)
            elif isinstance(raw, classmethod):
                new = staticmethod(self.wrap(getattr(owner, attr), t.span, t.detail))
            else:
                new = self.wrap(raw, t.span, t.detail)
            self._restore.append((owner, attr, raw))
            setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._restore):
            setattr(owner, attr, raw)
        self._restore.clear()

    def write(self, path: str) -> None:
        """Write every span, with the name and operation tables, as ``.npz``."""
        ops = sorted(self.ops)
        np.savez(
            path,
            names=np.array(self.names),
            span_id=np.frombuffer(self.span_id, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            op_id=np.frombuffer(self.op_id, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            self_time=np.frombuffer(self.self_time),
            detail=np.frombuffer(self.detail),
            op_ids=np.array(ops, dtype=np.int32),
            op_labels=np.array([self.ops[o][0] for o in ops]),
            op_kinds=np.array([self.ops[o][1] or "" for o in ops]),
        )

    # -- per-layer metrics ---------------------------------------------

    def spans(self) -> "Spans":
        return Spans(self)


class Spans:
    """Column view of the recorded spans, for computing per-layer metrics."""

    def __init__(self, tracer: Tracer) -> None:
        self.names = tracer.names
        self.name_id = np.frombuffer(tracer.name_id, dtype=np.int32)
        self.op_id = np.frombuffer(tracer.op_id, dtype=np.int32)
        self.dur = np.frombuffer(tracer.end) - np.frombuffer(tracer.start)
        self.self_time = np.frombuffer(tracer.self_time)
        self.detail = np.frombuffer(tracer.detail)
        kinds = {o: k for o, (_, k) in tracer.ops.items()}
        labels = {o: lab for o, (lab, _) in tracer.ops.items()}
        self.kind = np.array([kinds.get(o) or "" for o in self.op_id.tolist()])
        self.label = np.array([labels.get(o) or "" for o in self.op_id.tolist()])

    def select(self, name: str, kind: str | None = None, timed_only: bool = False) -> np.ndarray:
        if name not in self.names:
            return np.zeros(len(self.name_id), dtype=bool)
        mask = self.name_id == self.names.index(name)
        if kind is not None:
            mask &= self.kind == kind
        if timed_only:
            mask &= self.op_id >= 0
        return mask

    def summary(self) -> list[dict]:
        """Calls, total, self time and percentiles for every span name."""
        rows = []
        for name in sorted(self.names):
            mask = self.select(name)
            d = self.dur[mask]
            rows.append(
                {
                    "span": name,
                    "calls": int(mask.sum()),
                    "total_s": float(d.sum()),
                    "self_s": float(self.self_time[mask].sum()),
                    **percentiles(d),
                }
            )
        return rows


def percentiles(values) -> dict:
    """Median and the highest percentile with at least ten samples beyond it."""
    values = np.asarray(values, dtype=np.float64)
    out = {"n": int(values.size)}
    if values.size == 0:
        return out
    out["min"] = float(values.min())
    out["p50"] = float(np.median(values))
    for level in (99.9, 99.0, 90.0, 50.0):
        if values.size * (1.0 - level / 100.0) >= 10.0:
            if level != 50.0:
                out[f"p{level:g}"] = float(np.percentile(values, level))
            break
    return out


def _median(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(sp: Spans, stream_edges: int) -> dict[str, float]:
    """The per-layer metrics; 0 where the workload never reaches the layer.

    Timings are medians per call; ``*_us`` figures are per call (draws,
    local counts) or per trial (``trial_us``, ``self_us``).
    """
    out: dict[str, float] = {}
    load = sp.select("graph.load")
    out["graph.load_s"] = _median(sp.dur[load])
    out["graph.parse_s"] = _median(sp.self_time[load])
    lines = sp.detail[load]
    parse_time = sp.self_time[load][~np.isnan(lines)].sum()
    out["graph.lines_per_s"] = _ratio(float(np.nansum(lines)), float(parse_time))
    out["graph.csr_build_s"] = _median(sp.dur[sp.select("graph.csr_build")])
    out["graph.adjacency_cache_s"] = _median(sp.dur[sp.select("graph.adjacency_cache")])

    count = sp.select("exact.count")
    out["exact.count_s"] = _median(sp.dur[count])
    out["exact.edges_per_s"] = _median(sp.detail[count] / sp.dur[count]) if count.any() else 0.0

    for k in KINDS:
        out[f"samplers.build_s.{k}"] = _median(sp.dur[sp.select("samplers.build", k)])
        out[f"samplers.draw_vertex_us.{k}"] = 1e6 * _median(
            sp.dur[sp.select("samplers.draw_vertex", k, True)]
        )
        given = sp.select("samplers.draw_given_i", k, True)
        out[f"samplers.draw_given_i_us.{k}"] = 1e6 * _median(sp.dur[given])
        out[f"samplers.degenerate_ratio.{k}"] = _ratio(
            float(np.nansum(sp.detail[given])), float(given.sum())
        )
    for k in KINDS:
        runs = sp.select("estimator.run_trials", k, True)
        trials = sp.detail[runs]
        out[f"estimator.run_trials_s.{k}"] = _median(sp.dur[runs])
        out[f"estimator.trial_us.{k}"] = 1e6 * _median(sp.dur[runs] / trials)
        out[f"estimator.self_us.{k}"] = 1e6 * _median(sp.self_time[runs] / trials)
        local = sp.select("estimator.local_count", k, True)
        out[f"estimator.local_count_us.{k}"] = 1e6 * _median(sp.dur[local])
        useful = float((sp.detail[local] > 0).sum())
        out[f"estimator.useful_ratio.{k}"] = _ratio(useful, float(np.nansum(trials)))

    out["analytics.closed_form_s"] = _median(sp.dur[sp.select("analytics.closed_form")])
    out["analytics.generic_s"] = _median(sp.dur[sp.select("analytics.generic")])

    p1, p2 = sp.select("streaming.pass1"), sp.select("streaming.pass2")
    runs = sp.select("streaming.stream_estimate")
    passes = int(p1.sum() + p2.sum() + sp.select("streaming.pass0").sum())
    out["streaming.pass1_s"] = _median(sp.dur[p1])
    out["streaming.pass2_s"] = _median(sp.dur[p2])
    out["streaming.finalize_s"] = _median(sp.dur[sp.select("streaming.finalize")])
    out["streaming.edges_per_s"] = _ratio(
        float(stream_edges * (p1.sum() + p2.sum())), float(sp.dur[p1 | p2].sum())
    )
    out["streaming.passes"] = _ratio(float(passes), float(runs.sum()))
    out["streaming.state_bytes"] = float(sp.detail[p1].max()) if p1.any() else 0.0

    out["cli.self_s"] = _median(sp.self_time[sp.select("cli.main")])
    out["rng.weighted_choice_us"] = 1e6 * _median(sp.dur[sp.select("rng.weighted_choice")])
    return out

