"""The benchmark workloads: inputs, set-up, operations and checks.

Each workload is a closed loop with one client.  Its graph and the seed
of every operation derive from the workload seed, so two runs with the
same seed do identical work.  An operation returns its output, and the
output is checked after the timed loop against the reference oracle of
``reference.py``; a failed check is recorded, never raised.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import graphs
from reference import Reference, reference_counts

ESTIMATE_SIGMAS = 5.0
VARIANCE_RTOL = 1e-9


@dataclass(frozen=True)
class Op:
    """One kind of operation in a workload's cycle.

    ``label`` names the metric the operation's wall time feeds,
    ``kind`` the sampler whose cost it carries (if any), ``sampling``
    whether it estimates T to relative error ε, and ``distinct`` how many
    times it runs in each round, each time with its own seed.  More seeds
    average out how much work a seed draws; fewer leave more repeats of
    each.
    """

    label: str
    kind: str | None
    sampling: bool
    run: Callable[[int], object]
    distinct: int = 1


def op_seed(seed: int, tag: int, index: int) -> int:
    """Seed of the ``index``-th operation of a run."""
    return int(np.random.SeedSequence([seed, tag, 1, index]).generate_state(1)[0])


def run_cli(ts, argv: list[str]) -> dict:
    """``trisample.cli.main(argv)`` in-process; returns the parsed report."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = ts.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"trisample {' '.join(argv)} exited with {code}")
    return json.loads(out.getvalue())


def _relative_gap(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


class Workload:
    """Shared plumbing; subclasses define the graph, set-up and operations."""

    name = ""
    tag = 0  # mixes the workload into every seed derived from --seed
    setup_points = 1  # times in a run at which set-up is timed

    def __init__(self, ts, seed: int, tmpdir: str) -> None:
        self.ts = ts
        self.seed = seed
        rng = np.random.default_rng(np.random.SeedSequence([seed, self.tag]))
        edges, n = self.generate(rng)
        path = os.path.join(tmpdir, f"{self.name}.edges")
        self.file = graphs.write_edge_list(edges, n, path, rng)
        self.ref: Reference = reference_counts(edges, n)
        self.s_eps = {k: self.ref.s_eps(k) for k in self.ref.var1}
        self.graph = None

    def generate(self, rng: np.random.Generator) -> tuple[np.ndarray, int]:
        raise NotImplementedError

    def setup(self) -> None:
        """The timed set-up: from the file on disk to a ready workload."""
        raise NotImplementedError

    def ops(self) -> list[Op]:
        raise NotImplementedError

    def check(self, op: Op, seed: int, output) -> str | None:
        """Failure message for an operation's output, or None if correct."""
        raise NotImplementedError

    def describe(self) -> dict:
        f, r = self.file, self.ref
        return {
            "n": f.n,
            "m": f.m,
            "max_degree": f.max_degree,
            "triangles": r.total,
            "s_eps": {op.kind: self.s_eps[op.kind] for op in self.ops() if op.sampling},
        }

    # -- shared pieces -------------------------------------------------

    def _load_and_warm(self, kinds) -> None:
        """Load the file, build each sampler and run one warm-up trial.

        The trial makes lazily built graph caches land here rather than in
        the first timed operation.  It is an ``edge-uniform`` trial because
        its cost does not depend on where the draw lands; a one-trial
        ``qopt-degree`` estimate that lands on a hub costs 5x more.
        """
        ts = self.ts
        self.graph = None
        g = ts.load_edge_list(self.file.path)
        for k in kinds:
            ts.build_sampler(g, k)
        ts.estimate(g, "edge-uniform", 1, seed=0)
        self.graph = g

    def _estimate_op(self, kind: str, distinct: int = 1) -> Op:
        s = self.s_eps[kind]
        return Op(
            label=f"time_to_eps_s.{kind}",
            kind=kind,
            sampling=True,
            run=lambda seed: self.ts.estimate(self.graph, kind, s, seed=seed),
            distinct=distinct,
        )

    def _check_estimate(self, kind: str, trials: int, value: float) -> str | None:
        s = self.s_eps[kind]
        if trials != s:
            return f"{kind}: {trials} trials, expected s_eps={s}"
        band = ESTIMATE_SIGMAS * math.sqrt(self.ref.variance(kind, s))
        if not abs(value - self.ref.total) <= band:
            return f"{kind}: estimate {value} is off T={self.ref.total} by more than {band}"
        return None


class GnpSample(Workload):
    """Flat degrees, all four sampler kinds: the trial engine does the work."""

    name = "gnp-sample"
    tag = 1
    setup_points = 6
    kinds = ("qopt-uniform", "qopt-degree", "edge-uniform", "edge-degree")
    n, m = 20_000, 200_000

    def generate(self, rng):
        return graphs.uniform_graph(self.n, self.m, rng), self.n

    def setup(self):
        self._load_and_warm(self.kinds)

    def ops(self):
        return [self._estimate_op(k) for k in self.kinds]

    def check(self, op, seed, est):
        return self._check_estimate(op.kind, est.trials, est.value)


class Powerlaw(Workload):
    """Hub-skewed degrees; exact counting, sampling and streaming on one graph.

    The stream operation uses a small fixed sample so that it measures the
    two passes over the file rather than O(s·n) state: its run time swings
    by 30% with the host's slow spells, which a larger share of the cycle
    would carry into every metric.
    """

    name = "powerlaw"
    tag = 2
    setup_points = 8
    # Hub draws make the work of one estimate vary by ~20% from seed to seed.
    kinds = {"qopt-degree": 10, "edge-degree": 24}  # kind -> distinct seeds
    cli_distinct = 2  # runs of each CLI operation in a round
    variance_kind = "edge-degree"
    stream_kind, stream_samples = "qopt-uniform", 64
    n, m, gamma, offset = 5_000, 50_000, 2.5, 1.5

    def generate(self, rng):
        return graphs.chung_lu_graph(self.n, self.m, self.gamma, self.offset, rng), self.n

    def setup(self):
        self._load_and_warm(self.kinds)
        self.in_memory = {}  # seed -> in-memory estimate, filled by the checks

    def ops(self):
        path = self.file.path
        kind = self.variance_kind
        variance_argv = ["variance", path, "--sampler", kind, "--samples", str(self.s_eps[kind])]
        stream_argv = ["stream", path, "--samples", str(self.stream_samples), "--seed"]
        d = self.cli_distinct
        return [
            Op("exact_s", None, False, lambda seed: run_cli(self.ts, ["exact", path]), d),
            Op("variance_s", kind, False, lambda seed: run_cli(self.ts, variance_argv), d),
            Op(
                "stream_s",
                self.stream_kind,
                False,
                lambda seed: run_cli(self.ts, stream_argv + [str(seed)]),
                d,
            ),
            *(self._estimate_op(k, d) for k, d in self.kinds.items()),
        ]

    def check(self, op, seed, out):
        if op.label == "exact_s":
            got = out["result"]["triangles"]
            return None if got == self.ref.total else f"exact: {got} != T={self.ref.total}"
        if op.label == "variance_s":
            res = out["result"]
            want = self.ref.variance(op.kind, self.s_eps[op.kind])
            if _relative_gap(res["analytical_variance"], want) > VARIANCE_RTOL:
                return f"variance: analytical {res['analytical_variance']} != reference {want}"
            if _relative_gap(res["analytical_variance"], res["generic_variance"]) > VARIANCE_RTOL:
                return "variance: analytical and generic values disagree"
            return None
        if op.label == "stream_s":
            return self._check_stream(out["result"], seed)
        return self._check_estimate(op.kind, out.trials, out.value)

    def _check_stream(self, res: dict, seed: int) -> str | None:
        """Two passes, and bit for bit the in-memory estimate of the same seed."""
        if res["passes_used"] != 2:
            return f"stream: {res['passes_used']} passes, expected 2"
        if res["s"] != self.stream_samples:
            return f"stream: {res['s']} trials, expected {self.stream_samples}"
        if seed not in self.in_memory:
            est = self.ts.estimate(self.graph, self.stream_kind, self.stream_samples, seed=seed)
            self.in_memory[seed] = est.value
        want = self.in_memory[seed]
        if res["estimate"] != want:
            return f"stream: estimate {res['estimate']!r} differs from in-memory {want!r}"
        return None


WORKLOADS = {w.name: w for w in (GnpSample, Powerlaw)}
