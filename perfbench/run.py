#!/usr/bin/env python3
"""trisample performance benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The benchmark generates the workload's
graph from the seed, writes it to a temporary directory inside the
checkout, computes reference counts without trisample, then measures
the trisample sources under ``src/`` in one single-threaded process:
set-up several times, then a closed loop of operations for ``--seconds``.
A fixed pure-Python calibration loop runs between every two timed
calls, and each time is scaled by the calibration around it, so the
host's drifting CPU speed cancels out.  Every operation's output is
checked against the reference after the loop.  With ``--trace 0`` the
last line of standard output carries the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of a traced run, and the
spans are written under ``.perfbench-out/``.
"""

import os

# Pin native thread pools before numpy loads: the benchmark is one
# single-threaded process.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from tracing import Tracer, per_layer_metrics, percentiles  # noqa: E402
from workloads import WORKLOADS, Op, Workload, op_seed  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
MIN_ROUNDS = 1  # complete rounds in an untraced run
CALIBRATION_STEPS = 40_000
# Scaled times are seconds on a host where the calibration loop takes
# this long (about what it takes on a 2-vCPU Xeon with Python 3.11).
CALIBRATION_REF_S = 0.025
# As the host's speed drifts, operation times follow the calibration time
# to about the 0.7th (gnp-sample) to first (powerlaw) power, and set-up
# times to about the first (fitted across runs on a shared 2-vCPU Xeon);
# a time is scaled by (reference / calibration) ** exponent.
OP_EXPONENT = 0.85
SETUP_EXPONENT = 1.0


def scale(seconds: float, calibration: float, exponent: float) -> float:
    """A wall time scaled to the reference host speed."""
    return seconds * (CALIBRATION_REF_S / calibration) ** exponent


def load_metric_units() -> dict[str, dict[str, str]]:
    """Name -> unit of every declared metric, from ``BENCHMARK.json``."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {
        group: {m["name"]: m["unit"] for m in spec[group]} for group in ("end_to_end", "per_layer")
    }


def import_trisample():
    """Import trisample from the checkout's ``src/``, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "trisample", "__init__.py")):
        raise SystemExit(f"perfbench: no trisample sources under {SRC}")
    sys.path.insert(0, SRC)
    import trisample
    import trisample.cli  # noqa: F401  (the in-process CLI operations use it)

    if not os.path.abspath(trisample.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: trisample imported from {trisample.__file__}, not {SRC}")
    return trisample


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "threads": os.environ["OMP_NUM_THREADS"],
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def calibrate() -> float:
    """Wall time of a fixed pure-Python loop: the host's speed right now.

    The loop does what trisample does most (integer arithmetic, dict and
    list updates) and runs with the collector off, so neither trisample
    nor its garbage can change its cost.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        table: dict[int, int] = {}
        keys: list[int] = []
        for i in range(CALIBRATION_STEPS):
            k = (i * 7919) % 10007
            table[k] = table.get(k, 0) + 1
            keys.append(k ^ i)
        keys.sort()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


@dataclass
class Record:
    index: int  # position in the run; also the span operation id
    slot: int  # position in the round: the same slot is the same operation
    op: Op
    seed: int
    seconds: float
    calibration: float  # mean calibration time just before and just after
    output: object
    error: str | None
    traced: bool

    @property
    def scaled(self) -> float:
        return scale(self.seconds, self.calibration, OP_EXPONENT)


class Loop:
    """Closed loop with one client, in rounds over a fixed list of operations.

    A round runs each operation kind with ``op.distinct`` distinct seeds,
    and every round repeats the same operations.  Every timed call sits
    between two calibrations, and its time is scaled by their mean.  An
    operation's time is the median of its scaled repeats; a kind's time
    is the mean over its distinct operations, which averages out how much
    work each seed happens to draw.
    """

    def __init__(self, w: Workload) -> None:
        self.w = w
        self.kinds = w.ops()
        rows = max(op.distinct for op in self.kinds)
        self.schedule = [op for d in range(rows) for op in self.kinds if d < op.distinct]
        self.seeds = [op_seed(w.seed, w.tag, slot) for slot in range(len(self.schedule))]
        self.records: list[Record] = []
        self.setups: list[tuple[float, float]] = []  # (seconds, scaled seconds)
        self._calibration = calibrate()  # the last calibration time

    def _recalibrate(self) -> float:
        """Calibrate again; returns the mean of this and the last calibration."""
        before, self._calibration = self._calibration, calibrate()
        return (before + self._calibration) / 2.0

    def setup(self) -> None:
        """Time one set-up, starting from a workload without a graph."""
        self.w.graph = None
        gc.collect()
        self._recalibrate()
        t0 = perf_counter()
        self.w.setup()
        elapsed = perf_counter() - t0
        self.setups.append((elapsed, scale(elapsed, self._recalibrate(), SETUP_EXPONENT)))

    def run(
        self, seconds: float, min_rounds: int, tracer: Tracer | None = None, setups: int = 0
    ) -> None:
        """Run whole rounds, at least ``min_rounds``, for about ``seconds``.

        The run stops at the round boundary nearest the deadline, so every
        distinct operation repeats equally often and a round that takes
        about ``seconds`` is not run twice.  ``setups`` more set-ups are
        timed at even intervals between operations, so that a slow spell
        of the host cannot catch them all.
        """
        size, first = len(self.schedule), len(self.records)
        gc.collect()
        self._recalibrate()
        start = perf_counter()
        deadline = start + seconds
        setup_due = [start + seconds * (i + 1) / (setups + 1) for i in range(setups)]
        while True:
            k = len(self.records)
            done = k - first
            if done % size == 0 and done >= min_rounds * size:
                now = perf_counter()
                round_s = (now - start) / max(done // size, 1)
                if now + round_s / 2.0 >= deadline:
                    return
            if setup_due and perf_counter() >= setup_due[0]:
                setup_due.pop(0)
                self.setup()
            slot = k % size
            op, seed = self.schedule[slot], self.seeds[slot]
            if tracer is not None:
                tracer.op = k
                tracer.ops[k] = (op.label, op.kind)
            error = output = None
            t0 = perf_counter()
            try:
                output = op.run(seed)
            except Exception as exc:  # a failed operation is counted, not raised
                error = f"{type(exc).__name__}: {exc}"
            elapsed = perf_counter() - t0
            if tracer is not None:
                tracer.op = -1
            calibration = self._recalibrate()
            self.records.append(
                Record(k, slot, op, seed, elapsed, calibration, output, error, tracer is not None)
            )

    def check(self) -> list[str]:
        """Check every output against the reference; returns the failures."""
        failures = []
        for r in self.records:
            msg = r.error
            if msg is None:
                try:
                    msg = self.w.check(r.op, r.seed, r.output)
                except Exception as exc:  # a malformed output fails its check
                    msg = f"check raised {type(exc).__name__}: {exc}"
            if msg is not None:
                failures.append(f"op {r.index} ({r.op.label}): {msg}")
        return failures

    def samples(self, traced: bool, scaled: bool) -> dict[str, list[float]]:
        """Every measured time, by kind."""
        out: dict[str, list[float]] = {op.label: [] for op in self.kinds}
        for r in self.records:
            if r.traced == traced and r.error is None:
                out[r.op.label].append(r.scaled if scaled else r.seconds)
        return out

    def per_operation(self, traced: bool) -> dict[str, list[float]]:
        """Median scaled time of each distinct operation, by kind."""
        by_slot: dict[int, list[float]] = {}
        for r in self.records:
            if r.traced == traced and r.error is None:
                by_slot.setdefault(r.slot, []).append(r.scaled)
        out: dict[str, list[float]] = {op.label: [] for op in self.kinds}
        for slot, times in sorted(by_slot.items()):
            out[self.schedule[slot].label].append(statistics.median(times))
        return out

    def op_seconds(self, traced: bool) -> dict[str, float]:
        """Scaled time of one operation of each kind measured in the run."""
        return {label: statistics.fmean(v) for label, v in self.per_operation(traced).items() if v}


def geometric_mean(values: list[float]) -> float:
    return math.exp(statistics.fmean(map(math.log, values))) if values else 0.0


def end_to_end(names, setups, op_seconds: dict[str, float], rss: float) -> dict[str, float]:
    """The end-to-end metrics named in ``names``.

    An operation kind whose label is a declared metric is reported under
    that name; the others are folded into ``other_ops_s``, their
    geometric mean, so each weighs the same whatever its length.  A kind
    whose every operation failed reports 0.
    """
    out = {
        "setup_s": statistics.median([scaled for _, scaled in setups]),
        "peak_rss_mb": rss,
        "other_ops_s": geometric_mean([t for k, t in op_seconds.items() if k not in names]),
    }
    out.update({k: t for k, t in op_seconds.items() if k in names})
    return {name: out.get(name, 0.0) for name in names}


def print_report(w: Workload, args, env: dict, loop: Loop, failures, extra: dict) -> None:
    traced = bool(args.trace)
    print(f"perfbench workload={w.name} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("environment: " + json.dumps(env))
    print("graph: " + json.dumps(w.describe()))
    print(
        f"setup_s [s, scaled]: {json.dumps(percentiles([t for _, t in loop.setups]))}"
        f" wall={json.dumps(percentiles([t for t, _ in loop.setups]))}"
    )
    per_op, op_seconds = loop.per_operation(traced), loop.op_seconds(traced)
    wall = loop.samples(traced, scaled=False)
    for label, values in loop.samples(traced, scaled=True).items():
        print(
            f"{label} [s, scaled]: {op_seconds.get(label)} per_op={json.dumps(per_op[label])}"
            f" all={json.dumps(percentiles(values))} wall={json.dumps(percentiles(wall[label]))}"
        )
    calibrations = [r.calibration for r in loop.records]
    print(f"calibration [s]: {json.dumps(percentiles(calibrations))}")
    attempted = len(loop.records)
    print(f"error_rate [ratio]: {len(failures) / attempted} ({len(failures)} of {attempted} ops)")
    for f in failures[:20]:
        print(f"FAILED {f}")
    for key, value in extra.items():
        print(f"{key}: {json.dumps(value)}")


def finite(value: float) -> float:
    """A metric as strict JSON allows it: NaN (from a call that raised) becomes 0."""
    return float(value) if math.isfinite(value) else 0.0


def run_untraced(w: Workload, args, ts, units) -> tuple[Loop, dict, dict]:
    loop = Loop(w)
    loop.setup()
    loop.run(args.seconds, MIN_ROUNDS, setups=w.setup_points - 1)
    rss = peak_rss_mb()
    metrics = end_to_end(units["end_to_end"], loop.setups, loop.op_seconds(False), rss)
    return loop, metrics, {}


def run_traced(w: Workload, args, ts, units) -> tuple[Loop, dict, dict]:
    """A third of the time untraced, the rest traced; the gap is the overhead."""
    loop = Loop(w)
    loop.setup()
    t0 = perf_counter()
    loop.run(args.seconds / 3.0, 1)
    tracer = Tracer({w.file.path: w.file.lines})
    tracer.install(ts)
    try:
        tracer.ops[-1] = ("setup", None)
        w.setup()
        loop.run(args.seconds - (perf_counter() - t0), 1, tracer)
    finally:
        tracer.uninstall()
    plain, traced = loop.op_seconds(False), loop.op_seconds(True)
    both = [label for label in plain if label in traced]
    overhead = sum(map(traced.get, both)) / sum(map(plain.get, both)) - 1.0 if both else 0.0
    spans = tracer.spans()
    metrics = per_layer_metrics(spans, stream_edges=w.file.m)
    metrics["trace.overhead"] = overhead
    os.makedirs(OUT_DIR, exist_ok=True)
    span_file = os.path.join(OUT_DIR, f"spans-{w.name}-seed{args.seed}.npz")
    tracer.write(span_file)
    extra = {
        "absent": tracer.absent,
        "spans_written": os.path.relpath(span_file, ROOT),
        "span_summary": spans.summary(),
    }
    return loop, metrics, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    units = load_metric_units()
    ts = import_trisample()
    env = environment()
    # On SIGTERM, exit through the normal path so the temporary directory goes too.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    with tempfile.TemporaryDirectory(prefix=".perfbench-tmp-", dir=ROOT) as tmp:
        w = WORKLOADS[args.workload](ts, args.seed, tmp)
        run = run_traced if args.trace else run_untraced
        loop, metrics, extra = run(w, args, ts, units)
        failures = loop.check()
        print_report(w, args, env, loop, failures, extra)
    declared = units["per_layer" if args.trace else "end_to_end"]
    result = {
        "correct": not failures,
        "attempted": len(loop.records),
        "failed": len(failures),
        "metrics": {k: {"value": finite(metrics[k]), "unit": u} for k, u in declared.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
