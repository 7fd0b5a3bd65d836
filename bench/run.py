"""Benchmark of the rowmotion package: one workload per process.

    python3 bench/run.py --workload certify --seed 1 --seconds 28 --trace 0

Set-up (importing the package, generating the seeded inputs and, for
`lifted`, computing the certificates it evaluates) is repeated at least 3
times, and up to 25 times while under SETUP_SECONDS, and reported as its
median.  Then whole rounds of the workload's
operations run for --seconds; every operation is one verdict, checked
against the benchmark's own oracles.  The last line of standard output is
one JSON object: with --trace 0 the end-to-end metrics, with --trace 1 the
per-layer metrics of bench/tracing.py.  A readable summary goes to standard
error.  Exit code 0 when a result was printed, 2 on a usage error or when
the package source is missing.

Times are reported at reference speed.  The speed of a shared host drifts by
20-40 % over seconds to minutes, and it moves most Python code alike, so a
fixed piece of pure-Python reference work (oracles.reference_work) is timed
every SAMPLE_GAP_S by an interval timer, also in the middle of an operation,
and every measured time (the handler's own time taken out) is scaled by
REFERENCE_S over the median reference time within WINDOW_S of it.  The raw
figures are printed on standard error.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import importlib
import json
import math
import resource
import signal
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import oracles
import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
LAYERS = ("poset", "families", "statistics", "linalg", "decompose", "qpoly",
          "dynamics", "lifted", "qrow", "verify", "cli")
SETUP_REPEATS = (3, 25)  # at least 3 set-ups, more while under SETUP_SECONDS
SETUP_SECONDS = 1.0
REFERENCE_S = 0.005     # nominal time of one oracles.reference_work()
SAMPLE_GAP_S = 0.2
WINDOW_S = 1.0


class SpeedClock:
    """Reference-work timings taken every SAMPLE_GAP_S by an interval timer.

    The SIGALRM handler runs in the main thread between bytecodes, also in
    the middle of a long operation, so the process stays single-threaded;
    `spent` totals the handler's time, which callers subtract from what
    they measure."""

    def __init__(self):
        self.mids, self.times = [], []
        self.spent = 0.0

    def _sample(self, signum=None, frame=None):
        t0 = time.perf_counter()
        oracles.reference_work()
        t1 = time.perf_counter()
        self.mids.append((t0 + t1) / 2)
        self.times.append(t1 - t0)
        self.spent += t1 - t0

    def __enter__(self):
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_GAP_S, SAMPLE_GAP_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()

    def timed(self, fn, *args):
        """(result, start, seconds of fn without the handler's time)."""
        spent, t0 = self.spent, time.perf_counter()
        result = fn(*args)
        return result, t0, time.perf_counter() - t0 - (self.spent - spent)

    def scale(self, start, end):
        """Factor turning host seconds in [start, end] into reference seconds."""
        lo = bisect.bisect_left(self.mids, start - WINDOW_S)
        hi = bisect.bisect_right(self.mids, end + WINDOW_S)
        return REFERENCE_S / statistics.median(self.times[lo:hi])


def fresh_import():
    """Import every layer module anew, so each set-up pays the import."""
    for name in [k for k in sys.modules if k == "rowmotion" or k.startswith("rowmotion.")]:
        del sys.modules[name]
    importlib.import_module("rowmotion")
    return SimpleNamespace(**{m: importlib.import_module(f"rowmotion.{m}") for m in LAYERS})


def run_rounds(ops, rm, seconds, tracer, clock):
    """Whole rounds for `seconds`: at least one, and no further round once the
    mean round so far says it would end past the deadline.  One record
    (op, start, seconds, failure, states, points) per operation."""
    rounds = []
    start = time.perf_counter()
    while not rounds or (time.perf_counter() - start) * (len(rounds) + 1) / len(rounds) <= seconds:
        gc.collect()
        rd = wl.Round(rm, tracer)
        records = []
        for op in ops:
            try:
                result, t0, dt = clock.timed(op.run, rd)
            except Exception as exc:    # a crash is a failed operation, not a lost run
                records.append((op, time.perf_counter(), 0.0,
                                wl.Failure("error", f"{op.name}: {exc!r}"), 0, 0))
                continue
            try:
                failure, states, points = op.check(rd, result)
            except Exception as exc:
                failure, states, points = wl.Failure("error", f"{op.name}: check: {exc!r}"), 0, 0
            records.append((op, t0, dt, failure, states, points))
        rounds.append(records)
    return rounds


def op_times(rounds, clock):
    """Every round runs the same operations in the same order; an
    operation's time is the median over rounds, at reference speed."""
    ops = [r[0] for r in rounds[0]]
    return ops, [statistics.median(records[j][2] * clock.scale(records[j][1],
                                                                records[j][1] + records[j][2])
                                   for records in rounds)
                 for j in range(len(ops))]


def quantile(values, q):
    """Nearest-rank quantile."""
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def end_to_end(rounds, setup, clock):
    ops, times = op_times(rounds, clock)
    wall = sum(times)
    out = {
        "setup_s": (statistics.median(dt * clock.scale(t0, t0 + dt) for t0, dt in setup), "s"),
        "wall_s": (wall, "s"),
        "op_p50_ms": (statistics.median(times) * 1e3, "ms"),
        "op_p90_ms": (quantile(times, 0.9) * 1e3, "ms"),
        "largest_s": (next(t for op, t in zip(ops, times) if op.frontier), "s"),
        "states_per_s": (sum(r[4] for r in rounds[0]) / wall, "states/s"),
        "points_per_s": (sum(r[5] for r in rounds[0]) / wall, "checks/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=28)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be positive")
    src = ROOT / "src"
    if not (src / "rowmotion" / "__init__.py").is_file():
        print(f"error: package source not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    def set_up():
        rm = fresh_import()
        return rm, wl.WORKLOADS[args.workload](rm, args.seed)

    setup = []
    with SpeedClock() as clock:
        first = time.perf_counter()
        while len(setup) < SETUP_REPEATS[0] or (
                len(setup) < SETUP_REPEATS[1] and time.perf_counter() - first < SETUP_SECONDS):
            (rm, ops), t0, dt = clock.timed(set_up)
            setup.append((t0, dt))
        if len(ops) < 100 or sum(op.frontier for op in ops) != 1:
            # op_p90_ms needs ten operations beyond it, largest_s one frontier
            raise SystemExit("a workload needs 100 operations and one frontier instance")
        tracer = None
        if args.trace:
            import tracing
            tracer = tracing.Tracer()
            tracer.install()
        rounds = run_rounds(ops, rm, args.seconds, tracer, clock)

    failures = [r[3] for records in rounds for r in records if r[3] is not None]
    unknown = [f for f in failures if f.kind not in wl.KNOWN_FAULTS]
    wall = sum(op_times(rounds, clock)[1])
    raw = statistics.median(sum(r[2] for r in records) for records in rounds)
    print(f"{args.workload} seed={args.seed}: {len(rounds)} rounds of {len(ops)} operations, "
          f"wall_s={wall:.4f} (host seconds {raw:.4f}), "
          f"reference work median {statistics.median(clock.times) * 1e3:.3f} ms, "
          f"failed={len(failures)}", file=sys.stderr)
    for detail in sorted({f"{f.kind}: {f.detail}" for f in failures}):
        print(f"  failed {detail}", file=sys.stderr)
    if args.trace:
        metrics = tracer.metrics(len(rounds))
        path = ROOT / ".bench_trace" / f"spans-{args.workload}-{args.seed}.json"
        tracer.write_spans(path)
        print(f"  spans written to {path.relative_to(ROOT)}", file=sys.stderr)
    else:
        metrics = end_to_end(rounds, setup, clock)
    print(json.dumps({
        "correct": not unknown,
        "attempted": len(rounds) * len(ops),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
