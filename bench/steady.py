"""Steadiness check: two sets of benchmark runs, compared metric by metric.

    python3 bench/steady.py              # 2 sets x 10 runs, every workload
    python3 bench/steady.py --overhead   # also one traced run per workload

Runs `bench/run.py` one process at a time (never in parallel), for every
workload of BENCHMARK.json and its `run_seconds`.  Set k (0 or 1) uses seeds
SEED_BASE + k*RUNS .. SEED_BASE + k*RUNS + RUNS - 1.  For every workload and
end-to-end metric it prints each set's median, its quartile spread (third
minus first quartile over the median, as statistics.quantiles(n=4) gives
them), and whether both spreads stay within the metric's bound from
BENCHMARK.json and the two medians differ by no more than the bound (as a
share of the first).  The share of failed operations must be identical in
every run.  Exit code 0 when every test holds, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETS = 2
RUNS = 10
SEED_BASE = 1


def run_once(workload, seed, seconds, trace=0):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    wall = re.search(r"wall_s=([0-9.]+)", proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1]), float(wall.group(1))


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--overhead", action="store_true",
                        help="one traced run per workload; report traced minus untraced wall_s")
    args = parser.parse_args(argv)
    names = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    metrics = bench["end_to_end"]

    results = {w: [[] for _ in range(SETS)] for w in names}
    walls = {w: [] for w in names}
    for k in range(SETS):
        for i in range(RUNS):
            seed = SEED_BASE + k * RUNS + i
            for w in names:
                out, wall = run_once(w, seed, seconds)
                results[w][k].append(out)
                walls[w].append(wall)
                print(f"set {k + 1} run {i + 1} {w} seed={seed}: attempted={out['attempted']} "
                      f"failed={out['failed']} correct={out['correct']}", file=sys.stderr)

    good = True
    print(f"{'workload':9} {'metric':13} " + " ".join(
        f"{'median' + str(k + 1):>13} {'spread' + str(k + 1):>8}" for k in range(SETS))
        + f" {'bound':>6}  verdict")
    for w in names:
        shares = {(r["failed"], r["attempted"]) for s in results[w] for r in s}
        fractions = {f / a for f, a in shares}
        incorrect = sum(not r["correct"] for s in results[w] for r in s)
        for m in metrics:
            name, bound = m["name"], m["bound"]
            sets = [[r["metrics"][name]["value"] for r in s] for s in results[w]]
            medians = [statistics.median(v) for v in sets]
            spreads = [spread(v) for v in sets]
            verdict = []
            if any(s > bound for s in spreads):
                verdict.append("SPREAD>BOUND")
            elif any(s > bound / 3 for s in spreads):
                verdict.append("spread>bound/3")
            if abs(medians[1] - medians[0]) / medians[0] > bound:
                verdict.append("DRIFT>BOUND")
            good = good and not any(v.isupper() for v in verdict)
            print(f"{w:9} {name:13} " + " ".join(
                f"{med:13.6g} {spr:8.4f}" for med, spr in zip(medians, spreads))
                + f" {bound:6.3f}  {' '.join(verdict) or 'ok'}")
        print(f"{w:9} failed share {sorted(fractions)} over {len(shares)} run sizes; "
              f"incorrect runs: {incorrect}")
        good = good and len(fractions) == 1 and not incorrect
    if args.overhead:
        for w in names:
            _, traced = run_once(w, SEED_BASE, seconds, trace=1)
            base = statistics.median(walls[w])
            print(f"{w:9} tracing overhead: traced wall_s {traced:.4f} - untraced median "
                  f"{base:.4f} = {traced - base:+.4f} s ({(traced - base) / base:+.1%})")
    return 0 if good else 1


if __name__ == "__main__":
    sys.exit(main())
