"""The deltan benchmark: one workload, measured in fresh interpreters.

    python3 bench/run.py --workload verify-default --seed 1 --seconds 24 --trace 0

Every round runs in its own interpreter (worker.py), so no process-global
cache of deltan carries over from an earlier round, and every round of a run
repeats the same inputs.  ``--seconds`` sets the number of rounds,
``max(1, round(seconds / ROUND_S[workload]))``, so a run does a fixed count
of operations and never stops on the clock; ``--seed`` fixes the inputs and
their order.  Each interpreter has a time limit scaled from its nominal
time, so a run that is much slower than planned fails instead of hanging.

Every time is scaled to a reference speed by the worker's calibration (see
worker.Calibrator), because a shared machine runs the same work at speeds up
to half as far apart again from one minute to the next.

--trace 0 reports the end-to-end metrics.  setup_s is the median over
SETUP_PROBES set-up-only interpreters, spread between the rounds, and the
rounds themselves.  wall_s is the fastest round's timed section, and
query_p50_ms / query_p90_ms are percentiles of each operation's fastest
latency over the rounds.  peak_rss_mb is the largest peak resident memory of
a round.  --trace 1 runs a traced round between two untraced rounds, reports
the per-layer metrics of the traced round plus trace.overhead_s (its wall_s
minus the mean wall_s of the two untraced rounds), and writes the aggregated
spans, unscaled, to .bench_out/.  The last line of standard output is the
result object.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
OUT_DIR = ROOT / ".bench_out"

# nominal seconds of one round's timed section on a 2-CPU machine
ROUND_S = {"verify-default": 13.0, "ring-ladder": 10.0, "cli-queries": 11.0}
SETUP_PROBES = 9
# time limits: a round may take SLACK times its nominal time plus CHECK_S for
# start-up and checks (TRACE_SLACK more when traced); a set-up probe PROBE_S
SLACK = 2.5
TRACE_SLACK = 1.5
CHECK_S = 15.0
PROBE_S = 5.0


class BenchError(Exception):
    pass


class Runner:
    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed

    def round(self, mode):
        """One worker interpreter; returns its result object."""
        limit = PROBE_S
        if mode != "setup":
            limit = SLACK * ROUND_S[self.workload] + CHECK_S
        if mode == "trace":
            limit *= TRACE_SLACK
        cmd = [sys.executable, str(WORKER), "--workload", self.workload,
               "--seed", str(self.seed), "--mode", mode]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=limit)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} round did not finish in {limit:.0f} s") from None
        if proc.returncode != 0:
            raise BenchError(f"{mode} round exited {proc.returncode}:\n{proc.stderr[-4000:]}")
        lines = proc.stdout.strip().splitlines()
        if not lines:
            raise BenchError(f"{mode} round printed no result")
        return json.loads(lines[-1])


def p90(values):
    return statistics.quantiles(values, n=10)[-1] if len(values) > 1 else values[0]


def measure(runner, rounds):
    # the first interpreter also compiles bytecode, so its set-up is dropped
    runner.round("setup")
    # set-up probes in rounds + 1 groups around the rounds, so that they do
    # not all fall into one burst of the machine's load
    groups = [SETUP_PROBES // (rounds + 1) + (k < SETUP_PROBES % (rounds + 1))
              for k in range(rounds + 1)]
    setups, results = [], []
    for k, probes in enumerate(groups):
        setups += [runner.round("setup")["setup_s"] for _ in range(probes)]
        if k < rounds:
            results.append(runner.round("run"))
    setups += [r["setup_s"] for r in results]
    fastest = [min(per_op) for per_op in zip(*(r["latencies_ms"] for r in results))]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (min(r["wall_s"] for r in results), "s"),
        "peak_rss_mb": (max(r["peak_rss_mb"] for r in results), "MB"),
        "query_p50_ms": (statistics.median(fastest), "ms"),
        "query_p90_ms": (p90(fastest), "ms"),
    }
    return results, metrics


def measure_traced(runner):
    # untraced rounds on both sides, so that a drift of the machine's speed
    # during the run does not land in the overhead
    before = runner.round("run")
    traced = runner.round("trace")
    after = runner.round("run")
    plain_wall = (before["wall_s"] + after["wall_s"]) / 2
    metrics = {name: tuple(v) for name, v in traced.pop("layers").items()}
    metrics["trace.overhead_s"] = (traced["wall_s"] - plain_wall, "s")
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{runner.workload}-seed{runner.seed}.json"
    path.write_text(json.dumps({
        "workload": runner.workload, "seed": runner.seed,
        "untraced_wall_s": [before["wall_s"], after["wall_s"]],
        "traced_wall_s": traced["wall_s"],
        "shares": traced.pop("shares"), "spans": traced.pop("spans"),
    }, indent=1) + "\n", encoding="utf-8")
    return [before, traced, after], metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(ROUND_S))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "deltan" / "__init__.py").is_file():
        print(f"error: no deltan sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    runner = Runner(args.workload, args.seed)
    try:
        if args.trace:
            results, metrics = measure_traced(runner)
        else:
            rounds = max(1, round(args.seconds / ROUND_S[args.workload]))
            results, metrics = measure(runner, rounds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    errors = [e for r in results for e in r["errors"]]
    for e in errors[:20]:
        print(f"check failed: {e}", file=sys.stderr)
    out = {
        "correct": not errors,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(out))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
