"""Steadiness of the benchmark: two sets of repeated runs of every workload.

    python3 bench/steady.py

Runs the command of BENCHMARK.json for every workload it names, one run at a
time (never two at once: they would share the CPUs), RUNS times in each of
SETS sets, each run with another --seed: set k uses seeds
k*1000+1 .. k*1000+RUNS.  For every end-to-end metric it prints, per set,
the median, the quartiles and the spread (q3 - q1) / median, as
statistics.quantiles(values, n=4) gives them, and how far the second set's
median lies from the first's, |m2 - m1| / m1.  It reports "steady" only if
every run was correct with no failed operation, every spread is within the
metric's bound, and every pair of medians is.  Raw results go to
.bench_out/steady.json.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUNS = 10
SETS = 2


def run_once(config, workload, seed):
    cmd = config["command"] + ["--workload", workload, "--seed", str(seed),
                               "--seconds", str(config["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3, (q3 - q1) / q2


def main():
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    raw = {}
    ok = True
    for workload in (w["name"] for w in config["workloads"]):
        sets = []
        for k in range(1, SETS + 1):
            results = []
            for i in range(1, RUNS + 1):
                result = run_once(config, workload, k * 1000 + i)
                if not result["correct"] or result["failed"]:
                    ok = False
                    print(f"{workload} seed {k * 1000 + i}: correct={result['correct']} "
                          f"failed={result['failed']}/{result['attempted']}")
                results.append(result)
                print(f"  {workload} set {k} run {i}: " + ", ".join(
                    f"{n}={v['value']:.4g}" for n, v in result["metrics"].items()),
                    flush=True)
            sets.append(results)
        raw[workload] = sets
        print(f"\n{workload}")
        for spec in config["end_to_end"]:
            name, bound = spec["name"], spec["bound"]
            line = [f"  {name:14s}"]
            medians = []
            for results in sets:
                med, q1, q3, spread = summary([r["metrics"][name]["value"] for r in results])
                medians.append(med)
                within = spread <= bound
                ok = ok and within
                line.append(f"median {med:10.4f} [{q1:.4f}, {q3:.4f}] spread {spread:6.3f}"
                            f"{'' if within else ' OUT'}")
            apart = abs(medians[1] - medians[0]) / medians[0]
            within = apart <= bound
            ok = ok and within
            line.append(f"medians apart {apart:.3f} (bound {bound}): "
                        f"{'ok' if within else 'OUT'}")
            print(" | ".join(line))
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    (out / "steady.json").write_text(json.dumps(raw, indent=1) + "\n", encoding="utf-8")
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
