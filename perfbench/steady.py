"""Check that two sets of runs of the same code agree within the benchmark's bounds.

Usage, from the root of a checkout::

    python3 perfbench/steady.py

It runs two sets.  Each set runs ``perfbench/run.py --trace 0`` once per
seed, for seeds 1 to 10, on every workload of ``BENCHMARK.json``, for the
``run_seconds`` it sets.  For every end-to-end metric and workload it
prints each set's median and quartiles, the spread (interquartile
distance over the median) and the move of the second median against the
first.

It exits 1 if any run is incorrect or fails an operation, if a spread
exceeds the metric's bound, if the second set's median differs from the
first set's by more than the bound, or if a ``sim_*`` metric differs
between two runs of the same seed.  Each run's ``PYTHONHASHSEED`` is
derived from its seed by ``run.py`` and printed with its figures.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import hash_seed  # noqa: E402

SETS = 2
SEEDS = range(1, 11)


def one_run(workload: str, seed: int, seconds: int):
    """Run ``run.py`` once untraced; return its final JSON object and its host line."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    host = next((line for line in lines if line.startswith("host slowdown")), "")
    return json.loads(lines[-1]), host


def spread(values):
    """``(median, first quartile, third quartile, IQR / median)``."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    seconds = int(bench["run_seconds"])
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    ok = True
    figures = {}  # (set, workload) -> {metric: [values]}
    sims = {}  # (workload, seed) -> sim_* values
    for number in range(SETS):
        for workload in names:
            for seed in SEEDS:
                result, host = one_run(workload, seed, seconds)
                values = {name: metric["value"] for name, metric in result["metrics"].items()}
                print(f"set {number + 1} {workload} seed={seed} "
                      f"PYTHONHASHSEED={hash_seed(seed)} correct={result['correct']} "
                      f"attempted={result['attempted']} failed={result['failed']} "
                      + " ".join(f"{k}={v:.6g}" for k, v in values.items())
                      + f" ({host})", flush=True)
                if not result["correct"] or result["failed"]:
                    ok = False
                sim = {k: v for k, v in values.items() if k.startswith("sim_")}
                if sims.setdefault((workload, seed), sim) != sim:
                    print(f"FAIL {workload} seed={seed}: sim metrics differ between runs")
                    ok = False
                for name, value in values.items():
                    figures.setdefault((number, workload), {}).setdefault(name, []).append(value)
    for workload in names:
        for name, metric in bounds.items():
            bound = metric["bound"]
            medians = []
            for number in range(SETS):
                median, q1, q3, share = spread(figures[(number, workload)][name])
                medians.append(median)
                verdict = "ok"
                if share > bound:
                    verdict = "TOO NOISY"
                    ok = False
                print(f"{workload:<14} {name:<16} set {number + 1}: median={median:.6g} "
                      f"q1={q1:.6g} q3={q3:.6g} spread={share:.3f} "
                      f"(bound {bound}, a third {bound / 3:.3f}) {verdict}")
            move = (medians[1] - medians[0]) / medians[0]
            verdict = "ok" if abs(move) <= bound else "MEDIAN MOVED"
            ok = ok and abs(move) <= bound
            print(f"{workload:<14} {name:<16} median moved {move:+.3f} {verdict}")
    print("steady" if ok else "NOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
