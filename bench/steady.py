"""Steadiness check: run each workload under several seeds and print, for
every end-to-end metric, the median, the quartiles and the spread (the
interquartile range as a share of the median) next to the metric's bound
from BENCHMARK.json.

    python3 bench/steady.py                      # every workload, seeds 1..10
    python3 bench/steady.py --workload mfw --seeds 5
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def main() -> int:
    names = [w["name"] for w in SPEC["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names, action="append", help="repeatable; default all")
    parser.add_argument("--seeds", type=int, default=10, help="runs per workload, seeds 1..N")
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    worst = 0.0
    for workload in args.workload or names:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        shares = set()
        for seed in range(1, args.seeds + 1):
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                capture_output=True, text=True, check=False)
            result = json.loads(done.stdout.splitlines()[-1])
            if done.returncode or not result["correct"]:
                print(f"{workload} seed {seed}: exit {done.returncode}, {done.stderr.strip()[-300:]}")
            shares.add((result["failed"], result["attempted"]) if result["failed"] else 0)
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        print(f"{workload}: {args.seeds} runs, failed/attempted {sorted(shares, key=str)}")
        for name, series in values.items():
            q1, q2, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / q2
            if name != "setup_s":
                worst = max(worst, spread / bounds[name])
            print(f"  {name:16} median {q2:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                  f"spread {spread:6.2%}  bound {bounds[name]:.0%}")
    print(f"largest spread as a share of its bound (setup_s aside): {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
