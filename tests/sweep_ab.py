"""Time the exhaustive sweep ``cross_validate(10, 4)`` of two source trees.

Each run is a fresh child process that imports ``unitrail`` from one
tree's ``src`` and times the sweep 20 times in CPU seconds.  Runs go one
at a time, and each pair alternates which tree runs first, so a drift in
the machine's speed falls on both trees alike.  Within a pair, each of
the change's sweeps is divided by the parent's sweep of the same number,
so every sweep gives one ratio.

    python tests/sweep_ab.py PARENT CHANGE

PARENT and CHANGE are checkouts that each hold ``src/unitrail``.  The
script runs 10 pairs and prints one line per pair with the median of
its ratios, then the median and quartiles of all 200 ratios and the
number of pairs whose median ratio is below 1.  It exits 1 when the two
trees report different disagreement, unsound or gap counts.

This script is not a test: pytest collects only ``test_*.py`` files.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SWEEPS = 20
PAIRS = 10

# one run: the seconds of each of SWEEPS sweeps, the module it timed and the counts
_CHILD = """
import json, sys, time
sys.path.insert(0, sys.argv[1])
import unitrail
from unitrail.harness import cross_validate
seconds = []
for _ in range(int(sys.argv[2])):
    start = time.process_time()
    report = cross_validate(10, 4)
    seconds.append(time.process_time() - start)
counts = [len(report.disagreements), len(report.strict_unsound), len(report.strict_gaps)]
print(json.dumps({"module": unitrail.__file__, "seconds": seconds, "counts": counts}))
"""


def sweep(tree: Path) -> dict:
    """One run of the sweep on ``tree``, in a fresh child process."""
    source = tree / "src"
    done = subprocess.run(
        [sys.executable, "-c", _CHILD, str(source), str(SWEEPS)],
        capture_output=True, text=True, check=True, timeout=600,
    )
    run = json.loads(done.stdout)
    if not Path(run["module"]).resolve().is_relative_to(source.resolve()):
        sys.exit(f"sweep_ab.py: {tree} ran {run['module']}, not its own unitrail")
    return run


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="the checkout to compare against")
    parser.add_argument("change", type=Path, help="the checkout being measured")
    args = parser.parse_args()
    ratios = []
    won = 0
    for pair in range(PAIRS):
        # even pairs run the parent first, odd ones the change
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        runs = {name: sweep(getattr(args, name)) for name in order}
        parent, change = runs["parent"], runs["change"]
        if parent["counts"] != change["counts"]:
            print(f"counts differ: parent {parent['counts']}, change {change['counts']}"
                  " (disagreements, unsound, gaps)")
            sys.exit(1)
        pair_ratios = [mine / theirs for mine, theirs in zip(change["seconds"], parent["seconds"])]
        ratios += pair_ratios
        won += statistics.median(pair_ratios) < 1
        print(f"pair {pair + 1}: parent {statistics.median(parent['seconds']):.4f}s"
              f" change {statistics.median(change['seconds']):.4f}s"
              f" ratio {statistics.median(pair_ratios):.3f} ({order[0]} first)", flush=True)
    low, middle, high = statistics.quantiles(ratios, n=4)
    print(f"median change/parent {middle:.3f}, quartiles {low:.3f} to {high:.3f},"
          f" over {len(ratios)} sweeps in {PAIRS} pairs; the change was faster in {won} pairs")


if __name__ == "__main__":
    main()
