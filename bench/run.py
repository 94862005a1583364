"""End-to-end benchmark of the unitrail command line.

    python3 bench/run.py --workload check-stream --seed 1 --seconds 25 --trace 0

Builds the workload's input from the seed, then, for ``--seconds``,
repeats rounds of child processes, one at a time: the program's import
(``setup_s``), the workload command, and the fixed reference load in
``refload.py``.  Every command's output is checked against answers made
apart from the program (``best.py``).  Times are CPU times relative to the
reference loads on either side, reported as if the reference took
``REF_S`` seconds (README.md says why).  With ``--trace 1`` the rounds
alternate the plain command with the same command traced in-process by
``tracer.py``, and the per-layer metrics are reported instead.  The last
line of stdout is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``, named and with units as in BENCHMARK.json.
"""

import argparse
import itertools
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import corpus
from best import binary_mfw, count_trails

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = corpus.OUT

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# Reported times are CPU times scaled to a speed at which the reference
# load takes REF_S CPU seconds, about this machine's usual figure.
REF_S = 0.2
MIN_ROUNDS = 3  # rounds attempted, whether or not their command succeeds
CHILD_TIMEOUT_S = 15  # the longest command takes about 1 s

CROSSCHECK = (10, 4)  # alphabet size, max length
MFW = (2, 14)


# --- checking outputs ------------------------------------------------------

def check_witness(fields: dict, line: list[str]) -> str | None:
    """Independent checks of one ``--explain`` witness against its line."""
    if fields.get("site", "").startswith("two_anchors"):
        order = ("u", "a", "x", "b", "z", "a", "y", "b", "v")
    else:
        order = ("u", "a", "x", "a", "y", "a", "v")
    if any(key not in fields for key in order + ("alt",)):
        return f"witness lacks a field: {sorted(fields)}"
    if any(len(fields[key].split()) != 1 for key in set(order) & {"a", "b"}):
        return "an anchor is not one symbol"
    if [tok for key in order for tok in fields[key].split()] != line:
        return "witness segments do not concatenate to the line"
    alt = fields["alt"].split()
    if alt == line:
        return "alt equals the line"
    if alt[:1] != line[:1] or Counter(zip(alt, alt[1:])) != Counter(zip(line, line[1:])):
        return "alt is not another trail of the line's graph"
    return None


def verify_check(stdout: str, lines, expected, explain: bool) -> str | None:
    rows = stdout.splitlines()
    if len(rows) != len(lines):
        return f"{len(rows)} verdicts for {len(lines)} lines"
    for index, (row, line, want) in enumerate(zip(rows, lines, expected)):
        fields = row.split("\t")
        at = want["first_rejection"]
        if fields[:3] != [str(index), want["verdict"], "-" if at is None else str(at)]:
            return f"line {index}: got {fields[:3]}, expected {want}"
        if explain and at is not None:
            problem = check_witness(dict(f.split("=", 1) for f in fields[3:] if "=" in f), line)
            if problem:
                return f"line {index}: {problem}"
    return None


def verify_crosscheck(stdout: str) -> str | None:
    size, max_len = CROSSCHECK
    rows = stdout.splitlines()
    checked = sum(size**n for n in range(1, max_len + 1))
    if not rows or not rows[0].startswith(f"checked {checked} strings"):
        return f"expected {checked} strings checked, got {rows[:1]}"
    for verdict in ("four-way agreement: ok", "strict grammar soundness: ok"):
        if verdict not in rows:
            return f"missing {verdict!r}"
    for row in rows:
        if row.startswith("  gap "):
            word = row.split()[1]
            if count_trails(word) <= 1:
                return f"listed gap {word} is the unique trail of its graph"
    return None


def verify_mfw(stdout: str) -> str | None:
    _, max_len = MFW  # binary, so the closed form below applies
    words = stdout.split()
    for word in words:
        if count_trails(word) <= 1 or count_trails(word[1:]) != 1 or count_trails(word[:-1]) != 1:
            return f"{word} is not a minimal forbidden word"
    if len(words) != len(set(words)) or set(words) != binary_mfw(max_len):
        return "words differ from the binary closed form"
    return None


# --- workloads --------------------------------------------------------------

class Workload:
    """The command, its input, its output check, its symbol count, and the
    layer spans (tracer.py names) a traced run of it must record."""

    def __init__(self, name: str, seed: int):
        if name in corpus.CORPORA:
            path, lines, expected = corpus.write_corpus(name, seed)
            explain = name == "check-explain"
            self.argv = ["check", "--tokens"] + (["--explain"] if explain else []) + [str(path)]
            self.symbols = sum(map(len, lines))
            self.verify = lambda out: verify_check(out, lines, expected, explain)
            self.layers = ("core.parse_trail", "automaton.run")
            if explain:
                self.layers += ("transposition.find_proper_site", "transposition.apply_transposition")
        elif name == "crosscheck":
            size, max_len = CROSSCHECK
            self.argv = ["crosscheck", "--alphabet-size", str(size), "--max-len", str(max_len), "--grammar", "strict"]
            self.symbols = sum(n * size**n for n in range(1, max_len + 1))
            self.verify = verify_crosscheck
            self.layers = ("harness.cross_validate", "automaton.run", "oracle.is_unique_trail",
                           "transposition.has_proper_transposition", "grammar.nfa_accepts",
                           "grammar.build_grammar_nfa")
        elif name == "mfw":
            size, max_len = MFW
            self.argv = ["mfw", "--alphabet-size", str(size), "--max-len", str(max_len), "--method", "both"]
            self.symbols = sum(n * size**n for n in range(1, max_len + 1))
            self.verify = verify_mfw
            self.layers = ("mfw.constructive_mfw", "mfw.brute_mfw", "automaton.run")
        else:
            raise ValueError(f"unknown workload {name!r}")


# --- child processes --------------------------------------------------------

class Launcher:
    """The ``spawn.py`` process, which starts and measures every child."""

    ENV = {
        "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
        "PYTHONPATH": str(SRC),
        "PYTHONHASHSEED": "0",
        "PYTHONUNBUFFERED": "1",
        "LC_ALL": "C.UTF-8",
    }

    def __init__(self, stderr):
        self.proc = subprocess.Popen([sys.executable, str(HERE / "spawn.py")], cwd=ROOT, text=True,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=stderr)

    def __call__(self, argv: list[str]) -> SimpleNamespace:
        """Run one child; its code, wall_s, first_s, rss_mb and stdout."""
        self.proc.stdin.write(json.dumps({"argv": argv, "env": self.ENV, "timeout": CHILD_TIMEOUT_S}) + "\n")
        self.proc.stdin.flush()
        answer = self.proc.stdout.readline()
        if not answer:
            raise RuntimeError("the launcher process died")
        return SimpleNamespace(**json.loads(answer))

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait()


def median(values):
    return statistics.median(values) if values else 0.0


class Runner:
    """Runs one workload's children, one at a time, and counts the outcomes."""

    def __init__(self, work: Workload, launch: Launcher):
        python = sys.executable
        self.work, self.child = work, launch
        self.command = [python, "-m", "unitrail", *work.argv]
        self.traced = [python, str(HERE / "tracer.py"), *work.argv]
        self.setup = [python, "-c", "import unitrail.cli"]
        self.reference = [python, str(HERE / "refload.py")]
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.rounds: list[dict] = []

    def attempt(self, argv, traced=False):
        """Run the workload command (or its traced form) and check its output.
        Returns the child and, for a traced run, its layer metrics; None in
        place of either when the command failed."""
        self.attempted += 1
        child = self.child(argv)
        stdout, layers, why = child.stdout, {}, None
        if child.code == 0 and traced:
            report = json.loads(stdout.splitlines()[-1])
            stdout, layers = report["stdout"], report["layers"]
            child.code = report["exit"]
            # A layer that no longer runs would read 0, which looks like a gain.
            silent = [name for name in self.work.layers if not report["calls"].get(name)]
            if silent and child.code == 0:
                child.code, why = 1, f"recorded no call of {', '.join(silent)}"
        if child.code != 0:
            self.failed += 1
            print(f"run.py: {' '.join(argv[1:])} {why or f'exited {child.code}'}", file=sys.stderr)
            return None, None
        problem = self.work.verify(stdout)
        if problem:
            self.problems.append(problem)
        return child, layers

    def warm_up(self, *argvs) -> None:
        """Byte-compile the package and fill the page cache; not counted."""
        for argv in argvs:
            self.child(argv)

    def plain(self, seconds: float) -> dict:
        self.warm_up(self.setup, self.reference, self.command)
        ref_before = self.child(self.reference).cpu_s
        deadline = time.perf_counter() + seconds
        for done in itertools.count():
            if done >= MIN_ROUNDS and time.perf_counter() >= deadline:
                break
            boot = self.child(self.setup)
            child, _ = self.attempt(self.command)
            ref_after = self.child(self.reference).cpu_s
            # CPU seconds at the reference speed, per CPU second now.
            scale = REF_S / ((ref_before + ref_after) / 2)
            ref_before = ref_after
            if child:
                self.rounds.append({
                    "scale": scale, "ref_cpu_s": ref_after, "setup_cpu_s": boot.cpu_s, "setup_wall_s": boot.wall_s,
                    "command_cpu_s": child.cpu_s, "command_wall_s": child.wall_s, "first_wall_s": child.first_s,
                    "rss_mb": child.rss_mb,
                })
        rounds = self.rounds
        command_s = median([r["command_cpu_s"] * r["scale"] for r in rounds])
        # The first line's wall time, less the share of the run the child
        # spent waiting for a CPU.
        first_s = [r["first_wall_s"] * r["command_cpu_s"] / r["command_wall_s"] * r["scale"] for r in rounds]
        return {
            "setup_s": median([r["setup_cpu_s"] * r["scale"] for r in rounds]),
            "symbols_per_s": self.work.symbols / command_s if command_s else 0.0,
            "first_verdict_s": median(first_s),
            "peak_rss_mb": median([r["rss_mb"] for r in rounds]),
        }

    def trace(self, seconds: float) -> dict:
        self.warm_up(self.command, self.traced)
        deadline = time.perf_counter() + seconds
        for done in itertools.count():
            if done >= MIN_ROUNDS and time.perf_counter() >= deadline:
                break
            plain, _ = self.attempt(self.command)
            traced, layers = self.attempt(self.traced, traced=True)
            if plain and traced:
                self.rounds.append({"plain_cpu_s": plain.cpu_s, "traced_cpu_s": traced.cpu_s, "layers": layers})
        rounds = self.rounds
        metrics = {name: median([r["layers"][name] for r in rounds]) for name in rounds[0]["layers"]} if rounds else {}
        metrics["trace.overhead_s"] = median([r["traced_cpu_s"] for r in rounds]) - median([r["plain_cpu_s"] for r in rounds])
        return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description="unitrail end-to-end benchmark")
    parser.add_argument("--workload", choices=[w["name"] for w in SPEC["workloads"]], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "unitrail" / "cli.py").is_file():
        print(f"run.py: the program is missing: no {SRC / 'unitrail' / 'cli.py'}", file=sys.stderr)
        return 2

    OUT.mkdir(parents=True, exist_ok=True)
    work = Workload(args.workload, args.seed)
    tag = f"{args.workload}-{args.seed}-trace{args.trace}"
    with open(OUT / f"{tag}.stderr", "w", encoding="utf-8") as stderr:
        launch = Launcher(stderr)
        try:
            runner = Runner(work, launch)
            metrics = runner.trace(args.seconds) if args.trace else runner.plain(args.seconds)
        finally:
            launch.close()
    record = {"workload": args.workload, "seed": args.seed, "symbols": work.symbols, "ref_nominal_s": REF_S,
              "attempted": runner.attempted, "failed": runner.failed, "problems": runner.problems,
              "metrics": metrics, "rounds": runner.rounds}
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for problem in runner.problems[:5]:
        print(f"run.py: {problem}", file=sys.stderr)
    correct = not runner.problems
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m["name"]: {"value": metrics.get(m["name"], 0.0), "unit": m["unit"]}
                    for m in SPEC["per_layer" if args.trace else "end_to_end"]},
    }))
    return 0 if correct and runner.rounds else 1


if __name__ == "__main__":
    sys.exit(main())
