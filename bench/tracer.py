"""Traced run of one unitrail command, in this process.

    PYTHONPATH=src python3 bench/tracer.py check --tokens FILE

Wraps the public layer functions under the names the command path calls
them by (``unitrail.cli``, ``unitrail.harness``, ``unitrail.mfw``), runs
``unitrail.cli.main`` with stdout captured, and prints one JSON object:
the exit code, the command's stdout, the number of calls of each wrapped
layer function, and the per-layer metrics.  Every
wrapped call is a span (name, start, end, parent); the command itself is
the root span, and each input line (``check``) or string (``crosscheck``)
gets a parent span of its own, opened by the first layer call made for it.
Spans stay in memory; only their totals are printed.
"""

import contextlib
import io
import json
import sys
from collections import Counter
from time import perf_counter

import unitrail.cli
import unitrail.harness
import unitrail.mfw

ROOT = "cli.main"
ITEMS = ("line", "string")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    def open(self, name: str) -> int:
        self.spans.append([name, perf_counter(), None, self.stack[-1] if self.stack else -1])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, index: int) -> None:
        now = perf_counter()
        while self.stack:
            top = self.stack.pop()
            self.spans[top][2] = now
            if top == index:
                return

    def item(self, name: str) -> None:
        """Start the parent span of the next line or string."""
        if self.stack and self.spans[self.stack[-1]][0] == name:
            self.close(self.stack[-1])
        self.open(name)


def _consumed(counts, args, verdict):
    rejected_at = getattr(verdict, "first_rejection", None)
    counts["consumed"] += len(args[0]) if rejected_at is None else rejected_at


def _parsed(counts, args, result):
    counts["parsed"] += len(result[0])


def _grammar(counts, args, nfa):
    # What the build materialized; a grammar computed on demand reports 0.
    counts["states"] += len(getattr(nfa, "states", ()))
    transitions = getattr(nfa, "transitions", {})
    counts["arcs"] += sum(len(dsts) for by_sym in transitions.values() for dsts in by_sym.values())


def _words(counts, args, words):
    counts["words"] += len(words)


# (module, attribute, span name, item span it starts, counter)
WRAPPED = (
    (unitrail.cli, "parse_trail", "core.parse_trail", "line", _parsed),
    (unitrail.cli, "run", "automaton.run", None, _consumed),
    (unitrail.cli, "find_proper_site", "transposition.find_proper_site", None, None),
    (unitrail.cli, "segments", "transposition.segments", None, None),
    (unitrail.cli, "apply_transposition", "transposition.apply_transposition", None, None),
    (unitrail.cli, "cross_validate", "harness.cross_validate", None, None),
    (unitrail.cli, "constructive_mfw", "mfw.constructive_mfw", None, _words),
    (unitrail.cli, "brute_mfw", "mfw.brute_mfw", None, _words),
    (unitrail.harness, "run", "automaton.run", "string", _consumed),
    (unitrail.harness, "is_unique_trail", "oracle.is_unique_trail", None, None),
    (unitrail.harness, "has_proper_transposition", "transposition.has_proper_transposition", None, None),
    (unitrail.harness, "nfa_accepts", "grammar.nfa_accepts", None, None),
    (unitrail.harness, "build_grammar_nfa", "grammar.build_grammar_nfa", None, _grammar),
    (unitrail.mfw, "run", "automaton.run", None, _consumed),
)


def _wrap(tracer, fn, name, item, count):
    def traced(*args, **kwargs):
        if item:
            tracer.item(item)
        index = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if count:
            count(tracer.counts, args, result)
        return result

    return traced


def install(tracer: Tracer) -> None:
    """Wrap every listed function; stop if the program lacks one, since its
    layer would read 0 rather than show as unmeasured."""
    for module, attr, name, item, count in WRAPPED:
        fn = getattr(module, attr, None)
        if not callable(fn):
            sys.exit(f"tracer.py: {module.__name__}.{attr} is gone; update WRAPPED")
        setattr(module, attr, _wrap(tracer, fn, name, item, count))


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    spans = tracer.spans
    total: Counter = Counter()
    calls: Counter = Counter()
    for name, start, end, _ in spans:
        total[name] += end - start
        calls[name] += 1

    def layer_parent(parent):
        while parent >= 0 and spans[parent][0] in ITEMS:
            parent = spans[parent][3]
        return spans[parent][0] if parent >= 0 else None

    # Self time of a span: its duration minus that of its layer children.
    children: Counter = Counter()
    for name, start, end, parent in spans:
        if name not in ITEMS and name != ROOT:
            children[layer_parent(parent)] += end - start
    counts = tracer.counts
    parsed, consumed = counts["parsed"], counts["consumed"]
    run_s = total["automaton.run"]
    return {
        "core.parse_s": total["core.parse_trail"],
        "core.symbols_parsed": parsed,
        "automaton.run_s": run_s,
        "automaton.runs": calls["automaton.run"],
        "automaton.symbols_consumed": consumed,
        "automaton.ns_per_symbol": run_s / consumed * 1e9 if consumed else 0.0,
        "automaton.consumed_share": consumed / parsed if parsed else 0.0,
        "transposition.witness_s": total["transposition.find_proper_site"],
        "transposition.witness_calls": calls["transposition.find_proper_site"],
        "transposition.apply_s": total["transposition.apply_transposition"],
        "transposition.scan_s": total["transposition.has_proper_transposition"],
        "oracle.unique_s": total["oracle.is_unique_trail"],
        "grammar.build_s": total["grammar.build_grammar_nfa"],
        "grammar.simulate_s": total["grammar.nfa_accepts"],
        "grammar.states": counts["states"],
        "grammar.arcs": counts["arcs"],
        "harness.cross_validate_s": total["harness.cross_validate"],
        "harness.self_s": total["harness.cross_validate"] - children["harness.cross_validate"],
        "mfw.constructive_s": total["mfw.constructive_mfw"],
        "mfw.brute_s": total["mfw.brute_mfw"],
        "mfw.words": counts["words"],
        "cli.self_s": total[ROOT] - children[ROOT],
    }


def main(argv: list[str]) -> None:
    tracer = Tracer()
    install(tracer)
    captured = io.StringIO()
    root = tracer.open(ROOT)
    try:
        with contextlib.redirect_stdout(captured):
            code = unitrail.cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    finally:
        tracer.close(root)
    calls = Counter(name for name, *_ in tracer.spans)
    print(json.dumps({"exit": code, "stdout": captured.getvalue(), "calls": calls,
                      "layers": layer_metrics(tracer)}))


if __name__ == "__main__":
    main(sys.argv[1:])
