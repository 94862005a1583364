import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_every_layer_the_benchmark_tracer_wraps_exists():
    # the traced benchmark wraps layer functions by name; a layer renamed
    # or deleted here would otherwise fail only when the benchmark runs
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.WRAPPED
    for module, attr, *_ in tracer.WRAPPED:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"


def traced_calls(argv):
    """Run one command under the benchmark tracer; return its call counts."""
    root = TRACER.parents[1]
    path = [str(root / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    done = subprocess.run(
        [sys.executable, str(TRACER), *argv],
        capture_output=True, text=True, env=env, timeout=60, check=True,
    )
    traced = json.loads(done.stdout)
    assert traced["exit"] == 0
    return traced["calls"]


def test_traced_mfw_calls_every_layer_its_workload_requires():
    # the mfw workload's traced run needs the automaton span inside the
    # generators; a generator that stops calling run would fail only there
    argv = ["mfw", "--alphabet-size", "2", "--max-len", "6"]
    for method, layers in (
        ("both", ("automaton.run", "mfw.brute_mfw", "mfw.constructive_mfw")),
        ("brute", ("automaton.run", "mfw.brute_mfw")),
    ):
        calls = traced_calls([*argv, "--method", method])
        for layer in layers:
            assert calls.get(layer, 0) >= 1, (method, layer)


def test_traced_check_calls_every_layer_its_workloads_require(tmp_path):
    # check-stream needs the parse and automaton spans, check-explain also
    # the witness and its image; a check path that stops calling one of
    # those names would fail only when the benchmark runs
    lines = tmp_path / "lines.txt"
    lines.write_text("a a b a\nx y x y\n", encoding="utf-8")
    argv = ["check", "--tokens", str(lines)]
    stream = ("core.parse_trail", "automaton.run")
    explain = stream + ("transposition.find_proper_site", "transposition.apply_transposition")
    for extra, layers in (((), stream), (("--explain",), explain)):
        calls = traced_calls([*argv, *extra])
        for layer in layers:
            assert calls.get(layer, 0) >= 1, (extra, layer)


def test_traced_crosscheck_calls_every_layer_its_workload_requires():
    # the crosscheck workload needs the harness span and every classifier
    # it times inside it, plus the grammar build; a sweep that stops
    # calling one of those names would fail only when the benchmark runs
    calls = traced_calls(["crosscheck", "--alphabet-size", "3", "--max-len", "3", "--grammar", "strict"])
    for layer in (
        "harness.cross_validate",
        "automaton.run",
        "oracle.is_unique_trail",
        "transposition.has_proper_transposition",
        "grammar.nfa_accepts",
        "grammar.build_grammar_nfa",
    ):
        assert calls.get(layer, 0) >= 1, layer
