import ast
import importlib.util
import io
import itertools
import json
import os
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import unitrail
from unitrail.cli import main
from unitrail.core import SLICE_CHARS

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "bench" / "tracer.py"


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
    """Run one command under the benchmark tracer; return its call counts
    and its per-layer metrics."""
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    done = subprocess.run(
        [sys.executable, str(TRACER), *argv],
        capture_output=True, text=True, env=env, timeout=60, check=True,
    )
    traced = json.loads(done.stdout)
    assert traced["exit"] == 0
    return traced["calls"], traced["layers"]


def test_traced_mfw_calls_every_layer_its_workload_requires():
    # the mfw workload's traced run needs the automaton span inside the
    # generators; a generator that stops calling run would fail only there
    argv = ["mfw", "--alphabet-size", "2", "--max-len", "6"]
    for method, layers in (
        ("both", ("automaton.run", "mfw.brute_mfw", "mfw.constructive_mfw")),
        ("brute", ("automaton.run", "mfw.brute_mfw")),
    ):
        calls, _ = traced_calls([*argv, "--method", method])
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
        calls, _ = traced_calls([*argv, *extra])
        for layer in layers:
            assert calls.get(layer, 0) >= 1, (extra, layer)


def test_traced_check_counts_parsed_and_consumed_symbols(tmp_path):
    # the tracer counts a run's consumed symbols off the verdict's
    # first_rejection; a verdict without it would count every parsed
    # symbol as consumed: a a b a is rejected at 4 of its 6 symbols
    lines = tmp_path / "lines.txt"
    lines.write_text("a a b a b b\nx y x y\n", encoding="utf-8")
    _, layers = traced_calls(["check", "--tokens", str(lines)])
    assert layers["core.symbols_parsed"] == 10
    assert layers["automaton.symbols_consumed"] == 8
    assert layers["automaton.runs"] == 2


def test_traced_check_counts_every_symbol_of_a_line_split_in_slices(tmp_path):
    # the first line spans several slices of the tokens-mode split: it is
    # still one parse_trail call and one run, and every token is counted
    long_line = " ".join(str(100000 + i % 3000) for i in range(3 * SLICE_CHARS))
    lines = tmp_path / "lines.txt"
    lines.write_text(f"{long_line}\nx y x y\n", encoding="utf-8")
    calls, layers = traced_calls(["check", "--tokens", str(lines)])
    assert layers["core.symbols_parsed"] == 3 * SLICE_CHARS + 4
    assert calls["core.parse_trail"] == calls["automaton.run"] == 2


def test_traced_crosscheck_calls_every_layer_its_workload_requires():
    # the crosscheck workload needs the harness span and every classifier
    # it times inside it, plus the grammar build; a sweep that stops
    # calling one of those names would fail only when the benchmark runs
    calls, _ = traced_calls(["crosscheck", "--alphabet-size", "3", "--max-len", "3", "--grammar", "strict"])
    for layer in (
        "harness.cross_validate",
        "automaton.run",
        "oracle.is_unique_trail",
        "transposition.has_proper_transposition",
        "grammar.nfa_accepts",
        "grammar.build_grammar_nfa",
    ):
        assert calls.get(layer, 0) >= 1, layer
    # one call per word of (3,3), 39 words, the grammar's included (both
    # verdicts come off one live set): a sweep that skips a classifier on
    # some words fails here; the oracle is asked once per relabelling
    # class, 1 + 2 + 5 of them
    for layer in ("automaton.run", "transposition.has_proper_transposition", "grammar.nfa_accepts"):
        assert calls[layer] == 39, layer
    assert calls["oracle.is_unique_trail"] == 8


def readme_block(heading, language):
    """The lines of the first ``language`` code block under ``heading``."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    fence = f"```{language}\n"
    start = text.index(fence, text.index(heading)) + len(fence)
    return text[start : text.index("```", start)].splitlines()


def test_readme_check_examples_print_what_they_show(monkeypatch, capsys):
    # each `printf '...' | unitrail check ...` example must print exactly
    # the `# ` lines under it
    lines = readme_block("## CLI", "sh")
    examples = 0
    for n, line in enumerate(lines):
        if not line.startswith("printf '") or " | unitrail check" not in line:
            continue
        printf, command = line.split(" | ", 1)
        stdin = shlex.split(printf)[1].replace("\\n", "\n")
        shown = itertools.takewhile(lambda comment: comment.startswith("# "), lines[n + 1 :])
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        assert main(shlex.split(command)[1:]) == 0, line
        assert capsys.readouterr().out == "".join(comment[2:] + "\n" for comment in shown), line
        examples += 1
    assert examples == 2


def test_readme_library_values_are_what_the_library_returns():
    # a statement's value is shown on the `# ` line under it, or else in
    # its trailing comment up to the first ": "
    lines = readme_block("## Library", "python")
    namespace: dict = {}
    values = 0
    for n, line in enumerate(lines):
        code, _, comment = line.partition(" # ")
        code = code.strip()
        if not code or code.startswith("#"):
            continue
        statement = ast.parse(code).body[0]
        if isinstance(statement, ast.Expr):
            value = eval(code, namespace)
        else:
            exec(code, namespace)
            if not isinstance(statement, ast.Assign):
                continue
            value = namespace[statement.targets[0].id]
        below = lines[n + 1] if n + 1 < len(lines) else ""
        shown = below[2:] if below.startswith("# ") else comment.split(": ", 1)[0]
        assert repr(value) == shown, line
        values += 1
    assert values == 4


def test_every_source_file_parses_as_python_3_10():
    # pyproject.toml promises Python 3.10, and the tests run on a newer one
    files = sorted((ROOT / "src" / "unitrail").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
    assert len(files) > 20
    for path in files:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


def test_the_version_is_stated_once():
    # pyproject.toml declares the version dynamic: setuptools reads the package's
    from setuptools.config.pyprojecttoml import read_configuration

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # [tool.setuptools] is beta in setuptools 65
        project = read_configuration(ROOT / "pyproject.toml")["project"]
    assert "version" in project["dynamic"]
    assert project["version"] == unitrail.__version__
