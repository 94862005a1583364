import errno
import gc
import hashlib
import io
import itertools
import json
import os
import random
import re
import select
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import unitrail
from unitrail.cli import COMMANDS, EXIT_IO, EXIT_MISMATCH, EXIT_OK, EXIT_USAGE, entry, main, parse_args
from unitrail.core import SLICE_CHARS, id_names, render
from unitrail.harness import CrosscheckReport

from conftest import cpu_bound


def run_cli(argv, monkeypatch, capsys, stdin=""):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def child_env(**overrides):
    """The environment of a child process: this one's with the package on
    ``PYTHONPATH`` and without ``PYTHONUNBUFFERED``, so that the child's
    stdout is buffered as in a user's shell, then ``overrides`` (which may
    set ``PYTHONUNBUFFERED`` again)."""
    source = str(Path(unitrail.__file__).resolve().parents[1])
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    return {**env, "PYTHONPATH": source, **overrides}


def start_cli(argv, **env):
    """The CLI in a child process, with pipes on all three streams."""
    return subprocess.Popen(
        [sys.executable, "-m", "unitrail", *argv],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env(**env),
    )


def parse_plain_check_line(line):
    fields = line.split("\t")
    record = {
        "index": int(fields[0]),
        "verdict": fields[1],
        "first_rejection": None if fields[2] == "-" else int(fields[2]),
    }
    if len(fields) > 3:
        record["witness"] = dict(field.split("=", 1) for field in fields[3:])
    return record


def test_check_unique_line(monkeypatch, capsys):
    code, out, _ = run_cli(["check"], monkeypatch, capsys, stdin="ababab\n")
    assert code == EXIT_OK
    assert out == "0\tUNIQUE\t-\n"


def test_check_nonunique_reports_prefix_length(monkeypatch, capsys):
    code, out, _ = run_cli(["check"], monkeypatch, capsys, stdin="0010\n")
    assert code == EXIT_OK
    assert out == "0\tNONUNIQUE\t4\n"


def test_check_explain_names_the_alternative(monkeypatch, capsys):
    code, out, _ = run_cli(["check", "--explain"], monkeypatch, capsys, stdin="0010\n")
    assert code == EXIT_OK
    record = parse_plain_check_line(out.splitlines()[0])
    assert record["witness"]["alt"] == "0100"
    assert record["witness"]["site"] == "one_anchor(0,1,3)"


def test_check_explain_renders_a_two_anchor_witness(monkeypatch, capsys):
    # every key of the two-anchor shape, in order, with empty segments shown
    code, out, _ = run_cli(["check", "--explain"], monkeypatch, capsys, stdin="01021\n")
    assert code == EXIT_OK
    assert out == "0\tNONUNIQUE\t5\tsite=two_anchors(0,1,2,4)\tu=\ta=0\tx=\tb=1\tz=\ty=2\tv=\talt=02101\n"
    code, out, _ = run_cli(["check", "--explain", "--json"], monkeypatch, capsys, stdin="01021\n")
    assert code == EXIT_OK
    assert out == (
        '{"index": 0, "verdict": "NONUNIQUE", "first_rejection": 5, "witness": '
        '{"site": "two_anchors(0,1,2,4)", "u": "", "a": "0", "x": "", "b": "1", '
        '"z": "", "y": "2", "v": "", "alt": "02101"}}\n'
    )


@pytest.mark.parametrize(
    "flags,digest",
    [
        ([], "50f427cec35cc11cf27a335f45102384caec956773650d3050dea1dc5d3cf71c"),
        (["--json"], "c6cd132c62a48e985d0f81f37a1ab9ae2d0adb92e5704a645020593e8d5e6b12"),
    ],
    ids=["plain", "json"],
)
def test_check_explain_output_is_pinned_over_a_whole_universe(flags, digest, monkeypatch, capsys):
    # every string of (2, 1..9) then (3, 1..7), shortest first: 4,301
    # lines, of which 3,462 are NONUNIQUE, 3,144 of those with a one-anchor
    # witness and 318 with a two-anchor one
    stdin = "".join(
        "".join(word) + "\n"
        for names, max_len in (("01", 9), ("012", 7))
        for n in range(1, max_len + 1)
        for word in itertools.product(names, repeat=n)
    )
    code, out, _ = run_cli(["check", "--explain", *flags], monkeypatch, capsys, stdin=stdin)
    assert code == EXIT_OK
    assert (out.count("NONUNIQUE"), out.count("one_anchor("), out.count("two_anchors(")) == (3462, 3144, 318)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_check_indexes_lines(monkeypatch, capsys):
    code, out, _ = run_cli(["check"], monkeypatch, capsys, stdin="abab\n0010\n\n")
    assert code == EXIT_OK
    assert out.splitlines() == ["0\tUNIQUE\t-", "1\tNONUNIQUE\t4", "2\tUNIQUE\t-"]


def test_check_tokens_mode(monkeypatch, capsys):
    code, out, _ = run_cli(
        ["check", "--tokens", "--explain"], monkeypatch, capsys, stdin="10 10 20 10\n"
    )
    assert code == EXIT_OK
    record = parse_plain_check_line(out.splitlines()[0])
    assert record["verdict"] == "NONUNIQUE"
    assert record["witness"]["alt"] == "10 20 10 10"


def test_check_reads_files(tmp_path, monkeypatch, capsys):
    source = tmp_path / "input.txt"
    source.write_text("0011\n", encoding="utf-8")
    code, out, _ = run_cli(["check", str(source)], monkeypatch, capsys)
    assert code == EXIT_OK
    assert out == "0\tUNIQUE\t-\n"


BOM = "\ufeff"


@pytest.mark.parametrize("tokens,line,marked", [
    (True, "x y x x", "UNIQUE\t-"),
    (False, "0100", "NONUNIQUE\t5"),
], ids=["tokens", "chars"])
def test_check_reads_a_leading_byte_order_mark_from_a_file_as_no_symbol(tokens, line, marked, tmp_path, monkeypatch, capsys):
    # `line` alone reads NONUNIQUE at 4; `marked` is its verdict with a
    # U+FEFF symbol in front
    argv = ["check", *(["--tokens"] if tokens else [])]
    source = tmp_path / "input.txt"
    source.write_text(f"{BOM}{line}\n{line}\n{BOM}{line}\n", encoding="utf-8")
    code, out, err = run_cli(argv + [str(source)], monkeypatch, capsys)
    assert (code, err) == (EXIT_OK, "")
    assert out.splitlines() == ["0\tNONUNIQUE\t4", "1\tNONUNIQUE\t4", f"2\t{marked}"]


def test_check_reads_a_leading_byte_order_mark_on_stdin_as_no_symbol():
    proc = start_cli(["check"], PYTHONIOENCODING="utf-8")
    out, err = proc.communicate(f"{BOM}0100\n0{BOM}100\n".encode(), timeout=10)
    assert (proc.returncode, out, err) == (EXIT_OK, b"0\tNONUNIQUE\t4\n1\tNONUNIQUE\t5\n", b"")


def test_check_missing_file_is_a_usage_error(monkeypatch, capsys):
    code, _, err = run_cli(["check", "/nonexistent/path"], monkeypatch, capsys)
    assert code == EXIT_USAGE
    assert "error" in err


def test_check_with_stdin_closed_is_a_usage_error(monkeypatch, capsys):
    # a process started with `<&-` has no sys.stdin at all
    monkeypatch.setattr("sys.stdin", None)
    code = main(["check"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (EXIT_USAGE, "")
    assert captured.err.startswith("unitrail: error: ")


@pytest.mark.parametrize("argv", [
    ["check"],
    ["trails", "0010"],
    ["mfw", "--alphabet-size", "2", "--max-len", "4"],
    ["crosscheck", "--alphabet-size", "2", "--max-len", "4"],
    ["-h"],
], ids=["check", "trails", "mfw", "crosscheck", "help"])
def test_a_closed_stdout_is_refused_before_any_command_runs(argv, monkeypatch, capsys):
    # a process started with `>&-` has no sys.stdout: the output would go
    # nowhere, so no handler may start its work
    def never(*args, **kwargs):
        raise AssertionError("a command ran with stdout closed")

    for name in ("parse_trail", "enumerate_trails", "constructive_mfw", "brute_mfw", "cross_validate"):
        monkeypatch.setattr(f"unitrail.cli.{name}", never)
    monkeypatch.setattr("sys.stdin", io.StringIO("0010\n"))
    monkeypatch.setattr("sys.stdout", None)
    code = main(argv)
    assert (code, capsys.readouterr().err) == (EXIT_USAGE, "unitrail: error: standard output is closed\n")


def test_a_process_started_with_stdout_closed_exits_64_without_a_traceback():
    # the sweep would take about a second; the refusal comes before it
    argv = ["crosscheck", "--alphabet-size", "10", "--max-len", "4"]
    done = subprocess.run(
        ["sh", "-c", 'exec "$@" >&-', "sh", sys.executable, "-m", "unitrail", *argv],
        stdin=subprocess.DEVNULL, stderr=subprocess.PIPE, env=child_env(), timeout=60,
    )
    assert (done.returncode, done.stderr) == (EXIT_USAGE, b"unitrail: error: standard output is closed\n")


_BINARY_SWEEP = (
    "checked 14 strings over alphabet size 2, lengths 1..3\n"
    "four-way agreement: ok\n"
    "strict grammar soundness: ok\n"
    "strict grammar completeness gaps: 0\n"
)
# a command line and the exit code and stdout it gives whatever becomes of stderr
_STDERR_CASES = [
    (["mfw", "--alphabet-size", "0", "--max-len", "1"], (EXIT_USAGE, "")),
    (["check", "--bogus"], (EXIT_USAGE, "")),
    (["crosscheck", "--alphabet-size", "2", "--max-len", "3"], (EXIT_OK, _BINARY_SWEEP)),
]


@pytest.mark.parametrize("argv, expected", _STDERR_CASES, ids=["range-error", "parse-error", "crosscheck"])
def test_a_process_started_with_stderr_closed_keeps_its_exit_code(argv, expected):
    # the lost diagnostic must neither reach stdout nor turn into exit 1,
    # which means the reader closed stdout
    done = subprocess.run(
        ["sh", "-c", 'exec "$@" 2>&-', "sh", sys.executable, "-m", "unitrail", *argv],
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True, env=child_env(), timeout=60,
    )
    assert (done.returncode, done.stdout) == expected


@pytest.mark.parametrize("stdout", ["pipe", "file"])
def test_the_process_ends_with_all_its_output_written(stdout, tmp_path):
    # entry ends the process with os._exit, which flushes nothing; a file
    # is block-buffered, so there the whole output waits for entry's flush
    argv = [sys.executable, "-m", "unitrail", "crosscheck", "--alphabet-size", "2", "--max-len", "3"]
    out = tmp_path / "out.txt"
    with out.open("wb") as sink:
        done = subprocess.run(
            argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE if stdout == "pipe" else sink,
            stderr=subprocess.PIPE, env=child_env(), timeout=60,
        )
    printed = done.stdout if stdout == "pipe" else out.read_bytes()
    assert (done.returncode, printed.decode()) == (EXIT_OK, _BINARY_SWEEP)
    assert re.fullmatch(rb"timing: [^\n]*\n", done.stderr), done.stderr


class _ClosedStream(io.StringIO):
    """A stream over a closed file descriptor: every write fails."""

    def write(self, text):
        raise OSError(errno.EBADF, "Bad file descriptor")


@pytest.mark.parametrize("stderr", ["none", "closed"])
@pytest.mark.parametrize("argv, expected", _STDERR_CASES, ids=["range-error", "parse-error", "crosscheck"])
def test_a_missing_or_closed_stderr_changes_neither_stdout_nor_the_exit_code(argv, expected, stderr, monkeypatch, capsys):
    # a process started with `2>&-` has sys.stderr None, or a stream over
    # whatever file start-up opened as fd 2 (a read-only one); print(file=None)
    # would write the diagnostic to stdout, and a failed write would raise
    monkeypatch.setattr("sys.stderr", None if stderr == "none" else _ClosedStream())
    code = main(argv)
    assert (code, capsys.readouterr().out) == expected


class _Exited(Exception):
    """Raised in place of os._exit, which would end the test process."""


def _broken_pipe():
    raise BrokenPipeError(errno.EPIPE, "Broken pipe")


def _record_entry(monkeypatch, main_does, stdout_flush_does=lambda: None):
    """Run entry() with gc.freeze, main, both output streams and os._exit
    replaced by recorders, and stdin by a stand-in that entry cannot
    reconfigure; the calls they saw, in order."""
    calls = []

    class Stream(io.StringIO):
        def __init__(self, name, flush_does):
            super().__init__()
            self.name, self.flush_does = name, flush_does

        def flush(self):
            calls.append(f"flush {self.name}")
            self.flush_does()

    def fake_exit(code):
        calls.append(("_exit", code))
        raise _Exited

    def fake_main(argv=None):
        calls.append(("main", argv))
        return main_does()

    # the recording stand-ins keep the test process's collector untouched
    monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
    monkeypatch.setattr("unitrail.cli.main", fake_main)
    monkeypatch.setattr("unitrail.cli.os._exit", fake_exit)
    monkeypatch.setattr("sys.stdin", io.StringIO())
    monkeypatch.setattr("sys.stdout", Stream("stdout", stdout_flush_does))
    monkeypatch.setattr("sys.stderr", Stream("stderr", lambda: None))
    with pytest.raises(_Exited):
        entry()
    return calls


def test_entry_freezes_the_heap_once_before_main_and_exits_with_its_code(monkeypatch):
    calls = _record_entry(monkeypatch, lambda: EXIT_MISMATCH)
    assert calls == ["freeze", ("main", None), "flush stdout", "flush stderr", ("_exit", EXIT_MISMATCH)]


def test_entry_exits_1_without_flushing_stdout_again_when_the_reader_closed_the_pipe(monkeypatch):
    # the pipe breaks in a write inside main, or in entry's own flush
    calls = _record_entry(monkeypatch, _broken_pipe)
    assert calls == ["freeze", ("main", None), "flush stderr", ("_exit", EXIT_IO)]
    calls = _record_entry(monkeypatch, lambda: EXIT_OK, stdout_flush_does=_broken_pipe)
    assert calls == ["freeze", ("main", None), "flush stdout", "flush stderr", ("_exit", EXIT_IO)]


@pytest.mark.parametrize("stderr", ["none", "closed"])
def test_entry_exits_with_mains_code_whatever_became_of_stderr(stderr, monkeypatch):
    closed = io.StringIO()
    closed.close()  # its flush raises ValueError
    codes = []
    monkeypatch.setattr(gc, "freeze", lambda: None)
    monkeypatch.setattr("unitrail.cli.main", lambda: EXIT_MISMATCH)
    monkeypatch.setattr("unitrail.cli.os._exit", codes.append)
    monkeypatch.setattr("sys.stdin", io.StringIO())  # the real one would be reconfigured
    monkeypatch.setattr("sys.stdout", io.StringIO())
    monkeypatch.setattr("sys.stderr", None if stderr == "none" else closed)
    entry()
    assert codes == [EXIT_MISMATCH]


def test_main_leaves_the_collector_alone(monkeypatch, capsys):
    def never():
        raise AssertionError("main froze the collector")

    monkeypatch.setattr(gc, "freeze", never)
    frozen = gc.get_freeze_count()
    for argv, stdin in [
        (["check", "--tokens", "--explain"], "0 0 1 0\n"),
        (["trails", "0010"], ""),
        (["mfw", "--alphabet-size", "2", "--max-len", "4"], ""),
        (["crosscheck", "--alphabet-size", "2", "--max-len", "3"], ""),
    ]:
        assert run_cli(argv, monkeypatch, capsys, stdin)[0] == EXIT_OK, argv
    assert gc.get_freeze_count() == frozen


def test_main_leaves_the_stream_codecs_alone(monkeypatch):
    # only entry() sets the codecs; latin-1 stand-ins keep theirs
    for argv, stdin in [
        (["check", "--tokens", "--explain"], b"0 0 1 0\n"),
        (["trails", "0010"], b""),
        (["mfw", "--alphabet-size", "2", "--max-len", "4"], b""),
        (["crosscheck", "--alphabet-size", "2", "--max-len", "3"], b""),
    ]:
        streams = {name: io.TextIOWrapper(io.BytesIO(stdin), encoding="latin-1")
                   for name in ("stdin", "stdout", "stderr")}
        for name, stream in streams.items():
            monkeypatch.setattr(f"sys.{name}", stream)
        assert main(argv) == EXIT_OK, argv
        assert [(s.encoding, s.errors) for s in streams.values()] == [("latin-1", "strict")] * 3, argv


@pytest.mark.parametrize("stdin", ["open", "closed"])
def test_entry_sets_the_three_stream_codecs_after_the_freeze_and_before_main(stdin, monkeypatch):
    calls = []

    class Stream(io.StringIO):
        def __init__(self, name):
            super().__init__()
            self.name = name

        def reconfigure(self, **settings):
            calls.append((self.name, settings))

    monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
    monkeypatch.setattr("unitrail.cli.main", lambda: calls.append("main") or EXIT_OK)
    monkeypatch.setattr("unitrail.cli.os._exit", lambda code: calls.append(("_exit", code)))
    monkeypatch.setattr("sys.stdin", Stream("stdin") if stdin == "open" else None)
    monkeypatch.setattr("sys.stdout", Stream("stdout"))
    monkeypatch.setattr("sys.stderr", Stream("stderr"))
    entry()
    expected = [("stdin", {"encoding": "utf-8-sig", "errors": "surrogateescape"})] if stdin == "open" else []
    expected += [
        ("stdout", {"encoding": "utf-8", "errors": "strict"}),
        ("stderr", {"encoding": "utf-8", "errors": "backslashreplace"}),
    ]
    assert calls == ["freeze", *expected, "main", ("_exit", EXIT_OK)]


def test_check_alphabet_size_cap(monkeypatch, capsys):
    code, out, _ = run_cli(["check", "--alphabet-size", "5"], monkeypatch, capsys, stdin="010\n")
    assert code == EXIT_OK
    assert out == "0\tUNIQUE\t-\n"
    code, _, err = run_cli(["check", "--alphabet-size", "2"], monkeypatch, capsys, stdin="012\n")
    assert code == EXIT_USAGE
    assert "line 1" in err


@pytest.mark.parametrize("mode", [[], ["--explain"], ["--json"]], ids=["plain", "explain", "json"])
def test_check_alphabet_size_changes_no_output(mode, monkeypatch, capsys):
    # the automaton runs over each line's own symbols: every string of
    # (3, 0..6) gets the same verdict, rejection and witness with and
    # without the cap
    stdin = "".join("".join(word) + "\n" for n in range(7) for word in itertools.product("012", repeat=n))
    code, out, _ = run_cli(["check", *mode], monkeypatch, capsys, stdin=stdin)
    assert code == EXIT_OK
    assert run_cli(["check", "--alphabet-size", "7", *mode], monkeypatch, capsys, stdin=stdin) == (code, out, "")


def test_check_alphabet_size_costs_no_memory_per_padded_vertex(monkeypatch, capsys):
    # the line is run over its own 2 symbols, not a million padded vertices
    tracemalloc.start()
    try:
        code, out, _ = run_cli(["check", "--alphabet-size", "1000000"], monkeypatch, capsys, stdin="0010\n")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (code, out) == (EXIT_OK, "0\tNONUNIQUE\t4\n")
    assert peak < 2**20


@pytest.mark.parametrize("digits,count", [(6, 200000), (60, 20000)], ids=["parse-peak", "read-peak"])
def test_check_holds_nothing_of_a_line_while_it_checks_the_next(digits, count, tmp_path, monkeypatch, capsys):
    # a second line leaves the peak where one line put it: the first line,
    # its trail and its names are gone before the second is read.  With
    # long tokens the peak comes while a line is read, not parsed
    rng = random.Random(1)
    lines = []
    for first in (1, 2):
        names = [str(first * 10 ** (digits - 1) + i) for i in range(1000)]
        lines.append(" ".join(rng.choice(names) for _ in range(count)) + "\n")
    peaks = []
    for used in (1, 2):
        source = tmp_path / f"{used}.txt"
        source.write_text("".join(lines[:used]), encoding="utf-8")
        tracemalloc.start()
        try:
            code, out, _ = run_cli(["check", "--tokens", str(source)], monkeypatch, capsys)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert (code, len(out.splitlines())) == (EXIT_OK, used)
    assert peaks[1] - peaks[0] < len(lines[1]) / 2


def test_check_json_and_plain_carry_identical_information(monkeypatch, capsys):
    stdin = "0010\nababab\n011010\n"
    args = ["check", "--explain"]
    _, plain_out, _ = run_cli(args, monkeypatch, capsys, stdin=stdin)
    _, json_out, _ = run_cli(args + ["--json"], monkeypatch, capsys, stdin=stdin)
    plain = [parse_plain_check_line(line) for line in plain_out.splitlines()]
    parsed = [json.loads(line) for line in json_out.splitlines()]
    assert plain == parsed


@pytest.mark.parametrize("json_out", [False, True])
def test_check_keeps_earlier_verdicts_when_a_later_line_is_bad(json_out, monkeypatch, capsys):
    args = ["check", "--json"] if json_out else ["check"]
    code, out, err = run_cli(args, monkeypatch, capsys, stdin="0010\n0 1\n")
    assert code == EXIT_USAGE
    assert "line 2" in err
    if json_out:
        verdicts = [json.loads(line) for line in out.splitlines()]
        assert verdicts == [{"index": 0, "verdict": "NONUNIQUE", "first_rejection": 4}]
    else:
        assert out == "0\tNONUNIQUE\t4\n"


def test_check_rejects_a_bad_tail_after_an_early_rejection(monkeypatch, capsys):
    # the line is NONUNIQUE at 4, but the whole line is parsed before it
    # is run, so the space after the rejection is still a usage error
    code, out, err = run_cli(["check"], monkeypatch, capsys, stdin="0010 1\n")
    assert code == EXIT_USAGE
    assert out == ""
    assert "line 1: whitespace is not a symbol in chars mode" in err


def test_check_alphabet_size_counts_the_whole_line(monkeypatch, capsys):
    # 00102 is rejected at 4, before the third symbol appears, yet
    # --alphabet-size caps the distinct symbols of the whole line
    code, out, err = run_cli(["check", "--alphabet-size", "2"], monkeypatch, capsys, stdin="00102\n")
    assert code == EXIT_USAGE
    assert out == ""
    assert "line 1: 3 distinct symbols exceed --alphabet-size 2" in err


def test_check_answers_each_line_before_the_input_ends():
    proc = start_cli(["check"])
    try:
        proc.stdin.write(b"0010\n")
        proc.stdin.flush()
        ready, _, _ = select.select([proc.stdout], [], [], 10)
        assert ready, "no verdict while stdin was still open"
        assert proc.stdout.readline() == b"0\tNONUNIQUE\t4\n"
        proc.stdin.write(b"abab\n")
        proc.stdin.close()
        assert proc.stdout.read() == b"1\tUNIQUE\t-\n"
        assert proc.wait(timeout=10) == EXIT_OK
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()
        proc.stderr.close()


def test_check_explain_cost_does_not_grow_with_the_tail():
    # cycles of 3, 4, 5, 6 and 8 fresh tokens, each about 40 symbols long,
    # left through an exit path and re-entered: rejected at the last of
    # some 210 symbols, then 4,000 fresh tokens that only need checking
    names = (f"t{n}" for n in itertools.count())
    line = []
    for k in (3, 4, 5, 6, 8):
        cycle = [next(names) for _ in range(k)]
        line += cycle * round(40 / k) + [cycle[0]]
    line += [next(names) for _ in range(4)] + [cycle[0]]
    rejected_at = len(line)
    line += [next(names) for _ in range(4000)]
    assert_explained_within_5s(line, rejected_at)


def test_check_explain_cost_is_linear_in_the_rejected_prefix():
    # a chain of fresh cycles of 3 to 8 tokens, each about 40 symbols
    # long, that re-enters the second-to-last cycle it left after more
    # than 16,000 symbols; a search quadratic in the rejected prefix
    # needs many seconds here
    names = (f"t{n}" for n in itertools.count())
    line, cycles = [], []
    while len(line) < 16_000:
        cycle = [next(names) for _ in range(3 + len(cycles) % 6)]
        line += cycle * round(40 / len(cycle)) + [cycle[0]]
        cycles.append(cycle)
    line += [next(names) for _ in range(4)] + [cycles[-2][0]]
    rejected_at = len(line)
    line += [next(names) for _ in range(100)]
    assert_explained_within_5s(line, rejected_at)


def assert_explained_within_5s(line, rejected_at):
    """``check --tokens --explain`` on one line names a different trail of
    the same graph that keeps the line's tail, within 5 s."""
    proc = start_cli(["check", "--tokens", "--explain"])
    try:
        out, _ = proc.communicate((" ".join(line) + "\n").encode(), timeout=5)
    finally:
        proc.kill()
        proc.wait()
    record = parse_plain_check_line(out.decode().rstrip("\n"))
    assert record["verdict"] == "NONUNIQUE"
    assert record["first_rejection"] == rejected_at
    witness = record["witness"]
    assert witness["site"].startswith(("one_anchor(", "two_anchors("))
    alt = witness["alt"].split()
    assert alt != line and alt[0] == line[0]
    assert sorted(zip(alt, alt[1:])) == sorted(zip(line, line[1:]))
    assert alt[rejected_at:] == line[rejected_at:]


def test_check_rejects_undecodable_bytes_in_a_file(tmp_path, monkeypatch, capsys):
    source = tmp_path / "input.txt"
    source.write_bytes(b"0010\n\xff\n")
    code, out, err = run_cli(["check", str(source)], monkeypatch, capsys)
    assert code == EXIT_USAGE
    assert out == "0\tNONUNIQUE\t4\n"
    assert "line 2:" in err


def test_check_names_the_line_of_an_undecodable_byte_past_the_first_slice(tmp_path, monkeypatch, capsys):
    # only lines that are not ASCII are looked at for lone surrogates; the
    # byte sits in a token far past the first slice of a long line, after a
    # line that is not ASCII but decodes
    tokens = [f"t{i % 500}" for i in range(3 * SLICE_CHARS)]
    source = tmp_path / "input.txt"
    source.write_bytes(b"\xc3\xa9 x \xc3\xa9\n" + " ".join(tokens).encode() + b" t1\xff " + b"t1\n")
    code, out, err = run_cli(["check", "--tokens", str(source)], monkeypatch, capsys)
    assert code == EXIT_USAGE
    assert out == "0\tUNIQUE\t-\n"
    assert err == "unitrail: error: line 2: undecodable bytes\n"


def test_check_reads_stdin_as_utf8_whatever_the_environment_says():
    # 0\xff0 is not UTF-8; a latin-1 stdin would read it as a unique line
    proc = start_cli(["check"], PYTHONIOENCODING="latin-1")
    out, err = proc.communicate(b"0\xff0\n", timeout=10)
    assert (proc.returncode, out, err) == (EXIT_USAGE, b"", b"unitrail: error: line 1: undecodable bytes\n")


def test_check_rejects_undecodable_bytes_on_stdin():
    # a strict decoder on stdin would raise before any line could be named
    proc = start_cli(["check"], PYTHONIOENCODING="utf-8:strict")
    out, err = proc.communicate(b"0010\n\xff\n", timeout=10)
    assert proc.returncode == EXIT_USAGE
    assert out == b"0\tNONUNIQUE\t4\n"
    assert b"line 2:" in err


@pytest.mark.parametrize("tokens", [False, True], ids=["chars", "tokens"])
@pytest.mark.parametrize("encoding", [None, "utf-8:strict"], ids=["unset", "utf-8:strict"])
def test_trails_rejects_undecodable_bytes_in_its_argument(encoding, tokens, monkeypatch):
    # the argument is bytes, so a\xff reaches the process undecoded
    monkeypatch.delenv("PYTHONIOENCODING", raising=False)
    env = {"PYTHONIOENCODING": encoding} if encoding else {}
    proc = start_cli(["trails", *(["--tokens"] if tokens else []), b"a\xffa"], **env)
    out, err = proc.communicate(timeout=10)
    assert (proc.returncode, out, err) == (EXIT_USAGE, b"", b"unitrail: error: undecodable bytes\n")


def test_output_is_utf8_whatever_the_environment_says(monkeypatch, capsys):
    # the same bytes under every PYTHONIOENCODING: what main prints, in UTF-8
    commands = [(["check", "--explain"], "€€x€\n"), (["trails", "ééxé"], "")]
    expected = [run_cli(argv, monkeypatch, capsys, stdin)[1].encode() for argv, stdin in commands]
    assert "€" in expected[0].decode() and expected[1] == "ééxé\néxéé\n".encode()
    monkeypatch.delenv("PYTHONIOENCODING", raising=False)
    for encoding in [None, "latin-1", "ascii", "utf-8:strict"]:
        env = {"PYTHONIOENCODING": encoding} if encoding else {}
        for (argv, stdin), want in zip(commands, expected):
            proc = start_cli(argv, **env)
            out, err = proc.communicate(stdin.encode(), timeout=10)
            assert (proc.returncode, out, err) == (EXIT_OK, want, b""), (encoding, argv)


def test_check_reads_what_trails_writes_under_latin1():
    trails = start_cli(["trails", "ééxé"], PYTHONIOENCODING="latin-1")
    listed, _ = trails.communicate(timeout=10)
    check = start_cli(["check"], PYTHONIOENCODING="latin-1")
    out, err = check.communicate(listed, timeout=10)
    assert (trails.returncode, listed) == (EXIT_OK, "ééxé\néxéé\n".encode())
    assert (check.returncode, out, err) == (EXIT_OK, b"0\tNONUNIQUE\t4\n1\tNONUNIQUE\t4\n", b"")


@pytest.mark.parametrize("from_file", [False, True])
def test_check_counts_lines_for_every_line_ending(from_file, tmp_path, monkeypatch, capsys):
    text = "abab\r\n0010\r\r0 1\n"
    argv = ["check"]
    if from_file:
        source = tmp_path / "input.txt"
        source.write_bytes(text.encode())
        argv.append(str(source))
        text = ""
    code, out, err = run_cli(argv, monkeypatch, capsys, stdin=text)
    assert code == EXIT_USAGE
    assert out.splitlines() == ["0\tUNIQUE\t-", "1\tNONUNIQUE\t4", "2\tUNIQUE\t-"]
    assert "line 4:" in err


def test_trails_lists_all_trails(monkeypatch, capsys):
    code, out, _ = run_cli(["trails", "0010"], monkeypatch, capsys)
    assert code == EXIT_OK
    assert out.splitlines() == ["0010", "0100"]


def test_trails_limit(monkeypatch, capsys):
    code, out, _ = run_cli(["trails", "0010", "--limit", "1"], monkeypatch, capsys)
    assert code == EXIT_OK
    assert out.splitlines() == ["0010"]


def test_trails_limit_beyond_sys_maxsize_prints_every_trail(monkeypatch, capsys):
    code, out, err = run_cli(["trails", "0010", "--limit", str(10**30)], monkeypatch, capsys)
    assert (code, out, err) == (EXIT_OK, "0010\n0100\n", "")


def test_trails_unique_input_yields_one_line(monkeypatch, capsys):
    code, out, _ = run_cli(["trails", "ababab"], monkeypatch, capsys)
    assert code == EXIT_OK
    assert out.splitlines() == ["ababab"]


def test_trails_lists_the_one_trail_of_the_reversed_doubled_trail_at_m_200(monkeypatch, capsys):
    line = " ".join(f"{v} {v}" for v in range(199, -1, -1))
    with cpu_bound(1):
        code, out, err = run_cli(["trails", "--tokens", "--limit", "2", line], monkeypatch, capsys)
    assert (code, out, err) == (EXIT_OK, line + "\n", "")


def test_trails_lists_two_trails_of_a_random_line_in_a_second(long_trails, monkeypatch, capsys):
    # trail 187 of the spread corpus: 230 symbols over 270, rejected at
    # symbol 51.  The search that could enter dead branches printed not
    # even one trail in 20 s
    symbols = long_trails[3][187]
    with cpu_bound(1):
        code, out, err = run_cli(["trails", "--tokens", "--limit", "2", " ".join(map(str, symbols))], monkeypatch, capsys)
    trails = [tuple(map(int, line.split())) for line in out.splitlines()]
    assert (code, err, len(trails), len(set(trails))) == (EXIT_OK, "", 2, 2)
    assert all(trail[0] == symbols[0] and sorted(zip(trail, trail[1:])) == sorted(zip(symbols, symbols[1:])) for trail in trails)


def test_trails_single_vertex(monkeypatch, capsys):
    code, out, _ = run_cli(["trails", "0"], monkeypatch, capsys)
    assert code == EXIT_OK
    assert out.splitlines() == ["0"]


def test_trails_empty_sequence_is_a_usage_error(monkeypatch, capsys):
    code, _, err = run_cli(["trails", ""], monkeypatch, capsys)
    assert code == EXIT_USAGE
    assert "empty" in err


@pytest.mark.parametrize("command", ["trails", "check"])
def test_a_reader_that_closes_the_pipe_early_gets_no_traceback(command, tmp_path):
    # each command has far more output than a pipe buffers: the 8! trails
    # of the star 0 1 0 2 .. 0 8 0, or 20,000 verdicts
    star = " ".join(f"0 {v}" for v in range(1, 9)) + " 0"
    big = tmp_path / "big.txt"
    big.write_text("0010\n" * 20_000)
    argv, first = {
        "trails": (["trails", "--tokens", star], star),
        "check": (["check", str(big)], "0\tNONUNIQUE\t4"),
    }[command]
    proc = start_cli(argv)
    try:
        proc.stdin.close()
        assert proc.stdout.readline() == f"{first}\n".encode()
        proc.stdout.close()
        assert proc.wait(timeout=30) == EXIT_IO
        assert proc.stderr.read() == b""
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()


# command lines whose output cannot be written: help, then each kind of
# command, with its stdin
_UNWRITABLE_CASES = [
    (["-h"], b""),
    (["mfw", "-h"], b""),
    (["trails", "0010"], b""),
    (["check"], b"0010\n"),
    (["mfw", "--alphabet-size", "2", "--max-len", "5"], b""),
]
_UNWRITABLE_IDS = ["help", "mfw-help", "trails", "check", "mfw"]


def run_unwritable(argv, stdin, stdout, unbuffered):
    """The exit code and stderr of the CLI run with ``stdout`` as its
    stdout, and stdout buffered unless ``unbuffered``."""
    env = child_env(PYTHONUNBUFFERED="1") if unbuffered else child_env()
    done = subprocess.run(
        [sys.executable, "-m", "unitrail", *argv], input=stdin, stdout=stdout, stderr=subprocess.PIPE,
        env=env, timeout=60,
    )
    return done.returncode, done.stderr


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv, stdin", _UNWRITABLE_CASES, ids=_UNWRITABLE_IDS)
def test_a_reader_gone_before_the_start_gets_exit_1_and_nothing_on_stderr(argv, stdin, unbuffered):
    # the pipe's read end is closed before the child starts, so its first
    # write, or entry's flush of a buffered stdout, breaks the pipe
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        assert run_unwritable(argv, stdin, write_end, unbuffered) == (EXIT_IO, b"")
    finally:
        os.close(write_end)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv, stdin", _UNWRITABLE_CASES, ids=_UNWRITABLE_IDS)
def test_a_full_disk_gets_exit_1_and_one_error_line(argv, stdin, unbuffered):
    # every write to /dev/full fails with ENOSPC: one line says so, and no
    # traceback follows
    with open("/dev/full", "wb") as full:
        code, err = run_unwritable(argv, stdin, full, unbuffered)
    assert (code, err) == (EXIT_IO, b"unitrail: error: [Errno 28] No space left on device\n")


def test_a_failed_read_of_the_input_gets_exit_1_and_one_error_line():
    # stdin open for writing only: check's first read fails with EBADF
    with open(os.devnull, "wb") as write_only:
        done = subprocess.run(
            [sys.executable, "-m", "unitrail", "check"], stdin=write_only, capture_output=True,
            env=child_env(), timeout=60,
        )
    assert (done.returncode, done.stdout, done.stderr) == (EXIT_IO, b"", b"unitrail: error: [Errno 9] Bad file descriptor\n")


def test_mfw_both_agree_over_binary(monkeypatch, capsys):
    code, out, _ = run_cli(
        ["mfw", "--alphabet-size", "2", "--max-len", "4"], monkeypatch, capsys
    )
    assert code == EXIT_OK
    assert out.splitlines() == ["0010", "0100", "1011", "1101"]


def test_mfw_single_symbol_alphabet_is_empty(monkeypatch, capsys):
    code, out, _ = run_cli(
        ["mfw", "--alphabet-size", "1", "--max-len", "6"], monkeypatch, capsys
    )
    assert code == EXIT_OK
    assert out == ""


def test_mfw_three_symbols_agree(monkeypatch, capsys):
    code, out, _ = run_cli(
        ["mfw", "--alphabet-size", "3", "--max-len", "7"], monkeypatch, capsys
    )
    assert code == EXIT_OK
    assert "0100" in out.splitlines()


def test_mfw_methods_match_both(monkeypatch, capsys):
    base = ["--alphabet-size", "2", "--max-len", "6"]
    _, both, _ = run_cli(["mfw", *base], monkeypatch, capsys)
    _, built, _ = run_cli(["mfw", *base, "--method", "constructive"], monkeypatch, capsys)
    _, scanned, _ = run_cli(["mfw", *base, "--method", "brute"], monkeypatch, capsys)
    assert both == built == scanned


def test_mfw_disagreement_prints_difference_and_exits_2(monkeypatch, capsys):
    # force the generators apart; the real ones agree
    monkeypatch.setattr("unitrail.cli.constructive_mfw", lambda size, max_len: [(0, 0, 1, 0), (1, 1, 1, 1)])
    code, out, _ = run_cli(
        ["mfw", "--alphabet-size", "2", "--max-len", "4"], monkeypatch, capsys
    )
    assert code == EXIT_MISMATCH
    assert out.splitlines() == ["only-constructive\t1111", "only-brute\t0100", "only-brute\t1011", "only-brute\t1101"]


def test_crosscheck_disagreement_exits_2(monkeypatch, capsys):
    fake = CrosscheckReport()
    fake.checked = 30
    fake.disagreements.append(
        ((0, 0, 1, 0), {"automaton": True, "oracle": False})
    )
    fake.strict_unsound.append((0, 1, 0, 0))
    fake.timings = {"automaton": 0.0}
    monkeypatch.setattr("unitrail.cli.cross_validate", lambda size, max_len: fake)
    code, out, _ = run_cli(
        ["crosscheck", "--alphabet-size", "2", "--max-len", "4"], monkeypatch, capsys
    )
    assert code == EXIT_MISMATCH
    assert out.splitlines() == [
        "checked 30 strings over alphabet size 2, lengths 1..4",
        "four-way agreement: FAILED (1 disagreements)",
        "  disagree 0010: automaton=True oracle=False",
        "strict grammar soundness: FAILED (1 violations)",
        "  unsound 0100",
        "strict grammar completeness gaps: 0",
    ]


def test_crosscheck_disagreement_beyond_the_character_names_prints_tokens(monkeypatch, capsys):
    # above 62 symbols a word is printed as its ids, space-separated
    fake = CrosscheckReport()
    fake.checked = 266_304
    fake.disagreements.append(((0, 63, 0), {"automaton": True, "oracle": False}))
    monkeypatch.setattr("unitrail.cli.cross_validate", lambda size, max_len: fake)
    code, out, _ = run_cli(
        ["crosscheck", "--alphabet-size", "64", "--max-len", "3"], monkeypatch, capsys
    )
    assert code == EXIT_MISMATCH
    assert "  disagree 0 63 0: automaton=True oracle=False" in out.splitlines()


def test_crosscheck_caps_every_word_list_it_prints(monkeypatch, capsys):
    # disagreements, unsound words and strict gaps are each cut at the same
    # count, and a cut list says how many it left out
    fake = CrosscheckReport()
    fake.checked = 30
    words = [(0, 0, 1, symbol) for symbol in range(12)]
    fake.disagreements += [(word, {"automaton": True, "oracle": False}) for word in words]
    fake.strict_unsound += words[:11]
    fake.strict_gaps += words
    monkeypatch.setattr("unitrail.cli.cross_validate", lambda size, max_len: fake)
    code, out, _ = run_cli(
        ["crosscheck", "--alphabet-size", "12", "--max-len", "4", "--grammar", "strict"], monkeypatch, capsys
    )
    assert code == EXIT_MISMATCH
    shown = [render(id_names(12)[0], word) for word in words[:10]]
    assert out.splitlines() == [
        "checked 30 strings over alphabet size 12, lengths 1..4",
        "four-way agreement: FAILED (12 disagreements)",
        *(f"  disagree {word}: automaton=True oracle=False" for word in shown),
        "  ... 2 more",
        "strict grammar soundness: FAILED (11 violations)",
        *(f"  unsound {word}" for word in shown),
        "  ... 1 more",
        "strict grammar completeness gaps: 12",
        *(f"  gap {word}" for word in shown),
        "  ... 2 more",
    ]


def test_mfw_beyond_the_character_names_prints_ids_as_tokens(monkeypatch, capsys):
    # 63 symbols are one more than the single-character names, so every id
    # prints as its decimal digits, as crosscheck prints them
    code, out, err = run_cli(
        ["mfw", "--alphabet-size", "63", "--max-len", "4", "--method", "constructive"], monkeypatch, capsys
    )
    assert (code, err) == (EXIT_OK, "")
    lines = out.splitlines()
    assert lines[0] == "0 0 1 0"
    assert "62 62 61 62" in lines


def test_mfw_invalid_bounds(monkeypatch, capsys):
    # every command's out-of-range bound exits 64 with nothing on stdout
    for argv, message in (
        (["mfw", "--alphabet-size", "0", "--max-len", "4"], "--alphabet-size must be at least 1"),
        (["mfw", "--alphabet-size", "2", "--max-len", "-1"], "--max-len must be non-negative"),
        (["check", "--alphabet-size", "0"], "--alphabet-size must be at least 1"),
        (["trails", "aba", "--limit", "0"], "--limit must be at least 1"),
        (["crosscheck", "--alphabet-size", "0", "--max-len", "2"], "--alphabet-size must be at least 1"),
        (["crosscheck", "--alphabet-size", "2", "--max-len", "-1"], "--max-len must be non-negative"),
    ):
        code, out, err = run_cli(argv, monkeypatch, capsys, stdin="aba\n")
        assert (code, out, err) == (EXIT_USAGE, "", f"unitrail: error: {message}\n"), argv


def test_crosscheck_binary_agrees(monkeypatch, capsys):
    code, out, err = run_cli(
        ["crosscheck", "--alphabet-size", "2", "--max-len", "6"], monkeypatch, capsys
    )
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "checked 126 strings over alphabet size 2, lengths 1..6"
    assert "four-way agreement: ok" in lines
    assert "strict grammar soundness: ok" in lines
    assert "timing:" in err


def test_crosscheck_strict_names_gap_strings(monkeypatch, capsys):
    code, out, _ = run_cli(
        ["crosscheck", "--alphabet-size", "3", "--max-len", "5", "--grammar", "strict"],
        monkeypatch,
        capsys,
    )
    assert code == EXIT_OK  # gaps are reported, soundness still holds
    assert "  gap 01020" in out.splitlines()


def test_crosscheck_alphabet_beyond_the_character_names(monkeypatch, capsys):
    # m=64 exceeds the 62 single-character names, so words render as tokens;
    # the grammar is computed per step, so the sweep stays small and fast
    code, out, _ = run_cli(
        ["crosscheck", "--alphabet-size", "64", "--max-len", "2"], monkeypatch, capsys
    )
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "checked 4160 strings over alphabet size 64, lengths 1..2"
    assert "four-way agreement: ok" in lines


def test_crosscheck_of_no_strings_costs_no_memory_per_symbol(monkeypatch, capsys):
    # a sweep that checks no string builds nothing per symbol: neither its
    # one-symbol extensions nor the names of the ids it never prints
    tracemalloc.start()
    try:
        code, out, _ = run_cli(["crosscheck", "--alphabet-size", "1000000", "--max-len", "0"], monkeypatch, capsys)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (code, out) == (EXIT_OK, (
        "checked 0 strings over alphabet size 1000000, lengths 1..0\n"
        "four-way agreement: ok\n"
        "strict grammar soundness: ok\n"
        "strict grammar completeness gaps: 0\n"
    ))
    assert peak < 2**20


def test_crosscheck_prints_the_benchmark_sweep_exactly(monkeypatch, capsys):
    # the crosscheck workload's command; its stdout is pinned line for line
    code, out, _ = run_cli(
        ["crosscheck", "--alphabet-size", "10", "--max-len", "4", "--grammar", "strict"],
        monkeypatch,
        capsys,
    )
    assert code == EXIT_OK
    assert out == (
        "checked 11110 strings over alphabet size 10, lengths 1..4\n"
        "four-way agreement: ok\n"
        "strict grammar soundness: ok\n"
        "strict grammar completeness gaps: 90\n"
        "  gap 0100\n"
        "  gap 0200\n"
        "  gap 0300\n"
        "  gap 0400\n"
        "  gap 0500\n"
        "  gap 0600\n"
        "  gap 0700\n"
        "  gap 0800\n"
        "  gap 0900\n"
        "  gap 1011\n"
        "  ... 80 more\n"
    )


def test_crosscheck_stdout_is_deterministic(monkeypatch, capsys):
    argv = ["crosscheck", "--alphabet-size", "2", "--max-len", "5"]
    _, first, _ = run_cli(argv, monkeypatch, capsys)
    _, second, _ = run_cli(argv, monkeypatch, capsys)
    assert first == second


def test_unknown_flags_exit_64(monkeypatch, capsys):
    code = main(["check", "--bogus"])
    capsys.readouterr()
    assert code == EXIT_USAGE


def test_missing_subcommand_exits_64(monkeypatch, capsys):
    code = main([])
    capsys.readouterr()
    assert code == EXIT_USAGE


def parse_exit(argv, capsys):
    """The exit code, stdout and stderr of a command line that stops in
    the parser."""
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv, expected", [
    (["-h"], (EXIT_OK, "")),
    (["mfw", "-h"], (EXIT_OK, "")),
    (["frob"], (EXIT_USAGE, (
        "usage: unitrail [-h] {check,trails,mfw,crosscheck} ...\n"
        "unitrail: error: argument command: invalid choice: 'frob' (choose from 'check', 'trails', 'mfw', 'crosscheck')\n"
    ))),
    (["check", "--bogus"], (EXIT_USAGE, (
        "usage: unitrail check [-h] [--tokens] [--alphabet-size M] [--explain] [--json] [path]\n"
        "unitrail: error: unrecognized arguments: --bogus\n"
    ))),
    (["mfw", "--alphabet-size", "0", "--max-len", "2"], (EXIT_USAGE, "unitrail: error: --alphabet-size must be at least 1\n")),
], ids=["help", "mfw-help", "unknown-command", "unknown-option", "range-error"])
def test_main_returns_the_exit_code_of_every_command_line(argv, expected, capsys):
    # main raises no SystemExit: help and refused lines return their code
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.err) == expected
    assert bool(captured.out) == (code == EXIT_OK)


def test_parse_args_checks_each_integer_against_its_least_value(capsys):
    with pytest.raises(SystemExit) as info:
        parse_args(["mfw", "--alphabet-size", "2", "--max-len", "-1"])
    assert info.value.code == EXIT_USAGE
    assert capsys.readouterr() == ("", "unitrail: error: --max-len must be non-negative\n")


def test_the_parser_reads_the_command_table(monkeypatch, capsys):
    # a malformed line exits 64 with nothing on stdout, and its stderr
    # error line names the argument at fault
    for argv, named in (
        (["check", "--bogus"], "--bogus"),                # unknown option
        (["check", "--alpha", "3"], "--alpha"),           # a prefix is no abbreviation
        (["mfw", "--alphabet-size", "2"], "--max-len"),   # missing required option
        (["trails"], "sequence"),                         # missing positional
        (["trails", "0010", "--limit", "x"], "--limit"),  # not an integer
        (["mfw", "--alphabet-size", "2", "--max-len", "4", "--method", "fast"], "--method"),
        (["trails", "0010", "0100"], "0100"),             # extra positional
        (["trails", "0010", "--limit"], "--limit"),       # option with no value
        (["check", "--json=1"], "--json"),                # switch given a value
        ([], "command"),                                  # no subcommand
        (["frob"], "frob"),                               # unknown subcommand
    ):
        code, out, err = parse_exit(argv, capsys)
        usage, error = err.splitlines()
        assert (code, out) == (EXIT_USAGE, ""), argv
        assert usage.startswith("usage: unitrail"), argv
        assert error.startswith("unitrail: error: ") and named in error, argv
    # accepted spellings
    for argv, printed in (
        (["mfw", "--alphabet-size=2", "--max-len=4"], "0010\n0100\n1011\n1101\n"),
        (["trails", "0010", "--limit", "1"], "0010\n"),             # option after a positional
        (["trails", "--", "--0"], "--0\n"),                          # `--` ends the options
        (["trails", "0010", "--limit", "2", "--limit", "1"], "0010\n"),  # the last one wins
    ):
        assert run_cli(argv, monkeypatch, capsys) == (EXIT_OK, printed, ""), argv
    # -h lists every command, and each command's -h every argument
    code, out, _ = parse_exit(["-h"], capsys)
    assert code == EXIT_OK and all(name in out for name in COMMANDS)
    for name, (_, _, positionals, options) in COMMANDS.items():
        code, out, err = parse_exit([name, "-h"], capsys)
        assert (code, err) == (EXIT_OK, ""), name
        listed = [line.split()[0] for line in out.splitlines() if line.startswith("  ")]
        assert listed == [*(arg[0] for arg in positionals), *(opt[0] for opt in options), "-h,"], name


def test_every_readme_cli_line_parses():
    # each `unitrail ...` line of the README's CLI block is a command line
    # the parser accepts, so the docs cannot drift from the table
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    start = text.index("```sh\n", text.index("## CLI")) + len("```sh\n")
    parsed = 0
    for line in text[start : text.index("```", start)].splitlines():
        words = shlex.split(line, comments=True)
        if "unitrail" not in words:
            continue
        argv = list(itertools.takewhile(lambda word: word not in ("<", ">", "|"), words[words.index("unitrail") + 1 :]))
        assert parse_args(argv).command == argv[0], line
        parsed += 1
    assert parsed == 10


def test_import_loads_no_dataclasses_inspect_json_argparse_gettext_or_locale():
    # start-up cost: these modules take a large share of the time to the
    # first verdict, and deciding a line needs none of them
    probe = "import sys, unitrail.cli; print(' '.join(sorted(sys.modules)))"
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True, env=child_env(), timeout=60,
    )
    loaded = set(done.stdout.split())
    assert "unitrail.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "json", "argparse", "gettext", "locale"}


def test_import_leaves_the_collector_alone():
    # only entry(), which ends the process, may freeze the start-up heap
    probe = "import gc, unitrail.cli; print(gc.isenabled(), gc.get_freeze_count())"
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True, env=child_env(), timeout=60,
    )
    assert done.stdout == "True 0\n"


def test_the_process_prints_what_main_prints(tmp_path, monkeypatch, capsys):
    # small forms of the four benchmark commands, through `python -m
    # unitrail` (entry, which freezes) and through main in this process
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("0 1 2 3\n0 1 2 0 2 1 0\n0 1 0 2 0\n10 11 12 10 12 11 10 13 11\n3 4 5 3 5 4 3 4\n")
    for argv in [
        ["check", "--tokens", str(corpus)],
        ["check", "--tokens", "--explain", str(corpus)],
        ["crosscheck", "--alphabet-size", "3", "--max-len", "3", "--grammar", "strict"],
        ["mfw", "--alphabet-size", "2", "--max-len", "8", "--method", "both"],
    ]:
        done = subprocess.run(
            [sys.executable, "-m", "unitrail", *argv], stdin=subprocess.DEVNULL, capture_output=True, text=True,
            env=child_env(), timeout=60,
        )
        code, out, _ = run_cli(argv, monkeypatch, capsys)
        assert out.count("\n") > 3, argv
        assert (done.returncode, done.stdout) == (code, out), argv
