import io
import json
import os
import select
import subprocess
import sys
from pathlib import Path

import pytest

import unitrail
from unitrail.cli import EXIT_MISMATCH, EXIT_OK, EXIT_USAGE, main
from unitrail.harness import CrosscheckReport


def run_cli(argv, monkeypatch, capsys, stdin=""):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def start_cli(argv, **env):
    """The CLI in a child process, with pipes on all three streams."""
    source = str(Path(unitrail.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": source, **env}
    return subprocess.Popen(
        [sys.executable, "-m", "unitrail", *argv],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
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


def test_check_missing_file_is_a_usage_error(monkeypatch, capsys):
    code, _, err = run_cli(["check", "/nonexistent/path"], monkeypatch, capsys)
    assert code == EXIT_USAGE
    assert "error" in err


def test_check_alphabet_size_cap(monkeypatch, capsys):
    code, out, _ = run_cli(["check", "--alphabet-size", "5"], monkeypatch, capsys, stdin="010\n")
    assert code == EXIT_OK
    assert out == "0\tUNIQUE\t-\n"
    code, _, err = run_cli(["check", "--alphabet-size", "2"], monkeypatch, capsys, stdin="012\n")
    assert code == EXIT_USAGE
    assert "line 1" in err


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


def test_check_rejects_undecodable_bytes_in_a_file(tmp_path, monkeypatch, capsys):
    source = tmp_path / "input.txt"
    source.write_bytes(b"0010\n\xff\n")
    code, out, err = run_cli(["check", str(source)], monkeypatch, capsys)
    assert code == EXIT_USAGE
    assert out == "0\tNONUNIQUE\t4\n"
    assert "line 2:" in err


def test_check_rejects_undecodable_bytes_on_stdin():
    # a strict decoder on stdin would raise before any line could be named
    proc = start_cli(["check"], PYTHONIOENCODING="utf-8:strict")
    out, err = proc.communicate(b"0010\n\xff\n", timeout=10)
    assert proc.returncode == EXIT_USAGE
    assert out == b"0\tNONUNIQUE\t4\n"
    assert b"line 2:" in err


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


def test_trails_unique_input_yields_one_line(monkeypatch, capsys):
    code, out, _ = run_cli(["trails", "ababab"], monkeypatch, capsys)
    assert code == EXIT_OK
    assert out.splitlines() == ["ababab"]


def test_trails_single_vertex(monkeypatch, capsys):
    code, out, _ = run_cli(["trails", "0"], monkeypatch, capsys)
    assert code == EXIT_OK
    assert out.splitlines() == ["0"]


def test_trails_empty_sequence_is_a_usage_error(monkeypatch, capsys):
    code, _, err = run_cli(["trails", ""], monkeypatch, capsys)
    assert code == EXIT_USAGE
    assert "empty" in err


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
    monkeypatch.setattr("unitrail.cli.constructive_mfw", lambda size, max_len: [(0, 0, 1, 0)])
    code, out, _ = run_cli(
        ["mfw", "--alphabet-size", "2", "--max-len", "4"], monkeypatch, capsys
    )
    assert code == EXIT_MISMATCH
    lines = out.splitlines()
    assert "only-brute\t0100" in lines
    assert all(line.startswith(("only-brute", "only-constructive")) for line in lines)


def test_crosscheck_disagreement_exits_2(monkeypatch, capsys):
    fake = CrosscheckReport(2, 4, checked=30)
    fake.disagreements.append(
        ((0, 0, 1, 0), {"automaton": True, "oracle": False})
    )
    fake.timings = {"automaton": 0.0}
    monkeypatch.setattr("unitrail.cli.cross_validate", lambda size, max_len: fake)
    code, out, _ = run_cli(
        ["crosscheck", "--alphabet-size", "2", "--max-len", "4"], monkeypatch, capsys
    )
    assert code == EXIT_MISMATCH
    assert "four-way agreement: FAILED (1 disagreements)" in out
    assert "  disagree 0010: automaton=True oracle=False" in out


def test_mfw_invalid_bounds(monkeypatch, capsys):
    code, _, _ = run_cli(["mfw", "--alphabet-size", "0", "--max-len", "4"], monkeypatch, capsys)
    assert code == EXIT_USAGE
    code, _, _ = run_cli(["mfw", "--alphabet-size", "2", "--max-len", "-1"], monkeypatch, capsys)
    assert code == EXIT_USAGE


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


def test_crosscheck_stdout_is_deterministic(monkeypatch, capsys):
    argv = ["crosscheck", "--alphabet-size", "2", "--max-len", "5"]
    _, first, _ = run_cli(argv, monkeypatch, capsys)
    _, second, _ = run_cli(argv, monkeypatch, capsys)
    assert first == second


def test_unknown_flags_exit_64(monkeypatch, capsys):
    with pytest.raises(SystemExit) as info:
        main(["check", "--bogus"])
    capsys.readouterr()
    assert info.value.code == EXIT_USAGE


def test_missing_subcommand_exits_64(monkeypatch, capsys):
    with pytest.raises(SystemExit) as info:
        main([])
    capsys.readouterr()
    assert info.value.code == EXIT_USAGE
