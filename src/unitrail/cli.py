"""Command-line interface: check, trails, mfw, crosscheck.

One table, ``COMMANDS``, gives each subcommand its handler, positionals
and options, and each integer option its least value; ``parse_args``
reads a command line against it and ``-h``/``--help`` is rendered from
it.  An option's value may follow as the next word (taken verbatim, so
``--max-len -1`` reaches the range check) or as ``--opt=value``; options
and positionals come in any order, ``--`` ends the options, and a
repeated option keeps its last value.  Options are spelled out in full: a
prefix of one is unknown.  ``parse_args`` also checks every integer
against the table's least value, so a range error names the option with
no usage line, and the handlers receive only values in range.

Exit codes: 0 for success (including NONUNIQUE verdicts); 1 when the
output could not be written, silently when the reader closes stdout
before the output ends (as ``| head`` does) and with one error line when
a write, or a read of the input, failed (as on a full disk); 2 when two
classifiers that must agree do not; 64 for usage or input parse errors,
for a process started with stdout closed (as ``>&-`` does; no command
runs) and for ``check`` reading a closed stdin (as ``<&-`` leaves it).
All stdout output is deterministic for a given input and flag set; the
crosscheck timing summary goes to stderr.  Every stderr line goes through
``_stderr``, which drops it when stderr is None or cannot be written (as
``2>&-`` leaves it), so no exit code depends on stderr.

The process reads and writes UTF-8 whatever the locale or
``PYTHONIOENCODING`` says: ``entry`` sets the codecs of stdin
(``utf-8-sig``, undecodable bytes read as lone surrogates), stdout
(``utf-8``, strict) and stderr (``utf-8``, ``backslashreplace``), so
``check`` reads what any command writes.  Undecodable bytes, in an input
line or in a ``trails`` argument (which Python decodes the same way), are
rejected by :func:`~unitrail.core.parse_trail` and exit 64.

``entry``, the process entry point, also freezes the start-up heap before it
calls ``main``: the ~11,700 objects that the interpreter and the imports
leave tracked are never walked again by a long run's full collections.
Once ``main`` returns and stdout and stderr are flushed, ``entry`` ends
the process with ``os._exit``: no interpreter teardown runs, which took
1.2-2.2 ms a command after the freeze on a 2-CPU x86 machine, and no
``atexit`` handler runs; the program registers none.  ``main`` neither
freezes, sets a stream codec nor exits, so a library or test caller's
collector, streams and process are left as they were.
"""

import contextlib
import functools
import gc
import itertools
import os
import sys
from types import SimpleNamespace

from .automaton import run
from .core import TrailParseError, id_names, parse_trail, render
from .harness import cross_validate
from .mfw import brute_mfw, constructive_mfw
from .oracle import enumerate_trails
from .transposition import apply_transposition, find_proper_site, segments

EXIT_OK = 0
EXIT_IO = 1
EXIT_MISMATCH = 2
EXIT_USAGE = 64

_WORDS_SHOWN = 10


def _stderr(text: str) -> None:
    """Write one line to stderr, or drop it when stderr is None or cannot
    be written: a diagnostic must not change the exit code, and
    ``print(file=None)`` would send it to stdout."""
    if sys.stderr is not None:
        with contextlib.suppress(OSError, ValueError):  # closed fd, closed file
            print(text, file=sys.stderr)


def _usage_error(message: str) -> int:
    _stderr(f"unitrail: error: {message}")
    return EXIT_USAGE


def _open_input(path: str):
    """The input, a file or stdin, as a text stream.  A file is opened with
    the codec :func:`entry` gives stdin: ``utf-8-sig``, which drops a
    U+FEFF that starts the bytes, a byte-order mark (anywhere else it is a
    symbol), with undecodable bytes read as lone surrogates, so that
    :func:`~unitrail.core.parse_trail` rejects them and ``check`` names
    their line.  Stdin is taken as it is: ``main`` sets no codec."""
    if path == "-":
        if sys.stdin is None:  # started with stdin closed, as `<&-` does
            raise OSError("standard input is closed")
        return contextlib.nullcontext(sys.stdin)
    return open(path, encoding="utf-8-sig", errors="surrogateescape")


def _lines(stream):
    """The stream's lines one at a time, split as ``str.splitlines`` splits
    the whole text: each chunk the stream yields ends at a ``\n``, so no
    line ending straddles two chunks.

    A chunk is dropped once it is split, and a line once it is handed out,
    so a line is held once, and only by the caller."""
    for lines in map(str.splitlines, stream):
        lines.reverse()
        while lines:
            yield lines.pop()


def _witness(trail, rejected_at: int, names: tuple[str, ...], tokens: bool) -> dict:
    """A proper site of the shortest rejected prefix, shown on the whole line."""
    site = find_proper_site(trail[:rejected_at])
    i, p, j, q = site
    data = {"site": f"one_anchor({i},{j},{q})" if p == j else f"two_anchors({i},{p},{j},{q})"}
    for key, part in segments(trail, site).items():
        data[key] = render(names, part, tokens)
    data["alt"] = render(names, apply_transposition(trail, site), tokens)
    return data


def _plain(report: dict) -> str:
    """A report as one tab-separated line."""
    fields = [
        str(report["index"]),
        report["verdict"],
        "-" if report["first_rejection"] is None else str(report["first_rejection"]),
    ]
    if "witness" in report:
        fields += [f"{key}={value}" for key, value in report["witness"].items()]
    return "\t".join(fields)


def _check_line(raw: str, index: int, args, show) -> str | None:
    """Print the verdict on one input line, formatted by ``show``, or return
    the error that ends ``check`` at this line.  The trail, the names, the
    verdict and the report are this call's locals, so none of them is
    alive when the next line is read."""
    try:
        trail, names = parse_trail(raw.strip(), tokens=args.tokens)
    except TrailParseError as exc:
        return str(exc)
    if args.alphabet_size is not None and len(names) > args.alphabet_size:
        return f"{len(names)} distinct symbols exceed --alphabet-size {args.alphabet_size}"
    # the automaton runs over the line's own symbols, so the verdict, the
    # rejection and the witness are the same at any --alphabet-size
    verdict = run(trail, len(names))
    report = {
        "index": index,
        "verdict": "UNIQUE" if verdict.accepted else "NONUNIQUE",
        "first_rejection": verdict.first_rejection,
    }
    if args.explain and not verdict.accepted:
        report["witness"] = _witness(trail, verdict.first_rejection, names, args.tokens)
    print(show(report), flush=True)
    return None


def cmd_check(args) -> int:
    try:
        source = _open_input(args.path)
    except OSError as exc:
        return _usage_error(str(exc))
    if args.json:
        import json  # only here, so that plain output starts without it
        show = json.dumps
    else:
        show = _plain
    with source as stream:
        index = 0
        for raw in _lines(stream):
            error = _check_line(raw, index, args, show)
            del raw  # the next line is read with nothing of this one alive
            if error is not None:
                return _usage_error(f"line {index + 1}: {error}")
            index += 1
    return EXIT_OK


def cmd_trails(args) -> int:
    try:
        trail, names = parse_trail(args.sequence.strip(), tokens=args.tokens)
        trails = enumerate_trails(trail)  # checks the trail before the search
    except ValueError as exc:
        return _usage_error(str(exc))
    if args.limit is not None:
        # islice takes no stop above sys.maxsize; no search gets that far
        trails = itertools.islice(trails, min(args.limit, sys.maxsize))
    for found in trails:
        print(render(names, found, args.tokens), flush=True)
    return EXIT_OK


def cmd_mfw(args) -> int:
    names, tokens = id_names(args.alphabet_size)
    if args.method == "constructive":
        words = constructive_mfw(args.alphabet_size, args.max_len)
    elif args.method == "brute":
        words = brute_mfw(args.alphabet_size, args.max_len)
    else:
        built = constructive_mfw(args.alphabet_size, args.max_len)
        scanned = brute_mfw(args.alphabet_size, args.max_len)
        if built != scanned:
            only_built = sorted(set(built) - set(scanned))
            only_scanned = sorted(set(scanned) - set(built))
            for word in only_built:
                print(f"only-constructive\t{render(names, word, tokens)}")
            for word in only_scanned:
                print(f"only-brute\t{render(names, word, tokens)}")
            return EXIT_MISMATCH
        words = built
    for word in words:
        print(render(names, word, tokens))
    return EXIT_OK


def _print_capped(kind: str, found: list, show) -> None:
    """Print the first ``_WORDS_SHOWN`` entries of ``found``, each on a line
    ``  kind text`` with ``show(entry)`` as its text, then how many more
    there are, if any."""
    for entry in found[:_WORDS_SHOWN]:
        print(f"  {kind} {show(entry)}")
    if len(found) > _WORDS_SHOWN:
        print(f"  ... {len(found) - _WORDS_SHOWN} more")


def cmd_crosscheck(args) -> int:
    report = cross_validate(args.alphabet_size, args.max_len)
    names, tokens = id_names(args.alphabet_size)
    word = functools.partial(render, names, tokens=tokens)

    def disagreement(found) -> str:
        return word(found[0]) + ": " + " ".join(f"{name}={value}" for name, value in found[1].items())

    print(f"checked {report.checked} strings over alphabet size {args.alphabet_size}, lengths 1..{args.max_len}")
    if report.disagreements:
        print(f"four-way agreement: FAILED ({len(report.disagreements)} disagreements)")
        _print_capped("disagree", report.disagreements, disagreement)
    else:
        print("four-way agreement: ok")
    if report.strict_unsound:
        print(f"strict grammar soundness: FAILED ({len(report.strict_unsound)} violations)")
        _print_capped("unsound", report.strict_unsound, word)
    else:
        print("strict grammar soundness: ok")
    print(f"strict grammar completeness gaps: {len(report.strict_gaps)}")
    if args.grammar == "strict":
        _print_capped("gap", report.strict_gaps, word)
    elif report.strict_gaps:
        print("  (rerun with --grammar strict to list them)")
    timing = " ".join(f"{name}={seconds:.2f}s" for name, seconds in report.timings.items())
    _stderr(f"timing: {timing}")
    # Strict-grammar gaps are reported, not asserted away; only four-way
    # disagreement and strict unsoundness are failures.
    failed = bool(report.disagreements or report.strict_unsound)
    return EXIT_MISMATCH if failed else EXIT_OK


_REQUIRED = object()  # the default of an argument the command line must give

# Each subcommand: its handler, its one-line help, its positionals and its
# options.  A positional is (name, default, help); an option is
# (flag, kind, default, least, help), where kind is None for a switch, a
# metavar such as "N" for an integer, or a tuple of choices, and least is
# the smallest value an integer option takes (None for the others).
COMMANDS = {
    "check": (cmd_check, "classify one sequence per input line", [
        ("path", "-", "input file, or - for stdin (the default)"),
    ], [
        ("--tokens", None, False, None, "whitespace-separated symbols instead of one character each"),
        ("--alphabet-size", "M", None, 1, "allow at most M distinct symbols per line; more is an error"),
        ("--explain", None, False, None, "attach a transposition witness to NONUNIQUE lines"),
        ("--json", None, False, None, "one JSON object per line"),
    ]),
    "trails": (cmd_trails, "list all Eulerian trails of a sequence's graph", [
        ("sequence", _REQUIRED, "the defining sequence"),
    ], [
        ("--tokens", None, False, None, "whitespace-separated symbols instead of one character each"),
        ("--limit", "N", None, 1, "stop after N trails"),
    ]),
    "mfw": (cmd_mfw, "emit minimal forbidden words", [], [
        ("--alphabet-size", "M", _REQUIRED, 1, "the number of symbols"),
        ("--max-len", "L", _REQUIRED, 0, "the longest word length"),
        ("--method", ("constructive", "brute", "both"), "both", None, "the generator to run; both (the default) runs the two and compares"),
    ]),
    "crosscheck": (cmd_crosscheck, "exhaustively cross-validate all classifiers", [], [
        ("--alphabet-size", "M", _REQUIRED, 1, "the number of symbols"),
        ("--max-len", "L", _REQUIRED, 0, "the longest string length"),
        ("--grammar", ("strict", "amended"), "amended", None, "list the completeness gaps of this grammar variant in detail (default: amended)"),
    ]),
}


def _spelling(flag: str, kind) -> str:
    """An option as usage and help show it: ``--max-len L``, ``--grammar {strict,amended}``."""
    metavar = "{" + ",".join(kind) + "}" if isinstance(kind, tuple) else kind
    return flag if kind is None else f"{flag} {metavar}"


def _usage(command) -> str:
    if command is None:
        return "usage: unitrail [-h] {" + ",".join(COMMANDS) + "} ..."
    _, _, positionals, options = COMMANDS[command]
    words = ["usage: unitrail", command, "[-h]"]
    for flag, kind, default, _, _ in options:
        word = _spelling(flag, kind)
        words.append(word if default is _REQUIRED else f"[{word}]")
    words += [name if default is _REQUIRED else f"[{name}]" for name, default, _ in positionals]
    return " ".join(words)


def _help(command) -> str:
    if command is None:
        about = "Decide whether sequences are unique Eulerian trails of their induced multigraphs."
        rows = [(name, spec[1]) for name, spec in COMMANDS.items()]
    else:
        _, about, positionals, options = COMMANDS[command]
        rows = [(name, text) for name, _, text in positionals]
        rows += [(_spelling(flag, kind), text) for flag, kind, _, _, text in options]
    rows.append(("-h, --help", "show this help and exit"))
    width = max(len(name) for name, _ in rows) + 2
    return "\n".join([_usage(command), "", about, "", *(f"  {name:<{width}}{text}" for name, text in rows)])


def _option_value(command, flag: str, kind, value: str):
    if isinstance(kind, tuple):
        if value not in kind:
            _parse_error(command, f"argument {flag}: invalid choice: {value!r} (choose from {', '.join(map(repr, kind))})")
        return value
    try:
        return int(value)
    except ValueError:
        _parse_error(command, f"argument {flag}: invalid int value: {value!r}")


def _parse_error(command, message: str):
    _stderr(_usage(command))
    raise SystemExit(_usage_error(message))


def parse_args(argv):
    """The command line as a namespace: ``command``, then one attribute per
    positional and option of that command (``--max-len`` is ``max_len``),
    holding its default when the line leaves it out.  ``-h`` or ``--help``
    prints the help and raises ``SystemExit(0)``; a malformed line prints
    the usage and an error to stderr and raises ``SystemExit(64)``.  Once
    the line is well formed, each integer option is checked against its
    least value in ``COMMANDS``: one out of range raises ``SystemExit(64)``
    with an error line that names it and no usage line, so the handlers
    receive only values in range."""
    if argv and argv[0] in ("-h", "--help"):
        print(_help(None))
        raise SystemExit(EXIT_OK)
    if not argv:
        _parse_error(None, "the following arguments are required: command")
    command = _option_value(None, "command", tuple(COMMANDS), argv[0])
    _, _, positionals, options = COMMANDS[command]
    kinds = {flag: kind for flag, kind, _, _, _ in options}
    # every argument's value, options first, as the missing ones are named
    values = {flag: default for flag, _, default, _, _ in options}
    values.update((name, default) for name, default, _ in positionals)
    words = []
    rest = iter(argv[1:])
    for arg in rest:
        if arg == "--":
            words += rest
        elif arg in ("-h", "--help"):
            print(_help(command))
            raise SystemExit(EXIT_OK)
        elif not arg.startswith("--"):
            words.append(arg)
        else:
            flag, has_value, value = arg.partition("=")
            if flag not in kinds:
                _parse_error(command, f"unrecognized arguments: {arg}")
            kind = kinds[flag]
            if kind is None and has_value:
                _parse_error(command, f"argument {flag}: ignored explicit argument {value!r}")
            if kind is not None and not has_value:  # the next word, taken verbatim: `--max-len -1`
                value = next(rest, None)
                if value is None:
                    _parse_error(command, f"argument {flag}: expected one argument")
            values[flag] = True if kind is None else _option_value(command, flag, kind, value)
    if len(words) > len(positionals):
        _parse_error(command, f"unrecognized arguments: {' '.join(words[len(positionals):])}")
    values.update((name, word) for (name, _, _), word in zip(positionals, words))
    missing = [name for name, value in values.items() if value is _REQUIRED]
    if missing:
        _parse_error(command, f"the following arguments are required: {', '.join(missing)}")
    for flag, _, _, least, _ in options:
        if least is not None and values[flag] is not None and values[flag] < least:
            raise SystemExit(_usage_error(f"{flag} must be {f'at least {least}' if least else 'non-negative'}"))
    return SimpleNamespace(command=command, **{name.lstrip("-").replace("-", "_"): value for name, value in values.items()})


def main(argv=None) -> int:
    """Parse the command line, then run the command's handler, and return
    the exit code for every command line: 0 after ``-h``, 64 for a line
    :func:`parse_args` refuses, and otherwise the handler's.  It never
    raises ``SystemExit``.  With stdout closed nothing runs: the output
    would have nowhere to go.  The streams are used with the codecs they
    have: ``main`` sets none, as it freezes nothing, so a library or test
    caller's streams are left as they were."""
    if sys.stdout is None:  # started with stdout closed, as `>&-` does
        return _usage_error("standard output is closed")
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:  # -h, or a line the parser refused
        return exc.code
    return COMMANDS[args.command][0](args)


def entry() -> None:
    """Run :func:`main` on the process's arguments and end the process with
    its code.

    It first moves every object tracked so far, the interpreter's and the
    imported modules', into the collector's permanent generation
    (``gc.freeze``), so no later collection walks them; objects the command
    creates are collected as before.  Then it sets the stream codecs:
    stdin ``utf-8-sig`` with ``surrogateescape``, stdout ``utf-8`` with
    ``strict``, stderr ``utf-8`` with ``backslashreplace``; a stream that is
    None (closed at start) or has no ``reconfigure`` is left alone.  Once
    ``main`` returns, stdout and stderr are flushed and ``os._exit`` ends
    the process: no interpreter teardown and no ``atexit`` handler runs,
    and the program registers none.  An ``OSError`` from ``main`` or from
    the stdout flush, a write or a read of the input that failed, ends
    the run with exit 1: silently when the reader closed stdout, and with
    one error line otherwise.  Only this function freezes, sets the codecs
    and ends the process; ``main`` does none of these."""
    gc.freeze()
    codecs = (("utf-8-sig", "surrogateescape"), ("utf-8", "strict"), ("utf-8", "backslashreplace"))
    for stream, (encoding, errors) in zip((sys.stdin, sys.stdout, sys.stderr), codecs):
        if hasattr(stream, "reconfigure"):  # None, or a stream with no codec of its own
            stream.reconfigure(encoding=encoding, errors=errors)
    try:
        code = main()
        if sys.stdout is not None:  # main refused a closed stdout
            sys.stdout.flush()
    except OSError as exc:
        # nothing flushes stdout after this; the reader that closed it
        # early, as `| head` does, is told nothing
        if not isinstance(exc, BrokenPipeError):
            _stderr(f"unitrail: error: {exc}")
        code = EXIT_IO
    if sys.stderr is not None:
        with contextlib.suppress(OSError, ValueError):  # as in _stderr
            sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    entry()
