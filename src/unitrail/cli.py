"""Command-line interface: check, trails, mfw, crosscheck.

Exit codes: 0 for success (including NONUNIQUE verdicts), 1 when the
reader closes stdout before the output ends, 2 when two classifiers that
must agree do not, 64 for usage or input parse errors.
All stdout output is deterministic for a given input and flag set; the
crosscheck timing summary goes to stderr.
"""

import argparse
import contextlib
import itertools
import os
import sys

from .automaton import run
from .core import TrailParseError, chars_alphabet, parse_trail, render
from .harness import cross_validate
from .mfw import brute_mfw, constructive_mfw
from .oracle import enumerate_trails
from .transposition import apply_transposition, find_proper_site, segments

EXIT_OK = 0
EXIT_PIPE = 1
EXIT_MISMATCH = 2
EXIT_USAGE = 64

_GAPS_SHOWN = 10


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _usage_error(message: str) -> int:
    print(f"unitrail: error: {message}", file=sys.stderr)
    return EXIT_USAGE


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="unitrail", description="Decide whether sequences are unique Eulerian trails of their induced multigraphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="classify one sequence per input line")
    check.add_argument("path", nargs="?", default="-", help="input file, or - for stdin")
    check.add_argument("--tokens", action="store_true", help="whitespace-separated symbols instead of one character each")
    check.add_argument("--alphabet-size", type=int, metavar="M", help="allow at most M distinct symbols per line; more is an error")
    check.add_argument("--explain", action="store_true", help="attach a transposition witness to NONUNIQUE lines")
    check.add_argument("--json", action="store_true", help="one JSON object per line")

    trails = sub.add_parser("trails", help="list all Eulerian trails of a sequence's graph")
    trails.add_argument("sequence", help="the defining sequence")
    trails.add_argument("--tokens", action="store_true")
    trails.add_argument("--limit", type=int, metavar="N", help="stop after N trails")

    mfw = sub.add_parser("mfw", help="emit minimal forbidden words")
    mfw.add_argument("--alphabet-size", type=int, required=True, metavar="M")
    mfw.add_argument("--max-len", type=int, required=True, metavar="L")
    mfw.add_argument("--method", choices=("constructive", "brute", "both"), default="both")

    cross = sub.add_parser("crosscheck", help="exhaustively cross-validate all classifiers")
    cross.add_argument("--alphabet-size", type=int, required=True, metavar="M")
    cross.add_argument("--max-len", type=int, required=True, metavar="L")
    cross.add_argument("--grammar", choices=("strict", "amended"), default="amended",
                       help="list the completeness gaps of this grammar variant in detail")
    return parser


def _open_input(path: str):
    """The input as a text stream in which undecodable bytes become lone
    surrogates, so ``check`` can reject them with a line number."""
    if path == "-":
        if hasattr(sys.stdin, "reconfigure"):
            sys.stdin.reconfigure(errors="surrogateescape")
        return contextlib.nullcontext(sys.stdin)
    return open(path, encoding="utf-8", errors="surrogateescape")


def _lines(stream):
    """The stream's lines one at a time, split as ``str.splitlines`` splits
    the whole text: each chunk the stream yields ends at a ``\n``, so no
    line ending straddles two chunks.  A U+FEFF that starts the input is a
    byte-order mark, not a symbol; anywhere else it is a symbol."""
    chunks = iter(stream)
    for chunk in itertools.chain([next(chunks, "").removeprefix("\ufeff")], chunks):
        yield from chunk.splitlines()


def _witness(trail, rejected_at: int, names: tuple[str, ...], tokens: bool) -> dict:
    """A proper site of the shortest rejected prefix, shown on the whole line."""
    site = find_proper_site(trail[:rejected_at])
    i, p, j, q = site
    data = {"site": f"one_anchor({i},{j},{q})" if p == j else f"two_anchors({i},{p},{j},{q})"}
    for key, part in segments(trail, site).items():
        data[key] = render(names, part, tokens)
    data["alt"] = render(names, apply_transposition(trail, site), tokens)
    return data


def cmd_check(args) -> int:
    if args.alphabet_size is not None and args.alphabet_size < 1:
        return _usage_error("--alphabet-size must be at least 1")
    try:
        source = _open_input(args.path)
    except OSError as exc:
        return _usage_error(str(exc))
    if args.json:
        import json  # only here, so that plain output starts without it
    with source as stream:
        for lineno, raw in enumerate(_lines(stream), start=1):
            try:
                raw.encode()
            except UnicodeEncodeError:
                return _usage_error(f"line {lineno}: undecodable bytes")
            try:
                trail, names = parse_trail(raw.strip(), tokens=args.tokens)
                if args.alphabet_size is not None and len(names) > args.alphabet_size:
                    raise TrailParseError(
                        f"{len(names)} distinct symbols exceed --alphabet-size {args.alphabet_size}"
                    )
            except TrailParseError as exc:
                return _usage_error(f"line {lineno}: {exc}")
            # the automaton runs over the line's own symbols, so the
            # verdict, the rejection and the witness are the same at any
            # --alphabet-size
            verdict = run(trail, len(names))
            report = {
                "index": lineno - 1,
                "verdict": "UNIQUE" if verdict.accepted else "NONUNIQUE",
                "first_rejection": verdict.first_rejection,
            }
            if args.explain and not verdict.accepted:
                report["witness"] = _witness(trail, verdict.first_rejection, names, args.tokens)
            if args.json:
                print(json.dumps(report), flush=True)
            else:
                fields = [
                    str(report["index"]),
                    report["verdict"],
                    "-" if report["first_rejection"] is None else str(report["first_rejection"]),
                ]
                if "witness" in report:
                    fields += [f"{key}={value}" for key, value in report["witness"].items()]
                print("\t".join(fields), flush=True)
    return EXIT_OK


def cmd_trails(args) -> int:
    if args.limit is not None and args.limit < 1:
        return _usage_error("--limit must be at least 1")
    try:
        trail, names = parse_trail(args.sequence.strip(), tokens=args.tokens)
        trails = enumerate_trails(trail)  # checks the trail before the search
    except ValueError as exc:
        return _usage_error(str(exc))
    for found in itertools.islice(trails, args.limit):
        print(render(names, found, args.tokens), flush=True)
    return EXIT_OK


def cmd_mfw(args) -> int:
    if args.alphabet_size < 1:
        return _usage_error("--alphabet-size must be at least 1")
    if args.max_len < 0:
        return _usage_error("--max-len must be non-negative")
    try:
        names = chars_alphabet(args.alphabet_size)
    except ValueError as exc:
        return _usage_error(str(exc))
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
                print(f"only-constructive\t{render(names, word)}")
            for word in only_scanned:
                print(f"only-brute\t{render(names, word)}")
            return EXIT_MISMATCH
        words = built
    for word in words:
        print(render(names, word))
    return EXIT_OK


def cmd_crosscheck(args) -> int:
    if args.alphabet_size < 1:
        return _usage_error("--alphabet-size must be at least 1")
    if args.max_len < 0:
        return _usage_error("--max-len must be non-negative")
    report = cross_validate(args.alphabet_size, args.max_len)
    try:
        names, tokens = chars_alphabet(args.alphabet_size), False
    except ValueError:
        # more symbols than single-character names: show the ids as tokens
        names, tokens = tuple(map(str, range(args.alphabet_size))), True
    print(f"checked {report.checked} strings over alphabet size {report.alphabet_size}, lengths 1..{report.max_len}")
    if report.disagreements:
        print(f"four-way agreement: FAILED ({len(report.disagreements)} disagreements)")
        for word, verdicts in report.disagreements[:_GAPS_SHOWN]:
            detail = " ".join(f"{name}={value}" for name, value in verdicts.items())
            print(f"  disagree {render(names, word, tokens)}: {detail}")
    else:
        print("four-way agreement: ok")
    if report.strict_unsound:
        print(f"strict grammar soundness: FAILED ({len(report.strict_unsound)} violations)")
        for word in report.strict_unsound[:_GAPS_SHOWN]:
            print(f"  unsound {render(names, word, tokens)}")
    else:
        print("strict grammar soundness: ok")
    print(f"strict grammar completeness gaps: {len(report.strict_gaps)}")
    if args.grammar == "strict":
        for word in report.strict_gaps[:_GAPS_SHOWN]:
            print(f"  gap {render(names, word, tokens)}")
        if len(report.strict_gaps) > _GAPS_SHOWN:
            print(f"  ... {len(report.strict_gaps) - _GAPS_SHOWN} more")
    elif report.strict_gaps:
        print("  (rerun with --grammar strict to list them)")
    timing = " ".join(f"{name}={seconds:.2f}s" for name, seconds in report.timings.items())
    print(f"timing: {timing}", file=sys.stderr)
    # Strict-grammar gaps are reported, not asserted away; only four-way
    # disagreement and strict unsoundness are failures.
    failed = bool(report.disagreements or report.strict_unsound)
    return EXIT_MISMATCH if failed else EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "check": cmd_check,
        "trails": cmd_trails,
        "mfw": cmd_mfw,
        "crosscheck": cmd_crosscheck,
    }[args.command]
    return handler(args)


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early, as `| head` does; Python flushes
        # stdout again at exit, so point it at devnull first
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_PIPE
    sys.exit(code)


if __name__ == "__main__":
    entry()
