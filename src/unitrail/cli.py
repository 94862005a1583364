"""Command-line interface: check, trails, mfw, crosscheck.

Exit codes: 0 for success (including NONUNIQUE verdicts), 2 when two
classifiers that must agree do not, 64 for usage or input parse errors.
All stdout output is deterministic for a given input and flag set; the
crosscheck timing summary goes to stderr.
"""

import argparse
import contextlib
import json
import sys

from .automaton import run
from .core import Alphabet, TrailParseError, chars_alphabet, induced_graph, parse_trail
from .harness import cross_validate
from .mfw import brute_mfw, constructive_mfw
from .oracle import enumerate_trails
from .transposition import TwoAnchors, apply_transposition, find_proper_site, segments

EXIT_OK = 0
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
    check.add_argument("--alphabet-size", type=int, metavar="M", help="pad the vertex set to M; more than M distinct symbols is an error")
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
    line ending straddles two chunks."""
    for chunk in stream:
        yield from chunk.splitlines()


def _witness(trail, alphabet: Alphabet, tokens: bool) -> dict:
    site = find_proper_site(trail)
    parts = segments(trail, site)
    if isinstance(site, TwoAnchors):
        label = f"two_anchors({site.i},{site.p},{site.j},{site.q})"
        keys = ("u", "a", "x", "b", "z", "y", "v")
    else:
        label = f"one_anchor({site.i},{site.j},{site.k})"
        keys = ("u", "a", "x", "y", "v")
    data = {"site": label}
    for key in keys:
        data[key] = alphabet.render(parts[key], tokens)
    data["alt"] = alphabet.render(apply_transposition(trail, site), tokens)
    return data


def cmd_check(args) -> int:
    if args.alphabet_size is not None and args.alphabet_size < 1:
        return _usage_error("--alphabet-size must be at least 1")
    try:
        source = _open_input(args.path)
    except OSError as exc:
        return _usage_error(str(exc))
    with source as stream:
        for lineno, raw in enumerate(_lines(stream), start=1):
            try:
                raw.encode()
            except UnicodeEncodeError:
                return _usage_error(f"line {lineno}: undecodable bytes")
            try:
                trail, alphabet = parse_trail(raw.strip(), tokens=args.tokens)
                size = alphabet.size
                if args.alphabet_size is not None:
                    if size > args.alphabet_size:
                        raise TrailParseError(
                            f"{size} distinct symbols exceed --alphabet-size {args.alphabet_size}"
                        )
                    size = args.alphabet_size
            except TrailParseError as exc:
                return _usage_error(f"line {lineno}: {exc}")
            verdict = run(trail, size)
            report = {
                "index": lineno - 1,
                "verdict": "UNIQUE" if verdict.accepted else "NONUNIQUE",
                "first_rejection": verdict.first_rejection,
            }
            if args.explain and not verdict.accepted:
                report["witness"] = _witness(trail, alphabet, args.tokens)
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
        trail, alphabet = parse_trail(args.sequence.strip(), tokens=args.tokens)
    except TrailParseError as exc:
        return _usage_error(str(exc))
    if not trail:
        return _usage_error("empty input sequence")
    graph = induced_graph(trail, alphabet.size)
    for found in enumerate_trails(graph, trail[0], limit=args.limit):
        print(alphabet.render(found, args.tokens))
    return EXIT_OK


def cmd_mfw(args) -> int:
    if args.alphabet_size < 1:
        return _usage_error("--alphabet-size must be at least 1")
    if args.max_len < 0:
        return _usage_error("--max-len must be non-negative")
    try:
        alphabet = chars_alphabet(args.alphabet_size)
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
                print(f"only-constructive\t{alphabet.render(word)}")
            for word in only_scanned:
                print(f"only-brute\t{alphabet.render(word)}")
            return EXIT_MISMATCH
        words = built
    for word in words:
        print(alphabet.render(word))
    return EXIT_OK


def cmd_crosscheck(args) -> int:
    if args.alphabet_size < 1:
        return _usage_error("--alphabet-size must be at least 1")
    if args.max_len < 0:
        return _usage_error("--max-len must be non-negative")
    report = cross_validate(args.alphabet_size, args.max_len)
    try:
        render = chars_alphabet(args.alphabet_size).render
    except ValueError:
        def render(word):
            return " ".join(str(s) for s in word)
    print(f"checked {report.checked} strings over alphabet size {report.alphabet_size}, lengths 1..{report.max_len}")
    if report.disagreements:
        print(f"four-way agreement: FAILED ({len(report.disagreements)} disagreements)")
        for word, verdicts in report.disagreements[:_GAPS_SHOWN]:
            detail = " ".join(f"{name}={value}" for name, value in verdicts.items())
            print(f"  disagree {render(word)}: {detail}")
    else:
        print("four-way agreement: ok")
    if report.strict_unsound:
        print(f"strict grammar soundness: FAILED ({len(report.strict_unsound)} violations)")
        for word in report.strict_unsound[:_GAPS_SHOWN]:
            print(f"  unsound {render(word)}")
    else:
        print("strict grammar soundness: ok")
    print(f"strict grammar completeness gaps: {len(report.strict_gaps)}")
    if args.grammar == "strict":
        for word in report.strict_gaps[:_GAPS_SHOWN]:
            print(f"  gap {render(word)}")
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
    sys.exit(main())


if __name__ == "__main__":
    entry()
