"""Acceptance battery: every release criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
The heavyweight exhaustive sweeps are shared through module fixtures.
"""

import functools
import random
import time

import pytest

from unitrail.automaton import run
from unitrail.cli import main
from unitrail.harness import cross_validate
from unitrail.mfw import brute_mfw, constructive_mfw
from unitrail.oracle import enumerate_trails
from unitrail.transposition import TranspositionSite, apply_transposition, has_proper_transposition

from conftest import all_strings, matches_binary_mfw
from reference import all_sites, is_proper, properize

UNIVERSES = ((2, 12), (3, 9), (4, 7))
EXPECTED_COUNTS = {2: 8190, 3: 29523, 4: 21844}


def criterion(number, summary):
    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number}: FAIL - {summary}")
                raise
            print(f"criterion {number}: PASS - {summary}")

        return inner

    return wrap


@pytest.fixture(scope="module")
def sweeps():
    begin = time.perf_counter()
    reports = {size: cross_validate(size, max_len) for size, max_len in UNIVERSES}
    return reports, time.perf_counter() - begin


@pytest.fixture(scope="module")
def m2_verdicts():
    return {word: run(word, 2) for word in all_strings(2, 12)}


@criterion(1, "binary minimal forbidden words match the closed form, 36 words, under 5s")
def test_criterion_1_binary_mfw():
    begin = time.perf_counter()
    built = constructive_mfw(2, 12)
    scanned = brute_mfw(2, 12)
    from_pattern = sorted(w for w in all_strings(2, 12) if matches_binary_mfw(w))
    elapsed = time.perf_counter() - begin
    assert built == scanned == from_pattern
    assert len(built) == 36
    for length in range(4, 13):
        assert sum(len(w) == length for w in built) == 4
    assert elapsed <= 5.0, f"took {elapsed:.1f}s"


@criterion(2, "automaton, oracle, scan, and amended grammar agree on 59,557 strings, under 2min")
def test_criterion_2_four_way_agreement(sweeps):
    reports, elapsed = sweeps
    for size, _ in UNIVERSES:
        report = reports[size]
        assert report.checked == EXPECTED_COUNTS[size]
        assert report.disagreements == [], report.disagreements[:5]
    assert elapsed <= 120.0, f"took {elapsed:.1f}s"


@criterion(3, "strict grammar is sound everywhere and its m=3 gap names 01020")
def test_criterion_3_strict_grammar_audit(sweeps, capsys):
    reports, _ = sweeps
    for size, _ in UNIVERSES:
        assert reports[size].strict_unsound == [], reports[size].strict_unsound[:5]
    gaps = reports[3].strict_gaps
    assert gaps, "expected completeness gaps for the strict grammar"
    assert (0, 1, 0, 2, 0) in gaps
    # the CLI gap report prints the concrete strings
    code = main(["crosscheck", "--alphabet-size", "3", "--max-len", "5", "--grammar", "strict"])
    out = capsys.readouterr().out
    assert code == 0
    assert "  gap 01020" in out.splitlines()


@criterion(4, "every non-identity transposition properizes with an identical image")
def test_criterion_4_properize():
    sites_seen = 0
    shifts = 0
    for trail in all_strings(3, 8, min_len=3):
        for site in all_sites(trail):
            image = apply_transposition(trail, site)
            if image == trail:
                continue
            sites_seen += 1
            proper = properize(trail, site)
            assert is_proper(trail, proper), (trail, site)
            assert apply_transposition(trail, proper) == image, (trail, site)
            shifts += proper.i - site.i
    print(f"  properize: {sites_seen} sites, {shifts} shifts", end=" ")


@criterion(5, "rejection points match the direct scan and the first completed forbidden factor")
def test_criterion_5_streaming_immediacy(m2_verdicts):
    forbidden = set(constructive_mfw(2, 12))
    for word, verdict in m2_verdicts.items():
        n = len(word)
        scan_cut = next(
            (cut for cut in range(1, n + 1) if has_proper_transposition(word[:cut])), None
        )
        factor_cut = next(
            (
                stop
                for stop in range(1, n + 1)
                if any(word[start:stop] in forbidden for start in range(stop))
            ),
            None,
        )
        assert verdict.first_rejection == scan_cut == factor_cut, word


@criterion(6, "the accepted language is factorial and reversal-closed")
def test_criterion_6_closure(m2_verdicts):
    # exhaustive binary universe; suffix acceptance covers all factors since
    # an accepted run has no rejected prefix
    accepted = {word for word, verdict in m2_verdicts.items() if verdict.accepted}
    for word, verdict in m2_verdicts.items():
        assert verdict.accepted == m2_verdicts[word[::-1]].accepted, word
        if verdict.accepted:
            for start in range(1, len(word)):
                assert word[start:] in accepted, (word, start)
    # randomized five-symbol universe
    rng = random.Random(0x5EED)
    for _ in range(10_000):
        word = tuple(rng.randrange(5) for _ in range(rng.randint(0, 40)))
        verdict = run(word, 5)
        assert verdict.accepted == run(word[::-1], 5).accepted, word
        if verdict.accepted:
            for start in range(1, len(word)):
                assert run(word[start:], 5).accepted, (word, start)


@criterion(7, "the alternating two-symbol cycle is unique and its swap is improper")
def test_criterion_7_worked_example():
    word = (0, 1, 0, 1, 0, 1)
    assert run(word, 2).accepted
    # decomposition u=v=y=z=empty, x = the middle 'ba': anchors at 0/4 and 3/5
    site = TranspositionSite(0, 3, 4, 5)
    assert apply_transposition(word, site) == word
    assert not is_proper(word, site)
    assert list(enumerate_trails(word)) == [word]
