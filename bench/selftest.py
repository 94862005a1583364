"""Self-tests of the benchmark's own code; they never touch the program.

    python3 bench/selftest.py

* The BEST count agrees with plain enumeration on every string over three
  symbols up to length 8, and with the closed forms of doubled trails and
  repeated cycles.
* Over two symbols, the words that count more than 1 while both maximal
  proper factors count 1 are exactly the closed-form families
  0 0 1..1 0, 0 1..1 0 0 and their 0/1 swaps.
* The corpus generators are deterministic for a seed, differ between
  seeds, and keep the line shapes and sizes fixed.
* The output checks reject a wrong verdict and a bad witness.
"""

import itertools
import sys
from collections import Counter

import corpus
import run
from best import binary_mfw, count_trails


def brute_count(seq) -> int:
    """The count of ``best.count_trails`` by plain enumeration."""
    if len(seq) <= 1:
        return 1
    left = Counter(zip(seq, seq[1:]))
    out: dict = {}
    for u, v in sorted(left):
        out.setdefault(u, []).append(v)

    def walk(vertex, remaining):
        if not remaining:
            return 1
        total = 0
        for nxt in out.get(vertex, ()):
            if left[(vertex, nxt)]:
                left[(vertex, nxt)] -= 1
                total += walk(nxt, remaining - 1)
                left[(vertex, nxt)] += 1
        return total

    return walk(seq[0], len(seq) - 1)


def test_best_matches_enumeration():
    for length in range(1, 9):
        for word in itertools.product(range(3), repeat=length):
            assert count_trails(word) == brute_count(word), word


def test_closed_forms():
    for m in range(1, 40):
        assert count_trails([v for v in range(m) for _ in (0, 1)]) == 1
        # the reversed doubled trail (m-1)(m-1) .. 1 1 0 0 is unique too
        assert count_trails([v for v in range(m - 1, -1, -1) for _ in (0, 1)]) == 1
    for k in range(1, 12):
        for n in range(1, 5 * k):
            assert count_trails((list(range(k)) * 5)[:n]) == 1


def test_binary_mfw_closed_form():
    for n in range(1, 13):
        found = {
            "".join(map(str, w))
            for w in itertools.product(range(2), repeat=n)
            if count_trails(w) > 1 and count_trails(w[1:]) == 1 and count_trails(w[:-1]) == 1
        }
        assert found == {w for w in binary_mfw(n) if len(w) == n}, n


def test_corpora_deterministic():
    for workload, make in corpus.CORPORA.items():
        one, again, other = make(1), make(1), make(2)
        assert one == again, workload
        assert one != other, workload
        assert len(one) == len(other), workload
    one, other = corpus.stream_corpus(1), corpus.stream_corpus(2)
    assert sorted(len(line) for line, _ in one) == sorted(len(line) for line, _ in other)
    explain = [[len(line) for line, _ in corpus.explain_corpus(seed)] for seed in (1, 2)]
    assert explain[0] == explain[1]
    for items in (one, other):
        line, answer = items[0]
        assert len(line) == corpus.REJECT_LENGTHS[0] and answer["verdict"] == "NONUNIQUE"


def test_checks_reject_wrong_output():
    line = "a a b a".split()
    good = "0\tNONUNIQUE\t4\tsite=one_anchor(0,1,3)\tu=\ta=a\tx=\ty=b\tv=\talt=a b a a"
    want = [{"verdict": "NONUNIQUE", "first_rejection": 4}]
    assert run.verify_check(good, [line], want, explain=True) is None
    assert run.verify_check(good.replace("\t4\t", "\t3\t"), [line], want, explain=True)
    assert run.verify_check(good.replace("alt=a b a a", "alt=a a b a"), [line], want, explain=True)
    assert run.verify_check(good.replace("alt=a b a a", "alt=a b b a"), [line], want, explain=True)
    assert run.verify_check(good.replace("y=b", "y=a"), [line], want, explain=True)
    assert run.verify_mfw("0010\n0100\n") is not None  # incomplete at L=14
    assert run.verify_mfw("0110\n") is not None


def main() -> int:
    tests = [(name, fn) for name, fn in globals().items() if name.startswith("test_")]
    failed = 0
    for name, fn in tests:
        try:
            fn()
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {name}: {exc}")
        else:
            print(f"ok   {name}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
