"""Seeded corpora for the two ``check`` workloads, with expected answers.

Every line is a whitespace-separated token sequence (``check --tokens``).
The shapes and sizes of the lines are fixed, so that every seed asks for
nearly the same amount of work.  For check-stream the seed draws token
names, cycle lengths, repetition counts, rejection points and line order;
for check-explain, whose cost hangs on the order of a line's blocks, only
token names.  Expected answers come
from closed forms or from the BEST count in ``best.py``, never from the
program.

Regenerate a corpus and its answers:

    python3 bench/corpus.py --workload check-stream --seed 7
"""

import argparse
import json
import random
from pathlib import Path

from best import count_trails

OUT = Path(__file__).resolve().parent / "out"

# check-stream: the adversarial doubled trail 0 0 1 1 .. (m-1)(m-1) ...
DOUBLED_M = (1000, 2000, 4000, 8000)
# ... one cycle over k tokens repeated to the given length ...
CYCLE_TOKENS = (16, 64, 256, 1024)
CYCLE_LENGTHS = (2500, 5000, 7500, 10000)
# ... random unique walks (chains of repeated cycles) ...
WALK_LENGTHS = (2000, 4000, 6000, 8000)
# ... and NONUNIQUE lines that are rejected early and then run on.  The
# first line of the corpus is always the first of these, so the time to
# the first verdict has the same meaning under every seed.
REJECT_LENGTHS = (5000, 3000, 7000, 9000)
REJECT_AT = (20, 300)
TAIL_TOKENS = 64

# check-explain: NONUNIQUE lines made of repeated cycles of these lengths,
# each block about EXPLAIN_BLOCK_LEN symbols, then an exit path and a
# return, so the first proper transposition site lies near the end of the
# line.  Line j takes the blocks rotated by j places and carries
# EXPLAIN_TAILS[j] tokens after the rejection.  The witness search's time
# depends on the block order (0.09-0.17 s a line), so the order is fixed.
EXPLAIN_CYCLES = (3, 4, 5, 6, 8)
EXPLAIN_BLOCK_LEN = 40
EXPLAIN_EXIT = 4
EXPLAIN_TAILS = (0, 20, 0, 20)


class Names:
    """Fresh six-digit token names, drawn without replacement."""

    def __init__(self, rng: random.Random):
        self._pool = rng.sample(range(100000, 1000000), 20000)

    def __call__(self) -> str:
        return str(self._pool.pop())


def unique_walk(rng, length, fresh, block_len):
    """A random walk that is the unique trail of its graph.

    It is a chain of blocks.  A block goes round a cycle of fresh vertices
    through the current vertex a few times, stops part way round, and
    leaves by a new arc to a fresh vertex; the cycle can never be entered
    again.  Returns the walk and, for each block, the index of the fresh
    vertex it left to and the vertex it left from.
    """
    walk = [fresh()]
    exits = []
    while len(walk) < length:
        c = walk[-1]
        k = rng.randint(1, 12)
        cycle = [c] + [fresh() for _ in range(k - 1)]
        reps = max(1, round(block_len / k * rng.uniform(0.5, 1.5)))
        walk += (cycle[1:] + [c]) * reps
        walk += cycle[1 : rng.randrange(k) + 1]
        exits.append((len(walk), walk[-1]))
        walk.append(fresh())
    return walk[:length], exits


def _expect_unique(line):
    if count_trails(line) != 1:
        raise AssertionError("generated UNIQUE line counts more than one trail")
    return {"verdict": "UNIQUE", "first_rejection": None}


def _expect_rejected(line, k):
    """Check a stated first rejection k: prefix k-1 counts 1, prefix k more."""
    if count_trails(line[: k - 1]) != 1 or count_trails(line[:k]) <= 1:
        raise AssertionError(f"generated line is not first rejected at {k}")
    return {"verdict": "NONUNIQUE", "first_rejection": k}


def _rejected_line(rng, length):
    fresh = Names(rng)
    while True:
        k = rng.randint(*REJECT_AT)
        walk, exits = unique_walk(rng, k - 1, fresh, rng.randint(4, 16))
        dead = [v for at, v in exits if at < k - 1]
        if dead:
            break
    line = walk + [rng.choice(dead)]
    tail = [fresh() for _ in range(TAIL_TOKENS)]
    line += [rng.choice(tail) for _ in range(length - len(line))]
    return line, _expect_rejected(line, k)


def stream_corpus(seed: int):
    """Lines and expected answers for the check-stream workload."""
    rng = random.Random(f"check-stream/{seed}")
    items = []
    for m in DOUBLED_M:
        fresh = Names(rng)
        names = [fresh() for _ in range(m)]
        # Closed form: the doubled trail is unique (count 1).
        items.append(([v for v in names for _ in (0, 1)], {"verdict": "UNIQUE", "first_rejection": None}))
    for k, n in zip(CYCLE_TOKENS, rng.sample(CYCLE_LENGTHS, len(CYCLE_LENGTHS))):
        fresh = Names(rng)
        cycle = [fresh() for _ in range(k)]
        # Closed form: a cycle repeated, then cut anywhere, is unique.
        items.append(((cycle * (n // k + 1))[:n], {"verdict": "UNIQUE", "first_rejection": None}))
    for n in WALK_LENGTHS:
        walk, _ = unique_walk(rng, n, Names(rng), n // 10)
        items.append((walk, _expect_unique(walk)))
    first, *rest = REJECT_LENGTHS
    for n in rest:
        items.append(_rejected_line(rng, n))
    rng.shuffle(items)
    return [_rejected_line(rng, first)] + items


def explain_corpus(seed: int):
    """Lines and expected answers for the check-explain workload."""
    rng = random.Random(f"check-explain/{seed}")
    items = []
    for j, tail in enumerate(EXPLAIN_TAILS):
        fresh = Names(rng)
        line = []
        for k in EXPLAIN_CYCLES[j:] + EXPLAIN_CYCLES[:j]:
            cycle = [fresh() for _ in range(k)]
            line += cycle * round(EXPLAIN_BLOCK_LEN / k) + [cycle[0]]
        line += [fresh() for _ in range(EXPLAIN_EXIT)] + [cycle[0]]
        k = len(line)
        line += [fresh() for _ in range(tail)]
        items.append((line, _expect_rejected(line, k)))
    return items


CORPORA = {"check-stream": stream_corpus, "check-explain": explain_corpus}


def write_corpus(workload: str, seed: int):
    """Write ``out/<workload>-<seed>.txt`` and its ``.expected.json``;
    return the corpus path, the lines as token lists, and the expected
    answers."""
    items = CORPORA[workload](seed)
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"{workload}-{seed}.txt"
    path.write_text("".join(" ".join(line) + "\n" for line, _ in items), encoding="utf-8")
    expected = [answer for _, answer in items]
    path.with_suffix(".expected.json").write_text(json.dumps(expected, indent=1) + "\n", encoding="utf-8")
    return path, [line for line, _ in items], expected


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(CORPORA), required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    path, lines, _ = write_corpus(args.workload, args.seed)
    print(f"{path}: {len(lines)} lines, {sum(map(len, lines))} symbols")


if __name__ == "__main__":
    main()
