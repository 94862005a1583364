import contextlib
import itertools
import random
import signal

import pytest

from unitrail.automaton import run
from unitrail.grammar import build_grammar_nfa, nfa_accepts
from unitrail.oracle import is_unique_trail
from unitrail.transposition import find_proper_site, has_proper_transposition

from reference import assert_witness_fits, sample_trail


def all_strings(size, max_len, min_len=1):
    """Every tuple over 0..size-1 with min_len <= length <= max_len."""
    for length in range(min_len, max_len + 1):
        yield from itertools.product(range(size), repeat=length)


def unique_walk(rng, length):
    """A walk that is the unique trail of its graph: it goes round cycles
    of fresh vertices, each a few times, and leaves each part way round by
    a new arc to a fresh vertex, never to come back."""
    fresh = itertools.count(1)
    walk = [0]
    while len(walk) < length:
        cycle = [walk[-1]] + [next(fresh) for _ in range(rng.randint(0, 11))]
        walk += (cycle[1:] + cycle[:1]) * rng.randint(1, 6) + cycle[1 : rng.randrange(len(cycle)) + 1]
        walk.append(next(fresh))
    return tuple(walk[:length])


def nested_branches(k):
    """``a1 x1 .. ak xk F ak yk .. a1 y1``, where ``F`` is 2k fresh symbols
    and every ``x`` and ``y`` is fresh too, so the trail is unique.  Each
    ``ai yi`` leaves ``ai`` towards another follower than ``xi``, so its
    marks reach back past those of every branch before it."""
    anchors, xs, ys = range(k), range(k, 2 * k), range(4 * k, 5 * k)
    head = [symbol for pair in zip(anchors, xs) for symbol in pair]
    tail = [symbol for pair in zip(anchors[::-1], ys[::-1]) for symbol in pair]
    return tuple(head) + tuple(range(2 * k, 4 * k)) + tuple(tail)


def doubled_trail(m):
    """``0 0 1 1 .. (m-1) (m-1)``: a loop at each vertex, then on to the
    next, so the trail is unique."""
    return tuple(vertex for vertex in range(m) for _ in (0, 1))


def random_trails(rng, count, max_len):
    """``count`` trails of 5 to ``max_len`` symbols over 2 to 40 symbols."""
    return [tuple(rng.randrange(size) for _ in range(rng.randint(5, max_len)))
            for size in (rng.randint(2, 40) for _ in range(count))]


@pytest.fixture(scope="session")
def long_trails():
    """The long-trail corpus: ``(shapes, randoms, returns, spread)``.

    ``shapes`` maps each named shape to the first rejection the automaton
    must give it, ``None`` for a unique trail: the doubled trail at
    m=1,000 and its reverse, the nested shape at k=100, 200 and 500,
    1,024 vertices gone round to 10,000 symbols, the star ``0 1 0 2 .. 0
    1000``, and seven unique walks of 100 to 2,000 symbols, each also
    with its first symbol appended.  Such a walk could make its first
    cycle's laps after the return instead, so only its last symbol is
    rejected.  ``randoms`` holds 220 random trails of up to 400 or 2,000
    symbols over 2 to 40 symbols.

    ``returns`` holds 100 unique walks of 200 to 2,000 symbols, each
    returning into a vertex of its first half: each is rejected at that
    last symbol.  ``spread`` holds 2,000 random trails whose lengths
    spread evenly on a log scale up to 3,000 symbols, half of them over
    up to 4,000 symbols, so that the first rejection can come hundreds of
    symbols in.
    """
    # the grammars' and the oracle's long-trail checks each drew from a
    # fresh generator with this seed, and their inputs stay as drawn
    rng = random.Random(2005)
    randoms = random_trails(rng, 150, 400)
    walks = [unique_walk(rng, length) for length in (100, 250, 500, 1000, 2000, 2000)]
    randoms += random_trails(rng, 50, 2000)
    rng = random.Random(2005)
    walks.append(unique_walk(rng, 100))
    randoms += random_trails(rng, 20, 400)
    shapes = dict.fromkeys([doubled_trail(1000), doubled_trail(1000)[::-1], *map(nested_branches, (100, 200, 500)),
                            tuple(itertools.islice(itertools.cycle(range(1024)), 10_000)), *walks])
    shapes[tuple(symbol for leaf in range(1, 1001) for symbol in (0, leaf))] = 5
    shapes.update((walk + walk[:1], len(walk) + 1) for walk in walks)

    rng = random.Random(4028)
    walks = (unique_walk(rng, rng.randint(200, 2000)) for _ in range(100))
    returns = [walk + (rng.choice(walk[: len(walk) // 2]),) for walk in walks]
    rng = random.Random(20051)
    spread = [tuple(rng.choices(range(rng.randint(1, 4000 if trial % 2 else 40)), k=round(3000 ** rng.random())))
              for trial in range(2000)]
    return shapes, randoms, returns, spread


def check_long_trail(trail, named, rng=None):
    """Hold one trail of the long-trail corpus to the four classifiers and
    return the automaton's first rejection, ``None`` for a unique trail.

    The oracle, the scan and the amended grammar call the trail
    non-unique exactly when the automaton rejects it, each first on the
    prefix r the automaton first rejects, which the witness fits, and the
    strict grammar accepts no trail the automaton accepts.  The oracle,
    under 1 s of CPU, confirms a rejection on prefixes r-1 and r, and a
    unique verdict on the whole trail if it is ``named`` or of at most
    400 symbols (a sparse random one of 2,500 takes about 0.25 s).  Given
    ``rng``, the oracle also runs whole on a rejected trail, and every
    verdict holds on the reversed trail, a relabelled one, and a
    resampled one up to 2,000 symbols, which a unique trail must equal
    (Wilson's walk is quadratic on the nested shape).
    """
    size = max(trail) + 1
    amended, strict = build_grammar_nfa(size, "amended"), build_grammar_nfa(size, "strict")
    r = run(trail, size).first_rejection
    # the words that share the trail's verdict: itself, its prefix r if
    # shorter, and given rng the three variants
    alike = [trail] if r in (None, len(trail)) else [trail, trail[:r]]
    if rng is not None:
        labels = rng.sample(range(size), size)
        alike += [trail[::-1], tuple(labels[symbol] for symbol in trail)]
        if len(trail) <= 2000:
            alike.append(sample_trail(trail, rng))
            assert alike[-1] == trail or r is not None, trail
    for other in alike:
        assert run(other, size).accepted == (r is None), other
        assert has_proper_transposition(other) == nfa_accepts(amended, other) == (r is not None), other
        assert not (r is None and nfa_accepts(strict, other)), other
    with cpu_bound(1):
        if (named or len(trail) <= 400) and (rng is not None or r is None):
            assert is_unique_trail(trail) == (r is None), trail
        if r is not None:
            assert is_unique_trail(trail[: r - 1]) and not is_unique_trail(trail[:r]), trail
    if r is None:
        assert find_proper_site(trail) is None, trail
        return r
    assert_witness_fits(trail, find_proper_site(trail), r)
    assert not has_proper_transposition(trail[: r - 1]) and not nfa_accepts(amended, trail[: r - 1]), trail
    return r


def matches_binary_mfw(trail):
    """Membership in the four binary families, checked by direct scan."""
    for symbol in trail:
        if symbol not in (0, 1):
            raise ValueError(f"symbol {symbol} is not binary")
    n = len(trail)
    if n < 4:
        return False
    for c in (0, 1):
        run_part = (1 - c,) * (n - 3)
        if trail == (c, c) + run_part + (c,):
            return True
        if trail == (c,) + run_part + (c, c):
            return True
    return False


@contextlib.contextmanager
def cpu_bound(seconds):
    """Raise ``TimeoutError`` in the body once the process has spent
    ``seconds`` of CPU time in it, so a search that runs away fails the
    test instead of hanging it.

    The signal handler raises wherever the body happens to be, and on
    CPython 3.11 such a traceback can hold an entry with no line number,
    which pytest cannot report.  So the error is raised again from here,
    naming the function the signal interrupted."""
    def out_of_time(signum, frame):
        raise TimeoutError(f"more than {seconds} s of CPU time, in {frame.f_code.co_name}")

    previous = signal.signal(signal.SIGPROF, out_of_time)
    signal.setitimer(signal.ITIMER_PROF, seconds)
    try:
        yield
    except TimeoutError as error:
        raise TimeoutError(*error.args) from None
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, previous)
