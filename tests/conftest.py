import contextlib
import itertools
import signal


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
    test instead of hanging it."""
    def out_of_time(signum, frame):
        raise TimeoutError(f"more than {seconds} s of CPU time")

    previous = signal.signal(signal.SIGPROF, out_of_time)
    signal.setitimer(signal.ITIMER_PROF, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, previous)
