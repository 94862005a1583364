"""Fixed reference load: a pure-Python process that never changes.

``run.py`` starts it next to every measured command and reports command
times relative to it, which cancels the drift in this machine's speed (see
README.md).  Its mix of work (string splitting, dict and list traffic,
tuple slicing, small function calls) resembles the program's.
"""

ROUNDS = 12
N = 12000


def _sequence(n, seed=12345):
    x, out = seed, []
    for _ in range(n):
        x = (1103515245 * x + 12345) & 0x7FFFFFFF
        out.append(str(x % 97))
    return " ".join(out)


def _step(table, prev, symbol):
    if table.get(prev, symbol) != symbol:
        return 1
    table[prev] = symbol
    return 0


def main() -> int:
    text = _sequence(N)
    total = 0
    for _ in range(ROUNDS):
        ids: dict[str, int] = {}
        seq = tuple(ids.setdefault(tok, len(ids)) for tok in text.split())
        table: dict[int, int] = {}
        pairs: dict[tuple[int, int], int] = {}
        prev = -1
        for symbol in seq:
            total += _step(table, prev, symbol)
            pairs[(prev, symbol)] = pairs.get((prev, symbol), 0) + 1
            prev = symbol
        total += len(seq[1:]) + len(pairs)
    return total


if __name__ == "__main__":
    main()
