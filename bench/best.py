"""Reference answers computed apart from the program under test.

``count_trails`` counts the distinct Eulerian trails that start at
``seq[0]`` in the multigraph ``seq`` induces (its consecutive pairs, with
multiplicity), by the BEST theorem (van Aardenne-Ehrenfest & de Bruijn
1951; Smith & Tutte 1941) in exact integers:

* add the closing arc ``seq[-1] -> seq[0]``, which makes the graph
  Eulerian; its circuits, cut at that arc, are the trails of ``seq``'s
  graph with every arc labelled;
* circuits = arborescences(root) * prod over vertices of (outdeg - 1)!,
  the arborescences counted as a Laplacian minor (Bareiss determinant);
* divide out the labellings of parallel arcs, prod of mult!.

A sequence is the unique trail of its graph exactly when the count is 1.
Nothing here imports the program.
"""

from collections import Counter
from math import factorial, prod


def bareiss_det(rows: list[list[int]]) -> int:
    """Exact determinant of a square integer matrix, fraction-free."""
    rows = [list(r) for r in rows]
    sign, prev = 1, 1
    while len(rows) > 1:
        pick = next((i for i, r in enumerate(rows) if r[0]), None)
        if pick is None:
            return 0
        if pick:
            rows[0], rows[pick] = rows[pick], rows[0]
            sign = -sign
        top = rows[0]
        pivot = top[0]
        rest = top[1:]
        rows = [[(pivot * a - r[0] * b) // prev for a, b in zip(r[1:], rest)] for r in rows[1:]]
        prev = pivot
    return sign * rows[0][0] if rows else 1


def count_trails(seq) -> int:
    """Distinct Eulerian trails from ``seq[0]`` of the graph ``seq`` induces."""
    if len(seq) <= 1:
        return 1
    arcs = Counter(zip(seq, seq[1:]))
    closed = arcs.copy()
    closed[(seq[-1], seq[0])] += 1
    index = {v: i for i, v in enumerate(dict.fromkeys(seq))}
    n = len(index)
    outdeg = [0] * n
    laplacian = [[0] * n for _ in range(n)]
    for (u, v), k in closed.items():
        iu, iv = index[u], index[v]
        outdeg[iu] += k
        if iu != iv:
            laplacian[iu][iu] += k
            laplacian[iu][iv] -= k
    trees = bareiss_det([row[1:] for row in laplacian[1:]])
    circuits = trees * prod(factorial(d - 1) for d in outdeg)
    labellings = prod(factorial(k) for k in arcs.values())
    count, rest = divmod(circuits, labellings)
    if rest:
        raise ArithmeticError(f"BEST count {circuits}/{labellings} is not whole")
    return count


def binary_mfw(max_len: int) -> set[str]:
    """Closed form of the binary minimal forbidden words up to max_len:
    0 0 1..1 0, 0 1..1 0 0 and their 0/1 swaps."""
    words = set()
    for n in range(4, max_len + 1):
        for c, d in (("0", "1"), ("1", "0")):
            words.add(c + c + d * (n - 3) + c)
            words.add(c + d * (n - 3) + c + c)
    return words
