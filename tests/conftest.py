from itertools import combinations
from math import gcd

import pytest


def _det(sq):
    n = len(sq)
    if n == 1:
        return sq[0][0]
    tot = 0
    for j in range(n):
        if sq[0][j]:
            sub = [row[:j] + row[j + 1:] for row in sq[1:]]
            tot += (-1) ** j * sq[0][j] * _det(sub)
    return tot


def _minor_divisors(rows):
    # d1...dk with d1...di = gcd of all i x i minors
    m = len(rows)
    n = len(rows[0]) if m else 0
    prev = 1
    out = []
    for k in range(1, min(m, n) + 1):
        g = 0
        for rs in combinations(range(m), k):
            for cs in combinations(range(n), k):
                sub = [[rows[i][j] for j in cs] for i in rs]
                g = gcd(g, _det(sub))
        if g == 0:
            break
        out.append(g // prev)
        prev = g
    return out


@pytest.fixture
def minor_divisors():
    """The invariant factors of a list of integer rows from its minors:
    an oracle independent of every elimination in hodgelab."""
    return _minor_divisors
