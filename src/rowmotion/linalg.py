"""Exact linear algebra over Q, all of it on integers: callers pass integer
rows (a statistic's cleared numerators, or rows scaled by a denominator).

One fraction-free kernel serves both solving and rank.  `factor` runs a
Bareiss elimination over an integer matrix that may have more rows than
columns: it reads rows in order, pivots each on its first nonzero column,
skips rows left at zero, and stops at n pivot rows, whose multipliers it
keeps.  The number of pivot rows is the rank; `det` is 0 when the columns
are dependent.  `Bareiss.replay` then turns any integer right-hand side into
det * x, the Cramer numerators, in O(n^2) with the same exact divisions.
Every certificate solve in `decompose`, over Q and over Q(q) specialized at
integers, runs on it, and so does every rank.
"""

from __future__ import annotations

from operator import mul
from typing import NamedTuple


class Bareiss(NamedTuple):
    """Bareiss factorization of the first independent rows, at most n, of an
    integer matrix with n columns: `rows` are their input indices, `lu` the
    rows after elimination with columns in pivot order (minors above the
    diagonal, multipliers below), `place[c]` the pivot position of input
    column c, and `det` the determinant of those rows in input order when
    there are n of them, else 0."""

    rows: tuple
    lu: tuple
    place: tuple
    det: int

    def replay(self, rhs):
        """det * x for the solution x of the pivot rows . x = rhs, with one
        integer of rhs per pivot row.  It repeats the elimination's exact
        divisions, so each entry is a Cramer numerator and an integer.
        Only a factorization with det != 0 replays."""
        lu, n = self.lu, len(self.lu)
        b = list(rhs)
        last = 1
        for k in range(n):
            piv, bk = lu[k][k], b[k]
            for i in range(k + 1, n):
                b[i] = (piv * b[i] - lu[i][k] * bk) // last
            last = piv
        y = [0] * n
        for k in range(n - 1, -1, -1):
            row = lu[k]
            acc = last * b[k] - sum(map(mul, row[k + 1:], y[k + 1:]))
            y[k] = acc // row[k]
        unit = self.det // last  # +-1, the sign of the column order
        return [unit * y[k] for k in self.place]


def factor(rows):
    """Fraction-free (Bareiss) elimination of integer rows of length n.

    Rows are read in order.  Each is eliminated against the pivot rows
    before it and kept, pivoting on its first nonzero column, unless nothing
    of it is left; reading stops at n pivot rows or at the last row.  Every
    division is exact, each entry being a minor of the input.
    """
    n = len(rows[0])
    cols = list(range(n))  # the input column at each pivot position
    pivots, lu = [], []
    for i, row in enumerate(rows):
        k = len(lu)
        if k == n:
            break
        r = [row[c] for c in cols]
        last = 1
        for j, u in enumerate(lu):
            piv, a = u[j], r[j]
            r[j + 1:] = [(piv * x - a * y) // last for x, y in zip(r[j + 1:], u[j + 1:])]
            last = piv
        c = next((c for c in range(k, n) if r[c]), None)
        if c is None:
            continue  # in the span of the pivot rows before it
        if c != k:
            cols[k], cols[c] = cols[c], cols[k]
            for u in lu + [r]:
                u[k], u[c] = u[c], u[k]
        pivots.append(i)
        lu.append(r)
    det = 0
    if len(lu) == n:
        det = lu[-1][-1] if lu else 1  # the empty determinant is 1
        if sum(a > b for k, a in enumerate(cols) for b in cols[k + 1:]) & 1:
            det = -det  # an odd permutation of the columns
    place = sorted(range(n), key=cols.__getitem__)
    return Bareiss(tuple(pivots), tuple(lu), tuple(place), det)
