"""Exact linear algebra on ints, over Q and over Q(q) at q = 2^B: one
fraction-free elimination kernel over sparse rows {column: entry}, for every
certificate solve and every rank in `decompose`.  It uses only ring
operations and exact division (`//`), so it is exact over any integral
domain (Bareiss, 1968); `qpoly.Polynomial` entries, over Z[q], remain as the
tests' reference.  It counts the entries it updates, times the words of the
pivot (over Z[q] their coefficients), up to WORK_CAP (CapExceededError).
"""

from __future__ import annotations

from collections import Counter
from heapq import heappop, heappush
from operator import mul
from typing import NamedTuple

from .poset import CapExceededError
from .qpoly import CertificateError

# Entry updates, times the 64-bit words of the pivot (over Z[q], coefficients),
# a factorization or a Q(q) or Table 2 solve of `decompose` may make: seconds.
WORK_CAP = 1 << 25


def check_work(work: int, what: str):
    """Raise CapExceededError if `what`, of `work` entry updates, is past the cap."""
    if work > WORK_CAP:
        raise CapExceededError(
            f"{what} takes {work} entry updates, more than WORK_CAP = {WORK_CAP}")


class Factorization(NamedTuple):
    """The first independent rows, at most n, of a matrix with n columns:
    `rows` are their input indices, `lu[k]` pivot row k after elimination,
    `cols[k]` its pivot column, `steps[k]` its steps (j, multiplier, pivot
    j), `det` their determinant in input order when there are n, else 0,
    and `work` the entries the elimination updated, each times the words of
    its pivot, or over Z[q] their coefficients."""

    rows: tuple
    lu: tuple
    cols: tuple
    steps: tuple
    det: int
    work: int

    def replay(self, rhs):
        """det * x as Cramer numerators over the columns, where x solves
        pivot rows . x = rhs (one integer per pivot row) and det != 0."""
        lu, cols = self.lu, self.cols
        d = [1, *(u[c] for u, c in zip(lu, cols))]  # d[j + 1] is pivot j
        b = []
        for k, (v, steps) in enumerate(zip(rhs, self.steps)):
            last = 1
            for j, a, dj in steps:
                v = (dj * v - a * b[j]) // last
                last = dj
            b.append(v * d[k] // last)
        y = [0] * len(cols)
        for k in reversed(range(len(cols))):
            u = lu[k]
            acc = sum(map(mul, u.values(), map(y.__getitem__, u)))
            y[cols[k]] = (d[-1] * b[k] - acc) // d[k + 1]
        return [self.det // d[-1] * v for v in y]  # det = +-d[-1], the column order's sign

    def kernel(self, n):
        """A basis of the integer vectors x, over n columns, with row . x = 0
        for every factored row (integer rows): one per column f without a
        pivot, x[f] the last pivot (1 when there is none), 0 on the other such
        columns, and the pivot columns back-substituted through `lu` from the
        last pivot row up.  The last pivot is +- the determinant of the pivot
        rows at their pivot columns, so by Cramer's rule every division is
        exact; CertificateError if one is not."""
        lu, cols = self.lu, self.cols
        last = lu[-1][cols[-1]] if lu else 1
        basis = []
        for f in sorted(set(range(n)).difference(cols)):
            x = [0] * n
            x[f] = last
            for u, c in zip(reversed(lu), reversed(cols)):
                v, rem = divmod(-sum(map(mul, u.values(), map(x.__getitem__, u))), u[c])
                if rem:
                    raise CertificateError(f"inexact back-substitution at column {c}")
                x[c] = v
            basis.append(x)
        return basis


def factor(rows, n):
    """Fraction-free elimination of sparse integer rows over n columns.

    Rows are read in order; each is eliminated against the pivot rows before
    it and kept unless nothing of it is left, until n are kept.  A kept row
    pivots on its entry of the fewest 64-bit words (`bit_length() >> 6`, 0
    below 64 bits; over Z[q] the lowest q-degree), then on the column with
    the fewest input entries (Markowitz), then the lowest.  At q = 2^B, B a
    multiple of 64, the words are about B / 64 times the q-degree, so the
    pivots' degrees stay low (4 289 bits on the pivot rows of rect:34,34 at
    2^64, against 33 665 by entries alone), and fill-in and entries stay
    small.  A step touches only a row with an entry in the pivot's column;
    the steps a row skips are one exact scaling d_k / d_s (d_{j+1} is pivot
    j, s the row's last step), so every division is exact and every entry a
    minor of the input.
    """
    counts = Counter(c for row in rows for c, v in row.items() if v)
    # the entries are all ints or all Polynomials: a step costs its entries
    # times the words of its pivot, or over Z[q] their coefficients
    zq = next((v for row in rows for v in row.values()), 0).__class__ is not int
    place = {}  # pivot column -> its pivot row
    kept, lu, cols, steps, d, work = [], [], [], [], [1], 0  # d[j + 1] is pivot j
    for i, row in enumerate(rows):
        if len(lu) == n:
            break
        r = {c: v for c, v in row.items() if v}
        last, hist = 1, []  # r is at level s with last = d[s]
        heap = sorted(place[c] for c in r if c in place)
        while heap:
            j = heappop(heap)
            a = r.get(cols[j])
            if not a:
                continue  # eliminated already, or cancelled
            dj, u = d[j + 1], lu[j]
            new = {c: dj * v for c, v in r.items()}
            for c, w in u.items():
                if c not in new and c in place:
                    heappush(heap, place[c])  # a pivot column filled in
                new[c] = new.get(c, 0) - a * w
            r = {c: v // last for c, v in new.items() if v}
            hist.append((j, a, dj))
            last = dj
            work += (sum(len(v.coeffs) for v in new.values()) if zq
                     else len(new) * (1 + (dj.bit_length() >> 6)))
            check_work(work, "the elimination")
        if not r:
            continue  # in the span of the pivot rows before it
        if last != d[-1]:
            r = {c: v * d[-1] // last for c, v in r.items()}
            work += (sum(len(v.coeffs) for v in r.values()) if zq
                     else len(r) * (1 + (d[-1].bit_length() >> 6)))
        c = min(r, key=lambda c: (r[c].degree if zq else r[c].bit_length() >> 6, counts[c], c))
        place[c] = len(lu)
        kept.append(i)
        lu.append(r)
        cols.append(c)
        steps.append(tuple(hist))
        d.append(r[c])
    det = 0
    if len(lu) == n:
        odd, seen = n, bytearray(n)  # the column order is odd iff n - #cycles is
        for k in range(n):
            odd -= not seen[k]
            while not seen[k]:
                seen[k] = 1
                k = cols[k]
        det = (-1) ** odd * d[-1]  # the empty determinant is 1
    return Factorization(tuple(kept), tuple(lu), tuple(cols), tuple(steps), det, work)
