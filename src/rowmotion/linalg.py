"""Exact linear algebra over Q, all of it on integers.

One fraction-free kernel solves linear systems.  `factor` runs a Bareiss
elimination over an integer matrix that may have more rows than columns: it
reads rows in order, pivots each on its first nonzero column, and stops at
the first n independent rows, whose multipliers it keeps.  `Bareiss.replay`
then turns any integer right-hand side into det * x, the Cramer numerators,
in O(n^2) with the same exact divisions.  Every certificate solve in
`decompose`, over Q and over Q(q) specialized at integers, runs on it.

`IntEchelon`, an incremental integer echelon with content-stripped rows,
serves only the rank, span and null-space functions below.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _int_gcd, lcm as _int_lcm
from operator import mul
from typing import NamedTuple

# -- integer echelon over Q -------------------------------------------------------


def _scale_row_to_int(row):
    lcm = 1
    for x in row:
        if isinstance(x, Fraction):
            lcm = _int_lcm(lcm, x.denominator)
    out = []
    for x in row:
        if isinstance(x, Fraction):
            out.append(int(x * lcm))
        else:
            out.append(int(x) * lcm)
    return out


def _strip_content(row):
    g = 0
    for v in row:
        g = _int_gcd(g, abs(v))
        if g == 1:
            return row
    if g > 1:
        row = [v // g for v in row]
    return row


class IntEchelon:
    """Incremental integer row echelon with content-stripped rows."""

    def __init__(self):
        self.rows = {}  # pivot column -> integer row

    def reduce(self, row):
        """Reduce a row against the current basis; returns the residue."""
        row = _scale_row_to_int(row)
        for c in sorted(self.rows):
            if row[c]:
                piv = self.rows[c]
                a, b = piv[c], row[c]
                g = _int_gcd(a, b)
                fa, fb = a // g, b // g
                row = [fa * x - fb * y for x, y in zip(row, piv)]
                row = _strip_content(row)
        return row

    def add(self, row):
        """Insert a row; returns its pivot column or None if dependent."""
        row = self.reduce(row)
        for c, v in enumerate(row):
            if v:
                self.rows[c] = row
                return c
        return None


def rank_rational(rows) -> int:
    return len(span_basis(rows))


class DependentColumnsError(ValueError):
    """The rows given do not determine the solution: the columns restricted
    to them are linearly dependent."""


# -- the fraction-free kernel ---------------------------------------------------------


class Bareiss(NamedTuple):
    """Bareiss factorization of the first n independent rows of an integer
    matrix with n columns: `rows` are their input indices, `lu` the rows
    after elimination with columns in pivot order (minors above the
    diagonal, multipliers below), `place[c]` the pivot position of input
    column c, and `det` the determinant of those rows in input order."""

    rows: tuple
    lu: tuple
    place: tuple
    det: int

    def replay(self, rhs):
        """det * x for the solution x of the pivot rows . x = rhs, with one
        integer of rhs per pivot row.  It repeats the elimination's exact
        divisions, so each entry is a Cramer numerator and an integer."""
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
    of it is left; reading stops at n pivot rows.  Every division is exact,
    each entry being a minor of the input.  Returns None when the columns
    are dependent.
    """
    n = len(rows[0])
    cols = list(range(n))  # the input column at each pivot position
    pivots, lu = [], []
    for i, row in enumerate(rows):
        r = [row[c] for c in cols]
        last = 1
        for j, u in enumerate(lu):
            piv, a = u[j], r[j]
            r[j + 1:] = [(piv * x - a * y) // last for x, y in zip(r[j + 1:], u[j + 1:])]
            last = piv
        k = len(lu)
        c = next((c for c in range(k, n) if r[c]), None)
        if c is None:
            continue  # in the span of the pivot rows before it
        if c != k:
            cols[k], cols[c] = cols[c], cols[k]
            for u in lu + [r]:
                u[k], u[c] = u[c], u[k]
        pivots.append(i)
        lu.append(r)
        if k + 1 == n:
            break
    else:
        return None
    swaps = sum(a > b for k, a in enumerate(cols) for b in cols[k + 1:])
    place = sorted(range(n), key=cols.__getitem__)
    return Bareiss(tuple(pivots), tuple(lu), tuple(place), -r[-1] if swaps & 1 else r[-1])


# -- subspace arithmetic over Q -------------------------------------------------------


def null_space_basis(equations, nvars):
    """Basis of {z : row . z = 0 for every equation row}, over Q."""
    ech = IntEchelon()
    for row in equations:
        ech.add(list(row))
    pivots = sorted(ech.rows)
    free = [c for c in range(nvars) if c not in ech.rows]
    basis = []
    for f in free:
        z = [Fraction(0)] * nvars
        z[f] = Fraction(1)
        for c in reversed(pivots):
            row = ech.rows[c]
            acc = Fraction(0)
            for j in range(c + 1, nvars):
                if row[j] and z[j]:
                    acc += row[j] * z[j]
            z[c] = -acc / row[c]
        basis.append(z)
    return basis


def span_basis(vectors):
    """An independent subset spanning the same space."""
    ech = IntEchelon()
    out = []
    for v in vectors:
        if ech.add(list(v)) is not None:
            out.append(list(v))
    return out


def intersect_spans(abasis, bbasis):
    """Basis of span(abasis) & span(bbasis)."""
    if not abasis or not bbasis:
        return []
    dim = len(abasis[0])
    # x = sum a_i A_i = sum b_j B_j: one equation per coordinate
    equations = []
    for k in range(dim):
        equations.append(
            [v[k] for v in abasis] + [-v[k] for v in bbasis]
        )
    combos = null_space_basis(equations, len(abasis) + len(bbasis))
    vecs = []
    for combo in combos:
        x = [Fraction(0)] * dim
        for i, v in enumerate(abasis):
            if combo[i]:
                for k in range(dim):
                    x[k] += combo[i] * v[k]
        vecs.append(x)
    return span_basis(vecs)
