"""Exact linear algebra over Q, all of it on integers.

The rational path scales rows to integers and eliminates fraction-free
(cross-multiplication with per-row content stripping), so intermediate
entries stay integral.  There is no elimination over Q(q): a certificate
over Q(q) is solved in `decompose` by specializing q to integers, solving
each square integer system with the Bareiss kernel `solve_fraction_free`
(which returns the determinant and the Cramer numerators det * x), and
interpolating those polynomials in q once, since their degrees are bounded.

`solve_exact` reads rows only until the columns reach full rank and returns
that prefix's solution unchecked.  A caller picks which rows to offer: the
certificate solver in `decompose` offers a few structured rows first and
every row only when those fall short of full rank, then checks the
candidate once against every row itself.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _int_gcd, lcm as _int_lcm

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

    def __init__(self, ncols):
        self.ncols = ncols
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


def solve_exact(columns, rhs):
    """Solve sum_j x_j * columns[j] = rhs exactly over Q.

    Rows enter the echelon in the given order until the columns reach full
    rank; the rows after that are not read.  Returns None when the rows read
    are inconsistent, and otherwise the unique solution of those rows, as
    Fractions, unchecked against the rest: the caller checks the result.
    Raises DependentColumnsError when all rows together have rank below the
    column count.
    """
    k = len(columns)
    m = len(rhs)
    ech = IntEchelon(k + 1)
    pivots_a = 0
    for i in range(m):
        row = [columns[j][i] for j in range(k)] + [rhs[i]]
        c = ech.add(row)
        if c is None:
            continue
        if c == k:
            return None  # 0 = nonzero
        pivots_a += 1
        if pivots_a == k:
            break
    if pivots_a < k:
        raise DependentColumnsError("columns are linearly dependent")
    sol = [Fraction(0)] * k
    for c in sorted(ech.rows, reverse=True):
        row = ech.rows[c]
        acc = Fraction(row[k])
        for j in range(c + 1, k):
            acc -= row[j] * sol[j]
        sol[c] = acc / row[c]
    return sol


# -- fraction-free square solve ------------------------------------------------------


def solve_fraction_free(rows, rhs):
    """Bareiss elimination of the square integer system rows . x = rhs.

    Returns (det, y) with det the determinant of `rows` and y = det * x, both
    integers by Cramer's rule, or (0, None) when `rows` is singular.  Every
    division is exact: each entry after step k is a minor of order k+1.
    """
    n = len(rows)
    m = [list(row) + [b] for row, b in zip(rows, rhs)]
    sign, prev = 1, 1
    for k in range(n):
        if not m[k][k]:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0, None
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        pk = m[k]
        piv = pk[k]
        for i in range(k + 1, n):
            ri = m[i]
            a = ri[k]
            ri[k + 1:] = [(piv * x - a * y) // prev for x, y in zip(ri[k + 1:], pk[k + 1:])]
        prev = piv
    # back substitution for det * x; each quotient is a Cramer numerator
    y = [0] * n
    for k in range(n - 1, -1, -1):
        row = m[k]
        acc = prev * row[n] - sum(row[j] * y[j] for j in range(k + 1, n))
        y[k] = acc // row[k]
    return sign * prev, [sign * v for v in y]


# -- subspace arithmetic over Q -------------------------------------------------------


def null_space_basis(equations, nvars):
    """Basis of {z : row . z = 0 for every equation row}, over Q."""
    ech = IntEchelon(nvars)
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
    if not vectors:
        return []
    ech = IntEchelon(len(vectors[0]))
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
