"""Exact decomposition of statistics as constant + signed-toggleability span.

A Decomposition is the certificate f = c + sum_p c_p T_p (or its q-analogue
with T^q_p over Q(q)).  The columns 1, T_0, ..., T_{n-1} are linearly
independent, so a certificate is unique when it exists.

`decompose` and `q_decompose` read a statistic's cleared form
(`Statistic.nums` over `Statistic.den`), so every solve and check runs on
integers.  They share one certificate system per poset, factored once at
q = 1 by the Bareiss kernel of `linalg` and cached on the poset: the rows
[1, T_0(I), ..., T_{n-1}(I)] at the ideals {}, <p> (the down-set of p) and
<p> - {p} for every element p, at most 2n+1 rows.  They can fall short of
rank n+1 (on the affine D4 star, with covers (0,1), (1,2), (1,3), (1,5) and
4 isolated, they have rank 6), and only then are the rows at every ideal
factored instead.  `decompose` replays the factorization on a statistic and
checks the candidate exactly once against every ideal, as a sparse integer
residual over the toggle table; a candidate that fails was the only
possible solution, so the statistic is not in the span.  `q_decompose`
refactors the same pivot rows at integer values of q, interpolates, and
checks the result with the same residual at integer values of q (see its
docstring).  `toggleability_space_dims` (Table 2) replays the same
factorizations on each observable and takes the rank of the stacked
residuals, so the package has one elimination kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import count, islice
from math import lcm

from .linalg import DependentColumnsError, factor
from .poset import CapExceededError, Poset, enumerate_antichains
from .qpoly import (
    CertificateError,
    RationalFunction,
    format_fraction,
    horner,
    interpolate,
    rational_roots,
)
from .statistics import (
    QRATIONAL,
    RATIONAL,
    Statistic,
    accumulate_toggles,
    antichain_toggleability,
    toggle_vector,
)

__all__ = [
    "Decomposition",
    "decompose",
    "q_decompose",
    "verify_independence",
    "toggleability_space_dims",
    "antichain_span_dim",
]


@dataclass(frozen=True)
class Decomposition:
    """Certificate f = constant + sum_p coeffs[p] * T_p (or T^q_p)."""

    poset: Poset
    constant: object
    coeffs: tuple
    kind: str

    def reconstruction(self):
        """The statistic vector c + sum_p c_p T_p, recomputed from scratch."""
        P = self.poset
        if self.kind == QRATIONAL:
            q = RationalFunction.q()
            minus = [-(c * q) for c in self.coeffs]
        else:
            minus = [-c for c in self.coeffs]
        out = [self.constant] * len(P.ideal_masks())
        return tuple(accumulate_toggles(P, out, self.coeffs, minus))

    def to_json_dict(self):
        enc = _frac_json if self.kind == RATIONAL else _rf_json
        return {
            "kind": self.kind,
            "constant": enc(self.constant),
            "coeffs": {str(p): enc(c) for p, c in enumerate(self.coeffs)},
            "verified": True,
        }


_frac_json = partial(format_fraction, slash=True)


def _rf_json(x: RationalFunction):
    return {
        "num": [_frac_json(c) for c in x.num.coeffs],
        "den": [_frac_json(c) for c in x.den.coeffs],
    }


def decompose(P: Poset, f: Statistic):
    """Unique certificate f = c + sum c_p T_p over Q, or None if f is not in
    the span.  The certificate is checked exactly against every ideal."""
    if f.kind != RATIONAL:
        raise ValueError("decompose expects a rational-valued statistic")
    if f.poset is not P:
        raise ValueError("statistic lives on a different poset")
    ideals, _, fact = _system(P)
    nums = f.nums
    y = fact.replay([nums[i] for i in ideals])
    if not _is_certificate(P, [fact.det * v for v in nums], y):
        return None
    sol = [Fraction(v, fact.det * f.den) for v in y]
    return Decomposition(P, sol[0], tuple(sol[1:]), RATIONAL)


def _system(P: Poset):
    """(ideals, rows, Bareiss factorization at q = 1) of the n+1 pivot rows
    of P's certificate system, from the structured rows if they suffice."""
    if P._certificate_system is None:
        for candidates in (_structured_rows(P), range(len(P.ideal_masks()))):
            rows = _rows_at(P, candidates)
            fact = factor(rows)
            if fact.det:
                P._certificate_system = (
                    [candidates[i] for i in fact.rows], [rows[i] for i in fact.rows], fact)
                break
        else:
            raise DependentColumnsError("columns are linearly dependent")
    return P._certificate_system


def _structured_rows(P: Poset):
    """Canonical indices of the ideals {}, <p> and <p> - {p}, for every p."""
    rows = {0}
    for p in range(P.n):
        down = P.down_set[p]
        rows.add(P.ideal_index(down))
        rows.add(P.ideal_index(down ^ 1 << p))
    return sorted(rows)


def _rows_at(P, ideals):
    """The rows [1, T_0(I), ..., T_{n-1}(I)] at the ideals with the given
    indices, built one toggle column at a time."""
    rows = [[1] for _ in ideals]
    for p in range(P.n):
        col = toggle_vector(P, p, 1, -1, 0)
        for row, i in zip(rows, ideals):
            row.append(col[i])
    return rows


def _residual(P, values, sol, z=1):
    """values - sol[0] - sum_p sol[p+1] * T^z_p on every ideal, with
    T^z_p = 1 where p is addable and -z where removable (T_p at z = 1).

    The solvers pass integers (det * numerators against det * x), so this
    is integer arithmetic over the toggle-table entries.
    """
    residual = [v - sol[0] for v in values]
    return accumulate_toggles(P, residual, [-c for c in sol[1:]], [z * c for c in sol[1:]])


def _is_certificate(P, values, sol, z=1):
    """True iff values == sol[0] + sum_p sol[p+1] * T^z_p on every ideal."""
    return not any(_residual(P, values, sol, z))


_sample_points = count  # the integers at which q is specialized


def _nonsingular_points(P: Poset):
    """(z, factorization at q = z) of the pivot rows of P's certificate
    system, at each of the `_sample_points` where they are nonsingular."""
    _, square, _ = _system(P)
    for z in _sample_points():
        fact = factor([[-z if s < 0 else s for s in row] for row in square])
        if fact.det:
            yield z, fact


def q_decompose(P: Poset, f: Statistic):
    """Certificate f = c(q) + sum c_p(q) T^q_p over Q(q), or None.

    f, with rational or Q(q) values, is read in its cleared form g / s, g
    integer polynomials of degree <= d; the solve does no arithmetic in Q(q).
    The n+1 pivot rows shared with `decompose`, independent at q = 1, have
    entries of q-degree <= 1, so by Cramer's rule x_j = N_j(q) / det(q) with
    deg det <= n, deg N_j <= n+d.  That square system, in one fixed row
    order, is factored and replayed on g at q = 0, 1, 2, ..., skipping roots
    of det, until n+1+d points are in hand; det and the N_j are then
    interpolated once.  The first point is no pole, so a Q(q) certificate
    would specialize to the candidate there: a nonzero residual over the
    ideals returns None before any interpolation.  The result is checked
    once, as a polynomial identity over every ideal (`_is_q_certificate`);
    its coefficients are then checked to have no pole at any nonnegative
    rational, which makes every specialization q := r/s legal.
    """
    if f.poset is not P:
        raise ValueError("statistic lives on a different poset")
    ideals, _, _ = _system(P)
    good = []  # (z, det, det * x) at the points where det != 0
    for z, fact in islice(_nonsingular_points(P), P.n + 1 + _degrees(f)[1]):
        g, _ = _cleared_at(f, z)
        y = fact.replay([g[i] for i in ideals])
        if not good and not _is_certificate(P, [fact.det * v for v in g], y, z):
            return None
        good.append((z, fact.det, *y))
    points, *columns = zip(*good)
    det_poly, *num_polys = interpolate(points, columns)
    sol = [RationalFunction(num, det_poly * f.den) for num in num_polys]
    if not _is_q_certificate(P, f, sol):
        return None
    for c in {c.den: c for c in sol}.values():  # once per distinct denominator
        _check_no_nonnegative_pole(c)
    return Decomposition(P, sol[0], tuple(sol[1:]), QRATIONAL)


def _degrees(f: Statistic):
    """(deg s, max deg g) of the cleared form g / s of f."""
    if f.kind == RATIONAL:
        return 0, 0
    return f.den.degree, max(0, *(g.degree for g in set(f.nums)))


def _cleared_at(f: Statistic, z: int):
    """(g(z) on every ideal, s(z)), in integers, for f in cleared form g / s."""
    if f.kind == RATIONAL:
        return f.nums, f.den
    return [horner(g, z) for g in f.nums], horner(f.den, z)


def _is_q_certificate(P, f, sol):
    """Whether f = sol[0] + sum_p sol[p+1] * T^q_p on every ideal, over Q(q).

    With f = g / s cleared and each sol[j] = N_j / D_j cleared to integer
    polynomials, H * (s * C_I - g_I), where C_I is the right-hand side on
    ideal I and H the lcm of the D_j, is a polynomial in q of degree at most
    B = sum of deg D over the distinct D + max(deg s + max_j (deg N_j -
    deg D_j) + 1, max_I deg g_I).  It is checked to vanish at the first B+1
    integers z >= 0 where no D_j vanishes, so it is zero.  At each z every
    number is an integer: with L the lcm of the D_j(z), the kernel of
    `decompose` checks L * g(z) = s(z) * (L * C(z)) on every ideal.
    """
    parts = []
    for c in sol:
        k = lcm(*(a.denominator for a in c.num.coeffs + c.den.coeffs))
        parts.append((c.num * k, c.den * k))
    dens = {D for _, D in parts}
    deg_s, deg_g = _degrees(f)
    bound = sum(D.degree for D in dens) + max(
        deg_s + 1 + max(N.degree - D.degree for N, D in parts), deg_g)
    poles_free = (z for z in count() if all(horner(D, z) for D in dens))
    for z in islice(poles_free, bound + 1):
        g, s = _cleared_at(f, z)
        at = [(horner(N, z), horner(D, z)) for N, D in parts]
        L = lcm(*(d for _, d in at))
        x = [s * n * (L // d) for n, d in at]
        if any(_residual(P, [L * v for v in g], x, z)):
            return False
    return True


def _check_no_nonnegative_pole(c: RationalFunction):
    den = c.den
    if den.degree <= 0:
        return
    roots = rational_roots(den)
    if any(r >= 0 for r in roots):
        raise CertificateError(f"denominator {den} has a root >= 0")
    for z in (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2)):
        if den.evaluate(z) <= 0:
            raise CertificateError(f"denominator {den} not positive at q={z}")


def verify_independence(P: Poset, q_value) -> bool:
    """Exact rank check: {1} and the T^q_p at a fixed q >= 0 are independent."""
    q_value = Fraction(q_value)
    if q_value < 0:
        raise ValueError("independence is only guaranteed for q >= 0")
    # the rows [1], T^q_p scaled by the denominator of q, in integers
    a, b = q_value.numerator, q_value.denominator
    rows = [[1] * len(P.ideal_masks())]
    rows += [toggle_vector(P, p, b, -a, 0) for p in range(P.n)]
    return len(factor(rows).rows) == P.n + 1


def toggleability_space_dims(P: Poset) -> dict:
    """Dimensions of {f = const mod toggleability} intersected with the spans
    of the antichain indicators (dim_A) and ideal indicators (dim_I), plus
    their q-analogues.

    All four spaces consist of rational-coefficient combinations a of the n
    observables.  At a point z where the pivot rows of the certificate system
    are nonsingular, each observable's candidate from those rows leaves a
    residual R_j(z) over every ideal (`_residual`), and sum_j a_j * obs_j is
    in the span of {1, T^z_p} iff R(z) a = 0; each dimension is n minus the
    rank of the stacked R.  Over Q that is z = 1.  Over Q(q), det(q) * R(q)
    has q-degree at most n+1 (pivot-row entries of degree <= 1, an adjugate
    of degree <= n, observables constant in q), so it vanishes iff it
    vanishes at n+2 points, here the first n+2 nonsingular ones.
    """
    masks = P.ideal_masks()
    out_rows = [toggle_vector(P, p, 0, 1, 0) for p in range(P.n)]
    ind_rows = [[m >> p & 1 for m in masks] for p in range(P.n)]
    at_one = [(1, _system(P)[2])]
    points = list(islice(_nonsingular_points(P), P.n + 2))
    return {
        "dim_A": P.n - _residual_rank(P, out_rows, at_one),
        "dim_I": P.n - _residual_rank(P, ind_rows, at_one),
        "dim_A_q": P.n - _residual_rank(P, out_rows, points),
        "dim_I_q": P.n - _residual_rank(P, ind_rows, points),
    }


def _residual_rank(P, observables, points):
    """Rank of the residual maps R(z), stacked over the (z, factorization)
    points: column j of R(z) is the residual over every ideal of
    observables[j] after its candidate from the pivot rows at q = z."""
    ideals = _system(P)[0]
    rows = []
    for z, fact in points:
        residuals = [
            _residual(P, [fact.det * v for v in obs], fact.replay([obs[i] for i in ideals]), z)
            for obs in observables
        ]
        rows += [row for row in zip(*residuals) if any(row)]
    return len(factor(rows).rows) if rows else 0


def antichain_span_dim(P: Poset, cap: int = 1000) -> int:
    """Dimension of the span of the antichain toggleability statistics T_A."""
    masks = P.ideal_masks()
    if len(masks) > cap:
        raise CapExceededError(f"antichain count {len(masks)} exceeds cap {cap}")
    rows = [antichain_toggleability(P, A, "signed").nums for A in enumerate_antichains(P)]
    return len(factor(rows).rows)
