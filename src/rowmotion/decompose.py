"""Exact decomposition of statistics as constant + signed-toggleability span.

A Decomposition is the certificate f = c + sum_p c_p T_p (or its q-analogue
with T^q_p = T+_p - q T-_p over Q(q)).  The columns 1, T_0, ..., T_{n-1} are
linearly independent, so a certificate is unique when it exists.

Certificates are solved and checked in the antichain-monomial basis: x^A,
for an antichain A, is 1 on the ideals containing A.  The x^A are a basis of
the functions on J(P) (their matrix against the ideals is the unitriangular
zeta matrix of J(P)), so f equals a combination on every ideal exactly when
their monomial coefficients agree, and no ideal is enumerated.  With C-(p)
and C+(p) the lower and upper covers of p, 1_p = x^{p},
T+_p = x^{C-(p)} - x^{p} and T-_p = sum over S within C+(p) of
(-1)^|S| x^{max({p} u S)}.  The certificate system of a poset has one row
per monomial these touch (at most 1 + 2n + sum_p 2^|C+(p)|) and the columns
1, T^q_0, ..., each entry plus - q*minus with plus from T+ and minus from
T-.  `decompose` factors it once at q = 1 with the Bareiss kernel of
`linalg`, replays that on a statistic's coefficients (`_monomials`) at the
n+1 pivot monomials, and takes the sparse integer residual over every
monomial: zero proves the certificate, nonzero proves NOT IN SPAN, since the
candidate was the only possible solution.
`q_decompose` refactors n+1 pivot rows at integer values of q, interpolates,
and checks the result with the same residual (see its docstring).
`toggleability_space_dims` (Table 2) takes the rank of the stacked residuals
of its observables, and `verify_independence` the rank of the system's
columns at a fixed q >= 0 over all of its monomial rows, so the package has
one elimination kernel and the independence check enumerates no ideal.
Each denominator of a Q(q) certificate is checked to be positive on
[0, oo): nonzero at 0, then Descartes' rule of signs or an exact Sturm count
of its positive roots, so the certificate specializes at every q = r/s >= 0.
The system is cached on the poset.  The size of the T- expansions and the
elimination work of every solve, `antichain_span_dim`'s dense rank over the
ideals included, are bounded before the work starts (CapExceededError).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import count, islice
from math import lcm

from .dynamics import rowmotion_order
from .linalg import factor
from .poset import DEFAULT_IDEAL_CAP, CapExceededError, Poset, enumerate_antichains, mask_cap
from .qpoly import (
    CertificateError,
    RationalFunction,
    cleared,
    format_fraction,
    horner,
    interpolate,
    positive_roots,
)
from .statistics import (
    QRATIONAL,
    RATIONAL,
    Statistic,
    accumulate_toggles,
    antichain_toggleability,
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
    the span.  The certificate is checked exactly, monomial by monomial."""
    if f.kind != RATIONAL:
        raise ValueError("decompose expects a rational-valued statistic")
    if f.poset is not P:
        raise ValueError("statistic lives on a different poset")
    system = _system(P)
    mono, den = _monomials(P, f)
    det = system.at_one.det
    y = system.at_one.replay([mono.get(A, 0) for A in system.pivots])
    if not _is_certificate(P, {A: det * v for A, v in mono.items()}, y):
        return None
    sol = [Fraction(v, det * den) for v in y]
    return Decomposition(P, sol[0], tuple(sol[1:]), RATIONAL)


# Eliminating one row of the system against k pivot rows costs about
# k * (n+1) integer operations, so each dense solve is bounded before it
# starts.  At this cap a solve takes seconds, and `decompose --q` stops where
# the ideal cap stopped it on rectangles (rect:11,11 answers, rect:12,12 not).
WORK_CAP = 128 * DEFAULT_IDEAL_CAP


def _bound_work(work: int, what: str):
    if work > WORK_CAP:
        raise CapExceededError(
            f"{what} takes about {work} integer operations, more than the cap {WORK_CAP}")


class _System:
    """The certificate system of a poset: `columns[j]` maps each monomial of
    column j (1, then T^q_0, T^q_1, ...) to its [plus, minus] pair, and
    `order` lists every monomial of the columns in the order rows are read.
    `pivots` maps each of n+1 monomials, whose rows are independent at
    q = 1, to its row of pairs, and `at_one` is their factorization at
    q = 1.  The rows are read from the largest antichains down and the
    singletons last: the determinant of the rows chosen that way has a low
    q-degree (9 against 25 with {} and the singletons first, on rect:5,5),
    which keeps Q(q) certificates small, and entries of a few bits."""

    def __init__(self, P: Poset):
        size = sum(1 << len(up) for up in P.upper_covers)
        if size > mask_cap(P.n):
            raise CapExceededError(
                f"the T- expansions have {size} antichain monomials, more than "
                f"the cap {mask_cap(P.n)}")
        self.columns = [{0: [1, 0]}]
        for p, up in enumerate(P.up_covers):
            # T-_p is x^{p} and (-1)^|S| x^S for each nonempty S within C+(p)
            col = {P.down_covers[p]: [1, 0], 1 << p: [-1, 1]}
            S = up
            while S:
                col[S] = [0, -1 if S.bit_count() & 1 else 1]
                S = (S - 1) & up
            self.columns.append(col)
        singletons = [1 << p for p in range(P.n)]
        rest = sorted({A for col in self.columns for A in col}.difference([0], singletons),
                      key=lambda A: (A.bit_count(), A))
        self.order = [0, *reversed(rest), *singletons]
        _bound_work(len(self.order) * (P.n + 1) ** 2, "factoring the certificate system")
        self.at_one = factor([[a - b for a, b in row] for row in self._rows(self.order)])
        pivots = [self.order[i] for i in self.at_one.rows]
        self.pivots = dict(zip(pivots, self._rows(pivots)))

    def _rows(self, monomials):
        return [[col.get(A, (0, 0)) for col in self.columns] for A in monomials]


def _system(P: Poset) -> _System:
    """The certificate system of P, built and factored on first use."""
    if P._certificate_system is None:
        P._certificate_system = _System(P)
    return P._certificate_system


def _monomials(P: Poset, f: Statistic):
    """(g, s) with f = sum_A g[A] x^A / s over antichain masks A, nonzero
    g[A] only.  A combo is expanded directly from the columns of the system.
    Values are Moebius-inverted, g(max I) = sum over S within max(I) of
    (-1)^|S| f(I - S), one element at a time from the top: g(I) -= g(I - p)
    over the aligned pairs of the toggle table (the lower covers that
    removing p makes maximal come later)."""
    if f.combo is None:
        table = P.toggle_table()
        g = list(f.nums)
        for p in rowmotion_order(P):
            for a, r in zip(table.addable[p], table.removable[p]):
                g[r] = g[r] - g[a]
        return {top: v for top, v in zip(P.antichain_masks(), g) if v}, f.den
    ints, scale = cleared([c for part in f.combo for c in part])
    n, out = P.n, {}
    for p, col in enumerate(_system(P).columns[1:]):
        a, b, d = ints[p], ints[n + p], ints[2 * n + p]
        if a or b or d:
            for A, (plus, minus) in col.items():
                out[A] = out.get(A, 0) + a * plus + b * minus
            out[1 << p] += d
    return {A: c for A, c in out.items() if c}, scale


def _residual(P, values, sol, z=1):
    """values - sol[0] - sum_p sol[p+1] * T^z_p as a dict of monomial
    coefficients (zeros kept), for `values` a dict of the same kind.  The
    solvers pass integers, so this is integer arithmetic over the sparse
    columns of the system."""
    out = dict(values)
    for c, col in zip(sol, _system(P).columns):
        if c:
            for A, (plus, minus) in col.items():
                out[A] = out.get(A, 0) - c * (plus - z * minus)
    return out


def _is_certificate(P, values, sol, z=1):
    """True iff values == sol[0] + sum_p sol[p+1] * T^z_p, monomial by
    monomial, which is on every ideal."""
    return not any(_residual(P, values, sol, z).values())


_sample_points = count  # the integers at which q is specialized


def _nonsingular_points(P: Poset):
    """(z, factorization at q = z) of the Q(q) pivot rows, at each of the
    `_sample_points` where they are nonsingular."""
    rows = _system(P).pivots.values()
    for z in _sample_points():
        fact = factor([[a - z * b for a, b in row] for row in rows])
        if fact.det:
            yield z, fact


def q_decompose(P: Poset, f: Statistic):
    """Certificate f = c(q) + sum c_p(q) T^q_p over Q(q), or None.

    f, with rational or Q(q) values, is read in its cleared form g / s, g
    integer polynomials of degree <= d; the solve does no arithmetic in Q(q).
    The n+1 pivot rows of `_System.pivots`, independent at q = 1, have
    entries of q-degree <= 1, so by Cramer's rule x_j = N_j(q) / det(q) with
    deg det <= n, deg N_j <= n+d.  That square system, in one fixed row
    order, is factored and replayed on g at q = 0, 1, 2, ..., skipping roots
    of det, until n+1+d points are in hand; det and the N_j are then
    interpolated once.  det * g = sum_j N_j T^q_j holds as a polynomial
    identity when f has a Q(q) certificate, so the candidate at every such
    point must pass the monomial residual: at the first two points a
    nonzero residual returns None before any interpolation.  The result is
    checked once, as a polynomial identity in the monomial basis
    (`_is_q_certificate`); its coefficients are then checked to have no pole
    at any nonnegative rational, which makes every specialization q := r/s
    legal.
    """
    if f.poset is not P:
        raise ValueError("statistic lives on a different poset")
    pivots = _system(P).pivots
    form = _monomials(P, f)
    npoints = P.n + 1 + _degrees(form)[1]
    _bound_work(npoints * (P.n + 1) ** 3, "the Q(q) solve")
    good = []  # (z, det, det * x) at the points where det != 0
    for z, fact in islice(_nonsingular_points(P), npoints):
        g, _ = _cleared_at(form, z)
        y = fact.replay([g.get(A, 0) for A in pivots])
        if len(good) < 2 and not _is_certificate(
                P, {A: fact.det * v for A, v in g.items()}, y, z):
            return None
        good.append((z, fact.det, *y))
    points, *columns = zip(*good)
    det_poly, *num_polys = interpolate(points, columns)
    sol = [RationalFunction(num, det_poly * form[1]) for num in num_polys]
    if not _is_q_certificate(P, form, sol):
        return None
    for c in {c.den: c for c in sol}.values():  # once per distinct denominator
        _check_no_nonnegative_pole(c)
    return Decomposition(P, sol[0], tuple(sol[1:]), QRATIONAL)


def _degrees(form):
    """(deg s, max deg g) of a monomial form (g, s) from `_monomials`."""
    mono, den = form
    if isinstance(den, int):
        return 0, 0
    return den.degree, max(0, *(g.degree for g in mono.values()))


def _cleared_at(form, z: int):
    """(g(z) per monomial, s(z)), in integers, for a monomial form (g, s)."""
    mono, den = form
    if isinstance(den, int):
        return form
    return {A: horner(g, z) for A, g in mono.items()}, horner(den, z)


def _is_q_certificate(P, form, sol):
    """Whether f = sol[0] + sum_p sol[p+1] * T^q_p on every ideal, over Q(q),
    for the monomial form (g, s) of f.

    With f = g / s cleared in the monomial basis and each sol[j] = N_j / D_j
    cleared to integer polynomials, H * (s * C_A - g_A), where C_A is the
    right-hand side's coefficient of x^A and H the lcm of the D_j, is a
    polynomial in q of degree at most B = sum of deg D over the distinct
    D + max(deg s + max_j (deg N_j - deg D_j) + 1, max_A deg g_A).  It is
    checked to vanish at the first B+1 integers z >= 0 where no D_j
    vanishes, so it is zero.  At each z every number is an integer: with L
    the lcm of the D_j(z), the residual of `decompose` checks
    L * g(z) = s(z) * (L * C(z)) monomial by monomial.
    """
    parts = []
    for c in sol:
        k = lcm(*(a.denominator for a in c.num.coeffs + c.den.coeffs))
        parts.append((c.num * k, c.den * k))
    dens = {D for _, D in parts}
    deg_s, deg_g = _degrees(form)
    bound = sum(D.degree for D in dens) + max(
        deg_s + 1 + max(N.degree - D.degree for N, D in parts), deg_g)
    poles_free = (z for z in count() if all(horner(D, z) for D in dens))
    for z in islice(poles_free, bound + 1):
        g, s = _cleared_at(form, z)
        at = [(horner(N, z), horner(D, z)) for N, D in parts]
        L = lcm(*(d for _, d in at))
        x = [s * n * (L // d) for n, d in at]
        if any(_residual(P, {A: L * v for A, v in g.items()}, x, z).values()):
            return False
    return True


def _check_no_nonnegative_pole(c: RationalFunction):
    """Raise CertificateError unless the denominator of c, monic and in
    lowest terms, is positive on [0, oo), so that c specializes at every
    q >= 0: it must not vanish at 0 and must have no positive root, which
    `positive_roots` decides by Descartes' rule of signs and Sturm's
    theorem."""
    den = c.den
    if den.degree > 0 and (not den.coeffs[0] or positive_roots(den)):
        raise CertificateError(f"denominator {den} has a root >= 0")


def verify_independence(P: Poset, q_value) -> bool:
    """Exact rank check: {1} and the T^q_p at a fixed q >= 0 are independent.

    The rank is that of the columns of the certificate system at q = a/b,
    with entries b*plus - a*minus, over all of its monomial rows: the x^A
    are a basis of the functions on J(P), so no ideal is enumerated.  It is
    the factorization `_System` does at q = 1, bounded when that was built.
    """
    q_value = Fraction(q_value)
    if q_value < 0:
        raise ValueError("independence is only guaranteed for q >= 0")
    a, b = q_value.numerator, q_value.denominator
    system = _system(P)
    rows = [[b * plus - a * minus for plus, minus in row] for row in system._rows(system.order)]
    return len(factor(rows).rows) == P.n + 1


def toggleability_space_dims(P: Poset) -> dict:
    """Dimensions of {f = const mod toggleability} intersected with the spans
    of the antichain indicators (dim_A) and ideal indicators (dim_I), plus
    their q-analogues.

    All four spaces consist of rational-coefficient combinations a of the n
    observables.  At a point z where the pivot rows of the certificate system
    are nonsingular, each observable's candidate from those rows leaves a
    monomial residual R_j(z) (`_residual`), and sum_j a_j * obs_j is in the
    span of {1, T^z_p} iff R(z) a = 0; each dimension is n minus the rank of
    the stacked R.  Over Q that is z = 1.  Over Q(q), det(q) * R(q) has
    q-degree at most n+1 (pivot-row entries of degree <= 1, an adjugate of
    degree <= n, observables constant in q), so it vanishes iff it vanishes
    at n+2 points, here the first n+2 nonsingular ones.
    """
    system = _system(P)
    out_rows = [{A: minus for A, (_, minus) in col.items() if minus}  # T-_p
                for col in system.columns[1:]]
    ind_rows = [{1 << p: 1} for p in range(P.n)]  # 1_p = x^{p}
    # n+2 factorizations, then the rank of up to (n+2) * #monomials rows
    _bound_work((P.n + 2) * len(system.order) * (P.n + 1) ** 2,
                "the toggleability space dimensions")
    at_one = [(1, system.at_one)]
    points = list(islice(_nonsingular_points(P), P.n + 2))
    return {
        "dim_A": P.n - _residual_rank(P, out_rows, at_one),
        "dim_I": P.n - _residual_rank(P, ind_rows, at_one),
        "dim_A_q": P.n - _residual_rank(P, out_rows, points),
        "dim_I_q": P.n - _residual_rank(P, ind_rows, points),
    }


def _residual_rank(P, observables, points):
    """Rank of the residual maps R(z), stacked over the (z, factorization)
    points: column j of R(z) is the monomial residual of observables[j]
    after its candidate from the Q(q) pivot rows at q = z."""
    pivots = _system(P).pivots
    rows = []
    for z, fact in points:
        residuals = [
            _residual(P, {A: fact.det * v for A, v in obs.items()},
                      fact.replay([obs.get(A, 0) for A in pivots]), z)
            for obs in observables
        ]
        for A in set().union(*residuals):
            row = [r.get(A, 0) for r in residuals]
            if any(row):
                rows.append(row)
    return len(factor(rows).rows) if rows else 0


def antichain_span_dim(P: Poset) -> int:
    """Dimension of the span of the antichain toggleability statistics T_A:
    the rank of one dense row per antichain over the ideals, whose work is
    bounded before it starts."""
    _bound_work(len(P.ideal_masks()) ** 3, "the antichain span")
    rows = [antichain_toggleability(P, A, "signed").nums for A in enumerate_antichains(P)]
    return len(factor(rows).rows)
