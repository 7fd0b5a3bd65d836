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
(-1)^|S| x^{max({p} u S)}.  The certificate system of a poset has one sparse
row per monomial these touch (at most 1 + 2n + sum_p 2^|C+(p)|) over the
columns 1, T^q_0, ..., each entry plus - q*minus with plus from T+ and minus
from T-.  `decompose` factors it once at q = 1 with the sparse kernel of
`linalg`, replays that on a statistic's coefficients (`_monomials`) at the
n+1 pivot monomials, and takes the sparse integer residual over every
monomial: zero proves the certificate, nonzero proves NOT IN SPAN, since the
candidate was the only possible solution.  `q_decompose` refactors the n+1
pivot rows at integer values of q and interpolates; `toggleability_space_dims`
(Table 2) takes the rank of stacked residuals, `verify_independence` the rank
of the system at a fixed q >= 0 and `antichain_span_dim` a sparse rank over
the ideals, all on that one kernel.  The system, cached on the poset, is
bounded in size before it is built, each factorization as it runs, and the
Q(q) and Table 2 point loops before they start (`check_work`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import chain, count, islice
from math import lcm

from .dynamics import rowmotion_order
from .linalg import check_work, factor
from .poset import CapExceededError, Poset, mask_cap
from .qpoly import (
    CertificateError,
    RationalFunction,
    cleared,
    format_fraction,
    horner,
    interpolate,
    positive_roots,
)
from .statistics import QRATIONAL, RATIONAL, Statistic, accumulate_toggles

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


class _System:
    """The certificate system of a poset: `columns[j]` maps each monomial of
    column j (1, then T^q_0, T^q_1, ...) to its [plus, minus] pair, `at_one`
    factors the monomials' rows at q = 1 and `pivots` maps its n+1 pivot
    monomials to their rows.  Rows are read from the largest antichains down,
    the singletons last: the pivots' determinant then has a low q-degree (9
    against 25 with {} and the singletons first, on rect:5,5)."""

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
        rows = {}  # each monomial's row {j: [plus, minus]}
        for j, col in enumerate(self.columns):
            for A, pair in col.items():
                rows.setdefault(A, {})[j] = pair
        singletons = [1 << p for p in range(P.n)]
        rest = sorted(set(rows).difference([0], singletons), key=lambda A: (A.bit_count(), A))
        order = [0, *reversed(rest), *singletons]
        try:
            self.at_one = factor(_at([rows[A] for A in order], 1), P.n + 1)
        except CapExceededError as exc:
            raise CapExceededError(f"factoring the certificate system: {exc}") from None
        self.pivots = {order[i]: rows[order[i]] for i in self.at_one.rows}


def _at(rows, a, b=1):
    """The rows {j: [plus, minus]} at q = a/b, cleared by b."""
    return [{j: b * plus - a * minus for j, (plus, minus) in row.items()} for row in rows]


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
        fact = factor(_at(rows, z), P.n + 1)
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
    # a point: a factorization, at most the work at q = 1, and n+1 interpolation terms
    check_work(npoints * (_system(P).at_one.work + (P.n + 1) * npoints),
               f"the Q(q) solve at {npoints} points")
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

    It is the rank of the system's columns at q = a/b, cleared by b, each
    factored as a row over the monomials, which enumerates no ideal.
    """
    q_value = Fraction(q_value)
    if q_value < 0:
        raise ValueError("independence is only guaranteed for q >= 0")
    columns = _system(P).columns
    index = {A: i for i, A in enumerate(set().union(*columns))}  # the monomials
    rows = _at(({index[A]: pair for A, pair in col.items()} for col in columns),
               q_value.numerator, q_value.denominator)
    return len(factor(rows, len(index)).rows) == P.n + 1


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
    at n+2 points, here the first n+2 nonsingular ones, z = 1 among them.
    """
    system = _system(P)
    # a point solves for 2n observables, each about half the work at q = 1
    check_work((P.n + 2) * P.n * system.at_one.work,
               f"the toggleability space dimensions at {P.n + 2} points")
    points = list(islice(_nonsingular_points(P), P.n + 2))
    dims = {}
    for name, observables in (
            ("A", [{A: minus for A, (_, minus) in col.items() if minus}  # T-_p
                   for col in system.columns[1:]]),
            ("I", [{1 << p: 1} for p in range(P.n)])):  # 1_p = x^{p}
        rows = {z: _residual_rows(P, observables, z, fact) for z, fact in points}
        dims["dim_" + name] = P.n - len(factor(rows[1], P.n).rows)
        dims[f"dim_{name}_q"] = P.n - len(factor([*chain(*rows.values())], P.n).rows)
    return {k: dims[k] for k in ("dim_A", "dim_I", "dim_A_q", "dim_I_q")}


def _residual_rows(P, observables, z, fact):
    """The rows, one per monomial, of the residual map R(z): column j is the
    residual of observables[j] after its candidate from `fact` at q = z."""
    pivots = _system(P).pivots
    residuals = [_residual(P, {A: fact.det * v for A, v in obs.items()},
                           fact.replay([obs.get(A, 0) for A in pivots]), z)
                 for obs in observables]
    return [{j: r[A] for j, r in enumerate(residuals) if r.get(A)}
            for A in set().union(*residuals)]


def antichain_span_dim(P: Poset) -> int:
    """Dimension of the span of the antichain toggleability statistics T_A:
    the rank of their sparse rows over the ideals, T_A being -1 at each J
    with A within max(J) and +1 at J - A (`antichain_toggleability`)."""
    masks, rows = P.ideal_masks(), {}
    for j, top in enumerate(P.antichain_masks()):
        A = top
        while A:  # no two entries meet: A is within J and not within J - A
            rows.setdefault(A, {}).update({j: -1, P.ideal_index(masks[j] ^ A): 1})
            A = (A - 1) & top
    return len(factor(sorted(rows.values(), key=len), len(masks)).rows)  # short rows first
