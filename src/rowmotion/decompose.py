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
candidate was the only possible solution.  `q_decompose` does the same over
Z[q] on ints at q = 2^B (Kronecker substitution): the n+1 pivot rows are
factored once at that point, and the determinant and the numerators are
read back from their base-2^B digits under a checked bound;
`toggleability_space_dims` (Table 2) takes the
kernel of the residuals over Q and the rank of those of its basis over
Z[q], `verify_independence` the rank of the system at a fixed q >= 0 and
`antichain_span_dim` a sparse rank over the ideals, all on that one kernel.
The system, cached on the poset, is bounded in size before it is built,
each factorization as it runs, and the Q(q) and Table 2 solves before they
start (`check_work`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from math import gcd

from .dynamics import rowmotion_order
from .linalg import check_work, factor
from .poset import CapExceededError, Poset, mask_cap
from .qpoly import (
    CertificateError,
    RationalFunction,
    cleared,
    format_fraction,
    lowest_terms,
    pack,
    positive_roots,
    unpack,
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
    factors the monomials' rows at q = 1, `pivots` maps its n+1 pivot
    monomials to their rows and `packed(B)` factors those at q = 2^B.  Rows
    are read from the largest antichains down, the singletons last: the
    pivots' determinant then has a low q-degree (9 against 25 with {} and
    the singletons first, on rect:5,5)."""

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
        self._columns_at, self._packed = {}, {}

    def columns_at(self, z):
        """The columns with each entry plus - z * minus, for an int z (or,
        in a Z[q] reference, z = q), built once for each."""
        if z not in self._columns_at:
            self._columns_at[z] = _at(self.columns, z)
        return self._columns_at[z]

    def packed(self, B):
        """The pivot rows factored at q = 2^B, once for each B and bounded
        as they run: the factorization `_replay_at_q` replays."""
        if B not in self._packed:
            try:
                self._packed[B] = factor(_at(self.pivots.values(), 1 << B), len(self.pivots))
            except CapExceededError as exc:
                raise CapExceededError(f"factoring the pivot rows over Z[q]: {exc}") from None
        return self._packed[B]

    @cached_property
    def row_norm(self):
        """max over the monomials A of sum_j |M_Aj|_1, M_Aj = plus - q * minus
        the entry of column j: the largest 1-norm of a row over Z[q]."""
        out = {}
        for col in self.columns:
            for A, (plus, minus) in col.items():
                out[A] = out.get(A, 0) + abs(plus) + abs(minus)
        return max(out.values())


def _at(rows, a, b=1):
    """The rows {j: [plus, minus]} at q = a/b, cleared by b; over Z[q] at a = q."""
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
    solvers pass ints, at z = 1 or 2^B, and a Z[q] reference `Polynomial`s
    at z = q: arithmetic in Z or Z[q] over the sparse columns of the system."""
    out = dict(values)
    for c, col in zip(sol, _system(P).columns_at(z)):
        if c:
            for A, v in col.items():
                out[A] = out.get(A, 0) - c * v
    return out


def _is_certificate(P, values, sol, z=1):
    """True iff values == sol[0] + sum_p sol[p+1] * T^z_p, monomial by
    monomial, which is on every ideal."""
    return not any(_residual(P, values, sol, z).values())


def q_decompose(P: Poset, f: Statistic):
    """Certificate f = c(q) + sum c_p(q) T^q_p over Q(q), or None.

    f, with rational or Q(q) values, is read in its cleared form g / s, g
    integer polynomials of degree <= d.  The n+1 pivot rows of
    `_System.pivots`, independent at q = 1 and so over Q(q), are factored
    once as ints at q = 2^B, B chosen from g's coefficient bits, and that
    factorization sizes the solve.  Replayed on g, it gives det and the
    Cramer numerators N_j = det * x_j at 2^B, and the residual
    det * g - sum_j N_j T^q_j, monomial by monomial, is the one check, with
    det and N unpacked under a checked bound (`_replay_at_q`): zero proves
    the certificate x_j = N_j / (det * s), nonzero proves NOT IN SPAN, since
    x was the only possible solution.  The coefficients, put in lowest terms
    with one integer gcd each (`lowest_terms`), are then checked to have no
    pole at any nonnegative rational, which makes every specialization
    q := r/s legal.
    """
    if f.poset is not P:
        raise ValueError("statistic lives on a different poset")
    system = _system(P)
    mono, den = _monomials(P, f)
    d = max((v.degree for v in mono.values()), default=0) if f.kind == QRATIONAL else 0
    B = _first_point([mono])
    fact = system.packed(B)
    # with e = D + d + 1, D the pivots' largest q-degree (B D to B D + B - 1
    # bits at 2^B), the replay and the residual update about e coefficients
    # per step and entry, and putting each of the n+1 coefficients in lowest
    # terms (`lowest_terms`) packs it into one integer gcd, about e, and
    # divides it by a gcd of degree k in (e - k) k <= e^2 / 4 updates
    D = max((u[c].bit_length() // B for u, c in zip(fact.lu, fact.cols)), default=0)
    e = D + d + 1
    entries = sum(map(len, fact.steps)) + sum(map(len, fact.lu)) + sum(map(len, system.columns))
    check_work(entries * e + (P.n + 1) * (e * e // 4 + e),
               f"the Q(q) solve over Z[q] with pivots of degree <= {D}")
    replayed = _replay_at_q(P, [mono], B, in_span=True)
    if replayed is None:
        return None
    _, det, [(y, _)] = replayed
    sol = lowest_terms(y, det * den)
    for c in {c.den: c for c in sol}.values():  # once per distinct denominator
        _check_no_nonnegative_pole(c)
    return Decomposition(P, sol[0], tuple(sol[1:]), QRATIONAL)


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
    observables.  Each observable's candidate from the pivot rows of the
    certificate system at q = z leaves a monomial residual R_j(z)
    (`_residual`), and sum_j a_j * obs_j is in the span of {1, T^z_p} iff
    R(z) a = 0.  Over Q that is z = 1: the dimension is that of the kernel
    K of R(1), whose basis B (k vectors) comes from back-substitution
    (`Factorization.kernel`).  Over Q(q) it is the residual over Z[q],
    det(q) * R(q), and a rational a is in its kernel iff every q-coefficient
    row of it vanishes on a.  Such an a is in K: at q = 1 the pivot rows are
    those of `at_one`, with det(1) != 0.  So only the k combinations
    sum_j B_jl obs_j, each basis vector divided by the gcd of its entries,
    are replayed over Z[q] (`_replay_at_q`), and the q-dimension is k minus
    the rank of their q-coefficient residual rows, unpacked from q = 2^B.
    Those are det'(q) R(q) for the nonzero det' unpacked there, which has
    the kernel of det(q) R(q) whether or not det' is det.
    """
    system, n = _system(P), P.n
    spaces = {"A": [{A: minus for A, (_, minus) in col.items() if minus}  # T-_p
                    for col in system.columns[1:]],
              "I": [{1 << p: 1} for p in range(n)]}  # 1_p = x^{p}
    # a replay and its residual take about half the work of the factorization
    # at q = 1
    check_work(n * system.at_one.work, f"the toggleability space dimensions in {2 * n} replays")
    kernels = {name: factor(_residual_rows(P, obs), n).kernel(n)
               for name, obs in spaces.items()}
    k = sum(map(len, kernels.values()))
    # a replay at q = 2^B makes the int operations of one at q = 1, and
    # unpacks its n+1 numerators, of degree <= n+1, one digit at a time
    check_work(k * (system.at_one.work // 2 + (n + 1) * (n + 2)),
               f"the toggleability space dimensions in {k} replays over Z[q]")
    dims = {f"dim_{name}": len(basis) for name, basis in kernels.items()}
    for name, basis in kernels.items():
        combos = []
        for x in basis:
            g, common = {}, gcd(*x)  # else each carries the last pivot at q = 1
            for a, obs in zip(x, spaces[name]):
                for A, v in obs.items():
                    g[A] = g.get(A, 0) + a // common * v
            combos.append(g)
        B, _, replays = _replay_at_q(P, combos, _first_point(combos))
        rows = {}  # one per monomial and power of q
        for j, (_, r) in enumerate(replays):
            for A, v in r.items():
                for power, c in enumerate(unpack(v, B).coeffs):
                    if c:
                        rows.setdefault((A, power), {})[j] = c
        dims[f"dim_{name}_q"] = len(basis) - len(factor(list(rows.values()), len(basis)).rows)
    return dims


def _residual_rows(P, observables):
    """The rows of the residual map R(1), one per monomial: column j is the
    residual of observables[j] after its candidate from `at_one`."""
    system, rows = _system(P), {}
    fact = system.at_one
    for j, obs in enumerate(observables):
        r = _residual(P, {A: fact.det * v for A, v in obs.items()},
                      fact.replay([obs.get(A, 0) for A in system.pivots]))
        for A, v in r.items():
            if v:
                rows.setdefault(A, {})[j] = v
    return list(rows.values())


# The points 2^B, B doubling, a replay over Z[q] tries before it gives up.
_PACKINGS = 4


def _norm(v):
    """|v|_1, the sum of the absolute values of the coefficients of an int
    or of an integer polynomial."""
    return abs(v) if v.__class__ is int else sum(map(abs, v.coeffs))


def _first_point(combos):
    """The least multiple of 64 two past the bits of the coefficients in `combos`."""
    bits = max((abs(c).bit_length() for g in combos for v in g.values()
                for c in ((v,) if v.__class__ is int else v.coeffs)), default=0)
    return -(-(bits + 2) // 64) * 64


def _replay_at_q(P, combos, B, in_span=False):
    """(B, det, [(N, r)]) at the first point 2^B, B doubling from the one
    given, that proves them: det is the determinant of the pivot rows and,
    for each dict g of monomial coefficients in `combos` (ints or integer
    Polynomials), N the Cramer numerators of its candidate, both as
    Polynomials, and r its residual det * g_A - sum_j N_j M_Aj at 2^B, as
    ints, M_Aj the entry of column j at the monomial A.  With `in_span`,
    None as soon as a residual is not zero.

    The pivot rows are factored and replayed on ints at z = 2^B
    (`_System.packed`, Kronecker substitution).  Where det(z) != 0 that
    gives det(z) and N_j(z), so a residual nonzero at z proves one nonzero
    over Z[q].  With det' and N' unpacked from z (`unpack`), the polynomial
    det' g_A - sum_j N'_j M_Aj takes the residual's value at z and has no
    coefficient above beta = |det'|_1 max_A |g_A|_1 + max_j |N'_j|_1
    max_A sum_j |M_Aj|_1, so beta < 2^(B-1) makes it the unpacked residual.
    It vanishes on the pivot monomials, and det' != 0 as det'(z) = det(z);
    the pivot rows are nonsingular over Q(q), so N' / det' is their unique
    solution, whether or not det' is det, and each unpacked residual is det'
    times the true one: 0 everywhere proves the certificate N' / det'.
    Where det(z) = 0 or the bound fails, B doubles, and after _PACKINGS
    points CertificateError is raised.
    """
    system = _system(P)
    for _ in range(_PACKINGS):
        packed, z, out = system.packed(B), 1 << B, []
        if packed.det:  # else the pivot rows are singular at z
            det = unpack(packed.det, B)
            det_norm = _norm(det)
            for g in combos:
                gz = {A: v if v.__class__ is int else pack(v, B) for A, v in g.items()}
                y = packed.replay([gz.get(A, 0) for A in system.pivots])
                r = _residual(P, {A: packed.det * v for A, v in gz.items()}, y, z)
                if in_span and any(r.values()):
                    return None
                N = [unpack(v, B) for v in y]
                beta = (det_norm * max(map(_norm, g.values()), default=0)
                        + max(map(_norm, N)) * system.row_norm)
                if beta >> (B - 1):
                    break
                out.append((N, r))
            else:
                return B, det, out
        B *= 2
    raise CertificateError(
        f"the replay over Z[q] is not proved at any of {_PACKINGS} points 2^B, B < {B}")


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
