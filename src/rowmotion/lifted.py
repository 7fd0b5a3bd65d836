"""Piecewise-linear and birational rowmotion over exact rationals.

Points carry boundary parameters alpha and omega (the values attached to the
adjoined bottom and top elements).  Each operation works at the level of the
point it is given (`lifted_toggle`, `lifted_rowmotion`, `lifted_toggleability`,
`check_constant`, `lifted_orbit`, `orbit_homomesy_lifted`); the paper's
per-level names are aliases, in one table at the end of the module.

Sweeps run on integers: a PL state is the numerators of the values over one
common denominator D of the values, alpha and omega (min, max, + and - keep
every value on (1/D)Z); a birational state is the values' numerators and
denominators, and a toggle clears its two cover sums and takes one gcd.
Orbits compare integer states and build each point once, at the end.  Each
point caches one integer table (`_atoms`) that a single atom is read off as
one Fraction.  Constancy is proved by factor exponents (`prove_lift`); where
they do not cancel, and for orbit laws, one law, `_law_sides`, runs over states:
the PL sum is an integer dot product per state, and the birational product
collects integer exponents per base, so what cancels is never multiplied out.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from math import gcd, lcm, prod

from .dynamics import rowmotion_order, sigma_order
from .poset import CapExceededError, OrderIdeal, Poset
from .qpoly import _TOO_LONG, check_digits, cleared
from .statistics import TOGGLEABILITY_KINDS, Statistic


@dataclass(frozen=True)
class _Point:
    poset: Poset
    values: tuple
    alpha: Fraction
    omega: Fraction

    def __post_init__(self):
        vals = tuple(v if type(v) is Fraction else Fraction(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        for name in ("alpha", "omega"):
            if type(v := getattr(self, name)) is not Fraction:
                object.__setattr__(self, name, Fraction(v))
        if len(self.values) != self.poset.n:
            raise ValueError("point length must equal the element count")

    def replace_value(self, p, v):
        vals = list(self.values)
        vals[p] = v
        return type(self)(self.poset, vals, self.alpha, self.omega)

    def _from_ints(self, ends, s):
        """The point of the state s, kept as its `_state`, built unchecked."""
        pt = object.__new__(type(self))
        pt.__dict__.update(poset=self.poset, values=self._values(ends, s),
                           alpha=self.alpha, omega=self.omega, _state=(ends, s))
        return pt


@dataclass(frozen=True)
class PLPoint(_Point):
    alpha: Fraction = Fraction(0)
    omega: Fraction = Fraction(1)

    @cached_property
    def _state(self):
        """(ends, x): ends = (D, alpha, omega) and x the values, as integers
        over one common denominator D (the least, or that of the swept point)."""
        (a, w, *x), D = cleared((self.alpha, self.omega, *self.values))
        return (D, a, w), x

    @staticmethod
    def _toggle_ints(P, ends, x, order):
        _, a, w = ends
        low, up = P.lower_covers, P.upper_covers
        for p in order:
            x[p] = (min([x[u] for u in up[p]], default=w)
                    + max([x[r] for r in low[p]], default=a) - x[p])

    @staticmethod
    def _values(ends, x):
        return tuple(Fraction(v, ends[0]) for v in x)

    @cached_property
    def _atoms(self):
        """(D, atoms): the integer numerators over D of T+_p for every p, then
        of T-_p, then of omega - x_p, then of omega - alpha."""
        P = self.poset
        (D, a, w), x = self._state
        t_in = [xp - max((x[r] for r in low), default=a)
                for xp, low in zip(x, P.lower_covers)]
        t_out = [min((x[u] for u in up), default=w) - xp
                 for xp, up in zip(x, P.upper_covers)]
        return D, (*t_in, *t_out, *(w - xp for xp in x), w - a)

    def _toggleability(self, p, a, b):
        """a T+_p + b T-_p, read off the table."""
        D, atoms = self._atoms
        return Fraction(a * atoms[p] + b * atoms[self.poset.n + p], D)


@dataclass(frozen=True)
class BPoint(_Point):
    alpha: Fraction = Fraction(1)
    omega: Fraction = Fraction(1)

    def __post_init__(self):
        super().__post_init__()
        if self.alpha <= 0 or self.omega <= 0 or any(v <= 0 for v in self.values):
            raise ValueError("birational points must be strictly positive")

    @cached_property
    def _state(self):
        """(ends, s): ends = (omega_n, omega_d, alpha_n, alpha_d) and s the
        numerators of the values, then their denominators."""
        a, w, vals = self.alpha, self.omega, self.values
        return ((w.numerator, w.denominator, a.numerator, a.denominator),
                [v.numerator for v in vals] + [v.denominator for v in vals])

    @staticmethod
    def _toggle_ints(P, ends, s, order):
        """x_p := L d_p prod n_u / (prod d_r n_p U) (`_cover_sums`), reduced."""
        n = P.n
        for p in order:
            L, Dl, U, Nu = _cover_sums(P, ends, s, p)
            top, bottom = L * s[n + p] * Nu, Dl * s[p] * U
            g = gcd(top, bottom)
            s[p], s[n + p] = top // g, bottom // g

    @staticmethod
    def _values(ends, s):
        return tuple(map(Fraction, s[:len(s) // 2], s[len(s) // 2:]))

    @cached_property
    def _atoms(self):
        """The integers n_p for every p, then d_p, then L_p, then U_p (of
        `_cover_sums`, with x_p = n_p/d_p), then omega_n, omega_d, alpha_n
        and alpha_d."""
        P = self.poset
        ends, s = self._state
        sums = [_cover_sums(P, ends, s, p) for p in range(P.n)]
        return (*s, *(t[0] for t in sums), *(t[2] for t in sums), *ends)

    def _toggleability(self, p, a, b):
        """T+_p^a T-_p^b, read off the table: T+_p = n_p prod d_r / (d_p L_p)
        and T-_p = d_p prod n_u / (n_p U_p)."""
        P, t = self.poset, self._atoms
        n, low, up = P.n, P.lower_covers[p], P.upper_covers[p]
        Dl = prod(t[n + r] for r in low) if low else t[-1]
        Nu = prod(t[u] for u in up) if up else t[-4]
        factors = ((t[p] * Dl, a), (t[n + p] * t[2 * n + p], -a),
                   (t[n + p] * Nu, b), (t[p] * t[3 * n + p], -b))
        return Fraction(_power_product(factors, 1), _power_product(factors, -1))


def _cover_sums(P, ends, s, p):
    """(L, prod d_r, U, prod n_u) at the birational state s: the lower covers
    of p sum to L / prod d_r (alpha if none), the reciprocals of its upper
    covers to U / prod n_u (1/omega if none).  L and U are unreduced and
    symmetric, so the same two elements give one integer, which cancels."""
    n, low, up = P.n, P.lower_covers[p], P.upper_covers[p]
    L, Dl, U, Nu = ends[2], ends[3], ends[1], ends[0]
    if low:
        L, Dl = 0, 1
        for r in low:
            L, Dl = L * s[n + r] + s[r] * Dl, Dl * s[n + r]
    if up:
        U, Nu = 0, 1
        for u in up:
            U, Nu = U * s[u] + s[n + u] * Nu, Nu * s[u]
    return L, Dl, U, Nu


def vertex_point(I: OrderIdeal, alpha=Fraction(0), omega=Fraction(1)) -> PLPoint:
    """Indicator of the complement of I; the combinatorial embedding."""
    P = I.poset
    vals = [Fraction(0) if I.mask >> p & 1 else Fraction(1) for p in range(P.n)]
    return PLPoint(P, vals, alpha, omega)


def _sweep(pt, order):
    """Toggle at each element of `order` in turn, on the integer state of pt."""
    ends, s = pt._state
    s = list(s)
    pt._toggle_ints(pt.poset, ends, s, order)
    return pt._from_ints(ends, s)


# -- the lifted operations, at the level of the point given ---------------------------


def _order(P: Poset, sigma) -> tuple:
    """The toggle order of rowmotion (sigma None) or of its rank permutation sigma."""
    return rowmotion_order(P) if sigma is None else sigma_order(P, sigma)


def lifted_toggle(pt, p: int):
    """The toggle at p of a PL or birational point."""
    if not (0 <= p < pt.poset.n):
        raise IndexError(f"element {p} out of range")
    return _sweep(pt, (p,))


def lifted_rowmotion(pt, sigma=None):
    """One step of rowmotion, or of its rank permutation sigma, on a PL or
    birational point."""
    return _sweep(pt, _order(pt.poset, sigma))


def lifted_toggleability(pt, p: int, kind: str) -> Fraction:
    """T+/T-/signed at the level of the given point (PL or birational)."""
    if type(pt) not in (PLPoint, BPoint) or kind not in TOGGLEABILITY_KINDS:
        raise ValueError(f"no lifted statistic for {type(pt).__name__}/{kind}")
    if not (0 <= p < pt.poset.n):
        raise IndexError(f"element {p} out of range")
    return pt._toggleability(p, *TOGGLEABILITY_KINDS[kind])


# -- lifting linear statistics ---------------------------------------------------------


@dataclass(frozen=True)
class LiftedStatistic:
    """Coefficients (a_p, a'_p, a''_p) on T+_p, T-_p and the ideal indicator."""

    poset: Poset
    coeff_in: tuple
    coeff_out: tuple
    coeff_ind: tuple
    label: str = ""

    @cached_property
    def _cleared(self):
        """(E, ((p, a, b, d), ...)): the coefficients on T+_p, T-_p, 1_p over E."""
        n = self.poset.n
        ints, E = cleared([Fraction(a) for a in (*self.coeff_in, *self.coeff_out,
                                                 *self.coeff_ind)])
        return E, [(p, ints[p], ints[n + p], ints[2 * n + p]) for p in range(n)]

    @cached_property
    def _terms(self):
        return _law_terms(self.poset, *self._cleared)

    @cached_property
    def _factor_exponents(self):
        """(E, {factor name: nonzero exponent over E}): the birational lift as a
        monomial in x_p, alpha, omega and the e_j of covers.  T+_p = x_p / (alpha,
        x_r or e_1 of the lower covers), T-_p = e_k / (x_p e_{k-1}) of the k
        upper covers (omega / x_p if k = 0), 1_p = omega / x_p."""
        P, (E, support), ex = self.poset, self._cleared, {}
        for p, a, b, d in support:
            low = [f"x{r}" for r in P.lower_covers[p]] or ["alpha"]
            up = [f"x{u}" for u in P.upper_covers[p]]
            factors = [(f"x{p}", a - b - d), ("omega", d if up else b + d), *((x, b) for x in up),
                       (low[0] if len(low) == 1 else f"e1({','.join(low)})", -a)]
            if (k := len(up)) > 1:  # e_{k-1} of the upper covers
                factors.append((f"e{k - 1}({','.join(up)})", -b))
            for f, e in factors:
                ex[f] = ex.get(f, 0) + e
        return E, {f: e for f, e in ex.items() if e}


def lift_statistic(stat: Statistic) -> LiftedStatistic:
    """Lift a linear statistic to the PL and birational levels.  The constancy
    transfer is only guaranteed where every element covers at most two
    elements and is covered by at most two, so other posets are refused."""
    if stat.combo is None:
        raise ValueError("statistic has no toggle/indicator expansion; only linear "
                         "combinations of T+, T-, and ideal indicators lift")
    P = stat.poset
    bad = [p for p in range(P.n)
           if len(P.upper_covers[p]) > 2 or len(P.lower_covers[p]) > 2]
    if bad:
        raise ValueError(f"lifting requires every element to cover and be covered by "
                         f"at most two elements; violated at {bad}")
    tin, tout, ind = stat.combo
    return LiftedStatistic(P, tin, tout, ind, label=stat.label)


def certificate_witness(stat: Statistic, decomposition) -> tuple:
    """The lifted statistic h = f - sum c_p T_p together with its constant.
    At the combinatorial level h equals the certificate constant identically,
    so its PL and birational lifts are constant as well."""
    lifted = lift_statistic(stat)
    c = decomposition.coeffs
    tin = tuple(a - cp for a, cp in zip(lifted.coeff_in, c))
    tout = tuple(a + cp for a, cp in zip(lifted.coeff_out, c))
    h = LiftedStatistic(stat.poset, tin, tout, lifted.coeff_ind,
                        label=f"{stat.label} - certificate part")
    return h, decomposition.constant


def _law_terms(P: Poset, E: int, support) -> tuple:
    """(E, PL terms, birational terms) of the statistic with coefficients
    `support` = ((p, a, b, d), ...) over E on T+_p, T-_p and omega - x_p (PL)
    or omega/x_p (birational).  PL terms are (slot, coefficient) pairs of the
    PL table.  Birational terms are the nonzero (slot, exponent) pairs of
    the birational table, from T+_p = n_p prod d_r / (d_p L_p),
    T-_p = d_p prod n_u / (n_p U_p) and omega/x_p = omega_n d_p / (omega_d n_p)."""
    n = P.n
    pl, ex = [], {}
    wn, wd, ad = 4 * n, 4 * n + 1, 4 * n + 3
    for p, a, b, d in support:
        pl += [(slot, k) for slot, k in ((p, a), (n + p, b), (2 * n + p, d)) if k]
        for slot, e in ((p, a - b - d), (n + p, b + d - a), (2 * n + p, -a),
                        (3 * n + p, -b), (wn, d), (wd, -d),
                        *((slot, a) for slot in [n + r for r in P.lower_covers[p]] or [ad]),
                        *((slot, b) for slot in P.upper_covers[p] or (wn,))):  # prod d_r, prod n_u
            ex[slot] = ex.get(slot, 0) + e
    return E, tuple(pl), tuple((slot, e) for slot, e in ex.items() if e)


def _law_sides(terms, c, states) -> tuple:
    """Integers (lhs, rhs, den) such that the two sides of the law of the
    statistic `terms` (from `_law_terms`) with constant c over `states`
    (which share their boundary values) are lhs/den and rhs/den; the law
    holds exactly when lhs == rhs.

    PL: the sum of the statistic is #states * c * (omega - alpha); each state
    is one integer dot product over its D * E.  Birational: the product of
    the statistic is (omega/alpha)^(#states * c), both sides raised to the
    least power S that clears c and E."""
    E, pl_terms, b_terms = terms
    c = Fraction(c)
    cn, cd = c.numerator, c.denominator
    if isinstance(states[0], PLPoint):
        total, den = 0, 1  # the sum over the states so far is total / (den * E)
        for pt in states:
            D, atoms = pt._atoms
            L = lcm(den, D)
            total, den = total * (L // den) + sum(k * atoms[i] for i, k in pl_terms) * (L // D), L
        D, atoms = states[0]._atoms
        return total * cd, len(states) * cn * atoms[-1] * (den // D) * E, den * E * cd
    ex = {}  # exponent (times E) per distinct integer base
    for pt in states:
        bases = pt._atoms
        for i, e in b_terms:
            base = bases[i]
            ex[base] = ex.get(base, 0) + e
    S = lcm(E, cd)
    if S != E:
        ex = {base: e * (S // E) for base, e in ex.items()}
    m = cn * (S // cd) * len(states)
    wn, wd, an, ad = states[0]._atoms[-4:]
    for base, e in ((wn, -m), (ad, -m), (wd, m), (an, m)):  # (omega/alpha)^m moved across
        ex[base] = ex.get(base, 0) + e
    left, right = _power_product(ex.items(), 1), _power_product(ex.items(), -1)
    rn, rd = (wn * ad) ** abs(m), (wd * an) ** abs(m)  # (omega/alpha)^m = rn/rd
    if m < 0:
        rn, rd = rd, rn
    return left * rn, right * rn, right * rd


def _power_product(factors, sign):
    """Product of base^(sign * e) over the pairs with sign * e > 0."""
    return prod(pow(base, sign * e) for base, e in factors if sign * e > 0)


def _law_holds(terms, c, states) -> bool:
    lhs, rhs, _ = _law_sides(terms, c, states)
    return lhs == rhs


def prove_lift(h: LiftedStatistic, c) -> dict:
    """The factors of h's birational lift whose exponents do not cancel against
    (omega/alpha)^c, with the exponent left over.  The factors are distinct
    irreducibles, so empty proves h = (omega/alpha)^c at every positive point
    and, tropicalized, h = c (omega - alpha) at every PL point."""
    E, ex = h._factor_exponents
    cn, cd = Fraction(c).as_integer_ratio()
    want = {"alpha": -cn, "omega": cn}  # over cd
    return {f: Fraction(ex.get(f, 0) * cd - want.get(f, 0) * E, E * cd)
            for f in {**want, **ex} if ex.get(f, 0) * cd != want.get(f, 0) * E}


def check_constant(h: LiftedStatistic, c: Fraction, pt) -> bool:
    """Whether h equals c * (omega - alpha) (PL) or (omega/alpha)^c at pt: True
    if `prove_lift` is empty, else the law evaluated at pt."""
    if not isinstance(pt, (PLPoint, BPoint)):
        raise ValueError(f"no lifted level for {type(pt).__name__}")
    if pt.poset is not h.poset:
        raise ValueError("point belongs to a different poset")
    return not prove_lift(h, c) or _law_holds(h._terms, c, (pt,))


# -- orbits and orbit laws --------------------------------------------------------------


def lifted_orbit(start, sigma=None, max_iter: int = 10_000):
    """Forward orbit of PL or birational rowmotion from `start`.

    Raises CapExceededError if the point does not return within max_iter
    steps, or once a value is too long for `check_digits` (birational values
    can double in length every step), reported as inconclusive by callers;
    and ValueError if max_iter < 1."""
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    order = _order(start.poset, sigma)
    ends, first = start._state
    step = partial(start._toggle_ints, start.poset, ends)
    states, cur = [first], list(first)
    step(cur, order)
    while cur != first:  # equal integer states are equal points
        if len(states) >= max_iter:
            raise CapExceededError(f"no return within {max_iter} iterations")
        if max(ends[0], max(cur), -min(cur)) >= _TOO_LONG:  # D (PL) and s bound the parts
            for v in start._values(ends, cur):
                check_digits(v)
        states.append(cur)
        cur = list(cur)
        step(cur, order)
    return [start, *(start._from_ints(ends, s) for s in states[1:])]


@dataclass(frozen=True)
class LiftedOrbitReport:
    finite: bool
    period: int
    holds: object  # bool, or None when inconclusive
    lhs: object
    rhs: object


def orbit_homomesy_lifted(h: LiftedStatistic, c, start, sigma=None,
                          max_iter: int = 10_000) -> LiftedOrbitReport:
    """Verify the orbit sum law (PL) or orbit product law (birational) of a
    statistic with certificate constant c: the sum over a finite PL orbit is
    #O * c * (omega - alpha), the product over a finite birational orbit is
    (omega/alpha)^(#O * c)."""
    if start.poset is not h.poset:
        raise ValueError("point belongs to a different poset")
    try:
        states = lifted_orbit(start, sigma=sigma, max_iter=max_iter)
    except CapExceededError:
        return LiftedOrbitReport(False, 0, None, None, None)
    lhs, rhs, den = _law_sides(h._terms, c, states)
    return LiftedOrbitReport(True, len(states), lhs == rhs, Fraction(lhs, den),
                             Fraction(rhs, den))


def toggleability_orbit_law(states) -> bool:
    """Whether every signed toggleability T_p = T+_p - T-_p obeys the law with
    constant 0 over `states`: orbit sum 0 (PL), orbit product 1 (birational).
    The states must share one poset, one level and one (alpha, omega)."""
    P, key = states[0].poset, (type(states[0]), states[0].alpha, states[0].omega)
    if any(s.poset is not P or (type(s), s.alpha, s.omega) != key for s in states):
        raise ValueError("a state belongs to a different poset, level or (alpha, omega)")
    signs = TOGGLEABILITY_KINDS["signed"]
    table = [_law_terms(P, 1, ((p, *signs, 0),)) for p in range(P.n)]  # sparse rows
    return all(_law_holds(terms, 0, states) for terms in table)


# -- sampling ------------------------------------------------------------------------


def random_fraction(rng: random.Random, bound: int = 100) -> Fraction:
    return Fraction(rng.randint(1, bound), rng.randint(1, bound))


def random_point(level, P: Poset, rng: random.Random, alpha=None, omega=None,
                 bound: int = 100):
    """A point of `level` (PLPoint or BPoint) on P whose values are drawn with
    `random_fraction`; alpha and omega default to the level's own."""
    vals = [random_fraction(rng, bound) for _ in range(P.n)]
    return level(P, vals, level.alpha if alpha is None else alpha,
                 level.omega if omega is None else omega)


# -- paper names ---------------------------------------------------------------------
# The per-level names of the paper, kept as aliases of the API above.  Each is
# its own object, so that wrapping one name (as a tracer does, by identity)
# leaves the others and the function behind them alone.

pl_t_signed = partial(lifted_toggleability, kind="signed")
b_t_ratio = partial(lifted_toggleability, kind="signed")
check_pl_constant = partial(check_constant)
check_b_constant = partial(check_constant)
