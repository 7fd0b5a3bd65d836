"""Piecewise-linear and birational rowmotion over exact rationals.

Points carry boundary parameters alpha and omega (the values attached to the
adjoined bottom and top elements).  Both levels share one point type and one
sweep, which toggles in place on a value list and builds one point at the
end.  Constancy checks and orbit laws are one law, `_law_sides`: a sum (PL)
or product (birational) over a list of states, one state for constancy.
All arithmetic is Fraction-exact; orbit return is detected by exact
equality.  Birational statistics with fractional exponents stay in factored
form and are compared after clearing exponent denominators.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .dynamics import rowmotion_order, sigma_order
from .poset import CapExceededError, OrderIdeal, Poset, _bits
from .statistics import Statistic


@dataclass(frozen=True)
class _Point:
    poset: Poset
    values: tuple
    alpha: Fraction
    omega: Fraction

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(Fraction(v) for v in self.values))
        object.__setattr__(self, "alpha", Fraction(self.alpha))
        object.__setattr__(self, "omega", Fraction(self.omega))
        if len(self.values) != self.poset.n:
            raise ValueError("point length must equal the element count")

    def replace_value(self, p, v):
        vals = list(self.values)
        vals[p] = v
        return type(self)(self.poset, vals, self.alpha, self.omega)


@dataclass(frozen=True)
class PLPoint(_Point):
    alpha: Fraction = Fraction(0)
    omega: Fraction = Fraction(1)

    def _toggled(self, vals, p):
        return (min(_upper_values(self, vals, p)) + max(_lower_values(self, vals, p))
                - vals[p])


@dataclass(frozen=True)
class BPoint(_Point):
    alpha: Fraction = Fraction(1)
    omega: Fraction = Fraction(1)

    def __post_init__(self):
        super().__post_init__()
        if self.alpha <= 0 or self.omega <= 0 or any(v <= 0 for v in self.values):
            raise ValueError("birational points must be strictly positive")

    def _toggled(self, vals, p):
        return sum(_lower_values(self, vals, p)) / (
            vals[p] * sum(1 / v for v in _upper_values(self, vals, p)))


def vertex_point(I: OrderIdeal, alpha=Fraction(0), omega=Fraction(1)) -> PLPoint:
    """Indicator of the complement of I; the combinatorial embedding."""
    P = I.poset
    vals = [Fraction(0) if I.mask >> p & 1 else Fraction(1) for p in range(P.n)]
    return PLPoint(P, vals, alpha, omega)


def _lower_values(pt, vals, p):
    dm = pt.poset.down_covers[p]
    return tuple(vals[r] for r in _bits(dm)) if dm else (pt.alpha,)


def _upper_values(pt, vals, p):
    um = pt.poset.up_covers[p]
    return tuple(vals[r] for r in _bits(um)) if um else (pt.omega,)


def _sweep(pt, order):
    """Toggle at each element of `order` in turn, in place on one value list."""
    vals = list(pt.values)
    for p in order:
        vals[p] = pt._toggled(vals, p)
    return type(pt)(pt.poset, vals, pt.alpha, pt.omega)


# -- piecewise-linear level ---------------------------------------------------------


def pl_toggle(pt: PLPoint, p: int) -> PLPoint:
    return _sweep(pt, (p,))


def pl_rowmotion(pt: PLPoint) -> PLPoint:
    return _sweep(pt, rowmotion_order(pt.poset))


def pl_rowmotion_sigma(pt: PLPoint, sigma) -> PLPoint:
    return _sweep(pt, sigma_order(pt.poset, sigma))


def pl_t_in(pt: PLPoint, p: int) -> Fraction:
    return pt.values[p] - max(_lower_values(pt, pt.values, p))


def pl_t_out(pt: PLPoint, p: int) -> Fraction:
    return min(_upper_values(pt, pt.values, p)) - pt.values[p]


def pl_t_signed(pt: PLPoint, p: int) -> Fraction:
    return pl_t_in(pt, p) - pl_t_out(pt, p)


# -- birational level ----------------------------------------------------------------


def b_toggle(pt: BPoint, p: int) -> BPoint:
    return _sweep(pt, (p,))


def b_rowmotion(pt: BPoint) -> BPoint:
    return _sweep(pt, rowmotion_order(pt.poset))


def b_rowmotion_sigma(pt: BPoint, sigma) -> BPoint:
    return _sweep(pt, sigma_order(pt.poset, sigma))


def b_t_in(pt: BPoint, p: int) -> Fraction:
    return pt.values[p] / sum(_lower_values(pt, pt.values, p))


def b_t_out(pt: BPoint, p: int) -> Fraction:
    return 1 / (pt.values[p] * sum(1 / v for v in _upper_values(pt, pt.values, p)))


def b_t_ratio(pt: BPoint, p: int) -> Fraction:
    return b_t_in(pt, p) / b_t_out(pt, p)


def lifted_toggleability(pt, p: int, kind: str) -> Fraction:
    """T+/T-/signed at the level of the given point (PL or birational)."""
    table = {
        (PLPoint, "in"): pl_t_in,
        (PLPoint, "out"): pl_t_out,
        (PLPoint, "signed"): pl_t_signed,
        (BPoint, "in"): b_t_in,
        (BPoint, "out"): b_t_out,
        (BPoint, "signed"): b_t_ratio,
    }
    try:
        fn = table[(type(pt), kind)]
    except KeyError:
        raise ValueError(f"no lifted statistic for {type(pt).__name__}/{kind}")
    return fn(pt, p)


# -- lifting linear statistics ---------------------------------------------------------


@dataclass(frozen=True)
class LiftedStatistic:
    """Coefficients (a_p, a'_p, a''_p) on T+_p, T-_p and the ideal indicator."""

    poset: Poset
    coeff_in: tuple
    coeff_out: tuple
    coeff_ind: tuple
    label: str = ""

    def eval_pl(self, pt: PLPoint) -> Fraction:
        acc = Fraction(0)
        for p in range(self.poset.n):
            if self.coeff_in[p]:
                acc += self.coeff_in[p] * pl_t_in(pt, p)
            if self.coeff_out[p]:
                acc += self.coeff_out[p] * pl_t_out(pt, p)
            if self.coeff_ind[p]:
                acc += self.coeff_ind[p] * (pt.omega - pt.values[p])
        return acc

    def b_factors(self, pt: BPoint):
        """Factored form [(base, exponent), ...] of the birational value."""
        out = []
        for p in range(self.poset.n):
            if self.coeff_in[p]:
                out.append((b_t_in(pt, p), self.coeff_in[p]))
            if self.coeff_out[p]:
                out.append((b_t_out(pt, p), self.coeff_out[p]))
            if self.coeff_ind[p]:
                out.append((pt.omega / pt.values[p], self.coeff_ind[p]))
        return out


def lift_statistic(stat: Statistic, check_hypothesis: bool = True) -> LiftedStatistic:
    """Lift a linear statistic to the PL and birational levels.

    The constancy transfer is only guaranteed on posets where every element
    covers at most two elements and is covered by at most two, so other
    posets are refused.
    """
    if stat.combo is None:
        raise ValueError(
            "statistic has no toggle/indicator expansion; only linear "
            "combinations of T+, T-, and ideal indicators lift"
        )
    P = stat.poset
    if check_hypothesis:
        bad = [
            p
            for p in range(P.n)
            if bin(P.up_covers[p]).count("1") > 2
            or bin(P.down_covers[p]).count("1") > 2
        ]
        if bad:
            raise ValueError(
                f"lifting requires every element to cover and be covered by "
                f"at most two elements; violated at {bad}"
            )
    tin, tout, ind = stat.combo
    return LiftedStatistic(P, tin, tout, ind, label=stat.label)


def certificate_witness(stat: Statistic, decomposition) -> tuple:
    """The lifted statistic h = f - sum c_p T_p together with its constant.

    At the combinatorial level h equals the certificate constant identically,
    so its PL and birational lifts are constant as well.
    """
    lifted = lift_statistic(stat)
    c = decomposition.coeffs
    tin = tuple(a - cp for a, cp in zip(lifted.coeff_in, c))
    tout = tuple(a + cp for a, cp in zip(lifted.coeff_out, c))
    h = LiftedStatistic(stat.poset, tin, tout, lifted.coeff_ind,
                        label=f"{stat.label} - certificate part")
    return h, decomposition.constant


def _law_sides(h: LiftedStatistic, c, states) -> tuple:
    """Both sides of the law of h with constant c over `states`, which share
    their boundary values: sum of h = #states * c * (omega - alpha) at the PL
    level, product of h = (omega/alpha)^(#states * c) at the birational
    level, the product raised to the least power that clears every exponent
    denominator."""
    c = Fraction(c)
    first = states[0]
    if isinstance(first, PLPoint):
        lhs = sum((h.eval_pl(pt) for pt in states), Fraction(0))
        return lhs, len(states) * c * (first.omega - first.alpha)
    factors = [f for pt in states for f in h.b_factors(pt)]
    scale = lcm(c.denominator, *(e.denominator for _, e in factors))
    lhs = Fraction(1)
    for base, e in factors:
        lhs *= base ** int(e * scale)
    return lhs, (first.omega / first.alpha) ** int(c * scale * len(states))


def check_pl_constant(h: LiftedStatistic, c: Fraction, pt: PLPoint) -> bool:
    lhs, rhs = _law_sides(h, c, (pt,))
    return lhs == rhs


def check_b_constant(h: LiftedStatistic, c: Fraction, pt: BPoint) -> bool:
    lhs, rhs = _law_sides(h, c, (pt,))
    return lhs == rhs


# -- orbits and orbit laws --------------------------------------------------------------


def lifted_orbit(start, sigma=None, max_iter: int = 10_000):
    """Forward orbit of PL or birational rowmotion from `start`.

    Returns the orbit states; raises CapExceededError if the point does not
    return within max_iter steps (reported as inconclusive by callers).
    """
    P = start.poset
    order = rowmotion_order(P) if sigma is None else sigma_order(P, sigma)
    states = [start]
    cur = _sweep(start, order)
    while cur != start:
        if len(states) >= max_iter:
            raise CapExceededError(f"no return within {max_iter} iterations")
        states.append(cur)
        cur = _sweep(cur, order)
    return states


@dataclass(frozen=True)
class LiftedOrbitReport:
    finite: bool
    period: int
    holds: object  # bool, or None when inconclusive
    lhs: object
    rhs: object


def orbit_homomesy_lifted(h: LiftedStatistic, c, start, sigma=None,
                          max_iter: int = 10_000) -> LiftedOrbitReport:
    """Verify the orbit sum law (PL) or orbit product law (birational).

    For a statistic with certificate constant c, the sum over a finite PL
    orbit is #O * c * (omega - alpha), and the product over a finite
    birational orbit is (omega/alpha)^(#O * c).
    """
    try:
        states = lifted_orbit(start, sigma=sigma, max_iter=max_iter)
    except CapExceededError:
        return LiftedOrbitReport(False, 0, None, None, None)
    lhs, rhs = _law_sides(h, c, states)
    return LiftedOrbitReport(True, len(states), lhs == rhs, lhs, rhs)


def toggleability_orbit_law(states) -> bool:
    """Whether every signed toggleability T_p = T+_p - T-_p obeys the law with
    constant 0 over `states`: orbit sum 0 (PL), orbit product 1 (birational)."""
    P = states[0].poset
    for p in range(P.n):
        unit = tuple(int(r == p) for r in range(P.n))
        T = LiftedStatistic(P, unit, tuple(-u for u in unit), (0,) * P.n)
        lhs, rhs = _law_sides(T, 0, states)
        if lhs != rhs:
            return False
    return True


# -- sampling ------------------------------------------------------------------------


def random_fraction(rng: random.Random, bound: int = 100) -> Fraction:
    return Fraction(rng.randint(1, bound), rng.randint(1, bound))


def random_pl_point(P: Poset, rng: random.Random, alpha=Fraction(0),
                    omega=Fraction(1), bound: int = 100) -> PLPoint:
    vals = [random_fraction(rng, bound) for _ in range(P.n)]
    return PLPoint(P, vals, alpha, omega)


def random_b_point(P: Poset, rng: random.Random, alpha=Fraction(1),
                   omega=Fraction(1), bound: int = 100) -> BPoint:
    vals = [random_fraction(rng, bound) for _ in range(P.n)]
    return BPoint(P, vals, alpha, omega)
