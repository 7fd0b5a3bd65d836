from math import comb

from hypothesis import given, settings, strategies as hyp

from rowmotion.families import rectangle
from rowmotion.qpoly import (
    Polynomial,
    RationalFunction,
    _ZPoly,
    poly_gcd,
    q_binomial,
    q_factorial,
    q_number,
)

fractions = hyp.fractions(
    min_value=-10, max_value=10, max_denominator=12
)
polys = hyp.lists(fractions, max_size=6).map(Polynomial)
nonzero_polys = polys.filter(lambda p: not p.is_zero())


def test_q_number_and_binomial_values():
    assert q_number(3) == Polynomial((1, 1, 1))
    assert q_binomial(4, 2) == RationalFunction(Polynomial((1, 1, 2, 1, 1)))
    assert q_binomial(5, 0) == RationalFunction.const(1)


def test_q_binomial_specializes_to_binomial():
    for n in range(8):
        for k in range(n + 1):
            assert q_binomial(n, k).evaluate(1) == comb(n, k)


def test_q_binomial_counts_weighted_ideals():
    # sum over ideals of q^(n - #I) is the Gaussian binomial for a rectangle
    for a in range(1, 5):
        for b in range(1, 5):
            P = rectangle(a, b)
            total = Polynomial()
            for mask in P.ideal_masks():
                k = P.n - bin(mask).count("1")
                total = total + Polynomial.q_power(k)
            assert RationalFunction(total) == q_binomial(a + b, b)


def test_q_factorial():
    assert q_factorial(3) == q_number(1) * q_number(2) * q_number(3)


@given(polys, polys, polys)
@settings(max_examples=60, deadline=None)
def test_polynomial_ring_axioms(f, g, h):
    assert (f + g) * h == f * h + g * h
    assert f * g == g * f
    assert f - f == Polynomial()
    assert (f * g) * h == f * (g * h)


@given(polys, nonzero_polys)
@settings(max_examples=60, deadline=None)
def test_divmod_is_exact(f, g):
    q, r = f.divmod(g)
    assert q * g + r == f
    assert r.is_zero() or r.degree < g.degree


@given(nonzero_polys, nonzero_polys)
@settings(max_examples=60, deadline=None)
def test_gcd_divides_both(f, g):
    d = poly_gcd(f, g)
    assert f.divmod(d)[1].is_zero()
    assert g.divmod(d)[1].is_zero()
    assert d.leading() == 1


@given(nonzero_polys, nonzero_polys, nonzero_polys)
@settings(max_examples=40, deadline=None)
def test_gcd_scales_with_common_factor(f, g, h):
    assert poly_gcd(f * h, g * h) == poly_gcd(f, g) * h.monic()


@given(polys, nonzero_polys, polys, nonzero_polys)
@settings(max_examples=60, deadline=None)
def test_rational_function_field_axioms(a, b, c, d):
    x = RationalFunction(a, b)
    y = RationalFunction(c, d)
    assert x + y - y == x
    if not y.is_zero():
        assert (x / y) * y == x
    # canonical form: monic denominator, coprime with the numerator
    assert x.den.leading() == 1
    if not x.num.is_zero():
        assert poly_gcd(x.num, x.den).degree == 0


@given(polys, nonzero_polys, hyp.fractions(min_value=-5, max_value=5, max_denominator=7))
@settings(max_examples=60, deadline=None)
def test_evaluation_is_a_homomorphism(a, b, z):
    if b.evaluate(z) == 0:
        return
    x = RationalFunction(a, b)
    assert x.evaluate(z) == a.evaluate(z) / b.evaluate(z)


def test_rational_function_pole_detection():
    x = RationalFunction(Polynomial((1,)), Polynomial((-1, 1)))  # 1/(q-1)
    try:
        x.evaluate(1)
    except ZeroDivisionError:
        pass
    else:
        raise AssertionError("expected a pole at q=1")


int_lists = hyp.lists(hyp.integers(-9, 9), max_size=6)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(int_lists, int_lists, hyp.integers(-5, 5))
def test_zpoly_ring_operations_match_polynomial(a, b, k):
    x, y = _ZPoly(a), _ZPoly(b)
    P, Q = Polynomial(a), Polynomial(b)
    for got, want in ((x + y, P + Q), (x - y, P - Q), (-x, -P), (x * y, P * Q),
                      (x + k, P + k), (k - x, k - P), (k * x, P * k), (x * k, P * k)):
        assert isinstance(got, _ZPoly) and Polynomial(got) == want
    assert (x == k) == (P == k) and (x != k) == (P != k)
    assert bool(x) == bool(P) and (x == _ZPoly(a + [0, 0]))
    if y:
        assert x * y // y == x and x * y // y * y == x * y
    if k:
        assert x * k // k == x


def test_zpoly_exact_division_raises_on_inexact_quotient():
    q = _ZPoly((0, 1))
    for num, den in ((q + 1, q - 1),  # a nonzero remainder
                     (q * q + 1, 2 * q),  # a quotient outside Z[q]
                     (_ZPoly((3,)), 2), (2 * q + 1, 2),
                     (q, q * q)):  # a divisor of higher degree
        try:
            num // den
        except ArithmeticError:
            pass
        else:
            raise AssertionError(f"{num} // {den} did not raise")
    assert (q * q - 1) // (q - 1) == q + 1 and (4 * q + 2) // 2 == 2 * q + 1
    assert _ZPoly() // (q + 3) == 0
