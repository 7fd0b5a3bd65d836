from fractions import Fraction
from math import comb

from hypothesis import example, given, settings, strategies as hyp

from rowmotion.families import rectangle
from rowmotion.qpoly import (
    Polynomial,
    RationalFunction,
    _poly,
    horner,
    lowest_terms,
    pack,
    poly_gcd,
    q_binomial,
    q_factorial,
    q_number,
    unpack,
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


def _fractions(cs):
    """A Polynomial with every coefficient a Fraction, integral ones too, as
    arithmetic on Fractions can leave them (the constructor makes those ints)."""
    return _poly([Fraction(c) for c in cs])


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(int_lists, int_lists, hyp.integers(-5, 5))
def test_zpoly_ring_operations_match_polynomial(a, b, k):
    """Polynomials over Z[q] on the int fast paths match the same
    operations on Fraction coefficients, and stay int."""
    x, y = Polynomial(a), Polynomial(b)
    P, Q = _fractions(a), _fractions(b)
    for got, want in ((x + y, P + Q), (x - y, P - Q), (-x, -P), (x * y, P * Q),
                      (x + k, P + k), (k - x, k - P), (k * x, P * k), (x * k, P * k)):
        assert isinstance(got, Polynomial) and got == want
        assert all(c.__class__ is int for c in got.coeffs)
    assert (x == k) == (P == k) and (x != k) == (P != k)
    assert bool(x) == bool(P) and (x == Polynomial(a + [0, 0]))
    if y:
        assert x * y // y == x and x * y // y * y == x * y
    if k:
        assert x * k // k == x


def test_zpoly_exact_division_raises_on_inexact_quotient():
    q = Polynomial((0, 1))
    for num, den in ((q + 1, q - 1),  # a nonzero remainder
                     (q * q + 1, 2 * q),  # a quotient outside Z[q]
                     (Polynomial((3,)), 2), (2 * q + 1, 2),
                     (q, q * q)):  # a divisor of higher degree
        try:
            num // den
        except ArithmeticError:
            pass
        else:
            raise AssertionError(f"{num} // {den} did not raise")
    assert (q * q - 1) // (q - 1) == q + 1 and (4 * q + 2) // 2 == 2 * q + 1
    assert Polynomial() // (q + 3) == 0


@hyp.composite
def _packable(draw):
    """(coefficients, B) with every |coefficient| < 2^(B-1), the extremes
    -2^(B-1) + 1 and 2^(B-1) - 1 among them."""
    B = draw(hyp.integers(1, 140))
    bound = (1 << (B - 1)) - 1
    edge = hyp.sampled_from([-bound, bound, 0])
    return draw(hyp.lists(hyp.one_of(edge, hyp.integers(-bound, bound)), max_size=8)), B


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(_packable())
@example(([], 64))  # the zero polynomial
@example(([-5, 0, -(1 << 62)], 64))  # negative bottom and top
@example(([(1 << 63) - 1, -(1 << 63) + 1], 64))
@example(([-1, 1, -1], 2))
def test_unpack_inverts_the_packing(case):
    """unpack(p(2^B), B) == p for every integer p whose coefficients are
    less than 2^(B-1) in absolute value, and its digits are balanced."""
    cs, B = case
    p = Polynomial(cs)
    v = horner(p, 1 << B)
    assert unpack(v, B) == p and all(c.__class__ is int for c in unpack(v, B).coeffs)
    assert unpack(-v, B) == -p
    # a coefficient moved by 2^B still packs to v, yet is never read back
    moved = p + Polynomial((-(1 << B), 1))
    assert horner(moved, 1 << B) == v and unpack(horner(moved, 1 << B), B) != moved


_Q = Polynomial((0, 1))


@hyp.composite
def _one_denominator(draw):
    """(nums, den): integer polynomials over one denominator den != 0, with
    a factor u and an integer content planted in den and in some numerators,
    negative leading coefficients, zero and constant numerators, a constant
    den (as for the empty poset), and fixed-divisor pairs (q^2 + q) u over
    (q^2 + q + 2) u, whose values at every even z share a factor 2."""
    some = hyp.lists(hyp.integers(-6, 6), max_size=4).map(Polynomial)
    ints = hyp.sampled_from([1, -1, 2, -3, 12])
    kind = draw(hyp.sampled_from(["random", "constant", "fixed divisor"]))
    u = Polynomial((1,)) if kind == "constant" else draw(some.filter(bool))
    base = {"random": lambda: draw(some.filter(bool)), "constant": lambda: Polynomial((1,)),
            "fixed divisor": lambda: _Q * _Q + _Q + 2}[kind]()
    den = base * u * draw(ints)
    makers = [lambda: draw(some) * u * draw(ints), lambda: draw(some),
              lambda: Polynomial(), lambda: Polynomial((draw(ints),)),
              lambda: (_Q * _Q + _Q) * u * draw(ints)]
    return [draw(hyp.sampled_from(makers))() for _ in range(draw(hyp.integers(0, 5)))], den


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(_one_denominator())
def test_lowest_terms_matches_rational_function(case):
    """Every quotient from the integer gcd is the one RationalFunction
    builds by polynomial gcds, coefficient by coefficient and type by type."""
    nums, den = case
    got, want = lowest_terms(nums, den), [RationalFunction(v, den) for v in nums]
    assert len(got) == len(want)
    for g, w in zip(got, want):
        for a, b in ((g.num, w.num), (g.den, w.den)):
            assert a.coeffs == b.coeffs and list(map(type, a.coeffs)) == list(map(type, b.coeffs))


def test_lowest_terms_falls_back_where_the_values_share_more(monkeypatch):
    # at z = 2^5 the values of q + 26 and q - 3 share 29, the value of
    # q - 3, which does not divide q + 26: that quotient is RationalFunction's,
    # while the others, the fixed-divisor pair among them (its values share
    # a factor 2, which the primitive part of the unpacked gcd drops), are
    # read off their integer gcds
    u = _Q * _Q + 1
    built, init = [], RationalFunction.__init__
    monkeypatch.setattr(RationalFunction, "__init__",
                        lambda self, *args: built.append(args) or init(self, *args))
    cases = [([_Q + 26, (_Q - 3) * (_Q + 1), 3 * _Q - 9], _Q - 3),
             ([(_Q * _Q + _Q) * u, -2 * u], (_Q * _Q + _Q + 2) * u)]
    for nums, den in cases:
        built.clear()
        got = lowest_terms(nums, den)
        fallbacks = list(built)
        assert got == [RationalFunction(v, den) for v in nums]
        assert fallbacks == ([(_Q + 26, den)] if den == _Q - 3 else [])
    assert pack(u * 3 - 7, 5) == horner(u * 3 - 7, 1 << 5)
    # a denominator with leading coefficient -1 is made monic on ints
    assert all(c.__class__ is int for c in Polynomial((2, 4, -1)).monic().coeffs)


def test_lowest_terms_rejects_a_wrong_gcd_under_optimize():
    import os
    import subprocess
    import sys

    import rowmotion

    # asserts off, and the unpacked gcd replaced by a wrong one: 1, a
    # multiple, a negative, a non-divisor or 0; each is rejected, and every
    # quotient is still RationalFunction's
    code = (
        "from rowmotion import qpoly\n"
        "from rowmotion.qpoly import Polynomial, RationalFunction, lowest_terms\n"
        "assert False, 'asserts are on'\n"
        "q = Polynomial((0, 1))\n"
        "u = q * q + 1\n"
        "nums, den = [u * (q + 2), -u * (2 * q - 1), q + 5, u * u], 3 * u * (q - 1)\n"
        "want = [RationalFunction(v, den) for v in nums]\n"
        "unpack = qpoly.unpack\n"
        "for wrong in (lambda h: Polynomial((1,)), lambda h: h * (q + 1), lambda h: -h,\n"
        "              lambda h: h + 1, lambda h: Polynomial()):\n"
        "    qpoly.unpack = lambda v, B: wrong(unpack(v, B))\n"
        "    print(lowest_terms(nums, den) == want)\n"
    )
    src = os.path.dirname(os.path.dirname(rowmotion.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["True"] * 5


_EXACT = hyp.one_of(hyp.integers(-9, 9), hyp.fractions(-5, 5, max_denominator=4))
exact_lists = hyp.lists(_EXACT, max_size=5)


def _exact_parts(x):
    """The Polynomials a result is made of, each checked to hold only ints
    and Fractions."""
    parts = (x.num, x.den) if isinstance(x, RationalFunction) else (x,)
    for p in parts:
        assert all(c.__class__ in (int, Fraction) for c in p.coeffs), p.coeffs
    return parts


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(exact_lists, exact_lists, int_lists, int_lists, _EXACT, hyp.integers(2, 6))
def test_no_coefficient_is_ever_a_float(a, b, u, v, k, lead):
    """Every operation on int and Fraction coefficients gives exact ones,
    equal to the same operation on all-Fraction inputs."""
    from rowmotion import Statistic, t_q
    from rowmotion.statistics import QRATIONAL

    x, y = Polynomial(a), Polynomial(b)
    X, Y = _fractions(x.coeffs), _fractions(y.coeffs)
    zu, zv = Polynomial(u), Polynomial(v)
    ZU, ZV = _fractions(u), _fractions(v)
    ops = [lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x * y,
           lambda x, y: x * k, lambda x, y: k - x, lambda x, y: x.monic(),
           lambda x, y: poly_gcd(x, y)]
    if y:
        ops += [lambda x, y: x.divmod(y)[0], lambda x, y: x.divmod(y)[1],
                lambda x, y: (x * y).exact_div(y), lambda x, y: RationalFunction(x, y)]
    pairs = [(op(x, y), op(X, Y)) for op in ops]
    if zv:
        pairs.append((zu * zv // zv, ZU * ZV // ZV))
    for got, want in pairs:
        assert _exact_parts(got) == _exact_parts(want)
    # a Q(q) statistic cleared to the denominator 1 + lead*q, a non-unit
    # leading coefficient, from int and from all-Fraction coefficients, and
    # one whose all-Fraction values need no scaling to clear
    if k:
        P = rectangle(2, 2)
        stats = [RationalFunction(num, den) * t_q(P, 0) for num, den in (
            (Polynomial((k,)), Polynomial((1, lead))), (_fractions((k,)), _fractions((1, lead))))]
        assert stats[0].den.leading() % lead == 0  # an int, not 1
        assert stats[0].den == stats[1].den and stats[0].nums == stats[1].nums
        values = [RationalFunction(_fractions((1, lead)))] * len(P.ideal_masks())
        stats.append(Statistic(P, values, kind=QRATIONAL))
        for s in stats:
            assert all(c.__class__ is int for p in (s.den, *s.nums) for c in p.coeffs)
            for p in (s.den, *s.nums, *s.values):
                _exact_parts(p)


def test_hash_agrees_with_equality():
    q = Polynomial((0, 1))
    assert 3 in {Polynomial((3,))} and Polynomial((3,)) in {3}
    assert 0 in {Polynomial()} and Polynomial() in {0}
    assert Fraction(1, 2) in {Polynomial((Fraction(1, 2),))}
    assert Polynomial((Fraction(4, 2),)) in {2}
    assert q in {RationalFunction(q)} and RationalFunction(q) in {q}
    assert 3 in {RationalFunction.const(3)} and 0 in {RationalFunction(Polynomial())}
    for x, y in ((Polynomial((1, 2)), Polynomial((Fraction(1), Fraction(2)))),
                 (RationalFunction(q, q + 1), RationalFunction(2 * q, 2 * q + 2))):
        assert x == y and hash(x) == hash(y)
