"""Exact arithmetic in Q[q] and its fraction field Q(q).

Polynomials are dense tuples of exact coefficients, ints and Fractions, and
carry the elimination kernel of `linalg` over Z[q] (on ints, with `//` exact
division there); rational functions are kept normalized (coprime numerator/
denominator, monic denominator) so that equality is componentwise;
`lowest_terms` puts many integer numerators over one denominator in those
terms with one integer gcd each.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _int_gcd, isqrt, lcm as _int_lcm

from .poset import CapExceededError

# Python's default limit on the digits of an int converted to or from text;
# it bounds the numbers read from input and the numbers written out.
MAX_NUMBER_DIGITS = 4300
_TOO_LONG = 10 ** MAX_NUMBER_DIGITS  # the least integer with more digits


class CertificateError(ArithmeticError):
    """An exact identity that a returned result rests on does not hold.

    Raised by checks that must survive `python -O`, in place of `assert`.
    """


def check_digits(x):
    """Raise CapExceededError when the rational x has a numerator or
    denominator of more than MAX_NUMBER_DIGITS digits."""
    if abs(x.numerator) >= _TOO_LONG or x.denominator >= _TOO_LONG:
        raise CapExceededError(
            f"a number exceeds the limit of {MAX_NUMBER_DIGITS} digits")


def format_fraction(x, slash=False) -> str:
    """x as 'n/d', or as 'n' when d = 1 unless `slash`: the one formatter of
    every printed rational.  A number too long for `check_digits` raises
    CapExceededError before any text is built."""
    check_digits(x)
    n, d = x.numerator, x.denominator
    return f"{n}/{d}" if slash or d != 1 else str(n)


class Polynomial:
    """Dense univariate polynomial over Q; coeffs[k] multiplies q**k, an
    int or a Fraction (equal ones compare and hash equal).  The constructor
    and every division make a coefficient an int where it is integral, and
    divide only through Fraction, never into a float; integer polynomials
    stay on int arithmetic, on which `linalg` runs over Z[q] with `//`."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [c if c.__class__ is int else _exact(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def const(cls, c):
        return cls((c,))

    @classmethod
    def q_power(cls, k):
        return cls((0,) * k + (1,))

    @property
    def degree(self):
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def is_zero(self):
        return not self.coeffs

    def leading(self):
        return self.coeffs[-1] if self.coeffs else 0

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self.coeffs == ((other,) if other else ())
        return NotImplemented

    def __hash__(self):
        # a constant equals, so hashes as, its number
        cs = self.coeffs
        return hash(cs) if len(cs) > 1 else hash(cs[0] if cs else 0)

    def __neg__(self):
        return _poly([-c for c in self.coeffs])

    def __add__(self, other):
        if other.__class__ is int:
            b = (other,)
        elif (other := _as_poly(other)) is None:
            return NotImplemented
        else:
            b = other.coeffs
        a = self.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] += c
        return _poly(out)

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_poly(other)
        return NotImplemented if other is None else self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if other.__class__ is int:
            return _poly([c * other for c in self.coeffs])
        if isinstance(other, Fraction):  # the constructor makes integral products ints
            return Polynomial([c * other for c in self.coeffs])
        if (other := _as_poly(other)) is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return _poly([])
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    out[j] += x * y
        return _poly(out)  # Q is a field: the top term is not 0

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power of a polynomial")
        out = _poly([1])
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __floordiv__(self, other):
        """Exact division in Z[q]: ArithmeticError where a quotient
        coefficient is not an integer or a remainder is left."""
        if other.__class__ is int:
            other = _poly([other])
        elif not isinstance(other, Polynomial):
            return NotImplemented
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        rem, top, lead = list(self.coeffs), other.degree, other.coeffs[-1]
        low = other.coeffs[:top]
        quot = [0] * max(0, len(rem) - top)
        for k in reversed(range(len(quot))):
            c, r = divmod(rem[k + top], lead)
            if r:
                raise ArithmeticError("inexact division in Z[q]")
            if c:
                quot[k] = c
                for j, b in enumerate(low, k):
                    rem[j] -= c * b
        if any(rem[:top]):
            raise ArithmeticError("inexact division in Z[q]")
        return _poly(quot)

    def divmod(self, other):
        """Exact long division: (quotient, remainder) over Q."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq, lead = other.degree, other.leading()
        quot = [0] * max(0, len(rem) - dq)
        for k in range(len(rem) - 1, dq - 1, -1):
            if rem[k]:
                f = rem[k] if lead == 1 else _exact(Fraction(rem[k], lead))
                quot[k - dq] = f
                for j, c in enumerate(other.coeffs, k - dq):
                    rem[j] -= f * c
        return _poly(quot), _poly(rem)

    def exact_div(self, other):
        q, r = self.divmod(other)
        if not r.is_zero():
            raise ValueError("division is not exact")
        return q

    def monic(self):
        return self._over(self.leading()) if self.coeffs else self

    def _over(self, d):
        """Every coefficient divided by the number d != 0: with `//` when
        every coefficient is an int that the int d divides, else through
        Fraction."""
        cs = self.coeffs
        if d == 1:
            return self
        if d.__class__ is int and all(c.__class__ is int and not c % d for c in cs):
            return _poly([c // d for c in cs])
        return _poly([_exact(Fraction(c, d)) for c in cs])

    def evaluate(self, z):
        z = z if isinstance(z, Fraction) else Fraction(z)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                parts.append(format_fraction(c))
            else:
                var = "q" if k == 1 else f"q^{k}"
                parts.append(var if c == 1 else f"-{var}" if c == -1
                             else f"{format_fraction(c)}*{var}")
        return " + ".join(parts).replace("+ -", "- ")

    __repr__ = __str__


def _poly(cs) -> Polynomial:
    """The Polynomial of the list cs of exact coefficients, unchecked: only
    its trailing zeros are stripped."""
    while cs and not cs[-1]:
        cs.pop()
    p = object.__new__(Polynomial)
    p.coeffs = tuple(cs)
    return p


def _exact(c):
    """The number c as an int where it is integral, else as a Fraction."""
    c = c if isinstance(c, Fraction) else Fraction(c)
    return c.numerator if c.denominator == 1 else c


def horner(p: Polynomial, a: int, b: int = 1, d: int = 0) -> int:
    """b**max(d, deg p) * p(a / b), by Horner's rule in integers, for p with
    integer coefficients: p(a) itself when b = 1."""
    acc, w = 0, 1
    for c in reversed(p.coeffs):
        acc = acc * a + c.numerator * w
        w *= b
    return acc * b ** (d - p.degree) if d > p.degree else acc


def pack(p: Polynomial, B: int) -> int:
    """p(2**B) for p with integer coefficients, by shifts: `horner(p, 1 << B)`."""
    acc = 0
    for c in reversed(p.coeffs):
        acc = (acc << B) + c
    return acc


def unpack(v: int, B: int) -> Polynomial:
    """The integer polynomial p with p(2**B) = v and every coefficient in
    [-2**(B-1), 2**(B-1)): the balanced base-2**B digits of v, lowest
    first.  It inverts `horner(p, 1 << B)` for every p with |coefficient|
    < 2**(B-1), and for no other p (Kronecker substitution)."""
    half, mask, out = 1 << (B - 1), (1 << B) - 1, []
    while v:
        c = v & mask
        if c >= half:
            c -= mask + 1
        out.append(c)
        v = (v - c) >> B
    return _poly(out)


def _as_poly(x):
    if isinstance(x, Polynomial):
        return x
    if isinstance(x, (int, Fraction)):
        return Polynomial((x,))
    return None


def _int_content(ints):
    g = 0
    for v in ints:
        g = _int_gcd(g, abs(v))
        if g == 1:
            break
    return g


def cleared(fractions) -> tuple:
    """(ints, den): the rationals (Fractions or ints) as integers over their
    least common denominator, so that fractions[k] == ints[k] / den."""
    den = _int_lcm(*(x.denominator for x in fractions))
    return [x.numerator * (den // x.denominator) for x in fractions], den


def _to_primitive_int(p: Polynomial):
    """Integer coefficient list of p with content 1 (sign of leading kept)."""
    if p.is_zero():
        return []
    ints, _ = cleared(p.coeffs)
    g = _int_content(ints)
    return [v // g for v in ints]


def _prem(a, b):
    """A positive multiple of the remainder of integer coefficient lists a
    by b (deg a >= deg b), as integers with content 1: a pseudo-remainder
    with the signs of the true remainder."""
    a = list(a)
    db, lead = len(b) - 1, b[-1]
    while len(a) - 1 >= db and a:
        k = len(a) - 1
        coef = a[-1] if lead > 0 else -a[-1]
        a = [c * abs(lead) for c in a]
        for j in range(len(b)):
            a[j + k - db] -= coef * b[j]
        while a and a[-1] == 0:
            a.pop()
    c = _int_content(a)
    return [v // c for v in a]


def poly_gcd(f: Polynomial, g: Polynomial) -> Polynomial:
    """Monic gcd via a content-stripped pseudo-remainder sequence."""
    if f.is_zero():
        return g.monic()
    if g.is_zero():
        return f.monic()
    a, b = _to_primitive_int(f), _to_primitive_int(g)
    if len(a) < len(b):
        a, b = b, a
    while b:
        a, b = b, _prem(a, b)
    return _poly(a).monic()


def lowest_terms(nums, den: Polynomial) -> list:
    """[RationalFunction(N, den) for N in nums], for integer polynomials N
    and den != 0, with one integer gcd for each N in place of a gcd in Q[q].

    With den = c D and N = c_N N', D and N' primitive, the gcd of N' and D
    is read off the integer gcd g of their values at z = 2^B (heuristic gcd;
    Char, Geddes and Gonnet, 1989), with z > 2M + 1 for M = 2^deg D |D|_2,
    Mignotte's bound on the coefficients of every factor of D in Z[q]: h is
    the primitive part of unpack(g, B).  It is accepted when it divides N'
    and D in Z[q] and g = k h(z) with 0 < 2k <= z.  It is then their gcd
    with a positive leading coefficient.  That gcd is h c for some c in
    Z[q], and c divides both N' / h and D / h, so c(z) divides the gcd of
    their values, k; c divides D, so were c not constant, z > 2M + 1 would
    give |c(z)| >= (z + 1) / 2 > k.  So c = +-1, and h, a factor of D with
    h(z) > 0, has a positive leading coefficient.  Each distinct D / h is
    divided and made monic once.  Where h is not accepted (the values at z
    share a large factor that the polynomials do not, for one), the
    quotient is `RationalFunction(N, den)`.
    """
    c = _int_content(den.coeffs)
    D = den._over(c)
    bound = (isqrt(sum(v * v for v in D.coeffs)) + 1) << D.degree  # > M
    B = (2 * bound + 1).bit_length()
    z = 1 << B
    Dz, out, cofactors = pack(D, B), [], {}  # h -> (D / h monic, its lead) or None
    for N in nums:
        cN, Nh = _int_content(N.coeffs), None
        if cN:
            N1 = N._over(cN)
            g = _int_gcd(pack(N1, B), Dz)
            h = unpack(g, B)
            h = h._over(_int_content(h.coeffs) or 1)
            hz = pack(h, B)
            if hz > 0 and not g % hz and 2 * (g // hz) <= z:
                if h not in cofactors:
                    Dh = _cofactor(D, h)
                    cofactors[h] = None if Dh is None else (Dh.monic(), Dh.leading())
                if cofactors[h]:
                    Nh = _cofactor(N1, h)
        if Nh is None:
            out.append(RationalFunction(N, den))
            continue
        monic, lead = cofactors[h]
        r = Fraction(cN, c * lead)
        out.append(_rf((Nh * r.numerator)._over(r.denominator), monic))
    return out


def _cofactor(p: Polynomial, h: Polynomial):
    """p // h in Z[q], or None when h does not divide p there.  The quotient
    is first read off p(z) / h(z) at z = 2^B, B a few bits past the product
    of the largest coefficients of p and h: if h divides p, h(z) divides
    p(z), and Q, the balanced base-z digits of p(z) / h(z), is the quotient
    when |Q|_1 |h|_inf + |p|_inf < z / 2 (`_fits`), since Q h - p then
    vanishes at z with every coefficient below z / 2.  Otherwise `//` decides."""
    if h == 1:
        return p
    top_p, top_h = max(map(abs, p.coeffs)), max(map(abs, h.coeffs))
    B = (top_p * top_h).bit_length() + p.degree.bit_length() + 2
    Qz, r = divmod(pack(p, B), pack(h, B))
    if r:
        return None
    Q = unpack(Qz, B)
    if _fits(sum(map(abs, Q.coeffs)) * top_h + top_p, B):
        return Q
    try:
        return p // h
    except ArithmeticError:
        return None


def _fits(norm: int, B: int) -> bool:
    return norm < 1 << (B - 1)


def _variations(numbers) -> int:
    """The sign variations of a sequence of numbers, zeros skipped."""
    signs = [x > 0 for x in numbers if x]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def positive_roots(p: Polynomial) -> int:
    """The number of distinct roots of p in (0, oo), for p(0) != 0.

    Coefficients without a sign variation give 0 at once (Descartes' rule
    of signs).  Otherwise Sturm's theorem gives V(0) - V(oo), where V counts
    the sign variations along the Sturm sequence p, p', ..., each term the
    negated remainder of the two before it, down to gcd(p, p'): at 0 the
    signs of the constant terms, at oo those of the leading coefficients.
    Every term is kept as a primitive integer polynomial with the signs of
    the true one (`_prem`), so no coefficient grows past the subresultants.
    """
    a = _to_primitive_int(p)
    if not _variations(a):
        return 0
    seq = [a, [k * c for k, c in enumerate(a)][1:]]
    while (r := _prem(seq[-2], seq[-1])):
        seq.append([-v for v in r])
    return _variations(s[0] for s in seq) - _variations(s[-1] for s in seq)


class RationalFunction:
    """Element of Q(q): coprime numerator/denominator, monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        num = _coerce_poly(num)
        den = Polynomial((1,)) if den is None else _coerce_poly(den)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            self.num, self.den = Polynomial(), Polynomial((1,))
            return
        g = poly_gcd(num, den) if den.degree > 0 else den  # a constant is prime to num
        if g.degree > 0:
            num = num.exact_div(g)
            den = den.exact_div(g)
        lead = den.leading()
        self.num, self.den = num._over(lead), den._over(lead)

    @classmethod
    def const(cls, c):
        return cls(Polynomial((c,)))

    @classmethod
    def q(cls):
        return cls(Polynomial((0, 1)))

    def is_zero(self):
        return self.num.is_zero()

    def is_polynomial(self):
        return self.den == Polynomial((1,))

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        other = _as_rf(other)
        if other is None:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        # a polynomial equals, so hashes as, its numerator
        return hash(self.num) if self.den.coeffs == (1,) else hash((self.num, self.den))

    def __neg__(self):
        return _rf(-self.num, self.den)

    def __add__(self, other):
        other = _as_rf(other)
        if other is None:
            return NotImplemented
        return RationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_rf(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _as_rf(other) - self

    def __mul__(self, other):
        other = _as_rf(other)
        if other is None:
            return NotImplemented
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_rf(other)
        if other is None:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return _as_rf(other) / self

    def __pow__(self, k):
        if k < 0:
            return RationalFunction(self.den ** (-k), self.num ** (-k))
        return RationalFunction(self.num ** k, self.den ** k)

    def evaluate(self, z):
        z = z if isinstance(z, Fraction) else Fraction(z)
        d = self.den.evaluate(z)
        if d == 0:
            raise ZeroDivisionError(f"pole at q = {z}")
        return self.num.evaluate(z) / d

    def __str__(self):
        if self.is_polynomial():
            return str(self.num)
        return f"({self.num})/({self.den})"

    __repr__ = __str__


def _rf(num, den) -> RationalFunction:
    """The RationalFunction num / den, for num and den already coprime with
    den monic, unchecked."""
    out = object.__new__(RationalFunction)
    out.num, out.den = num, den
    return out


def _coerce_poly(x):
    p = _as_poly(x)
    if p is None:
        raise TypeError(f"cannot build a polynomial from {x!r}")
    return p


def _as_rf(x):
    if isinstance(x, RationalFunction):
        return x
    if isinstance(x, (int, Fraction)):
        return RationalFunction.const(x)
    if isinstance(x, Polynomial):
        return RationalFunction(x)
    return None


# -- q-numbers -------------------------------------------------------------------


def q_number(n: int) -> Polynomial:
    """[n]_q = 1 + q + ... + q^(n-1)."""
    if n < 0:
        raise ValueError("q-number of a negative integer")
    return Polynomial((1,) * n)


def q_factorial(n: int) -> Polynomial:
    out = Polynomial((1,))
    for k in range(1, n + 1):
        out = out * q_number(k)
    return out


def q_binomial(n: int, k: int) -> RationalFunction:
    """Gaussian binomial; always a polynomial in q, checked on construction."""
    if not 0 <= k <= n:
        raise ValueError("require 0 <= k <= n")
    out = RationalFunction(q_factorial(n), q_factorial(k) * q_factorial(n - k))
    if not out.is_polynomial():
        raise CertificateError("q-binomial failed to reduce to a polynomial")
    return out

