"""Statistics on order ideals as exact vectors over the canonical enumeration.

A Statistic is stored once, in cleared form: its value on ideal k is
nums[k] / den, in lowest terms, with integer numerators over one positive
integer (kind RATIONAL), or integer-coefficient Polynomial numerators over
one Polynomial (kind QRATIONAL, values in Q(q)).  Given values are cleared
once, by the constructor; the builders and the arithmetic below make the
cleared form directly, and every consumer reads it.  `values` is a view that
builds one Fraction or RationalFunction per entry on access.  Linear
statistics are their expansion in the building blocks (toggle-in, toggle-out,
ideal-indicator coefficients per element), which is what the certificate
solver and the piecewise-linear and birational lifts consume; they build the
cleared form only when something reads it, so building one enumerates no
ideal.
"""

from __future__ import annotations

import re
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .families import parse_ints, root_poset_A
from .poset import Antichain, OrderIdeal, Poset
from .qpoly import (
    MAX_NUMBER_DIGITS,
    Polynomial,
    RationalFunction,
    cleared,
    format_fraction,
    horner,
    poly_gcd,
)

RATIONAL = "rational"
QRATIONAL = "q"
_FIELD = {RATIONAL: Fraction, QRATIONAL: RationalFunction}  # value = _FIELD[kind](num, den)
_ONE = Polynomial((1,))


class Statistic:
    """A statistic on the order ideals of `poset`, in cleared form (see the
    module docstring).  Give either `values`, one Fraction (RationalFunction
    for kind QRATIONAL) per ideal, the cleared form as `nums` and `den`,
    which need not be in lowest terms, or only `combo`: the (tin, tout, ind)
    Fraction coefficient tuples of a rational statistic, whose cleared form
    is then built on first read."""

    __slots__ = ("poset", "_nums", "_den", "kind", "label", "combo")

    def __init__(self, poset, values=None, kind=RATIONAL, label="", combo=None, *,
                 nums=None, den=1):
        self.poset = poset
        self.kind = kind
        self.label = label
        self.combo = combo  # (tin, tout, ind) coefficient tuples, or None
        if values is not None:
            nums, den = _clear(tuple(values), kind)
        if nums is None:
            if combo is None:
                raise ValueError("a statistic needs values, nums or a combo")
            self._nums = None
            return
        self._nums, self._den = _lowest(tuple(nums), den, kind)
        if len(self._nums) != len(poset.ideal_masks()):
            raise ValueError("statistic length must equal the ideal count")

    @property
    def nums(self) -> tuple:
        return self._cleared()[0]

    @property
    def den(self):
        return self._cleared()[1]

    def _cleared(self):
        if self._nums is None:
            self._nums, self._den = _combo_nums(self.poset, self.combo)
        return self._nums, self._den

    @property
    def values(self) -> "Values":
        return Values(self)

    def value_on(self, I: OrderIdeal):
        return _FIELD[self.kind](self.nums[self.poset.ideal_index(I.mask)], self.den)

    def __eq__(self, other):
        return (isinstance(other, Statistic) and other.poset is self.poset
                and (other.kind, other.den, other.nums) == (self.kind, self.den, self.nums))

    def __hash__(self):
        return hash((id(self.poset), self.kind, self.nums, self.den))

    def __add__(self, other):
        if not isinstance(other, Statistic):
            return NotImplemented
        if other.poset is not self.poset or other.kind != self.kind:
            raise ValueError("statistics live on different spaces")
        label = _join(self.label, "+", other.label)
        if self.combo is not None and other.combo is not None:
            combo = tuple(
                tuple(a + b for a, b in zip(u, v))
                for u, v in zip(self.combo, other.combo)
            )
            return Statistic(self.poset, label=label, combo=combo)
        den, a, b = _lcm_cofactors(self.den, other.den)
        return Statistic(self.poset, kind=self.kind, label=label, den=den,
                         nums=[x * a + y * b for x, y in zip(self.nums, other.nums)])

    def __sub__(self, other):
        return self + (-1) * other

    def __rmul__(self, c):
        if isinstance(c, int):
            c = Fraction(c)
        if self.kind == RATIONAL and not isinstance(c, Fraction):
            raise TypeError("rational statistics scale by Fractions")
        label = f"{format_fraction(c) if isinstance(c, Fraction) else c}*{self.label}"
        if self.combo is not None:
            combo = tuple(tuple(c * x if x else x for x in part) for part in self.combo)
            return Statistic(self.poset, label=label, combo=combo)
        if self.kind == RATIONAL:
            cn, cd = c.numerator, c.denominator
        else:
            c = c if isinstance(c, RationalFunction) else RationalFunction(c)
            cn, cd = c.num, c.den
        return Statistic(self.poset, kind=self.kind, label=label,
                         nums=[cn * v for v in self.nums], den=self.den * cd)

    def specialize(self, z) -> "Statistic":
        """Evaluate a q-statistic at a rational number."""
        if self.kind != QRATIONAL:
            raise ValueError("only q-statistics specialize")
        z = Fraction(z)
        a, b = z.numerator, z.denominator
        d = max(p.degree for p in {self.den, *self.nums})
        den = horner(self.den, a, b, d)
        if den == 0:
            raise ZeroDivisionError(f"pole at q = {z}")
        return Statistic(self.poset, label=f"{self.label}|q={z}",
                         nums=[horner(v, a, b, d) for v in self.nums], den=den)

    def __repr__(self):
        return f"Statistic({self.label or 'anonymous'}, kind={self.kind})"


class Values(Sequence):
    """The values of a statistic, each built from its cleared form when read;
    equal to the tuple of the same values."""

    __slots__ = ("_stat",)

    def __init__(self, stat):
        self._stat = stat

    def __len__(self):
        return len(self._stat.poset.ideal_masks())

    def __getitem__(self, k):
        if isinstance(k, slice):
            return tuple(self)[k]
        return _FIELD[self._stat.kind](self._stat.nums[k], self._stat.den)

    def __iter__(self):
        field, den = _FIELD[self._stat.kind], self._stat.den
        return (field(v, den) for v in self._stat.nums)

    def __eq__(self, other):
        return tuple(self) == (tuple(other) if isinstance(other, Values) else other)

    def __repr__(self):
        return repr(tuple(self))


def _clear(values, kind):
    """(numerators, denominator) of the values over their least common
    denominator."""
    if kind == RATIONAL:
        return cleared(values)
    den, dens = _ONE, {v.den for v in values}
    for d in dens:
        den = den.exact_div(poly_gcd(den, d)) * d
    cofactor = {d: den.exact_div(d) for d in dens}
    return [v.num * cofactor[v.den] for v in values], den


def _lowest(nums, den, kind):
    """The cleared form nums / den in lowest terms.  Over Q the denominator
    is positive and shares no factor with every numerator.  Over Q(q) no
    polynomial divides them all, the denominator is monic times the least
    positive integer that makes every coefficient integral, and every
    coefficient is an int (scaling by the Fraction `scale` makes it one)."""
    if kind == RATIONAL:
        g = gcd(den, *nums)
        if den < 0:
            g = -g
        return (nums, den) if g == 1 else (tuple(v // g for v in nums), den // g)
    g = den
    for v in set(nums):
        if g.degree <= 0:
            break
        g = poly_gcd(g, v)
    if g.degree > 0:
        den, nums = den.exact_div(g), tuple(v.exact_div(g) for v in nums)
    inv = Fraction(1, den.leading())
    distinct = set(nums)
    scale = inv * lcm(*(c.denominator for p in distinct | {den} for c in (p * inv).coeffs))
    scaled = {p: p * scale for p in distinct}
    return tuple(scaled[v] for v in nums), den * scale


def _lcm_cofactors(d, e):
    """(l, l / d, l / e) for a least common multiple l of two denominators."""
    if isinstance(d, int):
        m = lcm(d, e)
        return m, m // d, m // e
    m = d.exact_div(poly_gcd(d, e)) * e
    return m, m.exact_div(d), m.exact_div(e)


def _join(a, op, b):
    return f"{a} {op} {b}" if a and b else (a or b)


# -- construction from toggle/indicator coefficients -----------------------------


def accumulate_toggles(P: Poset, acc, tin, tout):
    """Add sum_p (tin[p]*T+_p + tout[p]*T-_p) into the vector `acc`, in place.

    The scalars may be of any type closed under +; zero coefficients are
    skipped.  Work is proportional to the toggle-table entries touched.
    """
    table = P.toggle_table()
    for coeffs, where in ((tin, table.addable), (tout, table.removable)):
        for c, idx in zip(coeffs, where):
            if c:
                for i in idx:
                    acc[i] = acc[i] + c
    return acc


def from_combo(P: Poset, tin, tout, ind, label="") -> Statistic:
    """Statistic sum_p (tin_p*T+_p + tout_p*T-_p + ind_p*1_p); nothing is
    evaluated on the ideals until its cleared form is read."""
    combo = tuple(tuple(Fraction(c) for c in part) for part in (tin, tout, ind))
    return Statistic(P, label=label, combo=combo)


def _combo_nums(P, combo):
    """The cleared form of a combo, accumulated in integers over the common
    denominator of its coefficients."""
    ints, scale = cleared([c for part in combo for c in part])
    n = P.n
    tin, tout, ind = ints[:n], ints[n:2 * n], ints[2 * n:]
    masks = P.ideal_masks()
    acc = [0] * len(masks)
    supports = {}  # coefficient -> mask of the elements carrying it in ind
    for p, c in enumerate(ind):
        if c:
            supports[c] = supports.get(c, 0) | 1 << p
    for c, support in supports.items():
        acc = [a + c * (m & support).bit_count() for a, m in zip(acc, masks)]
    accumulate_toggles(P, acc, tin, tout)
    return _lowest(tuple(acc), scale, RATIONAL)


def _unit(P, p):
    return tuple(Fraction(1) if x == p else Fraction(0) for x in range(P.n))


def _zeros(P):
    return (Fraction(0),) * P.n


def indicator_ideal(P: Poset, p: int) -> Statistic:
    """1_p: is p in the order ideal."""
    return from_combo(P, _zeros(P), _zeros(P), _unit(P, p), label=_el(P, p, "1"))


def t_in(P: Poset, p: int) -> Statistic:
    """T+_p: can p be toggled into the ideal."""
    return from_combo(P, _unit(P, p), _zeros(P), _zeros(P), label=_el(P, p, "T+"))


def t_out(P: Poset, p: int) -> Statistic:
    """T-_p: can p be toggled out of the ideal."""
    return from_combo(P, _zeros(P), _unit(P, p), _zeros(P), label=_el(P, p, "T-"))


def t_signed(P: Poset, p: int) -> Statistic:
    """T_p = T+_p - T-_p."""
    unit = _unit(P, p)
    minus = tuple(-c for c in unit)
    return from_combo(P, unit, minus, _zeros(P), label=_el(P, p, "T"))


def _el(P, p, prefix):
    if P.coords is not None:
        return f"{prefix}[{P.coords[p][0]},{P.coords[p][1]}]"
    return f"{prefix}[{p}]"


def t_q(P: Poset, p: int) -> Statistic:
    """T^q_p = T+_p - q*T-_p, with values in Q(q): 1 where T_p is 1 and -q
    where it is -1."""
    unit = [int(x == p) for x in range(P.n)]
    signs = accumulate_toggles(P, [0] * len(P.ideal_masks()), unit, [-u for u in unit])
    value = {0: Polynomial(), 1: _ONE, -1: Polynomial((0, -1))}
    nums = [value[v] for v in signs]
    return Statistic(P, kind=QRATIONAL, label=_el(P, p, "Tq"), nums=nums, den=_ONE)


def constant_statistic(P: Poset, c) -> Statistic:
    c = Fraction(c)
    return Statistic(P, label=str(c), nums=[c.numerator] * len(P.ideal_masks()),
                     den=c.denominator)


# -- rooks ------------------------------------------------------------------------


def _coord_arrays(P):
    if P.coords is None:
        raise ValueError("rook statistics need grid coordinates")
    return P.coords


def rook_rect(P: Poset, i: int, j: int, reduced: bool = False) -> Statistic:
    """Rectangle rook at box (i, j): a four-quadrant signed combination of
    toggleability statistics that evaluates to 1 on every order ideal; the
    reduced form is the row-plus-column sum of T- statistics."""
    return _grid_rook(P, i, j, reduced, shifted=False)


def rook_sstair(P: Poset, i: int, j: int, reduced: bool = False) -> Statistic:
    """Shifted-staircase rook at box (i, j), i <= j."""
    return _grid_rook(P, i, j, reduced, shifted=True)


def _grid_rook(P, i, j, reduced, shifted):
    coords = _coord_arrays(P)
    if not P.has_coord((i, j)):
        raise ValueError(f"({i},{j}) is outside the poset")
    tin = [0] * P.n
    tout = [0] * P.n
    for x, (a, b) in enumerate(coords):
        off = not shifted or a < b  # off the diagonal of a shifted shape
        if reduced:
            tout[x] = ((a == i or b == j) + (a == i and b == j)
                       + (shifted and a == b and (a < i or b > j)))
        else:
            tin[x] = (a <= i and b <= j) - (a > i and b > j and off)
            tout[x] = (a >= i and b >= j) - (a < i and b < j and off)
    tag = "~R" if reduced else "R"
    return from_combo(P, tin, tout, _zeros(P), label=f"{tag}[{i},{j}]")


def rook_A(P: Poset, i: int, reduced: bool = False) -> Statistic:
    """Type-A rook indexed by an anti-diagonal box (i, n+1-i)."""
    return _root_rook(P, i, reduced, "A")


def rook_B(P: Poset, i: int, reduced: bool = False) -> Statistic:
    """Type-B rook indexed by a boundary box (i, 2n-i)."""
    return _root_rook(P, i, reduced, "B")


def _root_rook(P, i, reduced, typ):
    coords = _coord_arrays(P)
    top = max(b for _, b in coords)
    j = top + 1 - i if typ == "A" else (top + 1) // 2 * 2 - i
    if not P.has_coord((i, j)):
        where = "anti-diagonal" if typ == "A" else "boundary"
        raise ValueError(f"no {where} box at index {i}")
    tin = [0] * P.n
    tout = [0] * P.n
    for x, (a, b) in enumerate(coords):
        if reduced:
            tout[x] = ((a == i and b >= j) + (a >= i and b == j)
                       + (typ == "B" and a == b and b > j))
        else:
            tin[x] = ((a, b) == (i, j)) - (a > i and b > j and (typ == "A" or a < b))
            tout[x] = a >= i and b >= j
    tag = "~R" if reduced else "R"
    return from_combo(P, tin, tout, _zeros(P), label=f"{tag}{typ}[{i}]")


def var_rook_B(P: Poset, i: int, reduced: bool = False) -> Statistic:
    """Variant type-B rook: the type-A rook of the doubled shape, folded back
    onto the quotient by merging each box with its transpose."""
    n = (max(b for _, b in _coord_arrays(P)) + 1) // 2
    if not P.has_coord((i, 2 * n - i)):
        raise ValueError(f"no boundary box at index {i}")
    doubled = root_poset_A(2 * n - 1)
    rook_in, rook_out, _ = rook_A(doubled, i, reduced).combo
    tin, tout = [Fraction(0)] * P.n, [Fraction(0)] * P.n
    for (a, b), cin, cout in zip(doubled.coords, rook_in, rook_out):
        box = (min(a, b), max(a, b))
        if P.has_coord(box):
            x = P.element_at(box)
            tin[x] += cin
            tout[x] += cout
    tag = "~R'" if reduced else "R'"
    return from_combo(P, tin, tout, _zeros(P), label=f"{tag}B[{i}]")


# -- antichain toggleability -------------------------------------------------------


# kind of a toggleability statistic -> (sign of T+, sign of T-); the lifted
# levels read the same table
TOGGLEABILITY_KINDS = {"in": (1, 0), "out": (0, 1), "signed": (1, -1)}


def antichain_toggleability(P: Poset, A: Antichain, kind: str) -> Statistic:
    """T+_A / T-_A / T_A: can the whole antichain be toggled in / out.

    A can be toggled out of J exactly when A is in max(J) (the cached
    `Poset.antichain_masks`), and J -> J - A maps those ideals one to one
    onto the ideals to which A can be toggled in."""
    if A.poset is not P:
        raise ValueError("antichain belongs to a different poset")
    if kind not in TOGGLEABILITY_KINDS:
        raise ValueError("kind must be 'in', 'out', or 'signed'")
    sign_in, sign_out = TOGGLEABILITY_KINDS[kind]
    am, masks = A.mask, P.ideal_masks()
    nums = [0] * len(masks)
    for j, top in enumerate(P.antichain_masks()):
        if top & am == am:
            nums[j] += sign_out
            nums[P.ideal_index(masks[j] ^ am)] += sign_in
    return Statistic(P, label=f"T{kind}_A{A.members}", nums=nums)


# -- named statistics ---------------------------------------------------------------


# grid atoms: head -> (slot of the combo, which boxes (a, b) get coefficient 1
# given the argument k, the error when none does)
_GRID_ATOMS = {
    "diag": (1, lambda a, b, k: a == b, None),
    "file": (2, lambda a, b, k: b - a == k, "file {} is empty"),
    "pfiber": (1, lambda a, b, k: a == k, "row fiber {} is empty"),
    "nfiber": (1, lambda a, b, k: b == k, "column fiber {} is empty"),
    "sfiber": (1, lambda a, b, k: (b == k and a <= k) or (a == k and b > k),
               "folded fiber {} is empty"),
}


def named_statistic(P: Poset, kind: str) -> Statistic:
    """Statistics addressed by the specifier mini-language.

    Atoms: ideal_card, antichain_card, rankalt, diag, file:k, pfiber:i,
    nfiber:j, sfiber:i (folded-shape fiber through row/column i), color:c.
    """
    head, _, arg = kind.partition(":")
    combo = [_zeros(P), _zeros(P), _zeros(P)]  # tin, tout, ind
    if head in ("ideal_card", "antichain_card"):
        combo[2 if head == "ideal_card" else 1] = (Fraction(1),) * P.n
    elif head == "rankalt":
        if P.rank is None:
            raise ValueError("rank-alternating statistic needs a ranked poset")
        combo[2] = tuple(Fraction(-1) ** r for r in P.rank)
    elif head == "color":
        if P.colors is None:
            raise ValueError("poset carries no color metadata")
        combo[2] = tuple(Fraction(str(c) == arg) for c in P.colors)
        if not any(combo[2]):
            raise ValueError(f"no elements of color {arg!r}")
        head = f"color:{arg}"
    elif head in _GRID_ATOMS:
        slot, pick, empty = _GRID_ATOMS[head]
        k = None if empty is None else parse_ints(
            arg, 1, f"statistic {kind!r} must be {head}:<k>")[0]
        combo[slot] = tuple(Fraction(pick(a, b, k)) for a, b in _coord_arrays(P))
        if empty is not None:
            if not any(combo[slot]):
                raise ValueError(empty.format(k))
            head = f"{head}:{k}"
    else:
        raise ValueError(f"unknown statistic kind: {kind!r}")
    return from_combo(P, *combo, label=head)


# -- specifier mini-language ---------------------------------------------------------


def parse_statistic(P: Poset, text: str) -> Statistic:
    """Parse `2*file:0 - file:1 - 1/2*diag` style linear combinations.

    Binary + and - between terms are whitespace-separated, which keeps
    negative atom arguments such as `file:-1` unambiguous.
    """
    tokens = text.split()
    if not tokens:
        raise ValueError("empty statistic expression")
    total = None
    sign = Fraction(1)
    expect_term = True
    for tok in tokens:
        if tok in ("+", "-"):
            if expect_term:
                raise ValueError(f"misplaced operator in {text!r}")
            sign = Fraction(1 if tok == "+" else -1)
            expect_term = True
            continue
        if not expect_term:
            raise ValueError(f"missing operator before {tok!r}")
        if tok.startswith("-"):
            sign, tok = -sign, tok[1:]
        elif tok.startswith("+"):
            tok = tok[1:]
        coeff, atom = Fraction(1), tok
        if "*" in tok:
            cs, _, atom = tok.partition("*")
            coeff = parse_fraction(cs)
        term = (sign * coeff) * _parse_atom(P, atom)
        total = term if total is None else total + term
        sign = Fraction(1)
        expect_term = False
    if expect_term:
        raise ValueError(f"dangling operator in {text!r}")
    total.label = text.strip()
    return total


# MAX_NUMBER_DIGITS bounds both the length of a number and its decimal
# exponent, since Fraction("1e-k") builds 10**k.
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)")


def parse_fraction(text) -> Fraction:
    """Fraction(text); a zero denominator, a non-number, an infinite float, or
    a number longer than MAX_NUMBER_DIGITS characters or with a decimal
    exponent beyond it is a ValueError."""
    if isinstance(text, str):
        if len(text) > MAX_NUMBER_DIGITS:
            raise ValueError(f"a number may have at most {MAX_NUMBER_DIGITS} characters")
        for m in _EXPONENT.finditer(text):
            if abs(int(m.group(1))) > MAX_NUMBER_DIGITS:
                raise ValueError(f"decimal exponent {m.group(1)} is beyond "
                                 f"+-{MAX_NUMBER_DIGITS}: {text!r}")
    try:
        return Fraction(text)
    except (ZeroDivisionError, TypeError, OverflowError, ValueError):
        raise ValueError(f"not a rational number: {text!r}") from None


def _parse_atom(P, atom):
    head, _, arg = atom.partition(":")
    if head == "rookA":
        return rook_A(P, *parse_ints(arg, 1, f"statistic {atom!r} must be rookA:<k>"))
    if head == "tout":
        i, j = parse_ints(arg, 2, f"statistic {atom!r} must be tout:<i>,<j>")
        if not P.has_coord((i, j)):
            raise ValueError(f"({i},{j}) is outside the poset")
        return t_out(P, P.element_at((i, j)))
    return named_statistic(P, atom)


# -- homomesy --------------------------------------------------------------------------


@dataclass(frozen=True)
class HomomesyReport:
    is_homomesic: bool
    global_average: object
    orbit_averages: tuple
    orbit_sizes: tuple
    expected: object = None  # both None unless an expected value is given
    matches_expected: object = None

    @property
    def constant(self):
        return self.orbit_averages[0] if self.is_homomesic else None


def _homomesy_report(stat, orbits, expected=None) -> HomomesyReport:
    """The report of `orbits`, (numerator sum, size) pairs over the one
    denominator of `stat`: one average is built for each distinct pair, and
    the verdict compares those distinct averages alone."""
    field, den = _FIELD[stat.kind], stat.den
    totals, sizes = zip(*orbits)
    pairs = tuple(zip(totals, sizes))
    value = {(t, k): field(t, den * k) for t, k in set(pairs)}
    averages = tuple(map(value.__getitem__, pairs))
    first = averages[0]
    homomesic = all(a == first for a in value.values())
    grand = field(sum(totals), den * sum(sizes))
    matches = None if expected is None else homomesic and first == expected
    return HomomesyReport(homomesic, grand, averages, sizes, expected, matches)


def homomesy_check(stat: Statistic, action, space=None) -> HomomesyReport:
    """Exact per-orbit averages of a statistic under a bijection.

    `action` is either a callable on the states in `space` (default: the
    canonical order ideals) or any index sequence, such as a
    `Poset.sweep_permutation`, that permutes the canonical enumeration.
    The orbits are `dynamics.index_orbits` of the statistic's poset, so
    every statistic checked against one map reads the cycles of its first
    check.
    """
    from . import dynamics
    from .poset import enumerate_ideals

    P, perm = stat.poset, action
    if callable(action):
        if space is None:
            space = enumerate_ideals(P)
        perm = dynamics._index_permutation(action, space)
    nums = stat.nums
    if len(perm) != len(nums):
        raise ValueError("action and statistic have different state counts")
    return _homomesy_report(stat, [(sum(map(nums.__getitem__, cyc)), len(cyc))
                                   for cyc in dynamics.index_orbits(P, perm)])
