"""Statistics on order ideals as exact vectors over the canonical enumeration.

A Statistic stores one scalar per order ideal (Fraction, or RationalFunction
in q).  Linear statistics also remember their expansion in the building
blocks (toggle-in, toggle-out, ideal-indicator coefficients per element),
which is what the piecewise-linear and birational lifts consume.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .poset import Antichain, OrderIdeal, Poset
from .qpoly import MAX_NUMBER_DIGITS, RF_ONE, RF_ZERO, RationalFunction, format_fraction

RATIONAL = "rational"
QRATIONAL = "q"


class Statistic:
    __slots__ = ("poset", "values", "kind", "label", "combo")

    def __init__(self, poset, values, kind=RATIONAL, label="", combo=None):
        self.poset = poset
        self.values = tuple(values)
        if len(self.values) != len(poset.ideal_masks()):
            raise ValueError("statistic length must equal the ideal count")
        self.kind = kind
        self.label = label
        self.combo = combo  # (tin, tout, ind) coefficient tuples, or None

    def value_on(self, I: OrderIdeal):
        return self.values[self.poset.ideal_index(I.mask)]

    def __eq__(self, other):
        return (
            isinstance(other, Statistic)
            and other.poset is self.poset
            and other.kind == self.kind
            and other.values == self.values
        )

    def __hash__(self):
        return hash((id(self.poset), self.kind, self.values))

    def __add__(self, other):
        if not isinstance(other, Statistic):
            return NotImplemented
        if other.poset is not self.poset or other.kind != self.kind:
            raise ValueError("statistics live on different spaces")
        combo = None
        if self.combo is not None and other.combo is not None:
            combo = tuple(
                tuple(a + b for a, b in zip(u, v))
                for u, v in zip(self.combo, other.combo)
            )
        return Statistic(
            self.poset,
            tuple(a + b for a, b in zip(self.values, other.values)),
            kind=self.kind,
            label=_join(self.label, "+", other.label),
            combo=combo,
        )

    def __sub__(self, other):
        return self + (-1) * other

    def __rmul__(self, c):
        if isinstance(c, int):
            c = Fraction(c)
        if self.kind == RATIONAL and not isinstance(c, Fraction):
            raise TypeError("rational statistics scale by Fractions")
        combo = None
        if self.combo is not None:
            combo = tuple(tuple(c * x for x in part) for part in self.combo)
        return Statistic(
            self.poset,
            tuple(c * v for v in self.values),
            kind=self.kind,
            label=f"{format_fraction(c) if isinstance(c, Fraction) else c}*{self.label}",
            combo=combo,
        )

    def as_q(self) -> "Statistic":
        """View a rational statistic inside Q(q)."""
        if self.kind == QRATIONAL:
            return self
        return Statistic(
            self.poset,
            tuple(RationalFunction.const(v) for v in self.values),
            kind=QRATIONAL,
            label=self.label,
        )

    def specialize(self, z) -> "Statistic":
        """Evaluate a q-statistic at a rational number."""
        if self.kind != QRATIONAL:
            raise ValueError("only q-statistics specialize")
        z = Fraction(z)
        return Statistic(
            self.poset,
            tuple(v.evaluate(z) for v in self.values),
            kind=RATIONAL,
            label=f"{self.label}|q={z}",
        )

    def __repr__(self):
        return f"Statistic({self.label or 'anonymous'}, kind={self.kind})"


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


def toggle_vector(P: Poset, p: int, plus, minus, zero):
    """Vector with `plus` where p is addable, `minus` where it is removable."""
    table = P.toggle_table()
    vals = [zero] * len(P.ideal_masks())
    for i in table.addable[p]:
        vals[i] = plus
    for i in table.removable[p]:
        vals[i] = minus
    return vals


def from_combo(P: Poset, tin, tout, ind, label="") -> Statistic:
    """Statistic sum_p (tin_p*T+_p + tout_p*T-_p + ind_p*1_p)."""
    tin = tuple(Fraction(c) for c in tin)
    tout = tuple(Fraction(c) for c in tout)
    ind = tuple(Fraction(c) for c in ind)
    # accumulate in integers over the common denominator of the coefficients
    scale = lcm(*(c.denominator for c in tin + tout + ind))

    def scaled(coeffs):
        return [c.numerator * (scale // c.denominator) for c in coeffs]

    masks = P.ideal_masks()
    acc = [0] * len(masks)
    supports = {}  # coefficient -> mask of the elements carrying it in ind
    for p, c in enumerate(scaled(ind)):
        if c:
            supports[c] = supports.get(c, 0) | 1 << p
    for c, support in supports.items():
        acc = [a + c * (m & support).bit_count() for a, m in zip(acc, masks)]
    accumulate_toggles(P, acc, scaled(tin), scaled(tout))
    vals = [Fraction(a, scale) for a in acc]
    return Statistic(P, vals, label=label, combo=(tin, tout, ind))


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
    """T^q_p = T+_p - q*T-_p, with values in Q(q)."""
    vals = toggle_vector(P, p, RF_ONE, -RationalFunction.q(), RF_ZERO)
    return Statistic(P, vals, kind=QRATIONAL, label=_el(P, p, "Tq"))


def constant_statistic(P: Poset, c) -> Statistic:
    c = Fraction(c)
    return Statistic(P, (c,) * len(P.ideal_masks()), label=str(c))


# -- rooks ------------------------------------------------------------------------


def _coord_arrays(P):
    if P.coords is None:
        raise ValueError("rook statistics need grid coordinates")
    return P.coords


def rook_rect(P: Poset, i: int, j: int, reduced: bool = False) -> Statistic:
    """Rectangle rook at box (i, j): a four-quadrant signed combination of
    toggleability statistics that evaluates to 1 on every order ideal; the
    reduced form is the row-plus-column sum of T- statistics."""
    coords = _coord_arrays(P)
    if not P.has_coord((i, j)):
        raise ValueError(f"({i},{j}) is outside the poset")
    tin = [Fraction(0)] * P.n
    tout = [Fraction(0)] * P.n
    for x, (a, b) in enumerate(coords):
        if reduced:
            if a == i or b == j:
                tout[x] += 1
            if a == i and b == j:
                tout[x] += 1
        else:
            if a <= i and b <= j:
                tin[x] += 1
            if a < i and b < j:
                tout[x] -= 1
            if a >= i and b >= j:
                tout[x] += 1
            if a > i and b > j:
                tin[x] -= 1
    tag = "~R" if reduced else "R"
    return from_combo(P, tin, tout, _zeros(P), label=f"{tag}[{i},{j}]")


def rook_sstair(P: Poset, i: int, j: int, reduced: bool = False) -> Statistic:
    """Shifted-staircase rook at box (i, j), i <= j."""
    coords = _coord_arrays(P)
    if not P.has_coord((i, j)):
        raise ValueError(f"({i},{j}) is outside the poset")
    tin = [Fraction(0)] * P.n
    tout = [Fraction(0)] * P.n
    for x, (a, b) in enumerate(coords):
        if reduced:
            if a == i or b == j:
                tout[x] += 1
            if a == i and b == j:
                tout[x] += 1
            if a == b and (a < i or b > j):
                tout[x] += 1
        else:
            if a <= i and b <= j:
                tin[x] += 1
            if a < i and b < j and a < b:
                tout[x] -= 1
            if a >= i and b >= j:
                tout[x] += 1
            if a > i and b > j and a < b:
                tin[x] -= 1
    tag = "~R" if reduced else "R"
    return from_combo(P, tin, tout, _zeros(P), label=f"{tag}[{i},{j}]")


def rook_A(P: Poset, i: int, reduced: bool = False) -> Statistic:
    """Type-A rook indexed by an anti-diagonal box (i, n+1-i)."""
    coords = _coord_arrays(P)
    n = max(b for _, b in coords)
    j = n + 1 - i
    if not P.has_coord((i, j)):
        raise ValueError(f"no anti-diagonal box at index {i}")
    tin = [Fraction(0)] * P.n
    tout = [Fraction(0)] * P.n
    for x, (a, b) in enumerate(coords):
        if reduced:
            if a == i and b >= j:
                tout[x] += 1
            if a >= i and b == j:
                tout[x] += 1
        else:
            if (a, b) == (i, j):
                tin[x] += 1
            if a >= i and b >= j:
                tout[x] += 1
            if a > i and b > j:
                tin[x] -= 1
    tag = "~R" if reduced else "R"
    return from_combo(P, tin, tout, _zeros(P), label=f"{tag}A[{i}]")


def rook_B(P: Poset, i: int, reduced: bool = False) -> Statistic:
    """Type-B rook indexed by a boundary box (i, 2n-i)."""
    coords = _coord_arrays(P)
    n = (max(b for _, b in coords) + 1) // 2
    j = 2 * n - i
    if not P.has_coord((i, j)):
        raise ValueError(f"no boundary box at index {i}")
    tin = [Fraction(0)] * P.n
    tout = [Fraction(0)] * P.n
    for x, (a, b) in enumerate(coords):
        if reduced:
            if a == i and b >= j:
                tout[x] += 1
            if a >= i and b == j:
                tout[x] += 1
            if a == b and b > j:
                tout[x] += 1
        else:
            if (a, b) == (i, j):
                tin[x] += 1
            if a >= i and b >= j:
                tout[x] += 1
            if a > i and b > j and a < b:
                tin[x] -= 1
    tag = "~R" if reduced else "R"
    return from_combo(P, tin, tout, _zeros(P), label=f"{tag}B[{i}]")


def var_rook_B(P: Poset, i: int, reduced: bool = False) -> Statistic:
    """Variant type-B rook: the type-A rook of the doubled shape, folded back
    onto the quotient by merging each box with its transpose."""
    coords = _coord_arrays(P)
    n = (max(b for _, b in coords) + 1) // 2
    m = 2 * n - 1
    j = m + 1 - i  # = 2n - i
    if not P.has_coord((i, j)):
        raise ValueError(f"no boundary box at index {i}")
    tin = [Fraction(0)] * P.n
    tout = [Fraction(0)] * P.n

    def add(ci, cj, arr, c):
        box = (min(ci, cj), max(ci, cj))
        if P.has_coord(box):
            arr[P.element_at(box)] += c

    for a in range(1, m + 1):
        for b in range(1, m + 1):
            if a + b < m + 1:
                continue  # outside the doubled type-A shape
            if reduced:
                if a == i and b >= j:
                    add(a, b, tout, 1)
                if a >= i and b == j:
                    add(a, b, tout, 1)
            else:
                if (a, b) == (i, j):
                    add(a, b, tin, 1)
                if a >= i and b >= j:
                    add(a, b, tout, 1)
                if a > i and b > j:
                    add(a, b, tin, -1)
    tag = "~R'" if reduced else "R'"
    return from_combo(P, tin, tout, _zeros(P), label=f"{tag}B[{i}]")


# -- antichain toggleability -------------------------------------------------------


def antichain_toggleability(P: Poset, A: Antichain, kind: str) -> Statistic:
    """T+_A / T-_A / T_A: can the whole antichain be toggled in / out."""
    if A.poset is not P:
        raise ValueError("antichain belongs to a different poset")
    if kind not in ("in", "out", "signed"):
        raise ValueError("kind must be 'in', 'out', or 'signed'")
    am = A.mask
    vals = []
    for mask in P.ideal_masks():
        if kind != "out":
            tin = int(P.min_complement_mask(mask) & am == am)
        if kind != "in":
            tout = int(P.max_of_ideal_mask(mask) & am == am)
        v = tin if kind == "in" else tout if kind == "out" else tin - tout
        vals.append(Fraction(v))
    return Statistic(P, vals, label=f"T{kind}_A{A.members}")


# -- named statistics ---------------------------------------------------------------


def named_statistic(P: Poset, kind: str) -> Statistic:
    """Statistics addressed by the specifier mini-language.

    Atoms: ideal_card, antichain_card, rankalt, diag, file:k, pfiber:i,
    nfiber:j, sfiber:i (folded-shape fiber through row/column i), color:c.
    """
    head, sep, arg = kind.partition(":")
    ones = tuple(Fraction(1) for _ in range(P.n))
    if head == "ideal_card":
        return from_combo(P, _zeros(P), _zeros(P), ones, label="ideal_card")
    if head == "antichain_card":
        return from_combo(P, _zeros(P), ones, _zeros(P), label="antichain_card")
    if head == "rankalt":
        if P.rank is None:
            raise ValueError("rank-alternating statistic needs a ranked poset")
        ind = tuple(Fraction(-1) ** r for r in P.rank)
        return from_combo(P, _zeros(P), _zeros(P), ind, label="rankalt")
    if head == "diag":
        coords = _coord_arrays(P)
        tout = tuple(Fraction(1) if i == j else Fraction(0) for i, j in coords)
        return from_combo(P, _zeros(P), tout, _zeros(P), label="diag")
    if head == "file":
        k = int(arg)
        coords = _coord_arrays(P)
        ind = tuple(Fraction(1) if j - i == k else Fraction(0) for i, j in coords)
        if not any(ind):
            raise ValueError(f"file {k} is empty")
        return from_combo(P, _zeros(P), _zeros(P), ind, label=f"file:{k}")
    if head == "pfiber":
        i = int(arg)
        coords = _coord_arrays(P)
        tout = tuple(Fraction(1) if a == i else Fraction(0) for a, _ in coords)
        if not any(tout):
            raise ValueError(f"row fiber {i} is empty")
        return from_combo(P, _zeros(P), tout, _zeros(P), label=f"pfiber:{i}")
    if head == "nfiber":
        j = int(arg)
        coords = _coord_arrays(P)
        tout = tuple(Fraction(1) if b == j else Fraction(0) for _, b in coords)
        if not any(tout):
            raise ValueError(f"column fiber {j} is empty")
        return from_combo(P, _zeros(P), tout, _zeros(P), label=f"nfiber:{j}")
    if head == "sfiber":
        i = int(arg)
        coords = _coord_arrays(P)
        tout = [Fraction(0)] * P.n
        hit = False
        for x, (a, b) in enumerate(coords):
            if (b == i and a <= i) or (a == i and b > i):
                tout[x] = Fraction(1)
                hit = True
        if not hit:
            raise ValueError(f"folded fiber {i} is empty")
        return from_combo(P, _zeros(P), tuple(tout), _zeros(P), label=f"sfiber:{i}")
    if head == "color":
        if P.colors is None:
            raise ValueError("poset carries no color metadata")
        want = arg
        ind = tuple(
            Fraction(1) if str(c) == want else Fraction(0) for c in P.colors
        )
        if not any(ind):
            raise ValueError(f"no elements of color {want!r}")
        return from_combo(P, _zeros(P), _zeros(P), ind, label=f"color:{want}")
    raise ValueError(f"unknown statistic kind: {kind!r}")


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
    except (ZeroDivisionError, TypeError, OverflowError):
        raise ValueError(f"not a rational number: {text!r}") from None


def _parse_atom(P, atom):
    head, _, arg = atom.partition(":")
    if head == "rookA":
        return rook_A(P, int(arg))
    if head == "tout":
        i, j = (int(t) for t in arg.split(","))
        return t_out(P, P.element_at((i, j)))
    return named_statistic(P, atom)


# -- homomesy --------------------------------------------------------------------------


@dataclass(frozen=True)
class HomomesyReport:
    is_homomesic: bool
    global_average: object
    orbit_averages: tuple
    orbit_sizes: tuple

    @property
    def constant(self):
        return self.orbit_averages[0] if self.is_homomesic else None


def common_numerators(values):
    """(integer numerators, common denominator) of rational values: value k
    is numerators[k] / denominator."""
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def homomesy_check(stat: Statistic, action, space=None) -> HomomesyReport:
    """Exact per-orbit averages of a statistic under a bijection.

    `action` is either an index permutation of the canonical enumeration or a
    callable on the states in `space` (default: the canonical order ideals).
    """
    from . import dynamics
    from .poset import enumerate_ideals

    if isinstance(action, (list, tuple)):
        perm = list(action)
    else:
        if space is None:
            space = enumerate_ideals(stat.poset)
        perm = dynamics.as_index_permutation(action, space)
    if len(perm) != len(stat.values):
        raise ValueError("action and statistic have different state counts")
    cycles = dynamics.permutation_orbits(perm)
    sizes = tuple(len(cyc) for cyc in cycles)
    if stat.kind == RATIONAL:
        # integer orbit sums over the common denominator of the values
        nums, den = common_numerators(stat.values)
        averages = [Fraction(sum(map(nums.__getitem__, cyc)), den * len(cyc))
                    for cyc in cycles]
        grand = Fraction(sum(nums), den * len(nums))
    else:
        averages = []
        for cyc in cycles:
            total = stat.values[cyc[0]]
            for i in cyc[1:]:
                total = total + stat.values[i]
            averages.append(total / Fraction(len(cyc)))
        grand = stat.values[0]
        for v in stat.values[1:]:
            grand = grand + v
        grand = grand / Fraction(len(stat.values))
    homomesic = all(a == averages[0] for a in averages)
    return HomomesyReport(homomesic, grand, tuple(averages), sizes)
