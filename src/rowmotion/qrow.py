"""q-rowmotion on flavored 0/1 labelings of a poset.

States are labelings by s flavors of 0 and r flavors of 1 whose 0-part is an
order ideal.  Toggling applies a fixed cyclic permutation of the r+s flavor
symbols at every active element; q-rowmotion sweeps a linear extension from
the top.  The pair (r, s) is deliberately not reduced: the dynamics depend
on r and s themselves, not only on q = r/s.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from operator import floordiv

from .dynamics import rowmotion_order
from .poset import CapExceededError, OrderIdeal, Poset
from .qpoly import RationalFunction
from .statistics import RATIONAL, Statistic

DEFAULT_LABELING_CAP = 2_000_000


@dataclass(frozen=True)
class FlavorAlphabet:
    """s flavors of 0 (symbols 0..s-1), r flavors of 1 (symbols s..s+r-1),
    and a cyclic permutation theta of all r+s symbols."""

    r: int
    s: int
    theta: tuple

    def __post_init__(self):
        if self.r < 1 or self.s < 1:
            raise ValueError("r and s must be positive")
        m = self.r + self.s
        theta = tuple(int(t) for t in self.theta)
        object.__setattr__(self, "theta", theta)
        if sorted(theta) != list(range(m)):
            raise ValueError("theta must permute the flavor symbols")
        seen = 1
        x = theta[0]
        while x != 0:
            x = theta[x]
            seen += 1
        if seen != m:
            raise ValueError("theta must be a single cycle on all symbols")

    @classmethod
    def default(cls, r: int, s: int) -> "FlavorAlphabet":
        """0_1 -> ... -> 0_s -> 1_1 -> ... -> 1_r -> 0_1."""
        m = r + s
        return cls(r, s, tuple((k + 1) % m for k in range(m)))

    @classmethod
    def random(cls, r: int, s: int, rng: random.Random) -> "FlavorAlphabet":
        m = r + s
        symbols = list(range(m))
        rng.shuffle(symbols)
        theta = [0] * m
        for k in range(m):
            theta[symbols[k]] = symbols[(k + 1) % m]
        return cls(r, s, tuple(theta))

    @property
    def q(self) -> Fraction:
        return Fraction(self.r, self.s)


@dataclass(frozen=True)
class QLabeling:
    poset: Poset
    alphabet: FlavorAlphabet
    labels: tuple

    def __post_init__(self):
        labels = tuple(int(x) for x in self.labels)
        object.__setattr__(self, "labels", labels)
        if len(labels) != self.poset.n:
            raise ValueError("one label per element required")
        m = self.alphabet.r + self.alphabet.s
        if any(not 0 <= x < m for x in labels):
            raise ValueError("label out of the flavor range")
        if not self.poset.is_ideal_mask(self.ideal_mask):
            raise ValueError("zero-labeled elements must form an order ideal")

    @property
    def ideal_mask(self) -> int:
        return ideal_mask_of(self.labels, self.alphabet)

    def ideal(self) -> OrderIdeal:
        return OrderIdeal._make(self.poset, self.ideal_mask)


def labeling_count(P: Poset, alphabet: FlavorAlphabet) -> int:
    """#labelings = sum over ideals of r^(n - #I) * s^#I."""
    r, s = alphabet.r, alphabet.s
    total = 0
    for mask in P.ideal_masks():
        k = bin(mask).count("1")
        total += r ** (P.n - k) * s ** k
    return total


def enumerate_labelings(P: Poset, alphabet: FlavorAlphabet,
                        cap: int = DEFAULT_LABELING_CAP):
    """All labelings, grouped by underlying ideal in canonical ideal order,
    lexicographic in the per-element flavor choices within each group."""
    count = labeling_count(P, alphabet)
    if count > cap:
        raise CapExceededError(f"{count} labelings exceed the cap {cap}")
    out = []
    for labels in _iter_label_tuples(P, alphabet):
        out.append(QLabeling(P, alphabet, labels))
    return tuple(out)


def _iter_label_tuples(P, alphabet):
    r, s = alphabet.r, alphabet.s
    zero_choices = tuple(range(s))
    one_choices = tuple(range(s, s + r))
    for mask in P.ideal_masks():
        ranges = [
            zero_choices if mask >> p & 1 else one_choices for p in range(P.n)
        ]
        yield from product(*ranges)


def _toggles(P, alphabet, local_theta, order):
    """The toggles at `order`, in order, as (p, p's test masks, moves).

    p is active in the zero-labeled mask M when M & (p + upper covers) is p
    (removable) or M & (p + lower covers) is the lower covers (addable).
    moves[x] for the old label x is (theta_p(x), the change of the labeling
    code, the bit that flips in M or 0).
    """
    m, s = alphabet.r + alphabet.s, alphabet.s
    out = []
    for p in order:
        th = alphabet.theta if local_theta is None else local_theta[p]
        th = th.theta if isinstance(th, FlavorAlphabet) else tuple(th)
        weight, bit, down = m ** p, 1 << p, P.down_covers[p]
        moves = tuple((y, (y - x) * weight, bit if (x < s) != (y < s) else 0)
                      for x, y in enumerate(th))
        out.append((p, P.up_covers[p] | bit, bit, down | bit, down, moves))
    return tuple(out)


def _sweep(toggles, labels, mask, code):
    """Apply the toggles in turn, in place on `labels`; returns the new
    zero-labeled mask and labeling code."""
    for p, up_test, bit, down_test, down, moves in toggles:
        if mask & up_test == bit or mask & down_test == down:
            new, delta, flip = moves[labels[p]]
            labels[p] = new
            code += delta
            mask ^= flip
    return mask, code


def q_toggle(P: Poset, alphabet: FlavorAlphabet, p: int, L: QLabeling,
             local_theta=None) -> QLabeling:
    """Apply theta to the label of p when p is active, else do nothing."""
    labels = list(L.labels)
    _sweep(_toggles(P, alphabet, local_theta, (p,)), labels, L.ideal_mask, 0)
    return QLabeling(P, alphabet, tuple(labels))


def q_rowmotion(P: Poset, alphabet: FlavorAlphabet, L: QLabeling,
                local_theta=None, extension=None) -> QLabeling:
    """Toggle every element once, along a linear extension from the top.

    The result does not depend on the extension; passing one exists so that
    independence can be exercised directly.
    """
    labels = list(L.labels)
    order = (rowmotion_order(P) if extension is None
             else tuple(reversed(extension.order)))
    _sweep(_toggles(P, alphabet, local_theta, order), labels, L.ideal_mask, 0)
    return QLabeling(P, alphabet, tuple(labels))


def _walk(P, alphabet, local_theta, cap):
    """Every labeling once, orbit by orbit, under q-rowmotion.

    Orbits start at their first labeling in the order of
    `enumerate_labelings`.  Yields (labels, mask, first) per labeling: the
    labels as a list that the next step changes in place, the zero-labeled
    mask, and whether the labeling starts an orbit.  Visited labelings are
    kept as integer codes, sum of label_p * (r+s)^p, updated per toggle.
    """
    count = labeling_count(P, alphabet)
    if count > cap:
        raise CapExceededError(f"{count} labelings exceed the cap {cap}")
    toggles = _toggles(P, alphabet, local_theta, rowmotion_order(P))
    m, s = alphabet.r + alphabet.s, alphabet.s
    weights = [m ** p for p in range(P.n)]
    zeros = [tuple(x * w for x in range(s)) for w in weights]
    ones = [tuple(x * w for x in range(s, m)) for w in weights]
    visited = set()
    for mask in P.ideal_masks():
        # the same order as _iter_label_tuples, on weighted labels
        ranges = [zeros[p] if mask >> p & 1 else ones[p] for p in range(P.n)]
        for digits in product(*ranges):
            start = sum(digits)
            if start in visited:
                continue
            labels = list(map(floordiv, digits, weights))
            cur, code, first = mask, start, True
            while code not in visited:
                visited.add(code)
                yield labels, cur, first
                first = False
                cur, code = _sweep(toggles, labels, cur, code)
            if code != start:
                raise AssertionError("q-rowmotion failed to be a bijection")
    if len(visited) != count:
        raise AssertionError("orbits do not partition the labeling space")


def q_orbits(P: Poset, alphabet: FlavorAlphabet, local_theta=None,
             cap: int = DEFAULT_LABELING_CAP):
    """Orbits of q-rowmotion as lists of raw label tuples."""
    orbits = []
    for labels, _, first in _walk(P, alphabet, local_theta, cap):
        if first:
            orbits.append([])
        orbits[-1].append(tuple(labels))
    return orbits


def ideal_mask_of(labels, alphabet) -> int:
    """Mask of the zero-labeled elements (labels below s)."""
    mask = 0
    for p, x in enumerate(labels):
        if x < alphabet.s:
            mask |= 1 << p
    return mask


@dataclass(frozen=True)
class QHomomesyReport:
    is_homomesic: bool
    orbit_averages: tuple
    orbit_sizes: tuple
    expected: object
    matches_expected: object  # None when no expectation given

    @property
    def constant(self):
        return self.orbit_averages[0] if self.is_homomesic else None


def q_homomesy_check(P: Poset, alphabet: FlavorAlphabet, f: Statistic,
                     expected=None, local_theta=None,
                     cap: int = DEFAULT_LABELING_CAP) -> QHomomesyReport:
    """Exact orbit averages of an ideal statistic lifted to labelings.

    The statistic value of a labeling is its value on the zero-labeled
    ideal.  When `expected` (a rational function of q, or a Fraction) is
    given, the averages are compared against its value at q = r/s.
    """
    if f.poset is not P:
        raise ValueError("statistic lives on a different poset")
    if f.kind != RATIONAL:
        raise ValueError("lift a rational-valued statistic (specialize q first)")
    # integer orbit sums over the one denominator of the values
    value, den = dict(zip(P.ideal_masks(), f.nums)), f.den
    totals = []
    sizes = []
    for _, mask, first in _walk(P, alphabet, local_theta, cap):
        if first:
            totals.append(0)
            sizes.append(0)
        totals[-1] += value[mask]
        sizes[-1] += 1
    averages = [Fraction(t, den * k) for t, k in zip(totals, sizes)]
    homomesic = all(a == averages[0] for a in averages)
    matches = None
    if expected is not None:
        if isinstance(expected, RationalFunction):
            target = expected.evaluate(alphabet.q)
        else:
            target = Fraction(expected)
        matches = homomesic and averages[0] == target
        expected = target
    return QHomomesyReport(homomesic, tuple(averages), tuple(sizes),
                           expected, matches)
