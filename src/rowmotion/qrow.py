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


def _theta_table(P, alphabet, local_theta):
    if local_theta is None:
        return [alphabet.theta] * P.n
    table = []
    for p in range(P.n):
        th = local_theta[p]
        th = th.theta if isinstance(th, FlavorAlphabet) else tuple(th)
        table.append(th)
    return table


def _sweep(P, s, thetas, labels, mask, order):
    """Apply toggles at the given elements in the given order, in place."""
    for p in order:
        if mask >> p & 1:
            active = P.up_covers[p] & mask == 0
        else:
            active = P.down_covers[p] & mask == P.down_covers[p]
        if active:
            old = labels[p]
            new = thetas[p][old]
            labels[p] = new
            if (old < s) != (new < s):
                mask ^= 1 << p
    return mask


def q_toggle(P: Poset, alphabet: FlavorAlphabet, p: int, L: QLabeling,
             local_theta=None) -> QLabeling:
    """Apply theta to the label of p when p is active, else do nothing."""
    thetas = _theta_table(P, alphabet, local_theta)
    labels = list(L.labels)
    _sweep(P, alphabet.s, thetas, labels, L.ideal_mask, (p,))
    return QLabeling(P, alphabet, tuple(labels))


def q_rowmotion(P: Poset, alphabet: FlavorAlphabet, L: QLabeling,
                local_theta=None, extension=None) -> QLabeling:
    """Toggle every element once, along a linear extension from the top.

    The result does not depend on the extension; passing one exists so that
    independence can be exercised directly.
    """
    thetas = _theta_table(P, alphabet, local_theta)
    labels = list(L.labels)
    order = tuple(reversed(P._linext if extension is None else extension.order))
    _sweep(P, alphabet.s, thetas, labels, L.ideal_mask, order)
    return QLabeling(P, alphabet, tuple(labels))


def q_orbits(P: Poset, alphabet: FlavorAlphabet, local_theta=None,
             cap: int = DEFAULT_LABELING_CAP):
    """Orbits of q-rowmotion as lists of raw label tuples."""
    count = labeling_count(P, alphabet)
    if count > cap:
        raise CapExceededError(f"{count} labelings exceed the cap {cap}")
    thetas = _theta_table(P, alphabet, local_theta)
    s = alphabet.s
    order = tuple(reversed(P._linext))
    visited = set()
    orbits = []
    for start in _iter_label_tuples(P, alphabet):
        if start in visited:
            continue
        orbit = []
        labels = list(start)
        mask = ideal_mask_of(start, alphabet)
        cur = start
        while cur not in visited:
            visited.add(cur)
            orbit.append(cur)
            mask = _sweep(P, s, thetas, labels, mask, order)
            cur = tuple(labels)
        if cur != start:
            raise AssertionError("q-rowmotion failed to be a bijection")
        orbits.append(orbit)
    if len(visited) != count:
        raise AssertionError("orbits do not partition the labeling space")
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
    averages = []
    sizes = []
    for orbit in q_orbits(P, alphabet, local_theta=local_theta, cap=cap):
        total = Fraction(0)
        for labels in orbit:
            total += f.values[P.ideal_index(ideal_mask_of(labels, alphabet))]
        averages.append(total / len(orbit))
        sizes.append(len(orbit))
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
