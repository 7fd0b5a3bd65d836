"""q-rowmotion on flavored 0/1 labelings of a poset.

States are labelings by s flavors of 0 and r flavors of 1 whose 0-part is an
order ideal.  Toggling applies a fixed cyclic permutation of the r+s flavor
symbols at every active element; q-rowmotion sweeps a linear extension from
the top.  The pair (r, s) is deliberately not reduced: the dynamics depend
on r and s themselves, not only on q = r/s.

The zero-labeled set M stays an ideal after every toggle, so only the
elements of max(M) | min(P - M) can act.  One kernel, `_sweep`, visits only
those, read from a table of active positions per mask kept on the poset,
and serves `q_toggle`, `q_rowmotion` and the orbit walk `_walk`, which keeps
visited labelings as integer codes and yields one whole orbit at a time.
"""

from __future__ import annotations

import random
import weakref
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import filterfalse, product

from .dynamics import rowmotion_order
from .poset import CapExceededError, OrderIdeal, Poset
from .qpoly import CertificateError, RationalFunction
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
    return sum(_count_terms(P, alphabet.r, alphabet.s))


def check_labeling_count(P: Poset, r: int, s: int) -> int:
    """The labeling count for r flavors of 1 and s of 0, bounded by
    DEFAULT_LABELING_CAP before any alphabet is built.

    r + s is bounded as well: theta has r + s symbols, and a poset without
    elements has one labeling for every (r, s).  The count stops at the
    first ideal size that takes it past the cap.
    """
    cap = DEFAULT_LABELING_CAP
    if r < 1 or s < 1:
        raise ValueError("r and s must be positive")
    if r + s > cap:
        raise CapExceededError(f"{r + s} flavor symbols exceed the cap {cap}")
    total = 0
    for term in _count_terms(P, r, s):
        total += term
        if total > cap:
            raise CapExceededError(f"more than {cap} labelings")
    return total


def _count_terms(P, r, s):
    """The labelings of each ideal size, smallest size first."""
    sizes = Counter(map(int.bit_count, P.ideal_masks()))
    return (c * r ** (P.n - k) * s ** k for k, c in sorted(sizes.items()))


def enumerate_labelings(P: Poset, alphabet: FlavorAlphabet):
    """All labelings, grouped by underlying ideal in canonical ideal order,
    lexicographic in the per-element flavor choices within each group."""
    check_labeling_count(P, alphabet.r, alphabet.s)
    return tuple(QLabeling(P, alphabet, labels) for labels in _iter_label_tuples(P, alphabet))


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
    """The toggles at `order` as sweep positions, and the active positions
    of each zero-labeled mask, both kept on the poset: the moves per order
    and flavor cycles, the active positions per order alone, since they do
    not depend on the alphabet.

    Position j holds (p, moves) for the element p toggled at step
    len(order) - 1 - j, so a sweep runs the positions from the highest down.
    moves[x] for the old label x is (theta_p(x), the change of the labeling
    code, the bit that flips in M or 0).
    """
    cycles = None if local_theta is None else tuple(
        th.theta if isinstance(th, FlavorAlphabet) else tuple(th)
        for th in map(local_theta.__getitem__, order))
    steps = P._q_moves.get((order, alphabet, cycles))
    if steps is None:
        m, s = alphabet.r + alphabet.s, alphabet.s
        thetas = [alphabet.theta] * len(order) if cycles is None else cycles
        steps = P._q_moves[order, alphabet, cycles] = tuple(
            (p, tuple((y, (y - x) * m ** p, 1 << p if (x < s) != (y < s) else 0)
                      for x, y in enumerate(th)))
            for p, th in zip(reversed(order), reversed(thetas)))
    active = P._q_active.get(order)
    if active is None:
        active = P._q_active[order] = _ActivePositions(P, order[::-1])
    return steps, active


class _ActivePositions(dict):
    """M -> the positions of the sweep whose element is active in M, that is
    max(M) | min(P - M), as a bitmask; each entry is built on first use, so
    a single step on a large poset enumerates no ideals."""

    def __init__(self, P, elements):
        super().__init__()
        # through a weak proxy: the table is kept on P and must not keep P alive
        self.toggle_mask = partial(Poset.toggle_mask, weakref.proxy(P))
        self.elements = elements  # elements[j]: the element at position j

    def __missing__(self, mask):
        toggle = self.toggle_mask
        out = 0
        for j, p in enumerate(self.elements):
            if toggle(p, mask) != mask:
                out |= 1 << j
        self[mask] = out
        return out


def _sweep(toggles, labels, mask, code):
    """Apply the toggles in turn, in place on `labels`; returns the new
    zero-labeled mask and labeling code.

    The zero-labeled set M stays an ideal, and only the elements active in M
    can act.  So the sweep visits only the pending active positions below
    the current one, and reloads them from the table only when a toggle
    moves a label across the 0/1 boundary, which is when M changes.
    """
    steps, active = toggles
    pending = active[mask]
    while pending:
        j = pending.bit_length() - 1
        p, moves = steps[j]
        new, delta, flip = moves[labels[p]]
        labels[p] = new
        code += delta
        if flip:
            mask ^= flip
            pending = active[mask] & ((1 << j) - 1)
        else:
            pending ^= 1 << j
    return mask, code


def q_toggle(P: Poset, alphabet: FlavorAlphabet, p: int, L: QLabeling,
             local_theta=None) -> QLabeling:
    """Apply theta to the label of p when p is active, else do nothing."""
    if not (0 <= p < P.n):
        raise IndexError(f"element {p} out of range")
    return _q_sweep(P, alphabet, local_theta, (p,), L)


def q_rowmotion(P: Poset, alphabet: FlavorAlphabet, L: QLabeling,
                local_theta=None, extension=None) -> QLabeling:
    """Toggle every element once, along a linear extension from the top.

    The result does not depend on the extension; passing one exists so that
    independence can be exercised directly.
    """
    order = (rowmotion_order(P) if extension is None
             else tuple(reversed(extension.order)))
    return _q_sweep(P, alphabet, local_theta, order, L)


def _q_sweep(P, alphabet, local_theta, order, L):
    """The labeling L of P toggled at each element of `order` in turn."""
    if L.poset is not P:
        raise ValueError("labeling belongs to a different poset")
    labels = list(L.labels)
    _sweep(_toggles(P, alphabet, local_theta, order), labels, L.ideal_mask, 0)
    return QLabeling(P, alphabet, tuple(labels))


def _walk(P, alphabet, local_theta, as_labels=False):
    """Every labeling once, orbit by orbit, under q-rowmotion.

    Orbits start at their first labeling in the order of
    `enumerate_labelings`.  Yields one list per orbit: the zero-labeled
    masks of its labelings in orbit order, or with `as_labels` their label
    tuples.  Visited labelings are kept as integer codes, sum of
    label_p * (r+s)^p, updated per toggle.
    """
    count = check_labeling_count(P, alphabet.r, alphabet.s)
    toggles = _toggles(P, alphabet, local_theta, rowmotion_order(P))
    m, s = alphabet.r + alphabet.s, alphabet.s
    weights = [m ** p for p in range(P.n)]
    zeros = [tuple(x * w for x in range(s)) for w in weights]
    ones = [tuple(x * w for x in range(s, m)) for w in weights]
    visited = set()
    for mask in P.ideal_masks():
        # the same order as _iter_label_tuples, on weighted labels
        ranges = [zeros[p] if mask >> p & 1 else ones[p] for p in range(P.n)]
        # unvisited codes only, tested as each one is reached
        for start in filterfalse(visited.__contains__, map(sum, product(*ranges))):
            labels = [start // w % m for w in weights]
            cur, code, orbit = mask, start, []
            while code not in visited:
                visited.add(code)
                orbit.append(tuple(labels) if as_labels else cur)
                cur, code = _sweep(toggles, labels, cur, code)
            if code != start:
                raise CertificateError("q-rowmotion failed to be a bijection")
            yield orbit
    if len(visited) != count:
        raise CertificateError("orbits do not partition the labeling space")


def q_orbits(P: Poset, alphabet: FlavorAlphabet, local_theta=None):
    """Orbits of q-rowmotion as lists of raw label tuples."""
    return list(_walk(P, alphabet, local_theta, as_labels=True))


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
                     expected=None, local_theta=None) -> QHomomesyReport:
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
    value, den = dict(zip(P.ideal_masks(), f.nums)).__getitem__, f.den
    totals = []
    sizes = []
    for orbit in _walk(P, alphabet, local_theta):
        totals.append(sum(map(value, orbit)))
        sizes.append(len(orbit))
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
