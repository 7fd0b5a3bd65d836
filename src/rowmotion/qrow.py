"""q-rowmotion on flavored 0/1 labelings of a poset.

States are labelings by s flavors of 0 and r flavors of 1 whose 0-part is an
order ideal.  Toggling applies a fixed cyclic permutation of the r+s flavor
symbols at every active element; q-rowmotion sweeps a linear extension from
the top.  The pair (r, s) is deliberately not reduced: the dynamics depend
on r and s themselves, not only on q = r/s.

The zero-labeled set M stays an ideal after every toggle, so only the
elements of max(M) | min(P - M) can act.  Single steps (`q_toggle`,
`q_rowmotion`) test each element against M with the cover masks and
enumerate no ideals.  The orbit walk `_walk` enumerates every ideal
anyway: it reads the active positions of each M off the toggle table
once per call (`_walk_table`), and its kernel `_sweep` visits only those.
The walk carries each labeling's dense rank, its position in
`enumerate_labelings`, through the sweep, marks visited labelings in a
bytearray of one byte per rank, and yields one whole orbit at a time.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product

from .dynamics import rowmotion_order
from .poset import CapExceededError, OrderIdeal, Poset
from .qpoly import CertificateError, RationalFunction
from .statistics import RATIONAL, HomomesyReport, Statistic, _homomesy_report

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

    @classmethod
    def _make(cls, poset, alphabet, labels, mask):
        """A labeling built by this module: `labels` is a tuple of flavor
        symbols whose zero-labeled set is the ideal `mask`, so nothing is
        checked again."""
        obj = cls.__new__(cls)
        obj.__dict__.update(poset=poset, alphabet=alphabet, labels=labels, ideal_mask=mask)
        return obj

    @cached_property
    def ideal_mask(self) -> int:
        return ideal_mask_of(self.labels, self.alphabet)

    def ideal(self) -> OrderIdeal:
        return OrderIdeal._make(self.poset, self.ideal_mask)


def labeling_count(P: Poset, alphabet: FlavorAlphabet) -> int:
    """#labelings = sum over ideals of r^(n - #I) * s^#I."""
    return sum(c * w for _, c, w in _blocks(P, alphabet.r, alphabet.s))


def check_labeling_count(P: Poset, r: int, s: int) -> int:
    """The labeling count for r flavors of 1 and s of 0, bounded by
    DEFAULT_LABELING_CAP before any alphabet is built.

    r + s is bounded as well: theta has r + s symbols, and a poset without
    elements has one labeling for every (r, s).  For n >= 1 the empty and
    the full ideal alone carry r^n + s^n labelings, so that sum is bounded
    before any ideal is enumerated.  The count stops at the first ideal
    size that takes it past the cap.
    """
    cap = DEFAULT_LABELING_CAP
    if r < 1 or s < 1:
        raise ValueError("r and s must be positive")
    if r + s > cap:
        raise CapExceededError(f"{r + s} flavor symbols exceed the cap {cap}")
    if P.n and r ** P.n + s ** P.n > cap:
        raise CapExceededError(f"more than {cap} labelings")
    total = 0
    for _, c, w in _blocks(P, r, s):
        total += c * w
        if total > cap:
            raise CapExceededError(f"more than {cap} labelings")
    return total


def _blocks(P, r, s):
    """(k, the ideals of size k, the labelings of each), smallest k first."""
    sizes = Counter(map(int.bit_count, P.ideal_masks()))
    return ((k, c, r ** (P.n - k) * s ** k) for k, c in sorted(sizes.items()))


def enumerate_labelings(P: Poset, alphabet: FlavorAlphabet):
    """All labelings, grouped by underlying ideal in canonical ideal order,
    lexicographic in the per-element flavor choices within each group.

    A labeling's position in this order is its rank, which the orbit walk
    carries."""
    check_labeling_count(P, alphabet.r, alphabet.s)
    zeros = range(alphabet.s)
    ones = range(alphabet.s, alphabet.s + alphabet.r)
    return tuple(
        QLabeling._make(P, alphabet, labels, mask)
        for mask in P.ideal_masks()
        for labels in product(*[zeros if mask >> p & 1 else ones for p in range(P.n)]))


def _thetas(P, alphabet, local_theta):
    """The flavor cycle toggled at each element, alphabet.theta or local_theta[p]
    (a FlavorAlphabet or a tuple): the one reader of local cycles, which
    raises ValueError unless each element has one, a single cycle on the
    r + s symbols."""
    if local_theta is None:
        return (alphabet.theta,) * P.n
    cycles = tuple(local_theta)
    if len(cycles) != P.n:
        raise ValueError(f"local_theta has {len(cycles)} cycles for {P.n} elements")
    return tuple(FlavorAlphabet(alphabet.r, alphabet.s, getattr(th, "theta", th)).theta
                 for th in cycles)


def _walk_table(P, alphabet, local_theta, order):
    """The toggles at `order` as sweep positions, and the table of every
    zero-labeled ideal M, for the orbit walk.

    Position j holds (p, moves) for the element p toggled at step
    len(order) - 1 - j, so a sweep runs the positions from the highest down.
    moves[x] for the old label x is (theta_p(x), the change of the flavor
    index, the bit that flips in M or 0).  The flavor index of a label is
    the label itself for a 0 and the label minus s for a 1.

    table[M] is (active, offset, weights).  `active` holds the positions
    whose element is active in M, that is max(M) | min(P - M), as a
    bitmask, read off the toggle table.  `offset` is the rank of the first
    labeling on M, and weights[j] is (L, R*L, (R' - R)*L) for the element p
    at position j: L, the place value of p's flavor index, is the product
    of the radices of the elements after p (s in M, r outside), R is the
    radix of p in M and R' its radix once p flips.  Entries share their
    triples, and for r = s one weights tuple.
    """
    r, s, n = alphabet.r, alphabet.s, P.n
    thetas = _thetas(P, alphabet, local_theta)
    elements = order[::-1]  # elements[j]: the element at position j
    steps = tuple(
        (p, tuple((y, (y - s * (y >= s)) - (x - s * (x >= s)),
                   1 << p if (x < s) != (y < s) else 0)
                  for x, y in enumerate(thetas[p])))
        for p in elements)
    masks = P.ideal_masks()
    toggles = P.toggle_table()
    active = [0] * len(masks)
    for j, p in enumerate(elements):
        for k in (*toggles.addable[p], *toggles.removable[p]):
            active[k] |= 1 << j
    interned = {}

    def weights_of(mask):
        weights = [None] * n  # weights[p]: the triple of element p
        L = 1
        for p in reversed(range(n)):
            R, flipped = (s, r) if mask >> p & 1 else (r, s)
            w = (L, R * L, (flipped - R) * L)
            weights[p] = interned.setdefault(w, w)
            L *= R
        return tuple(map(weights.__getitem__, elements))

    shared = weights_of(0) if r == s else None  # place values vary with M only if r != s
    table = {}
    offset = 0
    for mask, act in zip(masks, active):
        table[mask] = (act, offset, weights_of(mask) if shared is None else shared)
        k = mask.bit_count()
        offset += r ** (n - k) * s ** k
    return steps, table


def _sweep(toggles, labels, mask, code):
    """Apply the toggles in turn, in place on `labels`; returns the new
    zero-labeled mask and rank.

    The zero-labeled set M stays an ideal, and only the elements active in M
    can act.  So the sweep visits only the pending active positions below
    the current one, and reloads them from the table only when a toggle
    moves a label across the 0/1 boundary, which is when M changes.

    The rank is the offset of M plus a mixed-radix number with one digit,
    the flavor index, per element, element 0 the most significant.  A
    toggle that keeps the class of p adds the change of its digit times its
    place value L.  A toggle that flips p changes its radix from R to R',
    which rescales the digits before p, the part of the rank above R*L, and
    then moves the rank to the new ideal's offset.
    """
    steps, table = toggles
    pending, offset, weights = table[mask]
    within = code - offset  # the rank within M
    while pending:
        j = pending.bit_length() - 1
        p, moves = steps[j]
        new, dc, flip = moves[labels[p]]
        labels[p] = new
        L, RL, dRL = weights[j]
        if flip:
            within += within // RL * dRL + dc * L
            mask ^= flip
            pending, offset, weights = table[mask]
            pending &= (1 << j) - 1
        else:
            within += dc * L
            pending ^= 1 << j
    return mask, offset + within


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
    """The labeling L of P toggled at each element of `order` in turn.

    p acts when `Poset.toggle_mask` changes the zero-labeled ideal M at p;
    its label moves by theta_p, and p's bit in M flips when the label
    crosses the 0/1 boundary.  No ideal is enumerated, so a single step on
    a large poset stays cheap.
    """
    if L.poset is not P:
        raise ValueError("labeling belongs to a different poset")
    if (L.alphabet.r, L.alphabet.s) != (alphabet.r, alphabet.s):
        raise ValueError("labeling has other flavor counts than the alphabet")
    thetas = _thetas(P, alphabet, local_theta)
    s = alphabet.s
    labels = list(L.labels)
    mask = L.ideal_mask
    for p in order:
        if P.toggle_mask(p, mask) == mask:
            continue
        labels[p] = x = thetas[p][labels[p]]
        if (x < s) != (mask >> p & 1):
            mask ^= 1 << p
    return QLabeling._make(P, alphabet, tuple(labels), mask)


def _walk(P, alphabet, local_theta, as_labels=False):
    """Every labeling once, orbit by orbit, under q-rowmotion.

    Orbits start at their first labeling in the order of
    `enumerate_labelings`.  Yields one list per orbit: the zero-labeled
    masks of its labelings in orbit order, or with `as_labels` their label
    tuples.  The sweep carries each labeling's rank, its position in that
    order; visited ranks are marked in a bytearray of one byte per
    labeling, the next orbit starts at the first unmarked rank, and its
    labels are read back from the digits of that rank.  A rank outside the
    labeling space, or an orbit that does not close at its start, means the
    map is not a bijection.
    """
    r, s = alphabet.r, alphabet.s
    count = check_labeling_count(P, r, s)
    toggles = steps, table = _walk_table(P, alphabet, local_theta, rowmotion_order(P))
    visited = bytearray(count)
    for mask in P.ideal_masks():
        _, offset, weights = table[mask]
        k = mask.bit_count()
        end = offset + r ** (P.n - k) * s ** k  # the labelings on M
        start = visited.find(0, offset, end)
        while start != -1:
            labels = [0] * P.n
            for (p, _), (L, RL, _) in zip(steps, weights):
                labels[p] = (start - offset) % RL // L + (0 if mask >> p & 1 else s)
            cur, code, orbit = mask, start, []
            while 0 <= code < count and not visited[code]:
                visited[code] = 1
                orbit.append(tuple(labels) if as_labels else cur)
                cur, code = _sweep(toggles, labels, cur, code)
            if code != start:
                raise CertificateError("q-rowmotion failed to be a bijection")
            yield orbit
            start = visited.find(0, start + 1, end)


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


def q_homomesy_check(P: Poset, alphabet: FlavorAlphabet, f: Statistic,
                     expected=None, local_theta=None) -> HomomesyReport:
    """Exact orbit averages of an ideal statistic lifted to labelings.

    The statistic value of a labeling is its value on the zero-labeled
    ideal.  When `expected` (a rational function of q, or a Fraction) is
    given, the averages are compared against its value at q = r/s; a pole
    there raises ValueError before any labeling is walked.
    """
    if f.poset is not P:
        raise ValueError("statistic lives on a different poset")
    if f.kind != RATIONAL:
        raise ValueError("lift a rational-valued statistic (specialize q first)")
    if isinstance(expected, RationalFunction):
        try:
            expected = expected.evaluate(alphabet.q)
        except ZeroDivisionError as exc:
            raise ValueError(f"the expected value has a {exc}") from None
    # integer orbit sums over the one denominator of the values
    value = dict(zip(P.ideal_masks(), f.nums)).__getitem__
    return _homomesy_report(f, ((sum(map(value, orbit)), len(orbit))
                                for orbit in _walk(P, alphabet, local_theta)),
                            None if expected is None else Fraction(expected))
