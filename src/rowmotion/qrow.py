"""q-rowmotion on flavored 0/1 labelings of a poset.

States are labelings by s flavors of 0 and r flavors of 1 whose 0-part is an
order ideal.  Toggling applies a fixed cyclic permutation of the r+s flavor
symbols at every active element; q-rowmotion sweeps a linear extension from
the top.  The pair (r, s) is deliberately not reduced: the dynamics depend
on r and s themselves, not only on q = r/s.

The zero-labeled set M stays an ideal after every toggle, so only the
elements of max(M) | min(P - M) can act.  Single steps (`q_toggle`,
`q_rowmotion`) test each element against M with the cover masks and
enumerate no ideals.  The orbits come from one permutation of labeling
ranks, a rank being a labeling's position in `enumerate_labelings`:
`_q_sweep_permutation` composes the toggles as strided slice moves over the
aligned pairs of the toggle table, in one 4-byte owner array, and looks at
no labeling.  Its cycles, walked by `dynamics._cycles` with one byte per
labeling, are the orbits; only the labels that are returned or printed are
built.  An orbit sum of `q_homomesy_check` reads one value per rank: the
statistic's numerator on each ideal repeated over the ideal's block of
ranks, in the smallest array type that holds the numerators.
"""

from __future__ import annotations

import random
from array import array
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, chain, product, repeat
from operator import itemgetter

from .dynamics import _cycles, rowmotion_order
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

    A labeling's position in this order is its rank, on which the orbit walk
    runs."""
    check_labeling_count(P, alphabet.r, alphabet.s)
    return tuple(QLabeling._make(P, alphabet, labels, mask)
                 for mask, block in _label_blocks(P, alphabet) for labels in block)


def _label_blocks(P, alphabet):
    """(M, the label tuples of the labelings on M) for every ideal M, in rank
    order: the one enumerator of labelings, for a caller that has run the
    cap check.

    Which elements are labeled 1 is read off the bits of M as a bytes
    template, element 0 first; for r = s = 1 it is the one labeling on M.
    """
    r, s, n = alphabet.r, alphabet.s, P.n
    outside = bytes.maketrans(b"01", b"\1\0")
    pools = (range(s), range(s, s + r))
    for mask in P.ideal_masks():
        ones = bin(mask | 1 << n)[:2:-1].encode().translate(outside)
        yield mask, ((tuple(ones),) if r == s == 1
                     else product(*map(pools.__getitem__, ones)))


def _offsets(P, r, s):
    """The rank of the first labeling on each ideal, in canonical order, then
    the labeling count, after the cap check."""
    check_labeling_count(P, r, s)
    return list(accumulate(_widths(P, r, s), initial=0))


def _widths(P, r, s):
    """The number of labelings on each ideal, in canonical order."""
    n = P.n
    sizes = [r ** (n - k) * s ** k for k in range(n + 1)]
    return map(sizes.__getitem__, map(int.bit_count, P.ideal_masks()))


def _rank_values(nums, widths):
    """nums[i] at every rank of the widths[i] labelings on ideal i, in the
    smallest signed array type that holds every numerator (a list past 64
    bits), built by repeating each ideal's item bytes over its block."""
    for code in "bhiq":
        try:
            cells = array(code, nums)
        except OverflowError:
            continue
        raw, size = cells.tobytes(), cells.itemsize
        return array(code, b"".join([raw[k:k + size] * w
                                     for k, w in zip(range(0, len(raw), size), widths)]))
    return list(chain.from_iterable(map(repeat, nums, widths)))


def _rank_values_of(P, r, s, nums):
    """The value of every labeling rank of (P, r, s): the numerator of its
    ideal, nums itself when each ideal has one labeling."""
    return nums if r == s == 1 else _rank_values(nums, _widths(P, r, s))


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


def _q_sweep_permutation(P, alphabet, local_theta, order, offsets) -> array:
    """The toggles at `order` (first element first) as an owner array on
    labeling ranks: entry j is the rank of the labeling that they take to rank
    j, so the array is the inverse of the map, with the same cycles reversed.
    `offsets` are those of `_offsets`, whose cap check the caller has run.

    It starts from the identity.  A toggle at p moves only the labelings on
    the aligned pairs (a, b) = (addable[p][i], removable[p][i]) of the toggle
    table, where p is labeled 1 on the ideal a and 0 on b = a + p.  Every
    other element has the same class on a and b, so a rank on either is
    offset + (hi * R + d) * L + lo: d is p's flavor index (the label, less s
    for a 1) and R its radix (s on b, r on a), and the H values of hi and the
    L values of lo are the same on both.  The labelings with flavor x at p
    move to the place of theta_p(x) as min(H, L) strided slices.  No labeling
    is looked at.
    """
    r, s, n = alphabet.r, alphabet.s, P.n
    thetas = _thetas(P, alphabet, local_theta)
    masks = P.ideal_masks()
    table = P.toggle_table()
    owner = array("i", range(offsets[-1]))

    def slot(x):  # the flavor x at p: (0 on a or 1 on b, flavor index, radix)
        return (1, x, s) if x < s else (0, x - s, r)

    for p in order:
        if r == s == 1:  # every block is one labeling, and theta_p swaps a and b
            for a, b in zip(table.addable[p], table.removable[p]):
                owner[a], owner[b] = owner[b], owner[a]
            continue
        before = (1 << p) - 1
        heads = [r ** (p - k) * s ** k for k in range(p + 1)]  # H by #(M before p)
        moves = [(slot(x), slot(y)) for x, y in enumerate(thetas[p])]
        for a, b in zip(table.addable[p], table.removable[p]):
            H = heads[(masks[a] & before).bit_count()]
            L = (offsets[a + 1] - offsets[a]) // (r * H)
            blocks = ((offsets[a], offsets[a + 1]), (offsets[b], offsets[b + 1]))
            old = [owner[start:end] for start, end in blocks]
            for (src, dx, Rx), (dst, dy, Ry) in moves:
                block = old[src]
                start, end = blocks[dst]
                if H <= L:  # H runs of L ranks
                    for i, j in zip(range(dx * L, len(block), Rx * L),
                                    range(start + dy * L, end, Ry * L)):
                        owner[j:j + L] = block[i:i + L]
                else:  # L slices of stride R * L
                    for lo in range(L):
                        owner[start + dy * L + lo:end:Ry * L] = block[dx * L + lo::Rx * L]
    return owner


def _orbit_cycles(P, alphabet, local_theta, offsets):
    """The orbits of q-rowmotion as cycles of labeling ranks, least rank
    first, each from its least rank and then backwards along the orbit: the
    cycles of the owner array of `rowmotion_order`.  A cycle that does not
    close means the map is not a bijection."""
    owner = _q_sweep_permutation(P, alphabet, local_theta, rowmotion_order(P), offsets)
    try:
        yield from _cycles(owner)
    except ValueError:
        raise CertificateError("q-rowmotion failed to be a bijection") from None


def q_orbits(P: Poset, alphabet: FlavorAlphabet, local_theta=None):
    """Orbits of q-rowmotion as lists of raw label tuples, each from its
    first labeling in the order of `enumerate_labelings`."""
    cycles = _orbit_cycles(P, alphabet, local_theta, _offsets(P, alphabet.r, alphabet.s))
    labels = list(chain.from_iterable(map(itemgetter(1), _label_blocks(P, alphabet))))
    return [list(map(labels.__getitem__, cyc[:1] + cyc[:0:-1])) for cyc in cycles]


def _representatives(P, alphabet, local_theta=None, offsets=None):
    """(size, first label tuple) of each q-rowmotion orbit, in the order of
    `q_orbits`.  Only each first labeling is decoded, from its rank: the
    ideal whose block holds it, then one mixed-radix digit per element,
    element 0 the most significant.  `offsets` are those of `_offsets`,
    built here unless the caller has them."""
    r, s, n = alphabet.r, alphabet.s, P.n
    masks = P.ideal_masks()
    if offsets is None:
        offsets = _offsets(P, r, s)
    out = []
    for cyc in _orbit_cycles(P, alphabet, local_theta, offsets):
        i = bisect_right(offsets, cyc[0]) - 1
        mask, within = masks[i], cyc[0] - offsets[i]
        labels = [0] * n
        for p in reversed(range(n)):
            R, first = (s, 0) if mask >> p & 1 else (r, s)
            within, d = divmod(within, R)
            labels[p] = first + d
        out.append((len(cyc), tuple(labels)))
    return out


def ideal_mask_of(labels, alphabet) -> int:
    """Mask of the zero-labeled elements (labels below s)."""
    mask = 0
    for p, x in enumerate(labels):
        if x < alphabet.s:
            mask |= 1 << p
    return mask


def q_homomesy_check(P: Poset, alphabet: FlavorAlphabet, f: Statistic,
                     expected=None, local_theta=None, offsets=None) -> HomomesyReport:
    """Exact orbit averages of an ideal statistic lifted to labelings.

    The statistic value of a labeling is its value on the zero-labeled
    ideal.  When `expected` (a rational function of q, or a Fraction) is
    given, the averages are compared against its value at q = r/s; a pole
    there raises ValueError before any labeling is walked.  `offsets` are
    those of `_offsets` for (P, r, s), built here unless the caller has them.
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
    # integer orbit sums over the one denominator of the values, read off the
    # value of each rank: that of its ideal, repeated over the ideal's block
    r, s = alphabet.r, alphabet.s
    if offsets is None:
        offsets = _offsets(P, r, s)
    value = _rank_values_of(P, r, s, f.nums)
    return _homomesy_report(
        f, ((sum(map(value.__getitem__, cyc)), len(cyc))
            for cyc in _orbit_cycles(P, alphabet, local_theta, offsets)),
        None if expected is None else Fraction(expected))
