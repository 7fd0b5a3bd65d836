"""Finite posets with bitset order-ideal machinery.

Elements are dense integer indices 0..n-1; order ideals and antichains are
bitmasks over those indices.  Grid coordinates, when present, are metadata
(matrix convention: box (i, j) with i the row counted from the top), never
element identity.
"""

from __future__ import annotations

import heapq
from array import array
from functools import cached_property
from itertools import count, repeat
from typing import Iterator, NamedTuple, Optional

DEFAULT_IDEAL_CAP = 2_000_000  # the most order ideals held at once


def mask_cap(n: int) -> int:
    """How many masks of n bits may be held at once: DEFAULT_IDEAL_CAP masks
    of 64 bits, or as many masks of n > 64 bits as take that memory."""
    return DEFAULT_IDEAL_CAP * 64 // max(n, 64)


class MalformedPosetError(ValueError):
    """Cover data does not describe a finite poset (cycle, bad index, ...)."""


class CapExceededError(RuntimeError):
    """An enumeration would exceed the configured resource cap."""


class ToggleTable(NamedTuple):
    """Where each element can be toggled, as canonical ideal indices.

    addable[p] lists, in increasing order, the ideals I with p not in I and
    I + p an ideal; removable[p] the ideals with p in I and I - p an ideal.
    I -> I + p keeps the canonical order, so removable[p][i] is addable[p][i]
    plus p.  The search in `Poset.ideal_masks` writes the table.
    """

    addable: tuple
    removable: tuple


class Poset:
    """Immutable finite poset given by its cover relations.

    Parameters
    ----------
    n : number of elements; elements are 0..n-1.
    covers : iterable of (lower, upper) index pairs, one per cover relation.
    coords : optional per-element grid coordinate (i, j).  When given, covers
        must be exactly the pairs of coordinate-adjacent boxes, so that
        (i, j) <= (i', j') iff i <= i' and j <= j'.
    name : optional display name.
    colors : optional per-element hashable color labels (refinement metadata).
    """

    def __init__(self, n, covers, coords=None, name=None, colors=None):
        self.n = int(n)
        if self.n < 0:
            raise MalformedPosetError("element count must be nonnegative")
        seen = set()
        cov = []
        for lo, hi in covers:
            lo, hi = int(lo), int(hi)
            if not (0 <= lo < self.n and 0 <= hi < self.n):
                raise MalformedPosetError(f"cover ({lo},{hi}) out of range")
            if lo == hi:
                raise MalformedPosetError(f"self-cover at {lo}")
            if (lo, hi) not in seen:
                seen.add((lo, hi))
                cov.append((lo, hi))
        cov.sort()
        self.covers = tuple(cov)
        self.coords = None if coords is None else tuple((int(i), int(j)) for i, j in coords)
        if self.coords is not None and len(self.coords) != self.n:
            raise MalformedPosetError("coords length must equal n")
        self.name = name
        self.colors = None if colors is None else tuple(colors)
        if self.colors is not None and len(self.colors) != self.n:
            raise MalformedPosetError("colors length must equal n")

        up = [0] * self.n   # up_covers[x]: mask of elements covering x
        down = [0] * self.n  # down_covers[y]: mask of elements covered by y
        for lo, hi in self.covers:
            up[lo] |= 1 << hi
            down[hi] |= 1 << lo
        self.up_covers = tuple(up)
        self.down_covers = tuple(down)
        # the same covers as tuples of elements, for loops over them
        self.upper_covers = tuple(tuple(_bits(m)) for m in up)
        self.lower_covers = tuple(tuple(_bits(m)) for m in down)

        self._linext = self._lex_min_extension()  # also proves acyclicity
        self._rowmotion_order = self._linext[::-1]  # see dynamics.rowmotion_order
        self._down_sets()  # proves that every cover is one, and keeps nothing

        self.minimal_mask = sum(1 << x for x in range(self.n) if not down[x])
        self.maximal_mask = sum(1 << x for x in range(self.n) if not up[x])

        self._coord_index = (
            None if self.coords is None else {c: i for i, c in enumerate(self.coords)}
        )
        if self.coords is not None:
            self._check_grid_consistency()

        self.rank = self._compute_rank()
        self._ideal_masks: Optional[tuple] = None
        self._ideal_index: Optional[dict] = None
        self._toggle_table: Optional[ToggleTable] = None
        self._certificate_system = None  # factored by rowmotion.decompose
        self._sweeps: dict = {}
        self._rowmotion_perm: Optional[array] = None  # cached by rowmotion.dynamics
        self._antichain_masks: Optional[tuple] = None
        self._ideals = self._antichains = None  # canonical states, kept by enumerate_*

    @cached_property
    def down_set(self) -> tuple:
        """down_set[x]: mask of all y <= x, built on first use."""
        return self._down_sets()

    def _down_sets(self) -> tuple:
        """The `down_set` masks, built up the linear extension, after a check
        that costs O(covers) mask operations: a cover lo < x is redundant when
        lo lies strictly below another lower cover of x, and then
        MalformedPosetError names it and a path that implies it.  The toggles
        and the certificate system read the upper covers of an element as an
        antichain."""
        dset = [0] * self.n
        for x in self._linext:
            below = 0  # what lies strictly below some lower cover of x
            for y in self.lower_covers[x]:
                below |= dset[y] ^ 1 << y
            if redundant := below & self.down_covers[x]:
                lo = (redundant & -redundant).bit_length() - 1
                path, z = [x], x
                while z != lo:  # down along covers that stay above lo
                    z = next(w for w in self.lower_covers[z]
                             if dset[w] >> lo & 1 and (w, z) != (lo, x))
                    path.append(z)
                raise MalformedPosetError(
                    f"cover ({lo},{x}) is implied by the path "
                    + " < ".join(map(str, reversed(path))))
            dset[x] = below | self.down_covers[x] | 1 << x
        return tuple(dset)

    @cached_property
    def up_set(self) -> tuple:
        """up_set[x]: mask of all y >= x, built on first use."""
        uset = [0] * self.n
        for x in reversed(self._linext):
            m = 1 << x
            for y in self.upper_covers[x]:
                m |= uset[y]
            uset[x] = m
        return tuple(uset)

    # -- construction helpers -------------------------------------------------

    def _lex_min_extension(self):
        indeg = [m.bit_count() for m in self.down_covers]
        heap = [x for x in range(self.n) if indeg[x] == 0]
        heapq.heapify(heap)
        order = []
        while heap:
            x = heapq.heappop(heap)
            order.append(x)
            for y in self.upper_covers[x]:
                indeg[y] -= 1
                if indeg[y] == 0:
                    heapq.heappush(heap, y)
        if len(order) != self.n:
            raise MalformedPosetError("cover relation contains a cycle")
        return tuple(order)

    def _check_grid_consistency(self):
        index = self._coord_index
        if len(index) != self.n:
            raise MalformedPosetError("duplicate grid coordinates")
        adjacent = set()
        for x, (i, j) in enumerate(self.coords):
            for nb in ((i + 1, j), (i, j + 1)):
                if nb in index:
                    adjacent.add((x, index[nb]))
        stored = set(self.covers)
        if stored != adjacent:
            raise MalformedPosetError("covers do not match grid adjacency")

    def _compute_rank(self):
        """Rank function with min rank 0 per connected component, or None."""
        if self.n == 0:
            return ()
        rank = [None] * self.n
        for start in range(self.n):
            if rank[start] is not None:
                continue
            rank[start] = 0
            comp = [start]
            stack = [start]
            while stack:
                x = stack.pop()
                for ys, delta in ((self.upper_covers[x], 1), (self.lower_covers[x], -1)):
                    for y in ys:
                        ry = rank[x] + delta
                        if rank[y] is None:
                            rank[y] = ry
                            comp.append(y)
                            stack.append(y)
                        elif rank[y] != ry:
                            return None
            shift = min(rank[x] for x in comp)
            for x in comp:
                rank[x] -= shift
        return tuple(rank)

    # -- basic queries ---------------------------------------------------------

    def leq(self, x, y):
        """True iff x <= y in the partial order."""
        if not (0 <= x < self.n and 0 <= y < self.n):
            raise IndexError(f"element out of range: {x}, {y}")
        return bool(self.up_set[x] >> y & 1)

    def element_at(self, coord):
        """Index of the element with grid coordinate (i, j)."""
        if self._coord_index is None:
            raise ValueError("poset has no grid coordinates")
        return self._coord_index[tuple(coord)]

    def has_coord(self, coord):
        return self._coord_index is not None and tuple(coord) in self._coord_index

    def max_rank(self):
        if self.rank is None:
            raise ValueError("poset is not ranked")
        return max(self.rank, default=0)

    def rank_mask(self, i):
        """Mask of all elements of rank i (poset must be ranked)."""
        if self.rank is None:
            raise ValueError("poset is not ranked")
        return sum(1 << x for x, r in enumerate(self.rank) if r == i)

    # -- mask-level order ideal machinery ---------------------------------------

    def is_ideal_mask(self, mask):
        return all(self.down_covers[x] & mask == self.down_covers[x] for x in _bits(mask))

    def is_antichain_mask(self, mask):
        return not any((self.up_set[x] ^ (1 << x)) & mask for x in _bits(mask))

    def generated_ideal_mask(self, antichain_mask):
        m = 0
        for x in _bits(antichain_mask):
            m |= self.down_set[x]
        return m

    def toggle_mask(self, p, mask):
        """The ideal `mask` toggled at p: the toggle test for a single mask."""
        if mask >> p & 1:
            return mask if self.up_covers[p] & mask else mask ^ 1 << p
        down = self.down_covers[p]
        return mask | 1 << p if down & mask == down else mask

    def toggleable_mask(self, mask):
        """max(I) | min(P - I) of the ideal I = `mask`: where a toggle acts."""
        return sum(self.toggle_mask(p, mask) ^ mask for p in range(self.n))

    def ideal_masks(self):
        """All order-ideal masks, sorted by (cardinality, mask value).

        The result is cached; the canonical position of each ideal in this
        tuple indexes every statistic vector built on this poset.  The search
        goes by cardinality and carries each ideal's addable mask min(P - I)
        forward: adding x drops x and gains the upper covers of x whose lower
        covers are all in the new ideal.  Once the next layer is sorted, the
        `toggle_table` rows of the current layer are written, so the masks,
        their index and the table are stored together after one pass.  More
        than `mask_cap(n)` ideals raise CapExceededError and store nothing.
        """
        if self._ideal_masks is None:
            cap = mask_cap(self.n)
            down = self.down_covers
            # gains[x]: (bit, lower covers) of each upper cover of x
            gains = [tuple((1 << y, down[y]) for y in self.upper_covers[x])
                     for x in range(self.n)]
            addable = [array("l") for _ in range(self.n)]
            removable = [array("l") for _ in range(self.n)]
            out = [0]
            index = {0: 0}
            layer = {0: self.minimal_mask}  # ideal -> its addable mask
            while layer:
                nxt = {}
                for mask, add in layer.items():
                    rest = add
                    while rest:
                        low = rest & -rest
                        rest ^= low
                        new = mask | low
                        if new in nxt:
                            continue
                        if len(out) + len(nxt) >= cap:
                            raise CapExceededError(f"more than {cap} order ideals")
                        grow = add ^ low
                        for ybit, dy in gains[low.bit_length() - 1]:
                            if dy & new == dy:
                                grow |= ybit
                        nxt[new] = grow
                nxt = dict(sorted(nxt.items()))
                index.update(zip(nxt, count(len(out))))
                # p addable to ideal k = I: k joins addable[p], I + p removable[p]
                for k, (mask, add) in enumerate(layer.items(), len(out) - len(layer)):
                    while add:
                        low = add & -add
                        add ^= low
                        p = low.bit_length() - 1
                        addable[p].append(k)
                        removable[p].append(index[mask | low])
                out += nxt
                layer = nxt
            self._ideal_masks = tuple(out)
            self._ideal_index = index
            self._toggle_table = ToggleTable(tuple(addable), tuple(removable))
        return self._ideal_masks

    def ideal_index(self, mask):
        self.ideal_masks()
        return self._ideal_index[mask]

    def toggle_table(self) -> ToggleTable:
        """The cached ToggleTable, written by the search in `ideal_masks`, which
        runs on first use.  Every toggleability vector is read off it."""
        self.ideal_masks()
        return self._toggle_table

    def sweep_permutation(self, order) -> array:
        """The toggles at `order` (first element first) as a permutation of
        canonical ideal indices: entry i is the index of the image of ideal i.

        Each toggle swaps the aligned pairs of the toggle table, so no mask is
        tested.  Cached per order for the life of the poset.
        """
        order = tuple(order)
        perm = self._sweeps.get(order)
        if perm is None:
            table = self.toggle_table()
            owner = list(range(len(self._ideal_masks)))  # owner[j]: start now at j
            for p in order:
                for a, b in zip(table.addable[p], table.removable[p]):
                    owner[a], owner[b] = owner[b], owner[a]
            perm = array("l", [0]) * len(owner)
            for j, i in enumerate(owner):
                perm[i] = j
            self._sweeps[order] = perm
        return perm

    def antichain_masks(self) -> tuple:
        """Cached max(I) for every ideal I, in the canonical ideal order, read
        off the toggle table: p is in max(I) exactly when p is removable."""
        if self._antichain_masks is None:
            amasks = [0] * len(self.ideal_masks())
            for p, rem in enumerate(self.toggle_table().removable):
                bit = 1 << p
                for k in rem:
                    amasks[k] |= bit
            self._antichain_masks = tuple(amasks)
        return self._antichain_masks

    # -- serialization -----------------------------------------------------------

    def to_dict(self):
        return {
            "n": self.n,
            "covers": [list(c) for c in self.covers],
            "coords": None if self.coords is None else [list(c) for c in self.coords],
            "name": self.name,
            "colors": None if self.colors is None else list(self.colors),
        }

    @classmethod
    def from_dict(cls, d):
        return cls(d["n"], d["covers"], coords=d.get("coords"), name=d.get("name"),
                   colors=d.get("colors"))

    def __repr__(self):
        label = self.name or f"poset<{self.n}>"
        return f"Poset({label}, n={self.n}, covers={len(self.covers)})"


def _bits(mask) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# -- element-set wrappers ---------------------------------------------------


class _ElementSet:
    __slots__ = ("poset", "mask", "_index")  # _index: position if canonical, else None

    def __init__(self, poset, elements=(), *, mask=None):
        self.poset = poset
        if mask is None:
            mask = 0
            for x in elements:
                if not (0 <= x < poset.n):
                    raise IndexError(f"element {x} out of range")
                mask |= 1 << int(x)
        self.mask = mask
        self._index = None
        self._validate()

    def _validate(self):
        raise NotImplementedError

    @classmethod
    def _make(cls, poset, mask, index=None):
        obj = cls.__new__(cls)
        obj.poset = poset
        obj.mask = mask
        obj._index = index
        return obj

    @property
    def members(self):
        return tuple(_bits(self.mask))

    @property
    def cardinality(self):
        return self.mask.bit_count()

    def __contains__(self, x):
        return bool(self.mask >> x & 1)

    def __iter__(self):
        return _bits(self.mask)

    def __len__(self):
        return self.cardinality

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and other.poset is self.poset
            and other.mask == self.mask
        )

    def __hash__(self):
        return hash((id(self.poset), self.mask))

    def __repr__(self):
        return f"{type(self).__name__}{self.members}"


class OrderIdeal(_ElementSet):
    """Downward-closed element set of a fixed poset."""
    __slots__ = ()

    def _validate(self):
        if not self.poset.is_ideal_mask(self.mask):
            raise ValueError("element set is not downward-closed")


class Antichain(_ElementSet):
    """Pairwise-incomparable element set of a fixed poset."""
    __slots__ = ()

    def _validate(self):
        if not self.poset.is_antichain_mask(self.mask):
            raise ValueError("element set contains comparable elements")


class LinearExtension:
    """A listing of all elements respecting the partial order."""

    __slots__ = ("poset", "order")

    def __init__(self, poset, order):
        order = tuple(int(x) for x in order)
        if sorted(order) != list(range(poset.n)):
            raise ValueError("not a permutation of the elements")
        pos = [0] * poset.n
        for k, x in enumerate(order):
            pos[x] = k
        for lo, hi in poset.covers:
            if pos[lo] > pos[hi]:
                raise ValueError("listing violates the partial order")
        self.poset = poset
        self.order = order

    def __iter__(self):
        return iter(self.order)

    def __repr__(self):
        return f"LinearExtension{self.order}"


# -- spec-level operations ----------------------------------------------------


def leq(P: Poset, x: int, y: int) -> bool:
    """True iff x <= y in the transitive closure of the covers."""
    return P.leq(x, y)


def linear_extension(P: Poset) -> LinearExtension:
    """The lexicographically least linear extension (by element index)."""
    return LinearExtension(P, P._linext)


def minimal_complement(I: OrderIdeal) -> Antichain:
    """min(P \\ I): minimal elements of the complement of I."""
    return Antichain._make(I.poset, I.poset.toggleable_mask(I.mask) & ~I.mask)


def maximal_elements(I: OrderIdeal) -> Antichain:
    """max(I): maximal elements of I; the canonical bijection to antichains."""
    return Antichain._make(I.poset, I.poset.toggleable_mask(I.mask) & I.mask)


def ideal_generated_by(A: Antichain) -> OrderIdeal:
    """Downward closure of A; inverse of maximal_elements."""
    return OrderIdeal._make(A.poset, A.poset.generated_ideal_mask(A.mask))


def enumerate_ideals(P: Poset):
    """All order ideals of P in the canonical (cardinality, bitmask) order:
    one canonical object per ideal, the same tuple on every call."""
    if P._ideals is None:
        P._ideals = tuple(map(OrderIdeal._make, repeat(P), P.ideal_masks(), count()))
    return P._ideals


def enumerate_antichains(P: Poset):
    """All antichains, as max(I) over the canonical ideal enumeration: antichain
    k is max of ideal k and shares its index; the same tuple on every call."""
    if P._antichains is None:
        P._antichains = tuple(Antichain._make(P, m, I._index) for m, I
                              in zip(P.antichain_masks(), enumerate_ideals(P)))
    return P._antichains


def dual(P: Poset) -> Poset:
    """The dual poset: covers reversed, grid coordinates rotated 180 degrees."""
    covers = [(hi, lo) for lo, hi in P.covers]
    coords = None
    if P.coords is not None and P.n > 0:
        ci = max(i for i, _ in P.coords) + min(i for i, _ in P.coords)
        cj = max(j for _, j in P.coords) + min(j for _, j in P.coords)
        coords = [(ci - i, cj - j) for i, j in P.coords]
    name = f"dual({P.name})" if P.name else None
    return Poset(P.n, covers, coords=coords, name=name)


def is_graded(P: Poset) -> bool:
    """True iff all maximal chains have the same length: P is ranked, every
    minimal element has rank 0 and every maximal element the same rank."""
    rank = P.rank
    return (rank is not None and not any(rank[x] for x in _bits(P.minimal_mask))
            and len({rank[x] for x in _bits(P.maximal_mask)}) <= 1)


def rank_of(P: Poset) -> int:
    """Common maximal-chain length of a graded poset."""
    if not is_graded(P):
        raise ValueError("poset is not graded")
    return P.max_rank()


def poset_isomorphic(P: Poset, Q: Poset) -> bool:
    """Exact isomorphism test by backtracking on cover digraphs."""
    if P.n != Q.n or len(P.covers) != len(Q.covers):
        return False

    def profile(R, x):
        return tuple(m[x].bit_count() for m in (R.down_covers, R.up_covers, R.down_set, R.up_set))

    pprof = [profile(P, x) for x in range(P.n)]
    qprof = [profile(Q, x) for x in range(Q.n)]
    if sorted(pprof) != sorted(qprof):
        return False

    order = sorted(range(P.n), key=lambda x: (pprof[x], x))
    image = [-1] * P.n
    used = [False] * Q.n

    def extend(k):
        if k == P.n:
            return True
        x = order[k]
        for y in range(Q.n):
            if used[y] or qprof[y] != pprof[x]:
                continue
            ok = True
            for z in order[:k]:
                zx = image[z]
                if P.leq(x, z) != Q.leq(y, zx) or P.leq(z, x) != Q.leq(zx, y):
                    ok = False
                    break
                if (bool(P.up_covers[x] >> z & 1) != bool(Q.up_covers[y] >> zx & 1)
                        or bool(P.down_covers[x] >> z & 1) != bool(Q.down_covers[y] >> zx & 1)):
                    ok = False
                    break
            if ok:
                image[x] = y
                used[y] = True
                if extend(k + 1):
                    return True
                image[x] = -1
                used[y] = False
        return False

    return extend(0)
