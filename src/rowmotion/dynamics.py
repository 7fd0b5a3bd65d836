"""Toggles, rowmotion and its rank-permuted variants, and orbit computation.

Rowmotion, rank-permuted rowmotion (gyration included) and antichain
rowmotion are products of toggles along a fixed element order: rowmotion
toggles a linear extension from the top (`rowmotion_order`), the rank
permutations toggle `sigma_order`.  Once a poset's ideals are enumerated,
each step returns the canonical state at the image index under
`Poset.sweep_permutation` of its order, resolved once per step: a canonical
state is stepped in the step's own frame, as `P._ideals[perm[I._index]]`.
Before the enumeration, a step toggles the mask along the same order
(`_sweep_mask`).

There is one orbit kernel and one bijection check: the cycles of an index
permutation (`_cycles`, listed by `permutation_orbits`), which the
q-rowmotion orbits walk as well.  The orbits of a poset's canonical states
have one cached reader, `index_orbits`: it decomposes each permutation of
the canonical indices once per poset, keyed by its contents, so every
homomesy verdict, orbit partition, `verify` check and `orbits` command on
one map reads the same cycles.  `orbit_partition` reads a map on a state
space as such a permutation (`as_index_permutation`) and maps the cycles
back.  On a canonical enumeration each image's position is read off its
`_index` and confirmed by identity, `space[k] is image`; any other image is
found by equality.
"""

from __future__ import annotations

from array import array
from operator import attrgetter, is_

from .poset import (
    Antichain,
    CapExceededError,
    LinearExtension,
    OrderIdeal,
    Poset,
    _bits,
    enumerate_antichains,
    enumerate_ideals,
)

ORBIT_CAP = 1_000_000  # the most states one forward orbit may hold


class Orbit:
    """A cycle of a bijection: states in order, first state repeated nowhere."""

    __slots__ = ("states",)

    def __init__(self, states):
        self.states = tuple(states)
        if len(set(self.states)) != len(self.states):
            raise ValueError("orbit states must be distinct")

    @classmethod
    def _of_cycle(cls, states):
        """The orbit of states known to be distinct, taken unchecked."""
        obj = cls.__new__(cls)
        obj.states = tuple(states)
        return obj

    @property
    def period(self):
        return len(self.states)

    def __iter__(self):
        return iter(self.states)

    def __len__(self):
        return len(self.states)

    def __repr__(self):
        return f"Orbit(period={self.period})"


# -- toggles and rowmotion -------------------------------------------------------


def toggle(P: Poset, p: int, I: OrderIdeal) -> OrderIdeal:
    """Add p if addable, remove p if removable, otherwise leave I alone."""
    if not (0 <= p < P.n):
        raise IndexError(f"element {p} out of range")
    return _ideal(P, P.toggle_mask(p, _own_mask(P, I)))


def _own_mask(P: Poset, I: OrderIdeal) -> int:
    """The mask of I, which must be an ideal of P."""
    if I.poset is not P:
        raise ValueError("ideal belongs to a different poset")
    return I.mask


def _ideal(P: Poset, mask) -> OrderIdeal:
    """The ideal `mask`: canonical once the ideals are enumerated, else new."""
    if P._ideal_masks is None:
        return OrderIdeal._make(P, mask)
    return enumerate_ideals(P)[P._ideal_index[mask]]


def rowmotion_order(P: Poset) -> tuple:
    """The elements toggled by rowmotion, in order: a linear extension read
    from the top, kept once per poset."""
    return P._rowmotion_order


def _rowmotion_permutation(P: Poset):
    """The `sweep_permutation` of `rowmotion_order`, kept on the poset."""
    if P._rowmotion_perm is None:
        P._rowmotion_perm = P.sweep_permutation(P._rowmotion_order)
    return P._rowmotion_perm


def _sweep_mask(P: Poset, order, mask) -> int:
    """The ideal `mask` toggled at each element of `order`, first first."""
    for p in order:
        mask = P.toggle_mask(p, mask)
    return mask


def _sweep(P: Poset, order, I: OrderIdeal, perm) -> OrderIdeal:
    """The image of I under the toggles at `order`: with the ideals
    enumerated, the canonical ideal at entry `perm(P)` of I's index, else the
    mask toggled along `order`."""
    mask = _own_mask(P, I)
    if P._ideal_masks is None:
        return OrderIdeal._make(P, _sweep_mask(P, order, mask))
    k = I._index
    return (P._ideals or enumerate_ideals(P))[perm(P)[P._ideal_index[mask] if k is None else k]]


def rowmotion(P: Poset, I: OrderIdeal) -> OrderIdeal:
    """The ideal generated by the minimal elements of the complement of I."""
    if I.poset is not P:
        raise ValueError("ideal belongs to a different poset")
    k, perm = I._index, P._rowmotion_perm
    if k is None or perm is None:
        return _sweep(P, P._rowmotion_order, I, _rowmotion_permutation)
    return P._ideals[perm[k]]


def _sweeper(P: Poset, order):
    """The toggles at `order` as a step on ideals, which resolves their
    `sweep_permutation` on its first call after the enumeration and from
    then on steps a canonical ideal in its own frame; it carries P and order."""
    perm = None

    def resolve(P):
        nonlocal perm
        if perm is None:
            perm = P.sweep_permutation(order)
        return perm

    def step(I):
        if I.poset is not P:
            raise ValueError("ideal belongs to a different poset")
        k = I._index
        if k is None or perm is None:
            return _sweep(P, order, I, resolve)
        return P._ideals[perm[k]]

    step.poset, step.order = P, order
    return step


def rowmotion_by_toggles(P: Poset, ext: LinearExtension, I: OrderIdeal) -> OrderIdeal:
    """Toggle along a linear extension, top element first."""
    if ext.poset is not P:
        raise ValueError("extension belongs to a different poset")
    return _ideal(P, _sweep_mask(P, reversed(ext.order), _own_mask(P, I)))


def rank_toggle(P: Poset, i: int):
    """The product of toggles at all elements of rank i (they commute)."""
    return _sweeper(P, tuple(_bits(P.rank_mask(i))))


def sigma_order(P: Poset, sigma) -> tuple:
    """The elements toggled by rank-permuted rowmotion, in order: the ranks
    in reversed sigma order, each rank's elements (which commute) in turn."""
    top = P.max_rank()  # refuses an unranked poset
    sigma = tuple(int(s) for s in sigma)
    if sorted(sigma) != list(range(top + 1)):
        raise ValueError(f"sigma must permute 0..{top}")
    return tuple(p for i in reversed(sigma) for p in _bits(P.rank_mask(i)))


def rowmotion_sigma(P: Poset, sigma):
    """Rank-permuted rowmotion: rank toggles applied in reversed sigma order.

    The identity permutation recovers rowmotion (top rank toggled first).
    """
    return _sweeper(P, sigma_order(P, sigma))


def gyration_sigma(P: Poset) -> tuple:
    """The rank permutation of gyration: odd ranks, then even ranks, so that
    all even ranks are toggled first and all odd ranks after them."""
    top = P.max_rank()
    return tuple(range(1, top + 1, 2)) + tuple(range(0, top + 1, 2))


def gyration(P: Poset):
    """Toggle all even ranks, then all odd ranks."""
    return rowmotion_sigma(P, gyration_sigma(P))


def antichain_rowmotion(P: Poset, A: Antichain) -> Antichain:
    """min of the complement of the ideal generated by A.

    That is max of the rowmotion image of the ideal generated by A, so with
    the ideals enumerated it is the canonical antichain at the rowmotion
    image of A's index (antichain k is max of ideal k).
    """
    if A.poset is not P:
        raise ValueError("antichain belongs to a different poset")
    k, perm = A._index, P._rowmotion_perm
    if k is not None and perm is not None:
        return (P._antichains or enumerate_antichains(P))[perm[k]]
    if P._ideal_masks is None:
        mask = P.generated_ideal_mask(A.mask)
        return Antichain._make(P, P.toggleable_mask(mask) & ~mask)
    if k is None:
        k = P._ideal_index[P.generated_ideal_mask(A.mask)]
    return enumerate_antichains(P)[_rowmotion_permutation(P)[k]]


# -- orbits -----------------------------------------------------------------------


def orbit(step, start) -> Orbit:
    """Forward orbit of `start` under `step`, up to the first return; more
    than ORBIT_CAP states raise CapExceededError."""
    states = [start]
    seen = {start}
    cur = start
    while True:
        cur = step(cur)
        if cur == start:
            return Orbit._of_cycle(states)
        if cur in seen:
            raise ValueError("map is not injective on the reachable states")
        if len(states) >= ORBIT_CAP:
            raise CapExceededError(f"orbit exceeded {ORBIT_CAP} states")
        seen.add(cur)
        states.append(cur)


def orbit_partition(step, space) -> list[Orbit]:
    """Partition a finite state space into orbits of the bijection `step`.
    On a poset's canonical ideals or antichains the cycles are those of
    `index_orbits`, decomposed once per map; on any other space they are
    decomposed afresh."""
    if not isinstance(space, (tuple, list)):
        space = list(space)
    P, perm = _canonical_owner(space), _index_permutation(step, space)
    cycles = permutation_orbits(perm) if P is None else index_orbits(P, perm)
    return [Orbit._of_cycle(map(space.__getitem__, cyc)) for cyc in cycles]


_position = attrgetter("_index")


def _canonical_owner(space):
    """The poset whose canonical ideals or antichains `space` is, else None."""
    P = getattr(space[0], "poset", None) if len(space) else None
    if isinstance(P, Poset) and (space is P._ideals or space is P._antichains):
        return P
    return None


def as_index_permutation(step, space) -> list[int]:
    """The map `step` on the sequence `space` as a list of positions.  On a
    poset's canonical enumeration each image's position is read off its
    `_index` and confirmed by identity, `space[k] is image`; otherwise, or
    when an image has no such position, states are found by equality.
    `permutation_orbits` checks that the result is a permutation.  A
    `_sweeper` step on its poset's canonical ideals is read off the cache."""
    perm = _index_permutation(step, space)
    return perm if isinstance(perm, list) else list(perm)


def _index_permutation(step, space):
    """`as_index_permutation`, but for a `_sweeper` step on its poset's
    canonical ideals it is the cached `sweep_permutation` itself, to be read
    and not changed."""
    P = _canonical_owner(space)
    if P is not None and space is P._ideals and getattr(step, "poset", None) is P:
        return P.sweep_permutation(step.order)
    images = list(map(step, space))
    if P is not None:
        try:  # no `_index`, None or out of range raise; a wrong state fails `is`
            perm = list(map(_position, images))
            if all(map(is_, map(space.__getitem__, perm), images)):
                return perm
        except (AttributeError, TypeError, IndexError):
            pass
    index = {s: k for k, s in enumerate(space)}
    if len(index) != len(space):
        raise ValueError("state space contains duplicates")
    perm = [index.get(t, -1) for t in images]
    if -1 in perm:
        raise ValueError("map leaves the given state space")
    return perm


def index_orbits(P: Poset, perm):
    """The cycles of `perm`, a permutation of P's canonical state indices,
    as `permutation_orbits` lists them but in tuples, which every caller
    shares and none may change.  They are decomposed once per poset and
    permutation: `P._orbits` keeps them keyed by the bytes of the entries
    as an `array("l")`, so a step and the `_sweeper` of the same map, and
    antichain rowmotion and rowmotion, share one entry, and a list changed
    between calls is looked up by its new contents.  A permutation of any
    other length, or with an entry that the key cannot hold, is decomposed
    by `permutation_orbits` alone, which raises as it does for any caller."""
    if P._ideal_masks is None or len(perm) != len(P._ideal_masks):
        return permutation_orbits(perm)
    try:
        key = array("l", perm).tobytes()
    except (OverflowError, TypeError):
        return permutation_orbits(perm)
    cycles = P._orbits.get(key)
    if cycles is None:  # a first sight is checked as a permutation
        cycles = P._orbits[key] = tuple(map(tuple, _cycles(perm)))
    return cycles


def permutation_orbits(perm) -> list[list[int]]:
    """Cycles of an index permutation, each starting at its least element;
    an entry out of range or a cycle not closing at its start raises."""
    return list(_cycles(perm))


def _cycles(perm):
    """The cycles of `permutation_orbits`, one at a time.  Visited entries
    are marked in a bytearray, one byte each, and the next cycle starts at
    its first unmarked entry."""
    n = len(perm)
    if n and not (0 <= min(perm) and max(perm) < n):
        raise ValueError(f"an index is out of range for {n} states")
    seen = bytearray(n)
    start = seen.find(0)
    while start != -1:
        cyc = []
        x = start
        while not seen[x]:
            seen[x] = 1
            cyc.append(x)
            x = perm[x]
        if x != start:
            raise ValueError("map is not a bijection of the state space")
        yield cyc
        start = seen.find(0, start + 1)
