"""Toggles, rowmotion and its rank-permuted variants, and orbit computation.

Rowmotion, rank-permuted rowmotion (gyration included) and antichain
rowmotion are products of toggles along a fixed element order: rowmotion
toggles a linear extension from the top (`rowmotion_order`), the rank
permutations toggle `sigma_order`.  Once a poset's ideals are enumerated,
these maps read each image from `Poset.sweep_permutation` of their order, a
permutation of canonical ideal indices built once per poset and order from
the toggle table.  On a poset whose ideals were never enumerated they toggle
the mask along the same order (`_sweep_mask`), since no canonical index
exists there.

There is one orbit kernel: the cycles of an index permutation
(`permutation_orbits`).  `orbit_partition` reads a map on a state space as
such a permutation (`as_index_permutation`) and maps the cycles back.
"""

from __future__ import annotations

from .poset import (
    Antichain,
    CapExceededError,
    LinearExtension,
    OrderIdeal,
    Poset,
    _bits,
)

ORBIT_CAP = 1_000_000  # the most states one forward orbit may hold


class Orbit:
    """A cycle of a bijection: states in order, first state repeated nowhere."""

    __slots__ = ("states",)

    def __init__(self, states):
        self.states = tuple(states)
        if len(set(self.states)) != len(self.states):
            raise ValueError("orbit states must be distinct")

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
    return OrderIdeal._make(P, P.toggle_mask(p, _own_mask(P, I)))


def _own_mask(P: Poset, I: OrderIdeal) -> int:
    """The mask of I, which must be an ideal of P."""
    if I.poset is not P:
        raise ValueError("ideal belongs to a different poset")
    return I.mask


def rowmotion_order(P: Poset) -> tuple:
    """The elements toggled by rowmotion, in order: a linear extension read
    from the top, kept once per poset."""
    return P._rowmotion_order


def _rowmotion_permutation(P: Poset):
    """The `sweep_permutation` of `rowmotion_order`, referenced from the
    poset so that a rowmotion step does not hash that order again."""
    if P._rowmotion_perm is None:
        P._rowmotion_perm = P.sweep_permutation(P._rowmotion_order)
    return P._rowmotion_perm


def _sweep_mask(P: Poset, order, mask) -> int:
    """The ideal `mask` toggled at each element of `order`, first element
    first."""
    for p in order:
        mask = P.toggle_mask(p, mask)
    return mask


def _sweep(P: Poset, order, I: OrderIdeal, permutation=None) -> OrderIdeal:
    """The image of I under the toggles at `order`: read off the cached
    permutation (`permutation(P)` if given, else the `sweep_permutation` of
    `order`) once the ideals are enumerated, else toggled on the mask."""
    if I.poset is not P or P._ideal_masks is None:  # _own_mask refuses a foreign I
        return OrderIdeal._make(P, _sweep_mask(P, order, _own_mask(P, I)))
    perm = P.sweep_permutation(order) if permutation is None else permutation(P)
    return OrderIdeal._make(P, P._ideal_masks[perm[P._ideal_index[I.mask]]])


def rowmotion(P: Poset, I: OrderIdeal) -> OrderIdeal:
    """The ideal generated by the minimal elements of the complement of I."""
    return _sweep(P, P._rowmotion_order, I, _rowmotion_permutation)


def rowmotion_by_toggles(P: Poset, ext: LinearExtension, I: OrderIdeal) -> OrderIdeal:
    """Toggle along a linear extension, top element first."""
    if ext.poset is not P:
        raise ValueError("extension belongs to a different poset")
    return OrderIdeal._make(P, _sweep_mask(P, reversed(ext.order), _own_mask(P, I)))


def rank_toggle(P: Poset, i: int):
    """The product of toggles at all elements of rank i (they commute)."""
    elems = tuple(_bits(P.rank_mask(i)))
    return lambda I: OrderIdeal._make(P, _sweep_mask(P, elems, _own_mask(P, I)))


def _check_rank_permutation(P: Poset, sigma):
    if P.rank is None:
        raise ValueError("poset is not ranked")
    top = P.max_rank()
    sigma = tuple(int(s) for s in sigma)
    if sorted(sigma) != list(range(top + 1)):
        raise ValueError(f"sigma must permute 0..{top}")
    return sigma


def sigma_order(P: Poset, sigma) -> tuple:
    """The elements toggled by rank-permuted rowmotion, in order: the ranks
    in reversed sigma order, each rank's elements (which commute) in turn."""
    sigma = _check_rank_permutation(P, sigma)
    return tuple(p for i in reversed(sigma) for p in _bits(P.rank_mask(i)))


def rowmotion_sigma(P: Poset, sigma):
    """Rank-permuted rowmotion: rank toggles applied in reversed sigma order.

    The identity permutation recovers rowmotion (top rank toggled first).
    """
    order = sigma_order(P, sigma)
    return lambda I: _sweep(P, order, I)


def gyration_sigma(P: Poset) -> tuple:
    """The rank permutation of gyration: odd ranks, then even ranks, so that
    all even ranks are toggled first and all odd ranks after them."""
    if P.rank is None:
        raise ValueError("poset is not ranked")
    top = P.max_rank()
    return tuple(range(1, top + 1, 2)) + tuple(range(0, top + 1, 2))


def gyration(P: Poset):
    """Toggle all even ranks, then all odd ranks."""
    return rowmotion_sigma(P, gyration_sigma(P))


def antichain_rowmotion(P: Poset, A: Antichain) -> Antichain:
    """min of the complement of the ideal generated by A.

    That is max of the rowmotion image of the ideal generated by A, so with
    the ideals enumerated it is read off the rowmotion permutation.
    """
    if A.poset is not P:
        raise ValueError("antichain belongs to a different poset")
    gen = P.generated_ideal_mask(A.mask)
    if P._ideal_masks is None:
        return Antichain._make(P, P.min_complement_mask(gen))
    perm = _rowmotion_permutation(P)
    return Antichain._make(P, P.antichain_masks()[perm[P._ideal_index[gen]]])


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
            return Orbit(states)
        if cur in seen:
            raise ValueError("map is not injective on the reachable states")
        if len(states) >= ORBIT_CAP:
            raise CapExceededError(f"orbit exceeded {ORBIT_CAP} states")
        seen.add(cur)
        states.append(cur)


def orbit_partition(step, space) -> list[Orbit]:
    """Partition a finite state space into orbits of the bijection `step`."""
    space = list(space)
    return [Orbit(map(space.__getitem__, cyc))
            for cyc in permutation_orbits(as_index_permutation(step, space))]


def as_index_permutation(step, space) -> list[int]:
    """The bijection `step` on `space`, as a permutation of positions."""
    index = {s: k for k, s in enumerate(space)}
    if len(index) != len(space):
        raise ValueError("state space contains duplicates")
    perm = [index.get(step(s), -1) for s in space]
    if -1 in perm:
        raise ValueError("map leaves the given state space")
    if len(set(perm)) != len(perm):
        raise ValueError("map is not a bijection of the state space")
    return perm


def permutation_orbits(perm) -> list[list[int]]:
    """Cycles of an index permutation, each starting at its least element."""
    n = len(perm)
    seen = [False] * n
    cycles = []
    for start in range(n):
        if seen[start]:
            continue
        cyc = []
        x = start
        while not seen[x]:
            seen[x] = True
            cyc.append(x)
            x = perm[x]
        cycles.append(cyc)
    return cycles
