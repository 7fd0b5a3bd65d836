"""Shared fixtures and independent brute-force oracles for the test suite."""

from __future__ import annotations

import random
from itertools import permutations

import pytest

from rowmotion import Poset, families


def brute_leq(n, covers):
    """Reachability closure of the cover relation, as a set of (x, y) pairs."""
    adj = {x: set() for x in range(n)}
    for lo, hi in covers:
        adj[lo].add(hi)
    closure = set()
    for x in range(n):
        stack = [x]
        seen = {x}
        while stack:
            y = stack.pop()
            closure.add((x, y))
            for z in adj[y]:
                if z not in seen:
                    seen.add(z)
                    stack.append(z)
    return closure


def brute_ideals(P):
    """All downward-closed subsets, by filtering the full power set."""
    assert P.n <= 20
    clo = brute_leq(P.n, P.covers)
    out = []
    for mask in range(1 << P.n):
        ok = True
        for y in range(P.n):
            if mask >> y & 1:
                for x in range(P.n):
                    if (x, y) in clo and not mask >> x & 1:
                        ok = False
                        break
            if not ok:
                break
        if ok:
            out.append(mask)
    return sorted(out, key=lambda m: (bin(m).count("1"), m))


def brute_maximal_chains(P):
    """All maximal chains, as tuples of elements from bottom to top."""
    chains = []

    def grow(chain):
        x = chain[-1]
        ups = [y for y in range(P.n) if P.up_covers[x] >> y & 1]
        if not ups:
            chains.append(tuple(chain))
            return
        for y in ups:
            grow(chain + [y])

    for x in range(P.n):
        if P.down_covers[x] == 0:
            grow([x])
    return chains


def all_linear_extensions(P):
    assert P.n <= 8
    out = []
    for perm in permutations(range(P.n)):
        pos = {x: k for k, x in enumerate(perm)}
        if all(pos[lo] < pos[hi] for lo, hi in P.covers):
            out.append(perm)
    return out


def random_extension(P, rng):
    """A uniform-ish random linear extension by repeatedly picking minima."""
    remaining = set(range(P.n))
    order = []
    while remaining:
        minima = [
            x for x in remaining
            if all(not P.down_covers[x] >> y & 1 for y in remaining)
        ]
        x = rng.choice(sorted(minima))
        order.append(x)
        remaining.remove(x)
    return order


def random_poset(rng, n):
    """A random poset on 0..n-1 (a < b only for a < b as integers), given by
    its cover relations."""
    below = [0] * n  # below[b]: mask of the elements under b
    for b in range(n):
        for a in range(b):
            if rng.random() < 0.35:
                below[b] |= 1 << a | below[a]
    return Poset(n, [(a, b) for b in range(n) for a in range(b) if below[b] >> a & 1
                     and not any(below[c] >> a & 1 for c in range(n) if below[b] >> c & 1)])


ROSTER_SPECS = (
    "rect:1,4", "rect:2,2", "rect:2,3", "rect:3,3", "sstair:3", "sstair:4",
    "rootA:2", "rootA:3", "rootB:2", "rootB:3", "dtd:3", "dtd:4", "E6", "E7",
    "vchain:2", "trap:2,3", "rootD:4",
)


@pytest.fixture(scope="session")
def roster():
    return [(spec, families.from_specifier(spec)) for spec in ROSTER_SPECS]
