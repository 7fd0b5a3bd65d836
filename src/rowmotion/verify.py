"""Bundled verification suites behind the command-line `verify` command.

Each suite expands into independent check items (top-level functions plus
picklable arguments) so the runner can execute them in order or fan them out
across processes; results are assembled deterministically either way.
"""

from __future__ import annotations

import os
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations

from . import dynamics, families, lifted, qrow, statistics as st
from .decompose import (
    antichain_span_dim,
    decompose,
    toggleability_space_dims,
    verify_independence,
)
from .poset import CapExceededError, enumerate_antichains

SUITES = ("striker", "rooks", "halfrook", "lifting", "qstriker", "spans", "table2")

_ROSTER = (
    "rect:1,4", "rect:2,2", "rect:2,3", "rect:3,3", "sstair:3", "sstair:4",
    "rootA:2", "rootA:3", "rootB:2", "rootB:3", "dtd:3", "dtd:4", "E6",
    "vchain:2", "trap:2,3", "rootD:4",
)


def _within(specs, max_cells):
    """The specifiers among `specs`, in order, whose posets have at most
    max_cells elements."""
    return [spec for spec in specs if families.from_specifier(spec).n <= max_cells]


def roster(max_cells: int):
    return _within(_ROSTER, max_cells)


@dataclass(frozen=True)
class CheckResult:
    label: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class SuiteResult:
    suite: str
    passed: bool
    checks: tuple

    def to_json_dict(self):
        return {
            "suite": self.suite,
            "passed": self.passed,
            "checks": [
                {"label": c.label, "passed": c.passed, "detail": c.detail}
                for c in self.checks
            ],
        }


# -- check primitives (top-level, picklable) -------------------------------------


def _orbit_cycles(P, order):
    """Cycles, on the canonical ideal indices, of the toggles at `order`."""
    return dynamics.index_orbits(P, P.sweep_permutation(order))


def _zero_mesic(nums, cycles) -> bool:
    """Whether a statistic, given by its numerator at each index, sums to 0
    over every orbit (index cycle)."""
    return all(sum(map(nums.__getitem__, cyc)) == 0 for cyc in cycles)


def check_striker(spec: str, seed: int):
    """Signed toggleability sums vanish on every orbit of rowmotion and of
    sampled (or, in low rank, all) rank-permuted variants."""
    P = families.from_specifier(spec)
    cycles = _orbit_cycles(P, dynamics.rowmotion_order(P))
    stats = [st.t_signed(P, p) for p in range(P.n)]
    for s in stats:
        if not _zero_mesic(s.nums, cycles):
            return False, f"{spec}: rowmotion orbit breaks {s.label}"
    top = P.max_rank()
    if top <= 3:
        sigmas = list(permutations(range(top + 1)))
    else:
        rng = random.Random(seed)
        sigmas = [tuple(rng.sample(range(top + 1), top + 1)) for _ in range(5)]
    for sigma in sigmas:
        cycles = _orbit_cycles(P, dynamics.sigma_order(P, sigma))
        for s in stats:
            if not _zero_mesic(s.nums, cycles):
                return False, f"{spec}: sigma={sigma} breaks {s.label}"
    return True, ""


def check_antichain_striker(spec: str):
    """Antichain toggleability statistics are 0-mesic under rowmotion."""
    P = families.from_specifier(spec)
    cycles = _orbit_cycles(P, dynamics.rowmotion_order(P))
    for A in enumerate_antichains(P):
        s = st.antichain_toggleability(P, A, "signed")
        if not _zero_mesic(s.nums, cycles):
            return False, f"{spec}: antichain {A.members} not 0-mesic"
    return True, ""


# family -> the (builder, args) of each rook of P, given P and the family's
# parameters; the reduced rook is the same builder called with reduced=True
_ROOKS = {
    "rect": lambda P, a, b: [(st.rook_rect, c) for c in P.coords],
    "sstair": lambda P, n: [(st.rook_sstair, c) for c in P.coords],
    "rootA": lambda P, n: [(st.rook_A, (i,)) for i in range(1, n + 1)],
    "rootB": lambda P, n: [(rook, (i,)) for i in range(1, n + 1)
                           for rook in (st.rook_B, st.var_rook_B)],
}


def check_rooks(spec: str):
    """Every full rook evaluates to 1 on every ideal; each reduced rook
    differs from its full rook by a pure toggleability combination."""
    P = families.from_specifier(spec)
    family, _, params = spec.partition(":")
    if family not in _ROOKS:
        return False, f"no rooks for family {family}"
    one = st.constant_statistic(P, 1)
    for rook, args in _ROOKS[family](P, *map(int, params.split(","))):
        r = rook(P, *args)
        if r != one:
            return False, f"{spec}: {r.label} is not identically 1"
        dec = decompose(P, r - rook(P, *args, reduced=True))
        if dec is None or dec.constant != 0:
            return False, f"{spec}: full and reduced {r.label} differ by more than toggleability"
    return True, ""


def check_halfrook(spec: str):
    """Indicator identity: 1_p equals the lower-right T- quadrant minus the
    strictly-lower-right T+ quadrant, pointwise."""
    P = families.from_specifier(spec)
    for x, (i, j) in enumerate(P.coords):
        tin, tout = [0] * P.n, [0] * P.n
        for y, (a, b) in enumerate(P.coords):
            if a >= i and b >= j:
                tout[y] += 1
            if a > i and b > j:
                tin[y] -= 1
        rhs = st.Statistic(P, coeffs=[*tin, *tout, *[0] * P.n])
        if rhs != st.indicator_ideal(P, x):
            return False, f"{spec}: half-rook identity fails at ({i},{j})"
    return True, ""


def check_lifting(spec: str, stat_kind: str, seed: int):
    """A certificate's lifts are proved (`lifted.prove_lift`); the evaluator, which
    `check_constant` then skips, is tested at one random point per level."""
    P = families.from_specifier(spec)
    f = st.named_statistic(P, stat_kind)
    dec = decompose(P, f)
    if dec is None:
        return False, f"{spec}: {stat_kind} unexpectedly not in the span"
    h, c = lifted.certificate_witness(f, dec)
    if left := lifted.prove_lift(h, c):
        factors = ", ".join(f"{name}^{e}" for name, e in left.items())
        return False, f"{spec}: lift of {stat_kind} leaves {factors} uncancelled"
    rng = random.Random(seed)
    alpha = lifted.random_fraction(rng) - Fraction(1, 2)
    omega = lifted.random_fraction(rng) + 1
    pl = lifted.random_point(lifted.PLPoint, P, rng, alpha=alpha, omega=omega)
    if not lifted._law_holds(h._terms, c, (pl,)):
        return False, f"{spec}: PL lift of {stat_kind} not constant"
    bp = lifted.random_point(lifted.BPoint, P, rng, alpha=lifted.random_fraction(rng),
                             omega=lifted.random_fraction(rng))
    if not lifted._law_holds(h._terms, c, (bp,)):
        return False, f"{spec}: birational lift of {stat_kind} not constant"
    return True, ""


def check_qstriker(spec: str, r: int, s: int, seed: int):
    """Specialized q-toggleability statistics are 0-mesic for q-rowmotion,
    for the default and randomly sampled flavor cycles.  Each alphabet's
    orbits are walked once and every statistic's value on each labeling
    rank is summed over them."""
    P = families.from_specifier(spec)
    rng = random.Random(seed)
    alphabets = [qrow.FlavorAlphabet.default(r, s)] + [
        qrow.FlavorAlphabet.random(r, s, rng) for _ in range(2)
    ]
    offsets = qrow._offsets(P, r, s)
    tqs = [st.t_q(P, p) for p in range(P.n)]
    for alphabet in alphabets:
        cycles = list(qrow._orbit_cycles(P, alphabet, None, offsets))
        for p, tq in enumerate(tqs):
            f = tq.specialize(alphabet.q)
            if not _zero_mesic(qrow._rank_values_of(P, r, s, f.nums), cycles):
                return False, f"{spec}: Tq at {p} not 0-mesic for r={r}, s={s}"
    return True, ""


def check_spans(spec: str):
    """Independence of the toggleability statistics at sampled q, and the
    antichain-span dimension law."""
    P = families.from_specifier(spec)
    for z in (0, Fraction(1, 2), 1, 2):
        if not verify_independence(P, z):
            return False, f"{spec}: dependence at q={z}"
    cycles = _orbit_cycles(P, dynamics.rowmotion_order(P))
    expect = len(P.ideal_masks()) - len(cycles)
    got = antichain_span_dim(P)
    if got != expect:
        return False, f"{spec}: antichain span dim {got} != {expect}"
    return True, ""


# Known small-size deviations from the generic dimension table; each extra
# dimension is witnessed by an explicit verified certificate (a few tiny
# shapes admit sporadic coincidences between indicator and toggleability
# combinations).
_TABLE2_EXCEPTIONS = {
    ("sstair", 2): {"dim_I_q": 3},
    ("sstair", 3): {"dim_I_q": 3},
    ("rootA", 1): {"dim_I_q": 1},
    ("rootA", 2): {"dim_I_q": 1},
    ("rootB", 1): {"dim_A_q": 1},
    ("rootB", 2): {"dim_I_q": 2},
}


def expected_table2(family: str, *params) -> dict:
    if family == "rect":
        a, b = params
        # a chain (a == 1) has the whole function space in the span
        exp = {"dim_A": a + b - 1, "dim_I": a + b - 1,
               "dim_A_q": a + b - 1, "dim_I_q": b if a == 1 else 2}
    elif family == "sstair":
        n, = params
        exp = {"dim_A": 2 * n - 1, "dim_I": 2 * n - 1,
               "dim_A_q": n + 1, "dim_I_q": 2}
    elif family == "rootA":
        n, = params
        exp = {"dim_A": n, "dim_I": n, "dim_A_q": 1, "dim_I_q": 0}
    elif family == "rootB":
        n, = params
        exp = {"dim_A": 2 * n - 1, "dim_I": 2 * n - 1,
               "dim_A_q": 2, "dim_I_q": 1}
    else:
        raise ValueError(f"no dimension table for {family}")
    exp.update(_TABLE2_EXCEPTIONS.get((family, *params), {}))
    return exp


def check_table2(family: str, *params):
    P = families.from_specifier(f"{family}:{','.join(map(str, params))}")
    got = toggleability_space_dims(P)
    exp = expected_table2(family, *params)
    if got != exp:
        return False, f"{family}{params}: got {got}, expected {exp}"
    return True, ""


# -- suite assembly ------------------------------------------------------------------


def _items_striker(max_cells, seed):
    items = [(f"striker:{spec}", check_striker, (spec, seed))
             for spec in roster(max_cells)]
    for spec in roster(max_cells):
        P = families.from_specifier(spec)
        if len(P.ideal_masks()) <= 100:
            items.append((f"antichain-striker:{spec}", check_antichain_striker, (spec,)))
    return items


def _rects(top):
    return [f"rect:{a},{b}" for a in range(1, top + 1) for b in range(a, top + 1)]


def _items_rooks(max_cells, seed):
    specs = (_rects(5) + [f"sstair:{n}" for n in range(1, 6)]
             + [f"rootA:{n}" for n in range(1, 7)] + [f"rootB:{n}" for n in range(1, 5)])
    return [(f"rooks:{spec}", check_rooks, (spec,)) for spec in _within(specs, max_cells)]


def _items_halfrook(max_cells, seed):
    specs = _rects(4) + [f"rootA:{n}" for n in range(1, 6)]
    return [(f"halfrook:{spec}", check_halfrook, (spec,)) for spec in _within(specs, max_cells)]


def _items_lifting(max_cells, seed):
    out = []
    for spec in ("rect:2,2", "rect:2,3", "sstair:3", "dtd:3"):
        for kind in ("antichain_card", "ideal_card"):
            out.append((f"lifting:{spec}:{kind}", check_lifting, (spec, kind, seed)))
    return out


def _items_qstriker(max_cells, seed):
    out = []
    for spec in ("rootA:2", "rect:2,2", "sstair:3"):
        for r, s in ((1, 1), (1, 2), (2, 1), (2, 3)):
            out.append((f"qstriker:{spec}:r={r},s={s}", check_qstriker,
                        (spec, r, s, seed)))
    return out


def _items_spans(max_cells, seed):
    return [(f"spans:{spec}", check_spans, (spec,)) for spec in roster(max_cells)]


# The largest `verify table2 --max`: every item up to rect:15,15 answers
# within WORK_CAP, and --max 10 takes about 9 s on one x86-64 core.
MAX_TABLE2_SIZE = 10


def _items_table2(max_size, seed):
    if max_size > MAX_TABLE2_SIZE:
        raise CapExceededError(
            f"table2 --max {max_size} is more than MAX_TABLE2_SIZE = {MAX_TABLE2_SIZE}")
    items = []
    for a in range(1, max_size + 1):
        for b in range(a, max_size + 1):
            items.append((f"table2:rect:{a},{b}", check_table2, ("rect", a, b)))
    for n in range(2, max_size + 1):
        items.append((f"table2:sstair:{n}", check_table2, ("sstair", n)))
    for n in range(1, max_size + 1):
        items.append((f"table2:rootA:{n}", check_table2, ("rootA", n)))
        items.append((f"table2:rootB:{n}", check_table2, ("rootB", n)))
    return items


_SUITE_BUILDERS = {
    "striker": _items_striker,
    "rooks": _items_rooks,
    "halfrook": _items_halfrook,
    "lifting": _items_lifting,
    "qstriker": _items_qstriker,
    "spans": _items_spans,
    "table2": _items_table2,
}


def _run_item(item):
    label, fn, args = item
    passed, detail = fn(*args)
    return CheckResult(label, passed, detail)


def run_suite(suite: str, max_cells: int = 16, max_size: int = 4,
              seed: int = 1, jobs: int = 1) -> SuiteResult:
    if suite not in _SUITE_BUILDERS:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITES}")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, not {jobs}")
    jobs = min(jobs, os.cpu_count() or 1)
    bound = max_size if suite == "table2" else max_cells
    items = _SUITE_BUILDERS[suite](bound, seed)
    if jobs > 1 and len(items) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            checks = list(pool.map(_run_item, items))
    else:
        checks = [_run_item(it) for it in items]
    return SuiteResult(suite, all(c.passed for c in checks), tuple(checks))
