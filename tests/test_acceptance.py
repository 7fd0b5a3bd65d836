"""Acceptance suite: one test per criterion, every comparison exact.

Each test prints a single PASS line on success, so `pytest -s` gives a
criterion-by-criterion report.  All arithmetic is exact rational (or exact
rational-function) arithmetic; there are no tolerances anywhere.
"""

import random
from fractions import Fraction
from itertools import permutations
from math import comb

import pytest

from rowmotion import (
    FlavorAlphabet,
    OrderIdeal,
    antichain_span_dim,
    antichain_toggleability,
    certificate_witness,
    check_constant,
    decompose,
    enumerate_antichains,
    enumerate_ideals,
    homomesy_check,
    indicator_ideal,
    labeling_count,
    lifted_orbit,
    lifted_rowmotion,
    lifted_toggleability,
    named_statistic,
    orbit_partition,
    q_decompose,
    rook_A,
    rook_B,
    rook_rect,
    rook_sstair,
    rowmotion,
    rowmotion_sigma,
    t_q,
    t_signed,
    toggleability_space_dims,
    var_rook_B,
    verify_independence,
    vertex_point,
)
from rowmotion.dynamics import as_index_permutation, permutation_orbits
from rowmotion.families import (
    chain_of_vs,
    double_tailed_diamond,
    minuscule_E6,
    minuscule_E7,
    rectangle,
    root_poset_A,
    root_poset_B,
    root_poset_D4,
    shifted_staircase,
    trapezoid,
)
from rowmotion.lifted import BPoint, PLPoint, random_fraction, random_point
from rowmotion.qpoly import Polynomial, RationalFunction, q_number
from rowmotion.qrow import ideal_mask_of, q_orbits
from rowmotion.verify import expected_table2

from conftest import ROSTER_SPECS
from rowmotion.families import from_specifier


def _report(criterion, text):
    print(f"ACCEPTANCE {criterion}: PASS - {text}")


# -- criterion 1 -----------------------------------------------------------------


def test_criterion_1_square_exact_reproduction():
    P = rectangle(2, 2)
    ideals = enumerate_ideals(P)
    orbits = orbit_partition(lambda I: rowmotion(P, I), ideals)
    assert sorted(o.period for o in orbits) == [2, 4]

    ic = named_statistic(P, "ideal_card")
    ac = named_statistic(P, "antichain_card")
    rep = homomesy_check(ic, lambda I: rowmotion(P, I))
    assert rep.is_homomesic and rep.constant == 2
    rep = homomesy_check(ac, lambda I: rowmotion(P, I))
    assert rep.is_homomesic and rep.constant == 1

    dec = decompose(P, ic)
    assert dec.constant == 2
    assert dec.coeffs == (Fraction(-2), Fraction(-3, 2), Fraction(-3, 2), Fraction(-2))
    dec = decompose(P, ac)
    assert dec.constant == 1
    assert dec.coeffs == (Fraction(-1), Fraction(-1, 2), Fraction(-1, 2), Fraction(0))

    table = [
        tuple(t_signed(P, p).values[i] for p in range(4)) for i in range(6)
    ]
    assert table == [
        (1, 0, 0, 0),
        (-1, 1, 1, 0),
        (0, -1, 1, 0),
        (0, 1, -1, 0),
        (0, -1, -1, 1),
        (0, 0, 0, -1),
    ]
    _report(1, "two-by-two orbits, homomesies, certificates, toggle table")


# -- criterion 2 -----------------------------------------------------------------


def test_criterion_2_rook_suites():
    checked = 0
    for a in range(1, 6):
        for b in range(1, 6):
            P = rectangle(a, b)
            for i, j in P.coords:
                assert all(v == 1 for v in rook_rect(P, i, j).values)
                checked += 1
    for n in range(1, 6):
        P = shifted_staircase(n)
        for i, j in P.coords:
            assert all(v == 1 for v in rook_sstair(P, i, j).values)
            checked += 1
    for n in range(1, 7):
        P = root_poset_A(n)
        for i in range(1, n + 1):
            assert all(v == 1 for v in rook_A(P, i).values)
            checked += 1
    for n in range(1, 5):
        P = root_poset_B(n)
        for i in range(1, n + 1):
            assert all(v == 1 for v in rook_B(P, i).values)
            assert all(v == 1 for v in var_rook_B(P, i).values)
            checked += 2
    _report(2, f"{checked} full rooks identically 1, zero failures")


# -- criterion 3 -----------------------------------------------------------------


_CERT_CACHE = None


def criterion3_certificates():
    """Every (poset, statistic, certificate, constant) pair of criterion 3."""
    global _CERT_CACHE
    if _CERT_CACHE is not None:
        return _CERT_CACHE
    out = []

    def add(P, stat, expect):
        dec = decompose(P, stat)
        assert dec is not None, f"{P.name}: {stat.label} has no certificate"
        assert dec.constant == expect, (
            f"{P.name}: {stat.label} constant {dec.constant} != {expect}"
        )
        out.append((P, stat, dec))

    for a in range(1, 6):
        for b in range(1, 6):
            P = rectangle(a, b)
            add(P, named_statistic(P, "antichain_card"), Fraction(a * b, a + b))
            add(P, named_statistic(P, "ideal_card"), Fraction(a * b, 2))
            for i in range(1, a + 1):
                add(P, named_statistic(P, f"pfiber:{i}"), Fraction(b, a + b))
            for j in range(1, b + 1):
                add(P, named_statistic(P, f"nfiber:{j}"), Fraction(a, a + b))
            for k in range(1 - a, b):
                expect = (
                    Fraction(a * (b - k), a + b) if k >= 0
                    else Fraction(b * (a + k), a + b)
                )
                add(P, named_statistic(P, f"file:{k}"), expect)

    for n in range(1, 6):
        P = shifted_staircase(n)
        add(P, named_statistic(P, "antichain_card"), Fraction(n + 1, 4))
        add(P, named_statistic(P, "ideal_card"), Fraction(n * (n + 1), 4))
        add(P, named_statistic(P, "diag"), Fraction(1, 2))
        for i in range(1, n + 1):
            add(P, named_statistic(P, f"sfiber:{i}"), Fraction(1, 2))
        for k in range(0, n):
            add(P, named_statistic(P, f"file:{k}"), Fraction(n - k, 2))

    minuscule = [double_tailed_diamond(n) for n in (2, 3, 4, 5)]
    minuscule += [minuscule_E6(), minuscule_E7()]
    for P in minuscule:
        rk = max(P.rank)
        add(P, named_statistic(P, "antichain_card"), Fraction(P.n, rk + 2))
        add(P, named_statistic(P, "ideal_card"), Fraction(P.n, 2))

    for n in range(1, 7):
        P = root_poset_A(n)
        add(P, named_statistic(P, "antichain_card"), Fraction(n, 2))
        add(P, named_statistic(P, "rankalt"), Fraction(n, 2))
        for k in range(n - 1, -n, -2):
            idx = {c: x for x, c in enumerate(P.coords)}
            stat = None
            for (i, j), x in idx.items():
                coeff = {k: Fraction(2), k - 1: Fraction(-1), k + 1: Fraction(-1)}.get(j - i)
                if coeff:
                    term = coeff * indicator_ideal(P, x)
                    stat = term if stat is None else stat + term
            stat.label = f"file-combination:{k}"
            add(P, stat, Fraction(1))

    for n in range(1, 5):
        P = root_poset_B(n)
        add(P, named_statistic(P, "diag"), Fraction(1, 2))
        add(P, named_statistic(P, "antichain_card"), Fraction(n, 2))
        for k in range(2, 2 * n - 1, 2):
            stat = None
            for x, (i, j) in enumerate(P.coords):
                coeff = {k: Fraction(2), k - 1: Fraction(-1), k + 1: Fraction(-1)}.get(j - i)
                if coeff:
                    term = coeff * indicator_ideal(P, x)
                    stat = term if stat is None else stat + term
            stat.label = f"file-combination:{k}"
            add(P, stat, Fraction(1))
        diag2 = None
        for x, (i, j) in enumerate(P.coords):
            coeff = Fraction(2) if i == j else (Fraction(-2) if j == i + 1 else None)
            if coeff:
                term = coeff * indicator_ideal(P, x)
                diag2 = term if diag2 is None else diag2 + term
        diag2.label = "doubled-diagonal-combination"
        add(P, diag2, Fraction(1))

    _CERT_CACHE = out
    return out


def test_criterion_3_exact_constants():
    certs = criterion3_certificates()
    _report(3, f"{len(certs)} closed-form constants certified exactly")


# -- criterion 4 -----------------------------------------------------------------


def test_criterion_4_negative_controls():
    for P in (root_poset_D4(), trapezoid(2, 3), trapezoid(2, 4),
              chain_of_vs(2), chain_of_vs(3)):
        assert decompose(P, named_statistic(P, "antichain_card")) is None

    P = rectangle(3, 3)
    center = P.element_at((2, 2))
    stat = Fraction(2) * indicator_ideal(P, center)  # box paired with itself
    assert decompose(P, stat) is None
    _report(4, "six non-decomposable statistics correctly rejected")


# -- criterion 5 -----------------------------------------------------------------


def test_criterion_5_independence_and_spans():
    posets = [from_specifier(s) for s in ROSTER_SPECS]
    for P in posets:
        for z in (0, Fraction(1, 2), 1, 2):
            assert verify_independence(P, z), f"{P.name} at q={z}"

    counted = 0
    for P in posets:
        ideals = enumerate_ideals(P)
        if len(ideals) > 200:
            continue
        orbits = orbit_partition(lambda I: rowmotion(P, I), ideals)
        assert antichain_span_dim(P) == len(ideals) - len(orbits), P.name
        counted += 1
    assert counted >= 10

    rows = 0
    for a in range(1, 5):
        for b in range(a, 5):
            got = toggleability_space_dims(rectangle(a, b))
            assert got == expected_table2("rect", a, b), (a, b, got)
            rows += 1
    for n in range(2, 5):
        got = toggleability_space_dims(shifted_staircase(n))
        assert got == expected_table2("sstair", n), (n, got)
        rows += 1
    for n in range(1, 5):
        got = toggleability_space_dims(root_poset_A(n))
        assert got == expected_table2("rootA", n), (n, got)
        got = toggleability_space_dims(root_poset_B(n))
        assert got == expected_table2("rootB", n), (n, got)
        rows += 2
    _report(5, f"independence at 4 q-values on {len(posets)} posets, "
               f"{counted} span dims, {rows} dimension-table rows")


# -- criterion 6 -----------------------------------------------------------------


def test_criterion_6_striker_suites():
    rng = random.Random(2024)
    posets = [from_specifier(s) for s in ROSTER_SPECS]
    for P in posets:
        ideals = enumerate_ideals(P)
        if len(ideals) > 10_000:
            continue
        stats = [t_signed(P, p) for p in range(P.n)]
        perm = as_index_permutation(lambda I: rowmotion(P, I), ideals)
        for cyc in permutation_orbits(perm):
            for s in stats:
                assert sum(s.values[i] for i in cyc) == 0, (P.name, s.label)
        top = P.max_rank()
        if top <= 3:
            sigmas = list(permutations(range(top + 1)))
        else:
            sigmas = [tuple(rng.sample(range(top + 1), top + 1)) for _ in range(5)]
        for sigma in sigmas:
            perm = as_index_permutation(rowmotion_sigma(P, sigma), ideals)
            for cyc in permutation_orbits(perm):
                for s in stats:
                    assert sum(s.values[i] for i in cyc) == 0, (P.name, sigma)

    checked = 0
    for P in posets:
        anti = enumerate_antichains(P)
        if len(anti) > 100:
            continue
        ideals = enumerate_ideals(P)
        perm = as_index_permutation(lambda I: rowmotion(P, I), ideals)
        cycles = permutation_orbits(perm)
        for A in anti:
            s = antichain_toggleability(P, A, "signed")
            for cyc in cycles:
                assert sum(s.values[i] for i in cyc) == 0, (P.name, A.members)
        checked += 1
    _report(6, f"signed-toggleability sums vanish on {len(posets)} posets; "
               f"antichain version on {checked}")


# -- criterion 7 -----------------------------------------------------------------


def test_criterion_7_pl_and_birational():
    rng = random.Random(777)

    # vertex specialization reproduces combinatorial rowmotion exhaustively
    for spec in ("rect:2,3", "sstair:3", "rootA:2", "dtd:3", "rootB:2"):
        P = from_specifier(spec)
        for I in enumerate_ideals(P):
            assert lifted_rowmotion(vertex_point(I)) == vertex_point(rowmotion(P, I))

    # birational periods
    P = rectangle(2, 2)
    for _ in range(10):
        pt = random_point(BPoint, P, rng, alpha=random_fraction(rng),
                          omega=random_fraction(rng), bound=30)
        cur = pt
        for _ in range(4):
            cur = lifted_rowmotion(cur)
        assert cur == pt
    for a, b in ((2, 3), (3, 3)):
        P = rectangle(a, b)
        for _ in range(10):
            pt = random_point(BPoint, P, rng, alpha=random_fraction(rng),
                              omega=random_fraction(rng), bound=20)
            states = lifted_orbit(pt, max_iter=100)
            assert (a + b) % len(states) == 0

    # orbit sums / products of the lifted toggleability statistics
    for spec in ("rect:2,2", "rect:2,3", "sstair:3"):
        P = from_specifier(spec)
        top = P.max_rank()
        sigmas = [None] + [tuple(rng.sample(range(top + 1), top + 1)) for _ in range(3)]
        for sigma in sigmas:
            pl = random_point(PLPoint, P, rng, alpha=random_fraction(rng) - 1,
                              omega=random_fraction(rng) + 1)
            states = lifted_orbit(pl, sigma=sigma, max_iter=5000)
            for p in range(P.n):
                assert sum(lifted_toggleability(s, p, "signed") for s in states) == 0
            bp = random_point(BPoint, P, rng, alpha=random_fraction(rng),
                              omega=random_fraction(rng), bound=20)
            states = lifted_orbit(bp, sigma=sigma, max_iter=5000)
            for p in range(P.n):
                prod = Fraction(1)
                for s in states:
                    prod *= lifted_toggleability(s, p, "signed")
                assert prod == 1

    # the all-values orbit product on the square
    P = rectangle(2, 2)
    for _ in range(5):
        pt = random_point(BPoint, P, rng, alpha=random_fraction(rng),
                          omega=random_fraction(rng))
        prod = Fraction(1)
        for s in lifted_orbit(pt):
            for v in s.values:
                prod *= v
        assert prod == pt.omega ** 8 * pt.alpha ** 8

    # every criterion-3 certificate lifts to an exactly constant statistic
    lifted_checked = 0
    by_poset = {}
    for P, stat, dec in criterion3_certificates():
        by_poset.setdefault(id(P), (P, []))[1].append((stat, dec))
    for P, pairs in by_poset.values():
        pl_points = [
            random_point(PLPoint, P, rng, alpha=random_fraction(rng) - 1,
                         omega=random_fraction(rng) + 1)
            for _ in range(100)
        ]
        b_points = [
            random_point(BPoint, P, rng, alpha=random_fraction(rng),
                         omega=random_fraction(rng))
            for _ in range(100)
        ]
        for stat, dec in pairs:
            h, c = certificate_witness(stat, dec)
            for pt in pl_points:
                assert check_constant(h, c, pt), (P.name, stat.label)
            for pt in b_points:
                assert check_constant(h, c, pt), (P.name, stat.label)
            lifted_checked += 1
    _report(7, f"specialization, periods, orbit laws, and {lifted_checked} "
               f"certificates constant at 100 random points each")


# -- criterion 8 -----------------------------------------------------------------


def test_criterion_8_q_suite():
    rng = random.Random(4242)

    A2 = root_poset_A(2)
    alphabet = FlavorAlphabet.default(1, 2)
    assert labeling_count(A2, alphabet) == 17
    orbits = q_orbits(A2, alphabet)
    assert sum(len(o) for o in orbits) == 17

    # specialized signed q-toggleability statistics are 0-mesic
    for spec in ("rootA:2", "rect:2,2", "sstair:3"):
        P = from_specifier(spec)
        tq_vals = [t_q(P, p).values for p in range(P.n)]
        for r, s in ((1, 1), (1, 2), (2, 1), (2, 3), (3, 3)):
            alphabets = [FlavorAlphabet.default(r, s)] + [
                FlavorAlphabet.random(r, s, rng) for _ in range(3)
            ]
            q = Fraction(r, s)
            for ab in alphabets:
                for orbit in q_orbits(P, ab):
                    sums = [Fraction(0)] * P.n
                    for labels in orbit:
                        i = P.ideal_index(ideal_mask_of(labels, ab))
                        for p in range(P.n):
                            sums[p] += tq_vals[p][i].evaluate(q)
                    assert all(v == 0 for v in sums), (spec, r, s)

    # q-certificates with their exact constants, and q := 1 coherence
    qcerts = 0
    for a in range(1, 5):
        for b in range(1, 5):
            P = rectangle(a, b)
            f = named_statistic(P, "antichain_card")
            dec = q_decompose(P, f)
            assert dec.constant == RationalFunction(
                q_number(a) * q_number(b), q_number(a + b))
            _check_q1_specialization(P, f, dec)
            qcerts += 1
            for i in range(1, a + 1):
                f = named_statistic(P, f"pfiber:{i}")
                dec = q_decompose(P, f)
                assert dec.constant == RationalFunction(
                    Polynomial.q_power(a - i) * q_number(b), q_number(a + b))
                _check_q1_specialization(P, f, dec)
                qcerts += 1
    from rowmotion.qpoly import q_binomial

    for n in range(1, 5):
        P = shifted_staircase(n)
        f = named_statistic(P, "diag")
        dec = q_decompose(P, f)
        assert dec.constant == RationalFunction(Polynomial((1,)), Polynomial((1, 1)))
        _check_q1_specialization(P, f, dec)
        f = named_statistic(P, "antichain_card")
        dec = q_decompose(P, f)
        assert dec.constant == q_binomial(n + 1, 2) / RationalFunction(q_number(2 * n))
        _check_q1_specialization(P, f, dec)
        qcerts += 2

    # minuscule antichain values at q = r/s over full orbit enumerations
    minis = [double_tailed_diamond(n) for n in (2, 3, 4)] + [minuscule_E6()]
    for P in minis:
        rk = max(P.rank)
        rank_gen = Polynomial(
            tuple(sum(1 for r in P.rank if r == k) for k in range(rk + 1)))
        expect = RationalFunction(rank_gen, q_number(rk + 2)).evaluate(Fraction(1, 2))
        f = named_statistic(P, "antichain_card")
        _assert_q_mesic(P, FlavorAlphabet.default(1, 2), f, expect)

    # type-A alternating reduced rook
    one_over = RationalFunction(Polynomial((1,)), Polynomial((1, 1)))
    for n in range(1, 6):
        P = root_poset_A(n)
        stat = None
        for i in range(1, n + 1):
            term = (Fraction((-1) ** (i - 1), 2)) * rook_A(P, i, reduced=True)
            stat = term if stat is None else stat + term
        expect = Fraction(0) if n % 2 == 0 else one_over.evaluate(Fraction(1, 2))
        _assert_q_mesic(P, FlavorAlphabet.default(1, 2), stat, expect)

    # type-B alternating variant rook and diagonal
    for n in (1, 2, 3):
        P = root_poset_B(n)
        stat = None
        for i in range(1, n):
            term = Fraction((-1) ** (i - 1)) * var_rook_B(P, i, reduced=True)
            stat = term if stat is None else stat + term
        last = Fraction((-1) ** (n - 1), 2) * var_rook_B(P, n, reduced=True)
        stat = last if stat is None else stat + last
        target = one_over.evaluate(Fraction(1, 2))
        _assert_q_mesic(P, FlavorAlphabet.default(1, 2), stat, target)
        _assert_q_mesic(P, FlavorAlphabet.default(1, 2),
                        named_statistic(P, "diag"), target)

    _report(8, f"17 labelings partitioned; q-toggleability 0-mesic across "
               f"alphabets; {qcerts} q-certificates exact and coherent at q=1; "
               f"minuscule and root-poset q-values verified by enumeration")


def _assert_q_mesic(P, alphabet, stat, expect):
    q = alphabet.q
    for orbit in q_orbits(P, alphabet):
        total = Fraction(0)
        for labels in orbit:
            total += stat.values[P.ideal_index(ideal_mask_of(labels, alphabet))]
        assert total == expect * len(orbit), (P.name, stat.label)


def _check_q1_specialization(P, f, qdec):
    dec = decompose(P, f)
    assert dec is not None
    assert qdec.constant.evaluate(1) == dec.constant
    for cq, c in zip(qdec.coeffs, dec.coeffs):
        assert cq.evaluate(1) == c


# -- criterion 9 -----------------------------------------------------------------


def test_criterion_9_random_certificate_recovery():
    rng = random.Random(99)
    posets = [rectangle(2, 3), shifted_staircase(3), root_poset_A(3),
              double_tailed_diamond(4), rectangle(3, 3)]
    from rowmotion import constant_statistic

    for trial in range(50):
        P = posets[trial % len(posets)]
        const = Fraction(rng.randint(-8, 8), rng.randint(1, 6))
        coeffs = [Fraction(rng.randint(-8, 8), rng.randint(1, 6))
                  for _ in range(P.n)]
        stat = constant_statistic(P, const)
        for p, c in enumerate(coeffs):
            stat = stat + c * t_signed(P, p)
        dec = decompose(P, stat)
        assert dec is not None
        assert dec.constant == const
        assert list(dec.coeffs) == coeffs
    _report(9, "50 random in-span statistics recovered with exact coefficients")
