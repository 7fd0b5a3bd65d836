import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as hyp

from rowmotion import (
    OrderIdeal,
    Poset,
    certificate_witness,
    check_constant,
    decompose,
    enumerate_ideals,
    lift_statistic,
    lifted_orbit,
    lifted_rowmotion,
    lifted_toggle,
    lifted_toggleability,
    named_statistic,
    orbit_homomesy_lifted,
    random_point,
    rowmotion,
    t_in,
    t_out,
    vertex_point,
)
from rowmotion.families import (
    chain_of_vs,
    rectangle,
    root_poset_D4,
    shifted_staircase,
)
from rowmotion.lifted import BPoint, PLPoint, random_fraction


def test_vertex_specialization_of_rowmotion():
    for P in (rectangle(2, 3), shifted_staircase(3)):
        for I in enumerate_ideals(P):
            assert lifted_rowmotion(vertex_point(I)) == vertex_point(rowmotion(P, I))


def test_vertex_specialization_of_toggleability():
    P = rectangle(2, 2)
    table = [
        (1, 0, 0, 0), (-1, 1, 1, 0), (0, -1, 1, 0),
        (0, 1, -1, 0), (0, -1, -1, 1), (0, 0, 0, -1),
    ]
    for row, I in zip(table, enumerate_ideals(P)):
        pt = vertex_point(I)
        for p in range(P.n):
            assert lifted_toggleability(pt, p, "signed") == row[p]
            assert lifted_toggleability(pt, p, "in") == t_in(P, p).value_on(I)
            assert lifted_toggleability(pt, p, "out") == t_out(P, p).value_on(I)


def test_pl_toggle_involution_random_points():
    P = rectangle(2, 2)
    rng = random.Random(2)
    for _ in range(25):
        pt = random_point(PLPoint, P, rng, alpha=random_fraction(rng),
                          omega=random_fraction(rng))
        for p in range(P.n):
            assert lifted_toggle(lifted_toggle(pt, p), p) == pt


def test_pl_rowmotion_square_returns_in_four():
    P = rectangle(2, 2)
    rng = random.Random(3)
    pt = random_point(PLPoint, P, rng)
    states = lifted_orbit(pt, max_iter=10)
    assert len(states) in (1, 2, 4)


def test_b_toggle_rejects_nonpositive():
    P = rectangle(2, 2)
    with pytest.raises(ValueError):
        BPoint(P, [1, 1, 1, 0])
    with pytest.raises(ValueError):
        BPoint(P, [1, 1, 1, 1], alpha=0)


def test_single_element_birational_rowmotion():
    P = Poset(1, [])
    alpha, omega = Fraction(3, 2), Fraction(5, 7)
    pt = BPoint(P, [Fraction(11, 4)], alpha, omega)
    out = lifted_rowmotion(pt)
    assert out.values[0] == alpha * omega / pt.values[0]
    assert lifted_rowmotion(out) == pt


def test_birational_periods_divide_dimension_sum():
    rng = random.Random(5)
    for a, b in ((2, 2), (2, 3), (3, 3)):
        P = rectangle(a, b)
        for _ in range(4):
            pt = random_point(BPoint, P, rng, alpha=random_fraction(rng),
                              omega=random_fraction(rng), bound=20)
            states = lifted_orbit(pt, max_iter=200)
            assert (a + b) % len(states) == 0


def test_birational_striker_products():
    rng = random.Random(7)
    P = rectangle(2, 3)
    pt = random_point(BPoint, P, rng)
    states = lifted_orbit(pt, max_iter=100)
    for p in range(P.n):
        prod = Fraction(1)
        for q in states:
            prod *= lifted_toggleability(q, p, "signed")
        assert prod == 1


def test_pl_striker_sums_with_rank_permutations():
    rng = random.Random(8)
    P = shifted_staircase(3)
    sigmas = [None, (1, 3, 0, 2, 4), (4, 3, 2, 1, 0), (2, 0, 4, 1, 3)]
    for sigma in sigmas:
        pt = random_point(PLPoint, P, rng)
        states = lifted_orbit(pt, sigma=sigma, max_iter=5000)
        for p in range(P.n):
            assert sum(lifted_toggleability(q, p, "signed") for q in states) == 0


def test_birational_striker_with_rank_permutations():
    rng = random.Random(13)
    P = rectangle(2, 2)
    for sigma in [(1, 0, 2), (2, 1, 0), (0, 2, 1)]:
        pt = random_point(BPoint, P, rng, bound=12)
        states = lifted_orbit(pt, sigma=sigma, max_iter=5000)
        for p in range(P.n):
            prod = Fraction(1)
            for q in states:
                prod *= lifted_toggleability(q, p, "signed")
            assert prod == 1


def test_orbit_laws_for_all_rank_permutations_on_small_posets():
    from itertools import permutations

    rng = random.Random(61)
    for spec in ("rect:1,4", "rect:2,2", "rect:2,3"):
        from rowmotion.families import from_specifier

        P = from_specifier(spec)
        top = P.max_rank()
        for sigma in permutations(range(top + 1)):
            for _ in range(3):
                pl = random_point(PLPoint, P, rng, alpha=random_fraction(rng) - 1,
                                  omega=random_fraction(rng) + 1, bound=30)
                states = lifted_orbit(pl, sigma=sigma, max_iter=2000)
                for p in range(P.n):
                    assert sum(lifted_toggleability(s, p, "signed") for s in states) == 0
                bp = random_point(BPoint, P, rng, alpha=random_fraction(rng),
                                  omega=random_fraction(rng), bound=10)
                states = lifted_orbit(bp, sigma=sigma, max_iter=2000)
                for p in range(P.n):
                    prod = Fraction(1)
                    for s in states:
                        prod *= lifted_toggleability(s, p, "signed")
                    assert prod == 1


def test_toggle_in_becomes_toggle_out():
    rng = random.Random(17)
    for P in (rectangle(2, 3), shifted_staircase(3)):
        pt = random_point(BPoint, P, rng)
        out = lifted_rowmotion(pt)
        for p in range(P.n):
            assert lifted_toggleability(pt, p, "in") == lifted_toggleability(out, p, "out")


def test_lift_statistic_requires_low_cover_degree():
    for P in (root_poset_D4(), chain_of_vs(2)):
        with pytest.raises(ValueError):
            lift_statistic(named_statistic(P, "antichain_card"))


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(hyp.sampled_from(["rect:2,3", "rect:3,3", "sstair:3", "rootA:3", "dtd:3"]), hyp.data())
def test_lift_statistic_reads_the_integer_expansion(spec, data):
    """lift_statistic gives the Fraction coefficients of the integer
    expansion, for ints and Fractions given to from_combo and for a named atom."""
    from rowmotion.families import from_specifier
    from rowmotion.statistics import from_combo

    P = from_specifier(spec)
    exact = hyp.one_of(hyp.integers(-5, 5), hyp.fractions(-3, 3, max_denominator=6))
    parts = [data.draw(hyp.lists(exact, min_size=P.n, max_size=P.n)) for _ in range(3)]
    ones, zeros = (Fraction(1),) * P.n, (Fraction(0),) * P.n
    for f, want in ((from_combo(P, *parts), tuple(tuple(map(Fraction, p)) for p in parts)),
                    (named_statistic(P, "antichain_card"), (zeros, ones, zeros))):
        h = lift_statistic(f)
        assert (h.coeff_in, h.coeff_out, h.coeff_ind) == want
        assert all(c.__class__ is Fraction for c in (*h.coeff_in, *h.coeff_out, *h.coeff_ind))


def test_lift_statistic_requires_combo():
    from rowmotion import antichain_toggleability, Antichain

    P = rectangle(2, 2)
    A = Antichain(P, [1, 2])
    with pytest.raises(ValueError):
        lift_statistic(antichain_toggleability(P, A, "signed"))


def test_certificate_lifts_are_constant():
    rng = random.Random(23)
    for P, kind in (
        (rectangle(2, 2), "ideal_card"),
        (rectangle(2, 3), "antichain_card"),
        (shifted_staircase(3), "diag"),
    ):
        f = named_statistic(P, kind)
        h, c = certificate_witness(f, decompose(P, f))
        for _ in range(15):
            alpha = random_fraction(rng) - 2
            omega = random_fraction(rng) + 1
            assert check_constant(h, c, random_point(PLPoint, P, rng, alpha, omega))
            assert check_constant(
                h, c, random_point(BPoint, P, rng, random_fraction(rng), random_fraction(rng))
            )


def test_half_rook_identity_lifts_pointwise():
    # lifted indicator identity, checked at random points of the square grid
    P = rectangle(3, 3)
    rng = random.Random(29)
    for _ in range(10):
        pt = random_point(PLPoint, P, rng, alpha=random_fraction(rng) - 1,
                          omega=random_fraction(rng) + 2)
        for x, (i, j) in enumerate(P.coords):
            acc = Fraction(0)
            for y, (a, b) in enumerate(P.coords):
                if a >= i and b >= j:
                    acc += lifted_toggleability(pt, y, "out")
                if a > i and b > j:
                    acc -= lifted_toggleability(pt, y, "in")
            assert acc == pt.omega - pt.values[x]


def test_orbit_homomesy_lifted_square_product():
    rng = random.Random(31)
    P = rectangle(2, 2)
    f = named_statistic(P, "ideal_card")
    h, c = certificate_witness(f, decompose(P, f))
    pt = random_point(BPoint, P, rng, alpha=Fraction(2, 3), omega=Fraction(7, 5))
    rep = orbit_homomesy_lifted(h, c, pt)
    assert rep.finite and rep.holds
    # all-values orbit product folds down to powers of the boundary values
    states = lifted_orbit(pt)
    prod = Fraction(1)
    for q in states:
        for v in q.values:
            prod *= v
    assert prod == pt.omega ** 8 * pt.alpha ** 8


def test_orbit_homomesy_lifted_pl_and_sigma():
    rng = random.Random(37)
    P = shifted_staircase(3)
    f = named_statistic(P, "antichain_card")
    h, c = certificate_witness(f, decompose(P, f))
    pt = random_point(PLPoint, P, rng, alpha=Fraction(-1, 3), omega=Fraction(8, 5))
    rep = orbit_homomesy_lifted(h, c, pt, sigma=(1, 3, 0, 2, 4), max_iter=5000)
    assert rep.finite and rep.holds


def test_orbit_homomesy_constant_statistic():
    from rowmotion.lifted import LiftedStatistic

    P = rectangle(2, 2)
    zeros = (Fraction(0),) * P.n
    h = LiftedStatistic(P, zeros, zeros, zeros)
    rng = random.Random(41)
    rep = orbit_homomesy_lifted(h, Fraction(0), random_point(BPoint, P, rng))
    assert rep.holds


def test_orbit_cap_is_inconclusive():
    # the three-element fence has infinite generic birational orbits
    P = Poset(3, [(0, 1), (2, 1)])
    from rowmotion.lifted import LiftedStatistic

    zeros = (Fraction(0),) * P.n
    h = LiftedStatistic(P, zeros, zeros, zeros)
    pt = BPoint(P, [Fraction(2), Fraction(3), Fraction(5)])
    rep = orbit_homomesy_lifted(h, Fraction(0), pt, max_iter=40)
    if not rep.finite:
        assert rep.holds is None
    else:  # some starts do return; the law must then hold
        assert rep.holds


def test_orbit_past_the_digit_limit_is_inconclusive():
    # birational values from this start pass 4300 digits within 6 steps
    from rowmotion.lifted import LiftedStatistic
    from rowmotion.poset import CapExceededError

    P = root_poset_D4()
    zeros = (Fraction(0),) * P.n
    pt = random_point(BPoint, P, random.Random(1))
    with pytest.raises(CapExceededError, match="4300 digits"):
        lifted_orbit(pt)
    rep = orbit_homomesy_lifted(LiftedStatistic(P, zeros, zeros, zeros), Fraction(0), pt)
    assert not rep.finite and rep.holds is None


def test_vertex_specialization_of_rank_permuted_rowmotion():
    from itertools import permutations

    from rowmotion import rowmotion_sigma

    for P in (rectangle(2, 3), shifted_staircase(3)):
        for sigma in permutations(range(P.max_rank() + 1)):
            step = rowmotion_sigma(P, sigma)
            for I in enumerate_ideals(P):
                assert lifted_rowmotion(vertex_point(I), sigma) == vertex_point(step(I))


def test_toggleability_orbit_law_rejects_broken_orbits():
    from rowmotion.lifted import toggleability_orbit_law

    rng = random.Random(43)
    P = rectangle(2, 3)
    for pt in (random_point(PLPoint, P, rng, alpha=Fraction(-1, 2), omega=Fraction(5, 3)),
               random_point(BPoint, P, rng, alpha=Fraction(2, 3), omega=Fraction(7, 5))):
        states = lifted_orbit(pt)
        assert len(states) > 1 and toggleability_orbit_law(states)
        assert not toggleability_orbit_law(states[:-1])
        tampered = list(states)
        tampered[1] = tampered[1].replace_value(0, tampered[1].values[0] + Fraction(1, 5))
        assert not toggleability_orbit_law(tampered)


@settings(derandomize=True, max_examples=120, deadline=None, database=None)
@given(hyp.integers(0, 10 ** 6), hyp.integers(1, 6),
       hyp.sampled_from(["orbit", "prefix", "random"]), hyp.sampled_from([PLPoint, BPoint]))
def test_toggleability_orbit_law_matches_the_law_of_each_element(seed, n, how, level):
    """On random posets and points the law over all p at once (one integer
    pass at the PL level) is True exactly when every T_p sums to 0 (PL) or
    multiplies to 1 (birational) over the states: unions of whole orbits, orbit
    prefixes and unrelated points that share (alpha, omega), with common
    denominators that differ from state to state."""
    from math import prod

    from conftest import random_poset

    from rowmotion.families import from_specifier
    from rowmotion.lifted import toggleability_orbit_law

    rng = random.Random(seed)
    P = random_poset(rng, n)
    start = random_point(level, P, rng, bound=8)
    if how == "orbit" and level is PLPoint:  # two orbits, each over its own D
        P = from_specifier(rng.choice(["rect:2,2", "rect:2,3", "sstair:3", "rootA:3"]))
        states = [s for _ in range(2) for s in lifted_orbit(random_point(level, P, rng, bound=8))]
        rng.shuffle(states)  # the law is a sum, in any order
    elif how == "random":
        states = [start, *(random_point(level, P, rng, start.alpha, start.omega, bound=8)
                           for _ in range(rng.randint(0, 3)))]
    else:
        states = [start]
        for _ in range(rng.randint(0, 3)):
            states.append(lifted_rowmotion(states[-1]))
    signed = [[lifted_toggleability(s, p, "signed") for s in states] for p in range(P.n)]
    if level is PLPoint:
        want = all(sum(row) == 0 for row in signed)
    else:
        want = all(prod(row) == 1 for row in signed)
    assert toggleability_orbit_law(states) is want
    if how == "orbit" and level is PLPoint:
        assert want


# -- soundness of the integer law kernel -------------------------------------------


def _certificates():
    from rowmotion.families import from_specifier

    for spec, kind in (("rect:2,2", "ideal_card"), ("rect:2,3", "antichain_card"),
                       ("sstair:3", "diag"), ("E6", "antichain_card")):
        P = from_specifier(spec)
        f = named_statistic(P, kind)
        yield (P, *certificate_witness(f, decompose(P, f)))


def _points(P, rng, k=4):
    # boundaries apart, so that a wrong constant changes the right-hand side
    pls = [random_point(PLPoint, P, rng, alpha=Fraction(-1, 3), omega=Fraction(8, 5))
           for _ in range(k)]
    bps = [random_point(BPoint, P, rng, alpha=Fraction(2, 3), omega=Fraction(7, 5), bound=30)
           for _ in range(k)]
    return pls, bps


def test_wrong_constants_are_rejected_at_both_levels():
    rng = random.Random(101)
    for P, h, c in _certificates():
        assert c != -1  # so that 2c + 1 differs from c
        pls, bps = _points(P, rng)
        for pt in pls:
            assert check_constant(h, c, pt)
            assert not check_constant(h, c + Fraction(1, 3), pt)
            assert not check_constant(h, 2 * c + 1, pt)
        for pt in bps:
            assert check_constant(h, c, pt)
            assert not check_constant(h, c + Fraction(1, 3), pt)
            assert not check_constant(h, 2 * c + 1, pt)


def test_bumped_coefficient_is_rejected():
    from rowmotion.lifted import LiftedStatistic

    rng = random.Random(103)
    for P, h, c in _certificates():
        pls, bps = _points(P, rng, k=2)
        for p in range(P.n):
            out = list(h.coeff_out)
            out[p] += Fraction(1, 2)
            bumped = LiftedStatistic(P, h.coeff_in, tuple(out), h.coeff_ind)
            assert not any(check_constant(bumped, c, pt) for pt in pls)
            assert not any(check_constant(bumped, c, pt) for pt in bps)


def test_half_integer_exponents_with_alpha_not_one():
    from rowmotion.families import from_specifier

    P = from_specifier("E7")
    f = named_statistic(P, "ideal_card")
    h, c = certificate_witness(f, decompose(P, f))
    assert c == Fraction(27, 2)
    assert any(Fraction(a).denominator == 2 for a in (*h.coeff_in, *h.coeff_out))
    rng = random.Random(107)
    for alpha, omega in ((Fraction(2, 3), Fraction(7, 5)), (Fraction(9, 4), Fraction(1, 3))):
        pt = random_point(BPoint, P, rng, alpha=alpha, omega=omega, bound=40)
        assert check_constant(h, c, pt)
        assert not check_constant(h, c + Fraction(1, 2), pt)


def _liftable_certificates():
    """(P, h, c) for every in-span antichain_card and ideal_card on the family
    roster and on seeded random posets of at most 7 elements that
    `lift_statistic` accepts."""
    from conftest import ROSTER_SPECS, random_poset

    from rowmotion.families import from_specifier

    rng = random.Random(131)
    posets = [from_specifier(spec) for spec in ROSTER_SPECS]
    posets += [random_poset(rng, rng.randint(1, 7)) for _ in range(60)]
    for P in posets:
        for kind in ("antichain_card", "ideal_card"):
            f = named_statistic(P, kind)
            try:
                lift_statistic(f)
            except ValueError:  # an element covers, or is covered by, three
                continue
            dec = decompose(P, f)
            if dec is not None:
                yield (P, *certificate_witness(f, dec))


def _atom_at_unit(pt, p):
    """pt with x_p moved so that T-_p is 0 (PL) or 1 (birational)."""
    up = [pt.values[u] for u in pt.poset.upper_covers[p]]
    if isinstance(pt, PLPoint):
        return pt.replace_value(p, min(up, default=pt.omega))
    return pt.replace_value(p, 1 / sum(1 / u for u in up) if up else pt.omega)


def test_every_certificate_is_proved_and_the_evaluator_agrees():
    from rowmotion.lifted import LiftedStatistic, _law_holds, prove_lift

    rng = random.Random(137)
    proved = 0
    for P, h, c in _liftable_certificates():
        assert prove_lift(h, c) == {}, (P.covers, h.label)
        proved += 1
        pls, bps = _points(P, rng, k=1)
        for pt in pls + bps:  # the evaluator, which check_constant skips when proved
            assert _law_holds(h._terms, c, (pt,))
        third = Fraction(1, 3)
        assert prove_lift(h, c + third) == {"alpha": third, "omega": -third}
        for p in range(P.n):
            out = list(h.coeff_out)
            out[p] += Fraction(1, 2)
            bumped = LiftedStatistic(P, h.coeff_in, tuple(out), h.coeff_ind)
            assert prove_lift(bumped, c)
            # where the bumped atom is 0 (PL) or 1 (birational), the law
            # still holds: check_constant evaluates when the proof fails
            for pt in pls + bps:
                assert check_constant(bumped, c, _atom_at_unit(pt, p))
    assert proved >= 40


def test_prove_lift_names_the_factors_left_over():
    from rowmotion.lifted import LiftedStatistic, prove_lift

    P = rectangle(2, 2)  # 0 < 1, 2 < 3
    zero = (0,) * 4
    t_minus_0 = LiftedStatistic(P, zero, (1, 0, 0, 0), zero)  # x1 x2 / (x0 (x1 + x2))
    assert prove_lift(t_minus_0, 0) == {"x0": -1, "x1": 1, "x2": 1, "e1(x1,x2)": -1}
    t_plus_3 = LiftedStatistic(P, (0, 0, 0, Fraction(1, 2)), zero, zero)  # the same pair below 3
    assert prove_lift(t_plus_3, 0) == {"x3": Fraction(1, 2), "e1(x1,x2)": Fraction(-1, 2)}
    ind_0 = LiftedStatistic(P, zero, zero, (1, 0, 0, 0))  # omega / x0
    assert prove_lift(ind_0, 1) == {"alpha": 1, "x0": -1}
    coclaw = Poset(4, [(0, 1), (0, 2), (0, 3)])  # T-_0 = x1 x2 x3 / (x0 e2(x1, x2, x3))
    assert prove_lift(LiftedStatistic(coclaw, zero, (1, 0, 0, 0), zero), 0) == {
        "x0": -1, "x1": 1, "x2": 1, "x3": 1, "e2(x1,x2,x3)": -1}
    claw = Poset(4, [(0, 3), (1, 3), (2, 3)])  # T+_3 = x3 / e1(x0, x1, x2)
    assert prove_lift(LiftedStatistic(claw, (0, 0, 0, 1), zero, zero), 0) == {
        "x3": 1, "e1(x0,x1,x2)": -1}
    with pytest.raises(ValueError, match="no lifted level"):
        check_constant(ind_0, 1, (Fraction(1),) * 4)


def _reference_atoms(pt, p):
    """T+_p, T-_p and the indicator atom from the raw values, in Fractions."""
    covers, x = pt.poset.covers, pt.values
    low = [x[r] for r, q in covers if q == p] or [pt.alpha]
    up = [x[u] for q, u in covers if q == p] or [pt.omega]
    if isinstance(pt, PLPoint):
        return x[p] - max(low), min(up) - x[p], pt.omega - x[p]
    return x[p] / sum(low), 1 / (x[p] * sum(1 / u for u in up)), pt.omega / x[p]


def _reference_sides(h, c, states):
    """Both sides of the law from the definitions: the sum or the product
    over `states`, the product raised to the least power clearing c and
    every coefficient."""
    from math import lcm

    first = states[0]
    coeffs = list(zip(h.coeff_in, h.coeff_out, h.coeff_ind))
    if isinstance(first, PLPoint):
        lhs = sum(a * t for pt in states for p, cs in enumerate(coeffs)
                  for a, t in zip(cs, _reference_atoms(pt, p)))
        return Fraction(lhs), len(states) * c * (first.omega - first.alpha)
    scale = lcm(c.denominator, *(Fraction(a).denominator for cs in coeffs for a in cs))
    lhs = Fraction(1)
    for pt in states:
        for p, cs in enumerate(coeffs):
            for a, t in zip(cs, _reference_atoms(pt, p)):
                lhs *= t ** int(a * scale)
    return lhs, (first.omega / first.alpha) ** int(c * scale * len(states))


def _fractions(max_den):
    return hyp.builds(Fraction, hyp.integers(-3, 3), hyp.integers(1, max_den))


@hyp.composite
def _law_cases(draw):
    """A random statistic, constant and list of states sharing boundaries."""
    from rowmotion.families import from_specifier

    P = from_specifier(draw(hyp.sampled_from(["rect:2,3", "sstair:3"])))
    coeffs = [tuple(draw(_fractions(2)) for _ in range(P.n)) for _ in range(3)]
    c = draw(_fractions(3))
    point = draw(hyp.sampled_from([PLPoint, BPoint]))
    value = hyp.builds(Fraction, hyp.integers(1, 30), hyp.integers(1, 30))
    alpha, omega = draw(value) - (point is PLPoint), draw(value)
    states = [point(P, [draw(value) for _ in range(P.n)], alpha, omega)
              for _ in range(draw(hyp.integers(1, 3)))]
    return P, coeffs, c, states


@given(_law_cases())
@settings(max_examples=80, deadline=None, derandomize=True)
def test_law_sides_match_the_definitions(case):
    from rowmotion.lifted import LiftedStatistic, _law_sides

    P, coeffs, c, states = case
    h = LiftedStatistic(P, *coeffs)
    lhs, rhs, den = _law_sides(h._terms, c, states)
    ref_lhs, ref_rhs = _reference_sides(h, c, states)
    assert den > 0
    assert (Fraction(lhs, den), Fraction(rhs, den)) == (ref_lhs, ref_rhs)
    assert (lhs == rhs) == (ref_lhs == ref_rhs)


def test_orbit_report_sides_match_the_definitions():
    rng = random.Random(109)
    for P, h, c in _certificates():
        if P.n > 6:
            continue
        pls, bps = _points(P, rng, k=1)
        for pt in pls + bps:
            rep = orbit_homomesy_lifted(h, c, pt)
            assert rep.holds
            assert (rep.lhs, rep.rhs) == _reference_sides(h, c, lifted_orbit(pt))
            # a third added to c leaves its denominator out of E
            wrong_c = c + Fraction(1, 3)
            wrong = orbit_homomesy_lifted(h, wrong_c, pt)
            assert not wrong.holds
            assert (wrong.lhs, wrong.rhs) == _reference_sides(h, wrong_c, lifted_orbit(pt))


def test_atoms_match_the_definitions_with_three_covers():
    from rowmotion.families import from_specifier

    P = from_specifier("rootD:4")  # one element covers three, one is covered by three
    assert max(map(len, P.lower_covers)) == 3 and max(map(len, P.upper_covers)) == 3
    rng = random.Random(113)
    for pt in (random_point(PLPoint, P, rng, alpha=Fraction(-2, 7), omega=Fraction(9, 4)),
               random_point(BPoint, P, rng, alpha=Fraction(3, 8), omega=Fraction(5, 2))):
        for p in range(P.n):
            t_in, t_out, _ = _reference_atoms(pt, p)
            assert lifted_toggleability(pt, p, "in") == t_in
            assert lifted_toggleability(pt, p, "out") == t_out
            signed = t_in - t_out if isinstance(pt, PLPoint) else t_in / t_out
            assert lifted_toggleability(pt, p, "signed") == signed


@pytest.mark.parametrize("level", [PLPoint, BPoint])
def test_lifted_element_out_of_range(level):
    P = rectangle(2, 2)
    pt = random_point(level, P, random.Random(47))
    for p in (-1, -4, P.n):
        with pytest.raises(IndexError):
            lifted_toggle(pt, p)
        for kind in ("in", "out", "signed"):
            with pytest.raises(IndexError):
                lifted_toggleability(pt, p, kind)


def test_paper_names_are_aliases_of_their_own():
    from rowmotion import lifted

    aliases = [lifted.pl_t_signed, lifted.b_t_ratio, lifted.check_pl_constant,
               lifted.check_b_constant]
    # one object per name: a wrapper installed on one name by identity
    # leaves the others, and the function behind them, alone
    assert len({id(f) for f in aliases}) == 4
    assert not {id(f) for f in aliases} & {id(lifted_toggleability), id(check_constant)}
    rng = random.Random(53)
    for P, h, c in _certificates():
        pls, bps = _points(P, rng, k=1)
        for pt in pls + bps:
            for p in range(P.n):
                signed = lifted_toggleability(pt, p, "signed")
                assert lifted.pl_t_signed(pt, p) == lifted.b_t_ratio(pt, p) == signed
            for d in (0, 1):
                assert (lifted.check_pl_constant(h, c + d, pt)
                        == lifted.check_b_constant(h, c + d, pt)
                        == check_constant(h, c + d, pt) == (d == 0))


def _run_optimized(code):
    import os
    import subprocess
    import sys

    import rowmotion

    src = os.path.dirname(os.path.dirname(rowmotion.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-O", *code], env=env, capture_output=True,
                          text=True, timeout=120)


def test_verify_lifting_under_python_optimize():
    out = _run_optimized(["-m", "rowmotion.cli", "verify", "lifting", "--seed", "1"])
    assert out.returncode == 0, out.stderr


def test_tampered_constant_rejected_under_python_optimize():
    # with asserts off, the law and the proof must still turn down a wrong constant
    code = (
        "import random\n"
        "from rowmotion import certificate_witness, decompose, named_statistic\n"
        "from rowmotion.families import rectangle\n"
        "from rowmotion.lifted import (BPoint, PLPoint, check_constant,\n"
        "    orbit_homomesy_lifted, prove_lift, random_point)\n"
        "assert False, 'asserts are on'\n"
        "P = rectangle(2, 3)\n"
        "f = named_statistic(P, 'antichain_card')\n"
        "h, c = certificate_witness(f, decompose(P, f))\n"
        "rng = random.Random(5)\n"
        "pl = random_point(PLPoint, P, rng, alpha=-1, omega=2)\n"
        "bp = random_point(BPoint, P, rng, alpha=2, omega=3)\n"
        "print(check_constant(h, c, pl), check_constant(h, c, bp),\n"
        "      check_constant(h, c + 1, pl), check_constant(h, c + 1, bp),\n"
        "      orbit_homomesy_lifted(h, c + 1, bp).holds,\n"
        "      not prove_lift(h, c), sorted(prove_lift(h, c + 1)))\n"
    )
    out = _run_optimized(["-c", code])
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["True", "True", "False", "False", "False", "True",
                                  "['alpha',", "'omega']"]


# -- points of another poset, level or boundary ------------------------------------


def test_a_point_of_another_poset_is_refused_at_both_levels():
    from rowmotion import lifted

    P = rectangle(2, 3)
    f = named_statistic(P, "antichain_card")
    h, c = certificate_witness(f, decompose(P, f))
    rng = random.Random(59)
    # a staircase point of the same size once refuted the law; a smaller
    # birational point ran off the end of the table; an equal poset built
    # again is still another poset, as for `rowmotion`
    foreign = (random_point(PLPoint, shifted_staircase(3), rng),
               random_point(BPoint, shifted_staircase(3), rng),
               random_point(PLPoint, rectangle(2, 2), rng),
               random_point(BPoint, rectangle(2, 2), rng),
               random_point(PLPoint, rectangle(2, 3), rng),
               random_point(BPoint, rectangle(2, 3), rng))
    for pt in foreign:
        for check in (check_constant, lifted.check_pl_constant, lifted.check_b_constant):
            with pytest.raises(ValueError, match="belongs to a different poset"):
                check(h, c, pt)
        with pytest.raises(ValueError, match="belongs to a different poset"):
            orbit_homomesy_lifted(h, c, pt)
    for level in (PLPoint, BPoint):
        pt = random_point(level, P, rng)
        assert check_constant(h, c, pt) and orbit_homomesy_lifted(h, c, pt).holds


def test_toggleability_orbit_law_refuses_states_that_do_not_share_a_point_space():
    from rowmotion.lifted import toggleability_orbit_law

    rng = random.Random(67)
    P = rectangle(2, 3)
    pl = random_point(PLPoint, P, rng, alpha=Fraction(-1, 2), omega=Fraction(5, 3))
    bp = random_point(BPoint, P, rng, alpha=Fraction(2, 3), omega=Fraction(7, 5))
    for pt in (pl, bp):
        states = lifted_orbit(pt)
        assert toggleability_orbit_law(states)
        level = type(pt)
        other = BPoint if level is PLPoint else PLPoint
        intruders = (
            level(rectangle(2, 3), pt.values, pt.alpha, pt.omega),  # another poset
            level(shifted_staircase(3), pt.values, pt.alpha, pt.omega),
            random_point(other, P, rng),  # another level
            level(P, states[1].values, pt.alpha + 1, pt.omega),  # another alpha
            level(P, states[1].values, pt.alpha, pt.omega + 1),  # another omega
        )
        for bad in intruders:
            for mixed in ([*states, bad], [bad, *states]):
                with pytest.raises(ValueError, match="belongs to a different poset"):
                    toggleability_orbit_law(mixed)


def test_fraction_inputs_are_kept_as_given():
    P = rectangle(2, 2)
    vals = [Fraction(1, 2), Fraction(3), Fraction(-2, 7), Fraction(5, 3)]
    alpha, omega = Fraction(-1, 3), Fraction(4, 5)
    pt = PLPoint(P, vals, alpha, omega)
    assert all(a is b for a, b in zip(pt.values, vals))
    assert pt.alpha is alpha and pt.omega is omega
    # other inputs are still converted, exactly
    mixed = PLPoint(P, [1, "3/4", Fraction(1, 2), -2], 0, "5/2")
    assert all(type(v) is Fraction for v in (*mixed.values, mixed.alpha, mixed.omega))
    assert mixed.values == (1, Fraction(3, 4), Fraction(1, 2), -2)
    assert mixed.omega == Fraction(5, 2)
    with pytest.raises(ValueError):
        PLPoint(P, vals[:3])
    # a sweep's result equals, and hashes as, the point its values construct
    for start in (pt, random_point(BPoint, P, random.Random(71))):
        for out in (lifted_rowmotion(start), lifted_toggle(start, 2), *lifted_orbit(start)):
            built = type(start)(out.poset, out.values, out.alpha, out.omega)
            assert out == built and hash(out) == hash(built)
            assert out.poset is P and out.alpha is start.alpha and out.omega is start.omega
            assert all(type(v) is Fraction for v in out.values)
            if isinstance(out, BPoint):
                assert all(v > 0 for v in out.values)


# -- the integer kernels against the paper's toggles, in Fractions ----------------------


def _reference_toggle(level, P, x, alpha, omega, p):
    """The toggle at p from its definition on the cover pairs of P, with
    alpha and omega standing in below a minimal and above a maximal element
    (the adjoined bottom and top): min(up) + max(low) - x_p (PL) or
    sum(low) / (x_p sum(1/up)) (birational)."""
    low = [x[r] for r, q in P.covers if q == p] or [alpha]
    up = [x[u] for q, u in P.covers if q == p] or [omega]
    if level is PLPoint:
        return min(up) + max(low) - x[p]
    return sum(low) / (x[p] * sum(1 / u for u in up))


def _reference_order(P, sigma):
    """Rowmotion's toggles from the top (sigma None), or the ranks in reversed
    sigma order, computed from the cover pairs alone."""
    ext = []  # a linear extension, least available element first
    while len(ext) < P.n:
        ext.append(min(p for p in range(P.n) if p not in ext
                       and all(r in ext for r, q in P.covers if q == p)))
    if sigma is None:
        return ext[::-1]
    rank = {}
    for p in ext:
        rank[p] = max((rank[r] + 1 for r, q in P.covers if q == p), default=0)
    return [p for i in reversed(sigma) for p in range(P.n) if rank[p] == i]


def _reference_step(level, P, order, alpha, omega):
    def step(x):
        x = list(x)
        for p in order:
            x[p] = _reference_toggle(level, P, x, alpha, omega, p)
        return tuple(x)
    return step


def _reference_orbit(step, start, max_iter):
    """The orbit of `start`, or the words of the cap where `lifted_orbit`
    stops: no return within max_iter steps, or a value past
    MAX_NUMBER_DIGITS digits."""
    from rowmotion.qpoly import MAX_NUMBER_DIGITS

    limit = 10 ** MAX_NUMBER_DIGITS
    states, cur = [start], step(start)
    while cur != start:
        if len(states) >= max_iter:
            return "iterations"
        if any(abs(v.numerator) >= limit or v.denominator >= limit for v in cur):
            return f"{MAX_NUMBER_DIGITS} digits"
        states.append(cur)
        cur = step(cur)
    return states


_KERNEL_POSETS = {
    "claw": lambda: Poset(4, [(0, 3), (1, 3), (2, 3)]),  # one element covers three
    "coclaw": lambda: Poset(4, [(0, 1), (0, 2), (0, 3)]),  # one is covered by three
    "rect:2,3": lambda: rectangle(2, 3),
    "rect:3,3": lambda: rectangle(3, 3),
    "sstair:3": lambda: shifted_staircase(3),
    "rootD:4": root_poset_D4,
}
_GRADED = ("rect:2,3", "rect:3,3", "sstair:3")


@hyp.composite
def _kernel_cases(draw):
    """A poset (random and transitively reduced with n <= 7, or a fixed one
    with three covers or a family), a level, a start and a rank permutation."""
    from conftest import random_poset

    name = draw(hyp.sampled_from([None, *_KERNEL_POSETS]))
    if name is None:
        P = random_poset(random.Random(draw(hyp.integers(0, 2 ** 32))),
                         draw(hyp.integers(0, 7)))
    else:
        P = _KERNEL_POSETS[name]()
    sigma = None
    if name in _GRADED and draw(hyp.booleans()):
        sigma = tuple(draw(hyp.permutations(range(P.max_rank() + 1))))
    level = draw(hyp.sampled_from([PLPoint, BPoint]))
    if level is PLPoint:  # negative values, and alpha above omega, allowed
        value = hyp.builds(Fraction, hyp.integers(-9, 9), hyp.integers(1, 6))
    else:
        value = hyp.builds(Fraction, hyp.integers(1, 9), hyp.integers(1, 6))
    vals = [draw(value) for _ in range(P.n)]
    return P, level(P, vals, draw(value), draw(value)), sigma


@given(_kernel_cases())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_integer_kernels_match_the_paper_toggles(case):
    from rowmotion.poset import CapExceededError

    P, pt, sigma = case
    level, alpha, omega = type(pt), pt.alpha, pt.omega
    step = _reference_step(level, P, _reference_order(P, sigma), alpha, omega)
    for p in range(P.n):
        x = list(pt.values)
        x[p] = _reference_toggle(level, P, x, alpha, omega, p)
        assert lifted_toggle(pt, p).values == tuple(x)
    assert lifted_rowmotion(pt, sigma).values == step(pt.values)
    max_iter = 30 if level is PLPoint else 12
    ref = _reference_orbit(step, pt.values, max_iter)
    try:
        states = lifted_orbit(pt, sigma=sigma, max_iter=max_iter)
    except CapExceededError as e:
        assert isinstance(ref, str) and ref in str(e)
        states = [pt]
    else:
        assert not isinstance(ref, str) and len(states) == len(ref)
        assert [s.values for s in states] == ref
        assert all(type(s) is level and s.poset is P and (s.alpha, s.omega) == (alpha, omega)
                   for s in states)
    for s in states:
        for p in range(P.n):
            t_in, t_out, _ = _reference_atoms(s, p)
            signed = t_in - t_out if level is PLPoint else t_in / t_out
            assert lifted_toggleability(s, p, "in") == t_in
            assert lifted_toggleability(s, p, "out") == t_out
            assert lifted_toggleability(s, p, "signed") == signed
