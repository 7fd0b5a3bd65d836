from fractions import Fraction
from math import gcd

import pytest
from hypothesis import HealthCheck, given, settings, strategies as hst

from rowmotion import (
    Antichain,
    OrderIdeal,
    Statistic,
    antichain_toggleability,
    constant_statistic,
    decompose,
    enumerate_antichains,
    enumerate_ideals,
    gyration,
    homomesy_check,
    indicator_ideal,
    named_statistic,
    orbit_partition,
    parse_statistic,
    rook_A,
    rook_B,
    rook_rect,
    rook_sstair,
    rowmotion,
    t_in,
    t_out,
    t_q,
    t_signed,
    var_rook_B,
)
from rowmotion.dynamics import permutation_orbits, rowmotion_order
from rowmotion.families import (
    from_specifier,
    rectangle,
    root_poset_A,
    root_poset_B,
    shifted_staircase,
    staircase_quotient,
    type_b_quotient,
)
from rowmotion.qpoly import Polynomial, RationalFunction
from rowmotion.statistics import QRATIONAL, RATIONAL, _homomesy_report, from_combo

from conftest import report_by_orbit


def test_signed_toggleability_table_two_by_two():
    P = rectangle(2, 2)
    table = [
        tuple(t_signed(P, p).values[i] for p in range(4))
        for i in range(len(P.ideal_masks()))
    ]
    assert table == [
        (1, 0, 0, 0),
        (-1, 1, 1, 0),
        (0, -1, 1, 0),
        (0, 1, -1, 0),
        (0, -1, -1, 1),
        (0, 0, 0, -1),
    ]


def test_nothing_addable_to_full_ideal():
    P = rectangle(2, 3)
    full_index = P.ideal_index((1 << P.n) - 1)
    for p in range(P.n):
        assert t_in(P, p).values[full_index] == 0


def test_indicator_sum_is_ideal_cardinality():
    P = shifted_staircase(3)
    total = None
    for p in range(P.n):
        s = indicator_ideal(P, p)
        total = s if total is None else total + s
    assert total.values == named_statistic(P, "ideal_card").values


def test_t_q_specializes_to_signed():
    P = rectangle(2, 3)
    for p in range(P.n):
        assert t_q(P, p).specialize(1).values == t_signed(P, p).values


def test_t_q_weighted_total_vanishes():
    # sum over ideals of q^(#complement) * Tq_p is the zero polynomial
    P = root_poset_A(2)
    for p in range(P.n):
        vals = t_q(P, p).values
        total = RationalFunction.const(0)
        for i, mask in enumerate(P.ideal_masks()):
            k = P.n - bin(mask).count("1")
            total = total + RationalFunction(Polynomial.q_power(k)) * vals[i]
        assert total.is_zero()


def test_t_q_values_on_square():
    P = rectangle(2, 2)
    p = P.element_at((1, 1))
    vals = t_q(P, p).values
    assert vals[P.ideal_index(0)] == RationalFunction.const(1)
    assert vals[P.ideal_index(1)] == RationalFunction(Polynomial((0, -1)))


def test_rect_rooks_are_one_and_reduced_equivalent():
    P = rectangle(3, 4)
    for i, j in P.coords:
        r = rook_rect(P, i, j)
        assert all(v == 1 for v in r.values)
        dec = decompose(P, r - rook_rect(P, i, j, reduced=True))
        assert dec is not None and dec.constant == 0


def test_rect_reduced_rooks_double_count():
    a, b = 2, 3
    P = rectangle(a, b)
    total = None
    for i, j in P.coords:
        s = rook_rect(P, i, j, reduced=True)
        total = s if total is None else total + s
    expect = Fraction(a + b) * named_statistic(P, "antichain_card")
    assert total.values == expect.values


def test_staircase_rooks_are_one():
    P = shifted_staircase(4)
    for i, j in P.coords:
        assert all(v == 1 for v in rook_sstair(P, i, j).values)
        dec = decompose(P, rook_sstair(P, i, j) - rook_sstair(P, i, j, reduced=True))
        assert dec is not None and dec.constant == 0


def test_type_a_reduced_rooks_double_count():
    P = root_poset_A(3)
    total = None
    for i in (1, 2, 3):
        s = rook_A(P, i, reduced=True)
        total = s if total is None else total + s
    expect = Fraction(2) * named_statistic(P, "antichain_card")
    assert total.values == expect.values


def test_staircase_reduced_rook_refinements():
    for n in (3, 4):
        S = shifted_staircase(n)
        lhs = Fraction(2) * named_statistic(S, "diag")
        rhs = None
        for i in range(1, n + 1):
            r = rook_sstair(S, i, i, reduced=True)
            rhs = r if rhs is None else rhs + r
        for i in range(1, n):
            rhs = rhs - rook_sstair(S, i, i + 1, reduced=True)
        assert lhs.values == rhs.values
        for i in range(1, n + 1):
            fiber = named_statistic(S, f"sfiber:{i}")
            expect = rook_sstair(S, i, i, reduced=True) - named_statistic(S, "diag")
            assert fiber.values == expect.values


def test_type_b_rook_diagonal_identity():
    n = 2
    P = root_poset_B(n)
    lhs = Fraction(2) * rook_B(P, n, reduced=True) - var_rook_B(P, n, reduced=True)
    expect = Fraction(2) * named_statistic(P, "diag")
    assert lhs.values == expect.values


def test_variant_rooks_match_quotient_pullback():
    for n in (2, 3):
        q = type_b_quotient(n)
        B, A = q.source, q.target
        for i in range(1, n + 1):
            direct = var_rook_B(B, i)
            via_quotient = [
                rook_A(A, i).values[A.ideal_index(q.mask_image(mask))]
                for mask in B.ideal_masks()
            ]
            assert list(direct.values) == via_quotient
            direct_red = var_rook_B(B, i, reduced=True)
            via_red = [
                rook_A(A, i, reduced=True).values[A.ideal_index(q.mask_image(mask))]
                for mask in B.ideal_masks()
            ]
            assert list(direct_red.values) == via_red


def test_staircase_statistics_match_quotient_pullback():
    q = staircase_quotient(3)
    S, R = q.source, q.target
    for i in range(1, 4):
        folded = named_statistic(S, f"sfiber:{i}")
        via = [
            named_statistic(R, f"pfiber:{i}").values[R.ideal_index(q.mask_image(m))]
            for m in S.ideal_masks()
        ]
        assert list(folded.values) == via


def test_rook_index_errors():
    P = rectangle(2, 2)
    with pytest.raises(ValueError):
        rook_rect(P, 3, 1)
    A = root_poset_A(3)
    with pytest.raises(ValueError):
        rook_A(A, 4)


def test_antichain_toggleability_reductions():
    P = root_poset_A(3)
    for p in range(P.n):
        single = Antichain(P, [p])
        assert antichain_toggleability(P, single, "in").values == t_in(P, p).values
        assert antichain_toggleability(P, single, "out").values == t_out(P, p).values
        assert antichain_toggleability(P, single, "signed").values == t_signed(P, p).values
    empty = Antichain(P)
    assert all(v == 1 for v in antichain_toggleability(P, empty, "in").values)
    assert all(v == 1 for v in antichain_toggleability(P, empty, "out").values)
    assert all(v == 0 for v in antichain_toggleability(P, empty, "signed").values)


def test_antichain_toggleability_is_product():
    P = rectangle(2, 3)
    for A in enumerate_antichains(P):
        sin = antichain_toggleability(P, A, "in")
        sout = antichain_toggleability(P, A, "out")
        for i in range(len(P.ideal_masks())):
            pin = 1
            pout = 1
            for p in A:
                pin *= t_in(P, p).values[i]
                pout *= t_out(P, p).values[i]
            assert sin.values[i] == pin
            assert sout.values[i] == pout


def test_antichain_striker():
    P = root_poset_A(3)
    ideals = enumerate_ideals(P)
    orbits = orbit_partition(lambda I: rowmotion(P, I), ideals)
    for A in enumerate_antichains(P):
        stat = antichain_toggleability(P, A, "signed")
        for o in orbits:
            assert sum(stat.value_on(I) for I in o) == 0


def test_named_statistics():
    P = rectangle(2, 2)
    assert named_statistic(P, "ideal_card").values == (0, 1, 2, 2, 3, 4)
    S = shifted_staircase(3)
    diag_ind = None
    for p, (i, j) in enumerate(S.coords):
        if i == j:
            s = indicator_ideal(S, p)
            diag_ind = s if diag_ind is None else diag_ind + s
    assert named_statistic(S, "file:0").values == diag_ind.values

    A2 = root_poset_A(2)
    full = A2.ideal_index((1 << A2.n) - 1)
    assert named_statistic(A2, "rankalt").values[full] == 1


def test_named_statistic_errors():
    from rowmotion.families import double_tailed_diamond

    P = double_tailed_diamond(4)  # no grid coordinates
    with pytest.raises(ValueError):
        named_statistic(P, "file:0")
    with pytest.raises(ValueError):
        named_statistic(rectangle(2, 2), "file:5")
    with pytest.raises(ValueError):
        named_statistic(rectangle(2, 2), "mystery")


def test_refinement_closures():
    a, b = 2, 3
    P = rectangle(a, b)
    files = None
    for k in range(1 - a, b):
        s = named_statistic(P, f"file:{k}")
        files = s if files is None else files + s
    assert files.values == named_statistic(P, "ideal_card").values

    fibers = None
    for i in range(1, a + 1):
        s = named_statistic(P, f"pfiber:{i}")
        fibers = s if fibers is None else fibers + s
    assert fibers.values == named_statistic(P, "antichain_card").values

    S = shifted_staircase(3)
    total = named_statistic(S, "diag")
    for i in range(1, 4):
        total = total + named_statistic(S, f"sfiber:{i}")
    expect = Fraction(2) * named_statistic(S, "antichain_card")
    assert total.values == expect.values


def test_color_classes_cover_elements():
    S = shifted_staircase(4)
    from collections import Counter

    counts = Counter(S.colors)
    total = None
    for c in counts:
        s = named_statistic(S, f"color:{c}")
        total = s if total is None else total + s
    assert total.values == named_statistic(S, "ideal_card").values


def test_staircase_split_diagonal_colors_decompose():
    # empirical check: the split-diagonal color refinements stay in the span
    for n in (3, 4):
        S = shifted_staircase(n)
        for c in ("diag_odd", "diag_even"):
            dec = decompose(S, named_statistic(S, f"color:{c}"))
            assert dec is not None


def test_homomesy_check_basics():
    P = rectangle(2, 2)
    rep = homomesy_check(named_statistic(P, "ideal_card"), lambda I: rowmotion(P, I))
    assert rep.is_homomesic and rep.constant == 2
    rep = homomesy_check(named_statistic(P, "antichain_card"), lambda I: rowmotion(P, I))
    assert rep.is_homomesic and rep.constant == 1
    rep = homomesy_check(constant_statistic(P, Fraction(7, 3)), lambda I: rowmotion(P, I))
    assert rep.is_homomesic and rep.constant == Fraction(7, 3)
    assert rep.global_average == Fraction(7, 3)


def test_homomesy_check_accepts_permutation():
    P = rectangle(2, 2)
    from rowmotion.dynamics import as_index_permutation, rowmotion_order

    perm = as_index_permutation(lambda I: rowmotion(P, I), enumerate_ideals(P))
    rep = homomesy_check(named_statistic(P, "ideal_card"), perm)
    assert rep.is_homomesic and rep.constant == 2
    for spec in ("rect:3,4", "dtd:3", "rootB:3"):
        Q = from_specifier(spec)
        for f in (named_statistic(Q, "antichain_card"), indicator_ideal(Q, 0)):
            perm = Q.sweep_permutation(rowmotion_order(Q))  # an array, not a list
            assert homomesy_check(f, perm) == homomesy_check(f, lambda I: rowmotion(Q, I))


def test_homomesy_negative_example():
    P = root_poset_B(2)
    rep = homomesy_check(named_statistic(P, "ideal_card"), lambda I: rowmotion(P, I))
    assert not rep.is_homomesic
    assert rep.constant is None


def _assert_same_report(got, want):
    """Every field equal, and every average of the same type."""
    assert got == want and got.constant == want.constant
    types = [type(a) for a in (got.global_average, *got.orbit_averages)]
    assert types == [type(a) for a in (want.global_average, *want.orbit_averages)]


def _rowmotion_pairs(f):
    nums = f.nums
    perm = f.poset.sweep_permutation(rowmotion_order(f.poset))
    return [(sum(nums[i] for i in cyc), len(cyc)) for cyc in permutation_orbits(perm)]


@pytest.mark.parametrize("spec, name, expected", [
    ("rect:3,3", "antichain_card", None),          # homomesic
    ("rect:3,3", "antichain_card", Fraction(3, 2)),  # an expected value that matches
    ("rect:3,3", "antichain_card", Fraction(1)),     # and one that does not
    ("rootB:2", "ideal_card", None),               # not homomesic
    ("rootB:2", "ideal_card", Fraction(2)),
    ("rect:2,3", "tq:1", None),                    # a q-kind statistic
    ("rect:2,3", "tq:1", RationalFunction(Polynomial((1, -1)), Polynomial((5,)))),
    ("rect:2,3", "tq:1", RationalFunction(Polynomial())),
    ("rect:2,2", "tq:0", RationalFunction.q()),
])
def test_homomesy_report_matches_a_per_orbit_reference(spec, name, expected):
    P = from_specifier(spec)
    f = t_q(P, int(name[3:])) if name.startswith("tq:") else named_statistic(P, name)
    if name.startswith("tq:"):
        assert f.kind == QRATIONAL
    pairs = _rowmotion_pairs(f)
    single = [(sum(f.nums), len(f.nums))]  # the whole space as one orbit
    for orbits in (pairs, single, pairs[::-1] + pairs):
        want = report_by_orbit(f, orbits, expected)
        _assert_same_report(_homomesy_report(f, iter(orbits), expected), want)
    if expected is None:
        _assert_same_report(homomesy_check(f, lambda I: rowmotion(P, I)),
                            report_by_orbit(f, pairs))


@settings(derandomize=True, max_examples=80, deadline=None, database=None)
@given(hst.lists(hst.tuples(hst.integers(-4, 4), hst.integers(1, 4)), min_size=1, max_size=12),
       hst.integers(1, 6), hst.sampled_from([None, Fraction(0), Fraction(1, 2), Fraction(1)]))
def test_homomesy_report_of_repeated_pairs_matches_a_per_orbit_reference(orbits, den, expected):
    f = Statistic(rectangle(2, 2), nums=[1] * 6, den=den)  # only the denominator is read
    assert f.den == den
    _assert_same_report(_homomesy_report(f, orbits, expected),
                        report_by_orbit(f, orbits, expected))


def test_parse_statistic_combinations():
    P = rectangle(3, 3)
    s = parse_statistic(P, "2*file:0 - file:1 - file:-1")
    expect = (
        Fraction(2) * named_statistic(P, "file:0")
        - named_statistic(P, "file:1")
        - named_statistic(P, "file:-1")
    )
    assert s.values == expect.values

    s = parse_statistic(P, "tout:1,1")
    assert s.values == t_out(P, P.element_at((1, 1))).values

    A3 = root_poset_A(3)
    s = parse_statistic(A3, "1/2*rookA:1 - 1/2*rookA:2 + 1/2*rookA:3")
    assert s.values == (
        Fraction(1, 2) * (rook_A(A3, 1) - rook_A(A3, 2) + rook_A(A3, 3))
    ).values

    with pytest.raises(ValueError):
        parse_statistic(P, "")


def test_statistic_value_on_and_combo_propagation():
    P = rectangle(2, 2)
    s = Fraction(3) * t_out(P, 0) + indicator_ideal(P, 1)
    I = enumerate_ideals(P)[1]
    assert s.value_on(I) == 3
    assert s.combo is not None
    tin, tout, ind = s.combo
    assert tout[0] == 3 and ind[1] == 1


def test_gyration_striker_for_statistics():
    S = shifted_staircase(3)
    ideals = enumerate_ideals(S)
    orbits = orbit_partition(gyration(S), ideals)
    for p in range(S.n):
        stat = t_signed(S, p)
        for o in orbits:
            assert sum(stat.value_on(I) for I in o) == 0


def test_parse_fraction_bounds():
    from rowmotion.statistics import MAX_NUMBER_DIGITS, parse_fraction

    assert parse_fraction("2/3") == Fraction(2, 3)
    assert parse_fraction("1_0e1_0") == 10 ** 11
    assert parse_fraction(f"1e-{MAX_NUMBER_DIGITS}") == Fraction(1, 10 ** MAX_NUMBER_DIGITS)
    assert parse_fraction(0.5) == Fraction(1, 2)
    for bad in (f"1e{MAX_NUMBER_DIGITS + 1}", "2.5E-99999999", "7" * (MAX_NUMBER_DIGITS + 1),
                float("inf"), float("-inf"), float("nan"), "1/0", None, "x"):
        with pytest.raises(ValueError):
            parse_fraction(bad)


# -- the cleared form ------------------------------------------------------------------


CLEARED = settings(derandomize=True, max_examples=60, deadline=None, database=None,
                   suppress_health_check=list(HealthCheck))
_SPECS = ("rect:2,2", "rect:2,3", "sstair:3", "rootA:3", "vchain:1")
_FRACTIONS = hst.builds(Fraction, hst.integers(-9, 9), hst.integers(1, 6))
_POLYS = hst.lists(_FRACTIONS, max_size=3).map(Polynomial)
# denominators with no root q >= 0, so every specialization below is legal
_DENS = hst.sampled_from([(1,), (1, 1), (2, 1), (1, 0, 1), (3, 2), (1, 3, 2),
                          (Fraction(1, 2), Fraction(1, 3))]).map(Polynomial)
_RFS = hst.builds(RationalFunction, _POLYS, _DENS)


def _by_definition(P, tin, tout, ind):
    """sum_p tin_p T+_p + tout_p T-_p + ind_p 1_p on every ideal, from the
    cover relation alone."""
    out = []
    for m in P.ideal_masks():
        v = Fraction(0)
        for p in range(P.n):
            if m >> p & 1:
                v += ind[p] + (tout[p] if P.up_covers[p] & m == 0 else 0)
            elif P.down_covers[p] & m == P.down_covers[p]:
                v += tin[p]
        out.append(v)
    return out


def _assert_cleared(s, expected):
    """Value k of s is nums[k] / den and equals expected[k]; the form is in
    lowest terms, so s equals the statistic built from the same values."""
    field = Fraction if s.kind == RATIONAL else RationalFunction
    assert len(s.values) == len(s.nums) == len(expected) == len(s.poset.ideal_masks())
    for k, want in enumerate(expected):
        assert s.values[k] == want == field(s.nums[k], s.den)
    for I in enumerate_ideals(s.poset)[:3]:
        assert s.value_on(I) == expected[s.poset.ideal_index(I.mask)]
    assert s.values == tuple(expected) and list(s.values) == list(expected)
    assert s == Statistic(s.poset, expected, kind=s.kind)
    assert s == Statistic(s.poset, s.values, kind=s.kind)
    if s.kind == RATIONAL:
        assert s.den > 0 and gcd(s.den, *s.nums) == 1
    else:
        assert all(c.denominator == 1 for p in (s.den, *s.nums) for c in p.coeffs)


@CLEARED
@given(hst.data())
def test_rational_statistics_stay_cleared(data):
    P = from_specifier(data.draw(hst.sampled_from(_SPECS)))
    combo = hst.lists(_FRACTIONS, min_size=P.n, max_size=P.n)
    parts = [data.draw(combo) for _ in range(6)]
    s, t = from_combo(P, *parts[:3]), from_combo(P, *parts[3:])
    sv, tv = _by_definition(P, *parts[:3]), _by_definition(P, *parts[3:])
    c = data.draw(_FRACTIONS)
    _assert_cleared(s, sv)
    _assert_cleared(s + t, [a + b for a, b in zip(sv, tv)])
    _assert_cleared(s - s, [0] * len(sv))
    _assert_cleared(c * s, [c * a for a in sv])
    _assert_cleared(Statistic(P, sv), sv)
    assert (s + t).combo == tuple(tuple(a + b for a, b in zip(u, v))
                                  for u, v in zip(parts[:3], parts[3:]))


@CLEARED
@given(hst.data())
def test_q_statistics_stay_cleared(data):
    P = from_specifier(data.draw(hst.sampled_from(_SPECS)))
    vector = hst.lists(_RFS, min_size=len(P.ideal_masks()), max_size=len(P.ideal_masks()))
    u, v = data.draw(vector), data.draw(vector)
    s, t = Statistic(P, u, kind=QRATIONAL), Statistic(P, v, kind=QRATIONAL)
    c, x = data.draw(_RFS), data.draw(_FRACTIONS)
    p = data.draw(hst.integers(0, P.n - 1))
    z = data.draw(hst.builds(Fraction, hst.integers(0, 7), hst.integers(1, 4)))
    _assert_cleared(s, u)
    _assert_cleared(s + t, [a + b for a, b in zip(u, v)])
    _assert_cleared(s - s, [RationalFunction.const(0)] * len(u))
    _assert_cleared(c * s, [c * a for a in u])
    _assert_cleared(x * s, [x * a for a in u])
    _assert_cleared(s + c * t_q(P, p), [a + c * b for a, b in zip(u, t_q(P, p).values)])
    _assert_cleared(s.specialize(z), [a.evaluate(z) for a in u])
    one_over = RationalFunction(Polynomial((1,)), Polynomial((1, 1)))  # 1/(1+q)
    w = [one_over * (k + 1) for k in range(len(u))]
    _assert_cleared(Statistic(P, w, kind=QRATIONAL), w)
    assert Statistic(P, w, kind=QRATIONAL).den == Polynomial((1, 1))
