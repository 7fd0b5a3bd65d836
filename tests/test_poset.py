import json
from math import comb

import pytest
from hypothesis import example, given, settings, strategies as st

from rowmotion import (
    CapExceededError,
    MalformedPosetError,
    OrderIdeal,
    Poset,
    dual,
    enumerate_ideals,
    ideal_generated_by,
    is_graded,
    leq,
    linear_extension,
    maximal_elements,
    minimal_complement,
    poset_isomorphic,
    rank_of,
)
from rowmotion.families import rectangle, root_poset_A, shifted_staircase, chain_of_vs
import rowmotion.poset as poset_module
from rowmotion.poset import LinearExtension

from conftest import (
    all_linear_extensions,
    brute_ideals,
    brute_leq,
    brute_maximal_chains,
    random_poset,
)


def chain(n):
    return Poset(n, [(k, k + 1) for k in range(n - 1)], name=f"chain:{n}")


def test_leq_grid_min_max():
    P = rectangle(2, 2)
    assert leq(P, P.element_at((1, 1)), P.element_at((2, 2)))


def test_leq_reflexive():
    P = root_poset_A(3)
    assert all(leq(P, x, x) for x in range(P.n))


def test_leq_incomparable_pair_matches_brute_closure():
    P = root_poset_A(2)
    x, y = P.element_at((1, 2)), P.element_at((2, 1))
    clo = brute_leq(P.n, P.covers)
    assert not leq(P, x, y) and (x, y) not in clo
    assert not leq(P, y, x) and (y, x) not in clo
    for a in range(P.n):
        for b in range(P.n):
            assert leq(P, a, b) == ((a, b) in clo)


def test_up_and_down_sets_are_built_on_first_use():
    from rowmotion.families import from_specifier

    big = from_specifier("rect:20,20")
    assert "up_set" not in vars(big) and "down_set" not in vars(big)
    for P in (root_poset_A(3), shifted_staircase(3), chain_of_vs(2), big):
        clo = brute_leq(P.n, P.covers) if P.n < 20 else None
        assert "up_set" not in vars(P) and "down_set" not in vars(P)
        for x in range(P.n):
            for y in range(P.n):
                below = bool(P.down_set[y] >> x & 1)
                assert below == bool(P.up_set[x] >> y & 1)
                if clo is not None:
                    assert below == ((x, y) in clo)
        assert P.down_set is P.down_set  # built once
    a, b = big.element_at((1, 1)), big.element_at((20, 20))
    assert big.up_set[a] == (1 << big.n) - 1 == big.down_set[b]


def test_leq_index_errors():
    P = chain(3)
    with pytest.raises(IndexError):
        leq(P, 0, 3)


def test_linear_extension_chain_and_antichain():
    assert linear_extension(chain(3)).order == (0, 1, 2)
    assert linear_extension(Poset(2, [])).order == (0, 1)


def test_linear_extension_is_lex_min_among_all():
    P = rectangle(2, 2)
    exts = all_linear_extensions(P)
    assert len(exts) == 2
    assert linear_extension(P).order == min(exts)


def test_linear_extension_validation():
    P = chain(3)
    with pytest.raises(ValueError):
        LinearExtension(P, (2, 1, 0))
    with pytest.raises(ValueError):
        LinearExtension(P, (0, 0, 1))


def test_cycle_detected():
    with pytest.raises(MalformedPosetError):
        Poset(2, [(0, 1), (1, 0)])


def test_minimal_complement():
    P = rectangle(2, 2)
    empty = OrderIdeal(P)
    assert minimal_complement(empty).members == (P.element_at((1, 1)),)
    full = OrderIdeal(P, range(4))
    assert minimal_complement(full).members == ()
    one = OrderIdeal(P, [P.element_at((1, 1))])
    assert set(minimal_complement(one).members) == {
        P.element_at((1, 2)), P.element_at((2, 1))
    }


def test_maximal_elements():
    P = rectangle(2, 2)
    assert maximal_elements(OrderIdeal(P, range(4))).members == (
        P.element_at((2, 2)),
    )
    assert maximal_elements(OrderIdeal(P)).members == ()
    three = OrderIdeal(P, [0, 1, 2])
    assert set(maximal_elements(three).members) == {1, 2}


def test_ideal_generated_by_and_roundtrip():
    P = rectangle(2, 2)
    from rowmotion import Antichain

    assert ideal_generated_by(Antichain(P)).members == ()
    top = Antichain(P, [P.element_at((2, 2))])
    assert ideal_generated_by(top).cardinality == 4
    for I in enumerate_ideals(P):
        assert ideal_generated_by(maximal_elements(I)) == I


def test_ideal_antichain_validation():
    P = rectangle(2, 2)
    from rowmotion import Antichain

    with pytest.raises(ValueError):
        OrderIdeal(P, [P.element_at((2, 2))])
    with pytest.raises(ValueError):
        Antichain(P, [0, 3])


def test_enumerate_ideals_counts_and_order():
    P = rectangle(2, 2)
    ideals = enumerate_ideals(P)
    assert len(ideals) == 6
    assert [I.mask for I in ideals] == brute_ideals(P)

    empty = Poset(0, [])
    assert [I.members for I in enumerate_ideals(empty)] == [()]

    A2 = root_poset_A(2)
    assert len(enumerate_ideals(A2)) == 5
    assert [I.mask for I in enumerate_ideals(A2)] == brute_ideals(A2)


def test_enumerated_ideals_downward_closed():
    for P in (rectangle(2, 3), shifted_staircase(3), root_poset_A(3)):
        for I in enumerate_ideals(P):
            for y in I:
                for x in range(P.n):
                    if leq(P, x, y):
                        assert x in I


def test_ideal_antichain_bijection_exhaustive():
    for P in (rectangle(3, 3), shifted_staircase(4), root_poset_A(3)):
        ideals = enumerate_ideals(P)
        images = {maximal_elements(I).mask for I in ideals}
        assert len(images) == len(ideals)


def test_rectangle_ideal_counts_binomial():
    for a in range(1, 7):
        for b in range(1, 7):
            P = rectangle(a, b)
            assert len(P.ideal_masks()) == comb(a + b, b)


def test_rank_cover_increment_law():
    for P in (rectangle(3, 4), shifted_staircase(4), root_poset_A(4), chain_of_vs(3)):
        assert P.rank is not None
        for lo, hi in P.covers:
            assert P.rank[hi] == P.rank[lo] + 1
        assert min(P.rank) == 0


def test_dual_involution_and_isomorphisms():
    for P in (rectangle(2, 3), shifted_staircase(3), root_poset_A(3)):
        assert poset_isomorphic(dual(dual(P)), P)
    assert poset_isomorphic(dual(chain(3)), chain(3))
    assert poset_isomorphic(dual(rectangle(2, 3)), rectangle(2, 3))


def test_dual_grid_coords_stay_consistent():
    P = dual(rectangle(2, 3))
    assert P.coords is not None  # construction validates grid adjacency


def test_is_graded_and_rank_of():
    for a in range(1, 5):
        for b in range(1, 5):
            P = rectangle(a, b)
            assert is_graded(P)
            assert rank_of(P) == a + b - 2
            assert rank_of(P) == max(len(c) for c in brute_maximal_chains(P)) - 1
    assert is_graded(chain_of_vs(1))
    assert rank_of(chain_of_vs(1)) == 1
    A3 = root_poset_A(3)
    assert is_graded(A3)
    assert rank_of(A3) == 2
    not_graded = Poset(4, [(0, 1), (1, 3), (2, 3)])
    assert not is_graded(not_graded)
    assert is_graded(Poset(0, [])) and rank_of(Poset(0, [])) == 0


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 8))
def test_is_graded_and_rank_of_match_maximal_chains(seed, n):
    import random

    P = random_poset(random.Random(seed), n)
    lengths = {len(c) - 1 for c in brute_maximal_chains(P)}
    assert is_graded(P) == (len(lengths) == 1)
    if len(lengths) == 1:
        assert rank_of(P) == lengths.pop()
    else:
        with pytest.raises(ValueError, match="not graded"):
            rank_of(P)


def test_json_round_trip(tmp_path):
    P = shifted_staircase(3)
    data = json.loads(json.dumps(P.to_dict()))
    Q = Poset.from_dict(data)
    assert Q.covers == P.covers
    assert Q.coords == P.coords
    assert P.colors and Q.colors == P.colors


def test_ideal_cap(monkeypatch):
    from rowmotion import CapExceededError

    monkeypatch.setattr(poset_module, "DEFAULT_IDEAL_CAP", 5)
    with pytest.raises(CapExceededError, match="more than 5 order ideals"):
        rectangle(3, 3).ideal_masks()


def test_grid_consistency_checks():
    with pytest.raises(MalformedPosetError):
        Poset(2, [(0, 1)], coords=[(1, 1), (1, 1)])
    with pytest.raises(MalformedPosetError):
        Poset(2, [], coords=[(1, 1), (1, 2)])  # missing adjacency cover
    with pytest.raises(MalformedPosetError):
        Poset(2, [(0, 1)], coords=[(1, 1), (2, 2)])  # cover between far boxes
    P = Poset(3, [(0, 1), (0, 2)], coords=[(1, 1), (1, 2), (2, 1)])
    assert P.element_at((2, 1)) == 2


@st.composite
def small_posets(draw):
    """Random posets on up to 7 elements: relations drawn from pairs lo < hi,
    given by the covers of their transitive closure."""
    n = draw(st.integers(0, 7))
    pairs = [(lo, hi) for hi in range(n) for lo in range(hi)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    below = [0] * n  # below[hi]: mask of the elements under hi
    for (lo, hi), k in zip(pairs, keep):
        if k:
            below[hi] |= 1 << lo | below[lo]
    return Poset(n, [(lo, hi) for lo, hi in pairs if below[hi] >> lo & 1
                     and not any(below[c] >> lo & 1 for c in range(n) if below[hi] >> c & 1)])


@settings(max_examples=60, deadline=None)
@given(small_posets())
def test_toggle_table_matches_mask_definitions(P):
    masks = P.ideal_masks()
    table = P.toggle_table()
    assert table is P.toggle_table()  # cached
    assert len(table.addable) == len(table.removable) == P.n
    for p in range(P.n):
        down, up, bit = P.down_covers[p], P.up_covers[p], 1 << p
        addable = [i for i, m in enumerate(masks)
                   if not m & bit and down & m == down]
        removable = [i for i, m in enumerate(masks)
                     if m & bit and up & m == 0]
        assert list(table.addable[p]) == addable
        assert list(table.removable[p]) == removable


@settings(max_examples=60, deadline=None)
@given(small_posets())
def test_toggle_table_pairs_are_single_toggles(P):
    """addable[p][k] is removable[p][k] with p taken out: the aligned pairs
    that Poset.sweep_permutation swaps."""
    masks = P.ideal_masks()
    table = P.toggle_table()
    for p in range(P.n):
        assert len(table.addable[p]) == len(table.removable[p])
        for a, b in zip(table.addable[p], table.removable[p]):
            assert masks[a] == masks[b] ^ (1 << p)


@settings(max_examples=80, deadline=None)
@given(small_posets())
@example(Poset(0, []))
@example(Poset(5, []))  # an antichain
@example(Poset(6, [(0, 1), (1, 2), (3, 5), (4, 5)]))  # disconnected
@example(Poset(68, [(k, k + 1) for k in range(65)]))  # masks past 64 bits
def test_toggle_decisions_match_the_definition(P):
    """The two places that decide toggleability, the search behind
    `toggle_table` and `toggle_mask` behind `toggleable_mask`, against the
    definition: p is addable to I iff p is not in I and I + p is an ideal,
    and removable iff p is in I and I - p is an ideal."""
    masks = P.ideal_masks()
    table = P.toggle_table()
    assert table is P.toggle_table()  # cached
    assert len(table.addable) == len(table.removable) == P.n
    addable = [[k for k, m in enumerate(masks)
                if not m >> p & 1 and P.is_ideal_mask(m | 1 << p)] for p in range(P.n)]
    removable = [[k for k, m in enumerate(masks)
                  if m >> p & 1 and P.is_ideal_mask(m ^ 1 << p)] for p in range(P.n)]
    for p in range(P.n):
        # the brute-force lists are increasing, so this checks the order too
        assert list(table.addable[p]) == addable[p]
        assert list(table.removable[p]) == removable[p]
        assert len(table.addable[p]) == len(table.removable[p])
        for a, r in zip(table.addable[p], table.removable[p]):
            assert masks[r] == masks[a] | 1 << p
    min_rest = [0] * len(masks)  # min(P - I)
    max_ideal = [0] * len(masks)  # max(I)
    for p in range(P.n):
        for k in addable[p]:
            min_rest[k] |= 1 << p
        for k in removable[p]:
            max_ideal[k] |= 1 << p
    assert list(P.antichain_masks()) == max_ideal
    for k, m in enumerate(masks):
        assert P.toggleable_mask(m) == min_rest[k] | max_ideal[k]
        I = OrderIdeal._make(P, m)
        assert minimal_complement(I).mask == min_rest[k]
        assert maximal_elements(I).mask == max_ideal[k]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_sweep_permutation_matches_mask_toggles(data):
    P = data.draw(small_posets())
    order = data.draw(st.lists(st.integers(0, max(P.n - 1, 0)), max_size=12)
                      if P.n else st.just([]))
    masks = P.ideal_masks()
    perm = P.sweep_permutation(order)
    assert perm is P.sweep_permutation(tuple(order))  # cached
    assert sorted(perm) == list(range(len(masks)))
    for i, m in enumerate(masks):
        for p in order:
            m = P.toggle_mask(p, m)
        assert masks[perm[i]] == m


def test_ideal_masks_match_brute_force_and_cap_boundary(monkeypatch):
    for P in (rectangle(3, 4), shifted_staircase(4), root_poset_A(4), chain_of_vs(3),
              Poset(4, []), Poset(0, [])):
        masks = brute_ideals(P)
        assert list(P.ideal_masks()) == masks
        # the cap allows exactly the ideal count and refuses one fewer
        with monkeypatch.context() as m:
            m.setattr(poset_module, "DEFAULT_IDEAL_CAP", len(masks))
            Q = Poset(P.n, P.covers)
            assert Q.ideal_masks() == P.ideal_masks()
            # the search wrote the table, so reading it enumerates nothing
            m.setattr(poset_module, "DEFAULT_IDEAL_CAP", 0)
            assert Q.toggle_table() == P.toggle_table()
            if len(masks) > 1:
                m.setattr(poset_module, "DEFAULT_IDEAL_CAP", len(masks) - 1)
                Q = Poset(P.n, P.covers)
                # a refused search stores nothing, and the next call refuses too
                for call in (Q.ideal_masks, Q.toggle_table):
                    with pytest.raises(CapExceededError):
                        call()
                    assert (Q._ideal_masks, Q._ideal_index, Q._toggle_table) == (None,) * 3
