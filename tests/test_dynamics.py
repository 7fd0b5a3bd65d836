import random
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from rowmotion import (
    Antichain,
    OrderIdeal,
    Poset,
    antichain_rowmotion,
    enumerate_antichains,
    enumerate_ideals,
    gyration,
    homomesy_check,
    ideal_generated_by,
    maximal_elements,
    minimal_complement,
    named_statistic,
    orbit,
    orbit_partition,
    rank_of,
    rank_toggle,
    rowmotion,
    rowmotion_by_toggles,
    rowmotion_sigma,
    t_signed,
    toggle,
)
from rowmotion.families import (
    double_tailed_diamond,
    rectangle,
    root_poset_A,
    shifted_staircase,
)
from rowmotion.dynamics import as_index_permutation, permutation_orbits
from rowmotion.poset import LinearExtension, linear_extension

from conftest import random_extension, random_poset, report_of_permutation


def test_toggle_examples():
    P = rectangle(2, 2)
    empty = OrderIdeal(P)
    assert toggle(P, P.element_at((1, 1)), empty).members == (0,)
    one = OrderIdeal(P, [P.element_at((1, 1))])
    assert toggle(P, P.element_at((2, 2)), one) == one


def test_toggle_involution_exhaustive():
    P = rectangle(2, 3)
    for I in enumerate_ideals(P):
        for p in range(P.n):
            assert toggle(P, p, toggle(P, p, I)) == I


def test_incomparable_toggles_commute():
    for P in (rectangle(2, 3), shifted_staircase(3), double_tailed_diamond(4)):
        for I in enumerate_ideals(P):
            for p in range(P.n):
                for q in range(p + 1, P.n):
                    if P.leq(p, q) or P.leq(q, p):
                        continue
                    assert toggle(P, p, toggle(P, q, I)) == toggle(P, q, toggle(P, p, I))


def test_rowmotion_definition_and_orbits():
    P = rectangle(2, 2)
    empty = OrderIdeal(P)
    assert rowmotion(P, empty) == ideal_generated_by(minimal_complement(empty))
    assert orbit(lambda I: rowmotion(P, I), empty).period == 4
    two = OrderIdeal(P, [P.element_at((1, 1)), P.element_at((1, 2))])
    assert orbit(lambda I: rowmotion(P, I), two).period == 2


def test_rowmotion_max_equals_min_complement():
    P = shifted_staircase(3)
    for I in enumerate_ideals(P):
        assert maximal_elements(rowmotion(P, I)) == minimal_complement(I)


def test_rowmotion_by_toggles_agrees():
    P = rectangle(3, 3)
    rng = random.Random(11)
    exts = [LinearExtension(P, random_extension(P, rng)) for _ in range(5)]
    for I in enumerate_ideals(P):
        expect = rowmotion(P, I)
        for ext in exts:
            assert rowmotion_by_toggles(P, ext, I) == expect


def test_rowmotion_by_toggles_single_element_and_both_extensions():
    from rowmotion import Poset

    single = Poset(1, [])
    I = OrderIdeal(single)
    assert rowmotion_by_toggles(single, linear_extension(single), I) == toggle(single, 0, I)

    P = rectangle(2, 2)
    from conftest import all_linear_extensions

    for order in all_linear_extensions(P):
        ext = LinearExtension(P, order)
        for I in enumerate_ideals(P):
            assert rowmotion_by_toggles(P, ext, I) == rowmotion(P, I)


def test_rowmotion_by_toggles_rejects_foreign_extension():
    P = rectangle(2, 2)
    Q = rectangle(2, 2)
    ext = linear_extension(Q)
    with pytest.raises(ValueError):
        rowmotion_by_toggles(P, ext, OrderIdeal(P))


def test_rank_toggle_and_identity_sigma():
    P = rectangle(2, 3)
    sigma = tuple(range(P.max_rank() + 1))
    step = rowmotion_sigma(P, sigma)
    for I in enumerate_ideals(P):
        assert step(I) == rowmotion(P, I)


def test_rank_toggle_composition_matches_sigma():
    P = rectangle(2, 3)
    toggles = [rank_toggle(P, i) for i in range(P.max_rank() + 1)]
    step = rowmotion_sigma(P, tuple(range(P.max_rank() + 1)))
    for I in enumerate_ideals(P):
        J = I
        for i in reversed(range(P.max_rank() + 1)):
            J = toggles[i](J)
        assert J == step(I)


def test_sigma_validation():
    P = rectangle(2, 2)
    with pytest.raises(ValueError):
        rowmotion_sigma(P, (0, 1))
    with pytest.raises(ValueError):
        rowmotion_sigma(P, (0, 1, 1))


def test_gyration_is_bijection_and_striker():
    P = rectangle(2, 2)
    ideals = enumerate_ideals(P)
    orbits = orbit_partition(gyration(P), ideals)
    assert sum(o.period for o in orbits) == len(ideals)

    S = shifted_staircase(3)
    orbits = orbit_partition(gyration(S), enumerate_ideals(S))
    for p in range(S.n):
        stat = t_signed(S, p)
        for o in orbits:
            assert sum(stat.value_on(I) for I in o) == 0


def test_every_sigma_is_bijection():
    import itertools

    P = shifted_staircase(3)
    ideals = enumerate_ideals(P)
    for sigma in itertools.permutations(range(P.max_rank() + 1)):
        orbits = orbit_partition(rowmotion_sigma(P, sigma), ideals)
        assert sum(o.period for o in orbits) == len(ideals)


def test_antichain_rowmotion():
    P = rectangle(2, 3)
    empty = Antichain(P)
    assert antichain_rowmotion(P, empty).mask == P.minimal_mask
    tops = Antichain(P, mask=P.maximal_mask)
    assert antichain_rowmotion(P, tops).members == ()

    A3 = root_poset_A(3)
    for I in enumerate_ideals(A3):
        lhs = antichain_rowmotion(A3, maximal_elements(I))
        assert lhs == maximal_elements(rowmotion(A3, I))


def test_orbit_partition_identity_and_counts():
    P = rectangle(2, 2)
    ideals = enumerate_ideals(P)
    orbits = orbit_partition(lambda I: rowmotion(P, I), ideals)
    assert sorted(o.period for o in orbits) == [2, 4]
    orbits = orbit_partition(lambda I: I, ideals)
    assert all(o.period == 1 for o in orbits)


def test_rowmotion_order_divides_twice_rank_plus_two():
    for P in (rectangle(2, 3), shifted_staircase(3), double_tailed_diamond(3)):
        ideals = enumerate_ideals(P)
        orbits = orbit_partition(lambda I: rowmotion(P, I), ideals)
        order = lcm(*(o.period for o in orbits))
        assert 2 * (rank_of(P) + 2) % order == 0


def test_antichain_rowmotion_partitions_antichains():
    P = root_poset_A(3)
    anti = enumerate_antichains(P)
    orbits = orbit_partition(lambda A: antichain_rowmotion(P, A), anti)
    assert sum(o.period for o in orbits) == len(anti)


_ORBIT_ERRORS = [
    ("duplicate", "state space contains duplicates"),
    ("leaves", "map leaves the given state space"),
    ("not injective", "map is not a bijection of the state space"),
]


@pytest.mark.parametrize("kernel", [orbit_partition, as_index_permutation])
@pytest.mark.parametrize("case, message", _ORBIT_ERRORS)
def test_orbit_error_contract(kernel, case, message):
    P = rectangle(2, 2)
    ideals = list(enumerate_ideals(P))
    step, space = lambda I: rowmotion(P, I), ideals
    if case == "duplicate":
        space = ideals + ideals[:1]
    elif case == "leaves":
        space = ideals[:-1]  # drops the full ideal, an image of rowmotion
    else:
        step = lambda I: ideals[0]
    with pytest.raises(ValueError, match=f"^{message}$"):
        # as_index_permutation leaves the bijection check to permutation_orbits
        result = kernel(step, space)
        permutation_orbits(result)


def _mask_sweep(P, order, mask):
    for p in order:
        mask = P.toggle_mask(p, mask)
    return mask


@pytest.mark.parametrize("spec", ["rect:3,4", "sstair:4", "rootB:3", "E6"])
def test_cached_permutations_match_mask_definitions(spec):
    from rowmotion.dynamics import gyration_sigma, sigma_order
    from rowmotion.families import from_specifier

    P = from_specifier(spec)
    ideals = enumerate_ideals(P)  # enumerated: every map reads its permutation
    rng = random.Random(5)
    sigma = tuple(rng.sample(range(P.max_rank() + 1), P.max_rank() + 1))
    gyr, sig = gyration(P), rowmotion_sigma(P, sigma)
    for I in ideals:
        m = I.mask
        assert rowmotion(P, I).mask == P.generated_ideal_mask(P.toggleable_mask(m) & ~m)
        assert gyr(I).mask == _mask_sweep(P, sigma_order(P, gyration_sigma(P)), m)
        assert sig(I).mask == _mask_sweep(P, sigma_order(P, sigma), m)
    for A in enumerate_antichains(P):
        assert antichain_rowmotion(P, A) == minimal_complement(ideal_generated_by(A))


def test_rowmotion_order_and_permutation_are_kept_per_poset():
    from rowmotion.dynamics import rowmotion_order

    P = rectangle(3, 3)
    order = rowmotion_order(P)
    assert order is rowmotion_order(P) and order == tuple(reversed(P._linext))
    assert P._rowmotion_perm is None
    ideals = enumerate_ideals(P)
    rowmotion(P, ideals[0])
    perm = P._rowmotion_perm
    assert perm is P.sweep_permutation(order)
    for I in ideals:
        assert rowmotion(P, I).mask == P.ideal_masks()[perm[P.ideal_index(I.mask)]]
    assert P._rowmotion_perm is perm


def test_maps_on_a_poset_whose_ideals_were_never_enumerated():
    from rowmotion.dynamics import sigma_order

    fresh, ref = rectangle(3, 3), rectangle(3, 3)
    sigma = (2, 0, 4, 1, 3)
    gyr, sig = gyration(fresh), rowmotion_sigma(fresh, sigma)
    for J in enumerate_ideals(ref):
        I = OrderIdeal(fresh, J.members)
        assert rowmotion(fresh, I).mask == rowmotion(ref, J).mask
        assert gyr(I).mask == gyration(ref)(J).mask
        assert sig(I).mask == _mask_sweep(fresh, sigma_order(fresh, sigma), I.mask)
        A = Antichain(fresh, maximal_elements(J).members)
        assert antichain_rowmotion(fresh, A).mask == minimal_complement(J).mask
    assert fresh._ideal_masks is None  # the mask path enumerated nothing
    # a step built before the enumeration reads the permutation after it
    for I, J in zip(enumerate_ideals(fresh), enumerate_ideals(ref)):
        assert gyr(I).mask == gyration(ref)(J).mask
    assert fresh._sweeps


def test_step_functions_refuse_an_ideal_of_another_poset():
    P, big = rectangle(2, 2), rectangle(3, 3)
    ext = linear_extension(P)
    for I in (enumerate_ideals(big)[9], OrderIdeal(rectangle(2, 2))):
        steps = [lambda I: rowmotion(P, I), lambda I: toggle(P, 0, I),
                 lambda I: rowmotion_by_toggles(P, ext, I), gyration(P),
                 rowmotion_sigma(P, (0, 1, 2)), rank_toggle(P, 1)]
        for step in steps:
            with pytest.raises(ValueError, match="ideal belongs to a different poset"):
                step(I)
    enumerate_ideals(P)  # the permutation path checks as well
    with pytest.raises(ValueError, match="ideal belongs to a different poset"):
        rowmotion(P, enumerate_ideals(big)[9])


def test_orbit_cap(monkeypatch):
    import rowmotion.dynamics as dynamics
    from rowmotion import CapExceededError

    P = rectangle(2, 3)
    start = OrderIdeal(P)
    assert orbit(lambda I: rowmotion(P, I), start).period == 5
    monkeypatch.setattr(dynamics, "ORBIT_CAP", 4)
    with pytest.raises(CapExceededError, match="^orbit exceeded 4 states$"):
        orbit(lambda I: rowmotion(P, I), start)


# -- canonical states and identity indexing ---------------------------------------


@pytest.mark.parametrize("spec", ["rect:3,3", "sstair:4", "rootB:3"])
def test_every_step_returns_the_canonical_state(spec):
    from rowmotion.families import from_specifier

    P = from_specifier(spec)
    ideals, anti = enumerate_ideals(P), enumerate_antichains(P)
    assert ideals is enumerate_ideals(P) and anti is enumerate_antichains(P)
    top = P.max_rank()
    steps = [lambda I: rowmotion(P, I), gyration(P), rowmotion_sigma(P, range(top, -1, -1)),
             rank_toggle(P, top), lambda I: rowmotion_by_toggles(P, linear_extension(P), I)]
    steps += [lambda I, p=p: toggle(P, p, I) for p in range(P.n)]
    for I in ideals:
        for start in (I, OrderIdeal(P, mask=I.mask)):  # canonical, then a fresh equal ideal
            for step in steps:
                J = step(start)
                assert J is ideals[P.ideal_index(J.mask)]
    for k, A in enumerate(anti):
        assert A._index == k and ideals[k]._index == k
        for start in (A, Antichain(P, mask=A.mask)):
            B = antichain_rowmotion(P, start)
            assert B is anti[P.ideal_index(P.generated_ideal_mask(B.mask))]


def test_single_steps_on_a_large_poset_enumerate_no_ideals():
    P = rectangle(40, 40)
    empty = OrderIdeal(P)
    assert rowmotion(P, empty).mask == P.minimal_mask
    assert toggle(P, P.element_at((1, 1)), empty).mask == P.minimal_mask
    assert P._ideal_masks is None and P._ideals is None


def test_non_permutations_are_refused():
    P = rectangle(2, 2)  # 6 ideals
    f = named_statistic(P, "ideal_card")
    for perm in ([0] * 6, [-1] * 6, [1, 2, 3, 4, 5, 6], [1, 0, 3, 2, 5, 5]):
        with pytest.raises(ValueError):
            homomesy_check(f, perm)
    with pytest.raises(ValueError, match="^map is not a bijection of the state space$"):
        permutation_orbits([1, 1, 1])
    with pytest.raises(ValueError, match="out of range"):
        permutation_orbits([1, 2, 3])
    assert permutation_orbits([1, 2, 0, 3]) == [[0, 1, 2], [3]]
    assert homomesy_check(f, [1, 0, 3, 2, 5, 4]).orbit_sizes == (2, 2, 2)


def test_equal_duplicates_outside_a_canonical_space_are_refused():
    P = rectangle(2, 2)
    ideals = enumerate_ideals(P)
    space = list(ideals) + [OrderIdeal(P, mask=ideals[0].mask)]
    for kernel in (orbit_partition, as_index_permutation):
        with pytest.raises(ValueError, match="^state space contains duplicates$"):
            kernel(lambda I: I, space)


def _ranked_poset(rng, sizes):
    """A random ranked poset: sizes[r] elements of rank r, each covering a
    nonempty random set of the elements of rank r - 1."""
    covers, below, n = [], [], 0
    for size in sizes:
        layer = list(range(n, n + size))
        for y in layer:
            if below:
                covers += [(x, y) for x in rng.sample(below, rng.randint(1, len(below)))]
        below, n = layer, n + size
    return Poset(n, covers)


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(st.integers(0, 10 ** 6), st.lists(st.integers(1, 3), min_size=1, max_size=4))
def test_identity_indexing_agrees_with_the_equality_fallback(seed, sizes):
    rng = random.Random(seed)
    P = _ranked_poset(rng, sizes)
    ranks = list(range(P.max_rank() + 1))
    rng.shuffle(ranks)
    ideals, anti = enumerate_ideals(P), enumerate_antichains(P)

    def fresh(step):  # the same map, returning a new equal state
        def new(S):
            T = step(S)
            return type(T)(P, mask=T.mask)
        return new

    def masks(orbits):
        return [[S.mask for S in o] for o in orbits]

    stats = [named_statistic(P, "ideal_card"), named_statistic(P, "antichain_card")]
    for step, space in ((lambda I: rowmotion(P, I), ideals), (gyration(P), ideals),
                        (rowmotion_sigma(P, ranks), ideals),
                        (lambda A: antichain_rowmotion(P, A), anti)):
        assert fresh(step)(space[0]) is not step(space[0])
        want = masks(orbit_partition(step, space))
        assert sum(map(len, want)) == len(space)
        assert masks(orbit_partition(fresh(step), space)) == want
        assert masks(orbit_partition(step, list(space))) == want
        for f in stats:
            assert homomesy_check(f, fresh(step), space) == homomesy_check(f, step, space)


class _Bare:
    """A state without `_index`, equal to nothing in a canonical space."""

    def __init__(self, S):
        self.poset, self.mask = S.poset, S.mask


class _Unindexed(OrderIdeal):
    """An ideal whose `_index` slot is never set, equal to the ideal of its
    mask (its own `__eq__` is tried first, as a subclass's)."""

    __slots__ = ()

    def __init__(self, I):
        self.poset, self.mask = I.poset, I.mask

    def __eq__(self, other):
        return isinstance(other, OrderIdeal) and (other.poset, other.mask) == (self.poset, self.mask)

    __hash__ = OrderIdeal.__hash__


@pytest.mark.parametrize("image", ["antichain", "bare", "unindexed"])
def test_images_identity_cannot_place_take_the_equality_path(image):
    # on the canonical ideals, rowmotion's images returned as the canonical
    # antichain of the same index (whose `_index` names an ideal), as an
    # object without `_index`, or as an ideal whose `_index` was never set
    P = rectangle(3, 3)
    ideals, anti = enumerate_ideals(P), enumerate_antichains(P)
    wrap = {"antichain": lambda J: anti[J._index], "bare": _Bare, "unindexed": _Unindexed}[image]
    step = lambda I: wrap(rowmotion(P, I))  # noqa: E731
    if image == "unindexed":  # the equality path finds every image
        want = as_index_permutation(lambda I: rowmotion(P, I), ideals)
        assert as_index_permutation(step, ideals) == want
        assert as_index_permutation(step, list(ideals)) == want
        assert ([[S.mask for S in o] for o in orbit_partition(step, ideals)]
                == [[S.mask for S in o] for o in orbit_partition(lambda I: rowmotion(P, I), ideals)])
        return
    for kernel in (orbit_partition, as_index_permutation):
        for space in (ideals, list(ideals)):  # canonical, then the equality path alone
            with pytest.raises(ValueError, match="^map leaves the given state space$"):
                kernel(step, space)


def test_a_step_made_before_the_enumeration_returns_canonical_states_after_it():
    from rowmotion.dynamics import gyration_sigma, sigma_order
    from rowmotion.poset import _bits

    P = rectangle(3, 3)
    top = P.max_rank()
    steps = {sigma_order(P, gyration_sigma(P)): gyration(P),
             sigma_order(P, range(top, -1, -1)): rowmotion_sigma(P, range(top, -1, -1)),
             tuple(_bits(P.rank_mask(1))): rank_toggle(P, 1)}
    for order, step in steps.items():  # before: the mask path, no enumeration
        assert step(OrderIdeal(P)).mask == _mask_sweep(P, order, 0)
    assert P._ideal_masks is None
    ideals = enumerate_ideals(P)
    for order, step in steps.items():
        for I in ideals:
            for start in (I, OrderIdeal(P, mask=I.mask)):  # canonical, then fresh
                J = step(start)
                assert J is ideals[P.ideal_index(J.mask)]
                assert J.mask == _mask_sweep(P, order, I.mask)


def test_a_sweep_step_on_the_canonical_ideals_is_read_off_the_cache():
    from rowmotion.dynamics import gyration_sigma, sigma_order
    from rowmotion.poset import _bits

    P = rectangle(3, 3)
    ideals = enumerate_ideals(P)
    steps = {sigma_order(P, gyration_sigma(P)): gyration(P),
             sigma_order(P, (1, 0, 3, 2, 4)): rowmotion_sigma(P, (1, 0, 3, 2, 4)),
             tuple(_bits(P.rank_mask(2))): rank_toggle(P, 2)}
    for order, step in steps.items():
        assert (step.poset, step.order) == (P, order)
        want = as_index_permutation(lambda I: step(I), ideals)  # a lambda: state by state
        assert as_index_permutation(step, list(ideals)) == want  # not canonical: the same
        got = as_index_permutation(step, ideals)
        assert type(got) is list and got == want == list(P.sweep_permutation(order))
    # a step of another poset is not read off P's cache: the per-state path refuses it
    with pytest.raises(ValueError, match="belongs to a different poset"):
        as_index_permutation(gyration(rectangle(3, 3)), ideals)
    # on the canonical ideals no state is stepped at all
    step = gyration(P)
    calls = []
    traced = lambda I: calls.append(I) or step(I)  # noqa: E731
    traced.poset, traced.order = step.poset, step.order
    assert as_index_permutation(traced, ideals) == list(P.sweep_permutation(step.order))
    assert calls == []


# -- the cached orbits of a poset's canonical states -------------------------------------


def _partition_indices(step, space):
    return [[S._index for S in o] for o in orbit_partition(step, space)]


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 7))
def test_cached_orbits_agree_with_the_uncached_kernel_on_every_call(seed, n):
    from rowmotion.dynamics import _sweeper

    rng = random.Random(seed)
    P = random_poset(rng, n)
    ideals, anti = enumerate_ideals(P), enumerate_antichains(P)
    stats = [named_statistic(P, "ideal_card"), named_statistic(P, "antichain_card")]
    orders = [tuple(rng.choices(range(n), k=rng.randint(0, 2 * n))) for _ in range(3)]
    bijection = list(range(len(ideals)))
    rng.shuffle(bijection)
    for _ in range(2):  # the first call fills the cache, the repeat reads it
        for order in orders:
            step = _sweeper(P, order)
            want = permutation_orbits(list(P.sweep_permutation(order)))
            for f in stats:
                for action in (step, lambda I: step(I), P.sweep_permutation(order)):
                    assert homomesy_check(f, action) == report_of_permutation(
                        f, P.sweep_permutation(order))
            assert _partition_indices(step, ideals) == want
            assert _partition_indices(lambda I: step(I), ideals) == want
        want = permutation_orbits(bijection)
        for f in stats:
            assert homomesy_check(f, bijection) == report_of_permutation(f, bijection)
        assert _partition_indices(lambda I: ideals[bijection[I._index]], ideals) == want
        assert _partition_indices(lambda A: anti[bijection[A._index]], anti) == want
    # a list changed between two calls is decomposed by its new contents
    for _ in range(3):
        i, j = rng.randrange(len(bijection)), rng.randrange(len(bijection))
        bijection[i], bijection[j] = bijection[j], bijection[i]
        want = permutation_orbits(bijection)
        assert _partition_indices(lambda I: ideals[bijection[I._index]], ideals) == want
        for f in stats:
            assert homomesy_check(f, bijection) == report_of_permutation(f, bijection)


def test_one_map_shares_one_cache_entry_however_it_is_given():
    from rowmotion.dynamics import _sweeper, index_orbits, rowmotion_order

    P = rectangle(3, 4)
    ideals, anti = enumerate_ideals(P), enumerate_antichains(P)
    f = named_statistic(P, "antichain_card")
    homomesy_check(f, gyration(P))
    assert len(P._orbits) == 1
    homomesy_check(f, lambda I: gyration(P)(I))  # a lambda steps every state
    orbit_partition(gyration(P), ideals)
    assert len(P._orbits) == 1
    homomesy_check(f, lambda I: rowmotion(P, I))
    assert len(P._orbits) == 2
    orbit_partition(_sweeper(P, rowmotion_order(P)), ideals)
    orbit_partition(lambda A: antichain_rowmotion(P, A), anti)  # antichain k = max(ideal k)
    assert len(P._orbits) == 2
    perm = P.sweep_permutation(rowmotion_order(P))
    cycles = index_orbits(P, perm)
    assert index_orbits(P, list(perm)) is cycles
    assert [list(c) for c in cycles] == permutation_orbits(perm)
    # a space that is not canonical decomposes afresh and keeps nothing
    fresh = rectangle(3, 4)
    orbit_partition(lambda I: rowmotion(fresh, I), list(enumerate_ideals(fresh)))
    assert fresh._orbits == {}


_PERM_ERRORS = [
    ([0, 1, 2, 3, 4, 6], "^an index is out of range for 6 states$"),
    ([0, 1, 2, 3, 4, -1], "^an index is out of range for 6 states$"),
    ([0, 1, 2, 3, 4, 2 ** 70], "^an index is out of range for 6 states$"),
    ([1, 0, 3, 2, 5, 5], "^map is not a bijection of the state space$"),
    ([1, 1, 1, 1, 1, 1], "^map is not a bijection of the state space$"),
]


def test_non_permutations_raise_the_same_messages_before_and_after_caching():
    from rowmotion.dynamics import index_orbits

    P = rectangle(2, 2)  # 6 ideals
    ideals = enumerate_ideals(P)
    f = named_statistic(P, "ideal_card")
    for cached in (False, True):
        if cached:
            homomesy_check(f, lambda I: rowmotion(P, I))
            homomesy_check(f, [1, 0, 3, 2, 5, 4])
        for perm, message in _PERM_ERRORS:
            for call in (index_orbits, lambda P, perm: homomesy_check(f, perm)):
                with pytest.raises(ValueError, match=message):
                    call(P, perm)
            if 0 <= min(perm) and max(perm) < 6:  # as the images of a step
                with pytest.raises(ValueError, match=message):
                    orbit_partition(lambda I: ideals[perm[I._index]], ideals)
        assert len(P._orbits) == 2 * cached  # a refused permutation keeps no entry


def test_cached_orbits_under_python_optimize():
    import os
    import subprocess
    import sys

    import rowmotion

    code = (
        "from rowmotion import homomesy_check, named_statistic, rowmotion\n"
        "from rowmotion.dynamics import index_orbits, permutation_orbits\n"
        "from rowmotion.families import rectangle\n"
        "assert False, 'asserts are on'\n"
        "P = rectangle(3, 3)\n"
        "f = named_statistic(P, 'antichain_card')\n"
        "step = lambda I: rowmotion(P, I)\n"
        "first, again = homomesy_check(f, step), homomesy_check(f, step)\n"
        "perm = list(P._rowmotion_perm)\n"
        "sizes = tuple(map(len, permutation_orbits(perm)))\n"
        "print(first == again and first.orbit_sizes == sizes and first.is_homomesic)\n"
        "for bad in (perm[:-1] + [len(perm)], [0] * len(perm)):\n"
        "    try:\n"
        "        index_orbits(P, bad)\n"
        "    except ValueError as exc:\n"
        "        print(exc)\n"
        "print(len(P._orbits))\n"
    )
    src = os.path.dirname(os.path.dirname(rowmotion.__file__))
    out = subprocess.run([sys.executable, "-O", "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == ["True", "an index is out of range for 20 states",
                                       "map is not a bijection of the state space", "1"]
