import random
import weakref
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as hst

from rowmotion import (
    FlavorAlphabet,
    OrderIdeal,
    Poset,
    enumerate_ideals,
    enumerate_labelings,
    labeling_count,
    named_statistic,
    orbit_partition,
    q_homomesy_check,
    q_orbits,
    q_rowmotion,
    q_toggle,
    rowmotion,
    t_q,
)
from rowmotion.families import rectangle, root_poset_A, shifted_staircase
from rowmotion.poset import LinearExtension
from rowmotion.qpoly import CertificateError, Polynomial, RationalFunction, q_number
from rowmotion.poset import CapExceededError
import rowmotion.qrow as qrow
from rowmotion.qrow import QLabeling, check_labeling_count, ideal_mask_of
from rowmotion.statistics import Statistic

from conftest import random_extension, random_poset


def test_alphabet_validation():
    FlavorAlphabet.default(2, 3)
    with pytest.raises(ValueError):
        FlavorAlphabet(1, 1, (0, 1))  # two fixed points, not a 2-cycle
    with pytest.raises(ValueError):
        FlavorAlphabet(1, 2, (1, 0, 2))  # 2-cycle plus fixed point
    with pytest.raises(ValueError):
        FlavorAlphabet(0, 1, (0,))


def test_labelings_with_more_flavors_than_a_byte_holds():
    P = Poset(1, [])
    alphabet = FlavorAlphabet.default(1, 300)
    labels = [L.labels for L in enumerate_labelings(P, alphabet)]
    assert labels == [(300,)] + [(x,) for x in range(300)]
    # the element always acts, and theta is one cycle on the 301 symbols
    assert q_orbits(P, alphabet) == [[(300,)] + [(x,) for x in range(300)]]
    assert qrow._representatives(P, alphabet) == [(301, (300,))]


def test_labeling_counts(monkeypatch):
    A2 = root_poset_A(2)
    assert labeling_count(A2, FlavorAlphabet.default(1, 2)) == 17
    assert len(enumerate_labelings(A2, FlavorAlphabet.default(1, 2))) == 17

    P = rectangle(2, 2)
    assert labeling_count(P, FlavorAlphabet.default(1, 2)) == 35
    assert labeling_count(P, FlavorAlphabet.default(1, 1)) == len(P.ideal_masks())
    assert check_labeling_count(P, 1, 2) == 35
    assert check_labeling_count(Poset(0, []), 5, 7) == 1
    with monkeypatch.context() as m:
        m.setattr(qrow, "DEFAULT_LABELING_CAP", 11)
        with pytest.raises(CapExceededError, match="12 flavor symbols exceed the cap 11"):
            check_labeling_count(Poset(0, []), 5, 7)
        m.setattr(qrow, "DEFAULT_LABELING_CAP", 34)
        with pytest.raises(CapExceededError, match="more than 34 labelings"):
            check_labeling_count(P, 1, 2)
    with pytest.raises(ValueError):
        check_labeling_count(P, 0, 2)


def test_labeling_validation():
    P = rectangle(2, 2)
    alphabet = FlavorAlphabet.default(1, 2)
    with pytest.raises(ValueError):
        QLabeling(P, alphabet, (2, 0, 0, 0))  # zero part is not an ideal
    QLabeling(P, alphabet, (0, 1, 0, 2))


def test_classical_reduction_r_equals_s_equals_one():
    P = rectangle(2, 3)
    alphabet = FlavorAlphabet.default(1, 1)
    labelings = enumerate_labelings(P, alphabet)
    assert len(labelings) == len(P.ideal_masks())
    for L in labelings:
        I = L.ideal()
        out = q_rowmotion(P, alphabet, L)
        assert out.ideal() == rowmotion(P, I)
        for p in range(P.n):
            from rowmotion import toggle

            assert q_toggle(P, alphabet, p, L).ideal() == toggle(P, p, I)
    orbits = q_orbits(P, alphabet)
    classical = orbit_partition(
        lambda I: rowmotion(P, I), enumerate_ideals(P)
    )
    assert sorted(len(o) for o in orbits) == sorted(o.period for o in classical)


def test_inactive_toggle_is_identity_and_active_has_period():
    P = rectangle(2, 2)
    alphabet = FlavorAlphabet.default(2, 3)
    L = enumerate_labelings(P, alphabet)[0]  # all labels the bottom zero flavor
    top = P.element_at((2, 2))
    assert q_toggle(P, alphabet, top, L) == L  # not active: not maximal in ideal
    corner = P.element_at((1, 1))
    cur = L
    seen = [cur.labels[corner]]
    for _ in range(alphabet.r + alphabet.s):
        cur = q_toggle(P, alphabet, corner, cur)
        seen.append(cur.labels[corner])
    assert cur == L
    assert len(set(seen[:-1])) == alphabet.r + alphabet.s


def test_extension_independence():
    P = rectangle(2, 2)
    alphabet = FlavorAlphabet.default(2, 3)
    rng = random.Random(13)
    exts = [LinearExtension(P, random_extension(P, rng)) for _ in range(3)]
    for L in enumerate_labelings(P, alphabet):
        expect = q_rowmotion(P, alphabet, L)
        for ext in exts:
            assert q_rowmotion(P, alphabet, L, extension=ext) == expect


def test_orbits_partition_seventeen_labelings():
    A2 = root_poset_A(2)
    orbits = q_orbits(A2, FlavorAlphabet.default(1, 2))
    assert sum(len(o) for o in orbits) == 17


def test_q_striker_multiple_alphabets_and_thetas():
    rng = random.Random(19)
    P = root_poset_A(2)
    for r, s in ((1, 1), (1, 2), (2, 1), (2, 3)):
        alphabets = [FlavorAlphabet.default(r, s)] + [
            FlavorAlphabet.random(r, s, rng) for _ in range(2)
        ]
        for alphabet in alphabets:
            for p in range(P.n):
                stat = t_q(P, p).specialize(alphabet.q)
                rep = q_homomesy_check(P, alphabet, stat, expected=Fraction(0))
                assert rep.matches_expected


def test_q_striker_with_local_thetas():
    rng = random.Random(23)
    P = shifted_staircase(3)
    alphabet = FlavorAlphabet.default(1, 2)
    local = [FlavorAlphabet.random(1, 2, rng).theta for _ in range(P.n)]
    for p in range(P.n):
        stat = t_q(P, p).specialize(alphabet.q)
        rep = q_homomesy_check(P, alphabet, stat, expected=Fraction(0),
                               local_theta=local)
        assert rep.matches_expected


def test_flavor_cycle_counting_law():
    P = root_poset_A(2)
    for r, s in ((1, 2), (2, 3)):
        alphabet = FlavorAlphabet.default(r, s)
        for orbit in q_orbits(P, alphabet):
            for p in range(P.n):
                tin = tout = 0
                for labels in orbit:
                    mask = ideal_mask_of(labels, alphabet)
                    if mask >> p & 1:
                        if P.up_covers[p] & mask == 0:
                            tout += 1
                    elif P.down_covers[p] & mask == P.down_covers[p]:
                        tin += 1
                # toggle-in events come in groups of r, toggle-out in groups
                # of s, with a common multiplier
                assert tin % r == 0 and tout % s == 0
                assert tin // r == tout // s


def test_example_statistic_is_zero_mesic():
    A2 = root_poset_A(2)
    from rowmotion import t_out

    f = t_out(A2, A2.element_at((1, 2))) - t_out(A2, A2.element_at((2, 1)))
    rep = q_homomesy_check(A2, FlavorAlphabet.default(1, 2), f, expected=Fraction(0))
    assert rep.matches_expected


def test_antichain_value_matches_q_certificate():
    from rowmotion import q_decompose

    for a, b in ((2, 2), (2, 3)):
        P = rectangle(a, b)
        f = named_statistic(P, "antichain_card")
        qdec = q_decompose(P, f)
        for r, s in ((1, 2), (2, 1), (3, 2)):
            rep = q_homomesy_check(P, FlavorAlphabet.default(r, s), f,
                                   expected=qdec.constant)
            assert rep.matches_expected


def test_unreduced_pair_changes_dynamics():
    P = Poset(1, [])
    one_one = q_orbits(P, FlavorAlphabet.default(1, 1))
    two_two = q_orbits(P, FlavorAlphabet.default(2, 2))
    assert sorted(len(o) for o in one_one) == [2]
    assert sorted(len(o) for o in two_two) == [4]


def test_labeling_cap(monkeypatch):
    from rowmotion import CapExceededError

    # the empty and the full ideal alone carry r^n + s^n labelings, so these
    # are refused before any ideal is enumerated
    P = rectangle(11, 11)
    with pytest.raises(CapExceededError, match="more than 2000000 labelings"):
        check_labeling_count(P, 2, 1)
    assert P._ideal_masks is None
    monkeypatch.setattr(qrow, "DEFAULT_LABELING_CAP", 100)
    P = rectangle(3, 3)
    with pytest.raises(CapExceededError, match="more than 100 labelings"):
        enumerate_labelings(P, FlavorAlphabet.default(5, 5))
    assert P._ideal_masks is None


def test_each_q_walk_runs_the_cap_check_once(monkeypatch):
    # the offsets, with their cap check, are built once per call and passed
    # to the rank permutation
    P = rectangle(2, 3)
    alphabet = FlavorAlphabet.default(2, 1)
    f = named_statistic(P, "antichain_card")
    calls = []
    check = qrow.check_labeling_count
    monkeypatch.setattr(qrow, "check_labeling_count",
                        lambda *args: calls.append(args) or check(*args))
    for run in (lambda: q_orbits(P, alphabet), lambda: q_homomesy_check(P, alphabet, f),
                lambda: qrow._representatives(P, alphabet), lambda: enumerate_labelings(P, alphabet)):
        calls.clear()
        run()
        assert calls == [(P, 2, 1)]
    # and once per CLI command, which hands its offsets to the walk
    from rowmotion import cli

    for argv in (["orbits", "rect:2,3", "--variant", "q:2,1"],
                 ["qrow", "--family", "rect:2,3", "--r", "2", "--s", "1",
                  "--stat", "antichain_card"]):
        calls.clear()
        assert cli.main(argv) == 0
        assert [args[1:] for args in calls] == [(2, 1)]
    # the cap check still runs before --theta is read, so its error wins
    for argv in (["orbits", "rect:3,3", "--variant", "q:30,30", "--theta", "bogus"],
                 ["qrow", "--family", "rect:3,3", "--r", "30", "--s", "30",
                  "--theta", "bogus", "--stat", "antichain_card"]):
        assert cli.main(argv) == 3


def test_enumeration_grouped_by_ideal():
    P = rectangle(2, 2)
    alphabet = FlavorAlphabet.default(2, 2)
    labelings = enumerate_labelings(P, alphabet)
    seen_masks = [L.ideal_mask for L in labelings]
    # groups appear contiguously, in canonical ideal order
    order = [m for m in P.ideal_masks() for _ in range(0)]
    boundaries = []
    prev = None
    for m in seen_masks:
        if m != prev:
            boundaries.append(m)
            prev = m
    assert boundaries == list(P.ideal_masks())


def _reference_q_toggle(P, alphabet, p, labels, local_theta=None):
    """The q-toggle at p from its definition, on a label tuple: p acts when
    p is zero-labeled with no upper cover zero-labeled, or p is one-labeled
    with every lower cover zero-labeled."""
    zero = {x for x, label in enumerate(labels) if label < alphabet.s}
    if p in zero:
        active = not any(lo == p and hi in zero for lo, hi in P.covers)
    else:
        active = all(lo in zero for lo, hi in P.covers if hi == p)
    if not active:
        return labels
    theta = alphabet if local_theta is None else local_theta[p]
    theta = getattr(theta, "theta", theta)
    return labels[:p] + (theta[labels[p]],) + labels[p + 1:]


def _reference_q_rowmotion(P, alphabet, labels, local_theta=None, extension=None):
    """Toggle from the top of a linear extension, by default the one that
    takes the smallest available element first."""
    if extension is None:
        extension, left = [], set(range(P.n))
        while left:
            x = min(x for x in left if all(lo not in left for lo, hi in P.covers if hi == x))
            extension.append(x)
            left.remove(x)
    for p in reversed(extension):
        labels = _reference_q_toggle(P, alphabet, p, labels, local_theta)
    return labels


def _reference_orbits(P, alphabet, local_theta=None):
    """q-rowmotion orbits of label tuples by the reference toggle, each
    starting at its first labeling in the order of `enumerate_labelings`."""
    orbits, seen = [], set()
    for L in enumerate_labelings(P, alphabet):
        if L.labels in seen:
            continue
        orbit, cur = [], L.labels
        while cur not in seen:
            seen.add(cur)
            orbit.append(cur)
            cur = _reference_q_rowmotion(P, alphabet, cur, local_theta)
        assert cur == L.labels
        orbits.append(orbit)
    return orbits


@pytest.mark.parametrize("a,b", [(2, 3), (3, 3)])
def test_q_homomesy_check_matches_fraction_recomputation(a, b):
    from rowmotion import parse_statistic

    P = rectangle(a, b)
    rng = random.Random(31)
    f = parse_statistic(P, "2*antichain_card - 1/3*ideal_card + 5/7*pfiber:1")
    for r, s in ((1, 2), (2, 1)):
        alphabet = FlavorAlphabet.random(r, s, rng)
        orbits = q_orbits(P, alphabet)
        assert orbits == _reference_orbits(P, alphabet)
        averages = tuple(
            sum((f.values[P.ideal_index(ideal_mask_of(x, alphabet))] for x in o),
                Fraction(0)) / len(o)
            for o in orbits)
        rep = q_homomesy_check(P, alphabet, f, expected=averages[0])
        assert rep.orbit_averages == averages
        assert rep.orbit_sizes == tuple(len(o) for o in orbits)
        assert rep.is_homomesic == (len(set(averages)) == 1)
        assert rep.matches_expected == rep.is_homomesic


def test_q_orbits_with_local_thetas_match_reference():
    rng = random.Random(41)
    P = shifted_staircase(3)
    alphabet = FlavorAlphabet.default(2, 1)
    local = [FlavorAlphabet.random(2, 1, rng) for _ in range(P.n)]
    assert (q_orbits(P, alphabet, local_theta=local)
            == _reference_orbits(P, alphabet, local_theta=local))


def test_q_walk_raises_when_the_map_is_not_a_bijection(monkeypatch):
    from array import array

    from rowmotion import qrow

    P = rectangle(2, 2)
    alphabet = FlavorAlphabet.default(1, 2)

    # every rank is owned by the first labeling: not injective
    monkeypatch.setattr(qrow, "_q_sweep_permutation",
                        lambda P, alphabet, local_theta, order, offsets:
                        array("i", [0]) * offsets[-1])
    f = named_statistic(P, "antichain_card")
    with pytest.raises(CertificateError, match="bijection"):
        q_homomesy_check(P, alphabet, f)
    with pytest.raises(CertificateError, match="bijection"):
        q_orbits(P, alphabet)


@settings(derandomize=True, max_examples=60, deadline=None, database=None,
          suppress_health_check=list(HealthCheck))
@given(hst.data())
def test_q_kernel_matches_the_reference_toggle(data):
    from rowmotion.statistics import Statistic

    rng = random.Random(data.draw(hst.integers(0, 10 ** 6)))
    P = random_poset(rng, data.draw(hst.integers(0, 7)))
    # small enough for the reference walk
    pairs = [(r, s) for r in (1, 2, 3) for s in (1, 2, 3)
             if labeling_count(P, FlavorAlphabet.default(r, s)) <= 3000]
    r, s = data.draw(hst.sampled_from(pairs))
    alphabet = data.draw(hst.sampled_from(
        [FlavorAlphabet.default(r, s), FlavorAlphabet.random(r, s, rng)]))
    local = None
    if data.draw(hst.booleans()):
        local = [FlavorAlphabet.random(r, s, rng).theta for _ in range(P.n)]

    orbits = q_orbits(P, alphabet, local_theta=local)
    assert orbits == _reference_orbits(P, alphabet, local_theta=local)

    labelings = enumerate_labelings(P, alphabet)
    ext = random_extension(P, rng)
    for L in rng.sample(labelings, min(len(labelings), 12)):
        for p in range(P.n):
            assert q_toggle(P, alphabet, p, L, local_theta=local).labels == (
                _reference_q_toggle(P, alphabet, p, L.labels, local))
        assert q_rowmotion(P, alphabet, L, local_theta=local,
                           extension=LinearExtension(P, ext)).labels == (
            _reference_q_rowmotion(P, alphabet, L.labels, local, ext))

    f = Statistic(P, [rng.randint(-3, 3) for _ in P.ideal_masks()])
    rep = q_homomesy_check(P, alphabet, f, local_theta=local)
    value = dict(zip(P.ideal_masks(), f.values))
    sums = [sum(value[ideal_mask_of(x, alphabet)] for x in o) for o in orbits]
    assert rep.orbit_sizes == tuple(map(len, orbits))
    assert rep.orbit_averages == tuple(Fraction(t, len(o)) for t, o in zip(sums, orbits))


def test_q_steps_refuse_foreign_labelings_and_bad_elements():
    P, big = rectangle(2, 2), rectangle(3, 3)
    alphabet = FlavorAlphabet.default(1, 2)
    foreign = enumerate_labelings(big, alphabet)[5]
    for step in (lambda L: q_rowmotion(P, alphabet, L),
                 lambda L: q_toggle(P, alphabet, 0, L)):
        with pytest.raises(ValueError, match="labeling belongs to a different poset"):
            step(foreign)
    own = enumerate_labelings(P, alphabet)[0]
    for other in (FlavorAlphabet.default(2, 1), FlavorAlphabet.default(1, 3)):
        for step in (lambda L: q_rowmotion(P, other, L),
                     lambda L: q_toggle(P, other, 0, L)):
            with pytest.raises(ValueError, match="other flavor counts"):
                step(own)
    for p in (-1, P.n):
        with pytest.raises(IndexError, match=f"^element {p} out of range$"):
            q_toggle(P, alphabet, p, own)


def test_local_theta_is_checked_at_the_boundary():
    P = rectangle(2, 2)
    alphabet = FlavorAlphabet.default(1, 2)
    L = enumerate_labelings(P, alphabet)[0]
    f = named_statistic(P, "antichain_card")
    cycle = alphabet.theta
    for local in ([(1, 0)] + [cycle] * 3,      # a cycle on too few symbols
                  [cycle] * 3,                  # one cycle too few
                  [(1, 1, 0)] + [cycle] * 3,    # not a permutation
                  [(1, 0, 2)] + [cycle] * 3):   # a 2-cycle and a fixed point
        for call in (lambda: q_toggle(P, alphabet, 3, L, local_theta=local),
                     lambda: q_rowmotion(P, alphabet, L, local_theta=local),
                     lambda: q_orbits(P, alphabet, local_theta=local),
                     lambda: q_homomesy_check(P, alphabet, f, local_theta=local)):
            with pytest.raises(ValueError):
                call()


@settings(derandomize=True, max_examples=60, deadline=None, database=None,
          suppress_health_check=list(HealthCheck))
@given(hst.data())
def test_q_sweep_permutation_matches_the_single_step(data):
    rng = random.Random(data.draw(hst.integers(0, 10 ** 6)))
    P = random_poset(rng, data.draw(hst.integers(0, 7)))
    pairs = [(r, s) for r in (1, 2, 3) for s in (1, 2, 3)
             if labeling_count(P, FlavorAlphabet.default(r, s)) <= 3000]
    r, s = data.draw(hst.sampled_from(pairs))
    alphabet = data.draw(hst.sampled_from(
        [FlavorAlphabet.default(r, s), FlavorAlphabet.random(r, s, rng)]))
    local = None
    if data.draw(hst.booleans()):
        local = [FlavorAlphabet.random(r, s, rng).theta for _ in range(P.n)]

    labelings = enumerate_labelings(P, alphabet)
    position = {L.labels: k for k, L in enumerate(labelings)}
    for order in [tuple(reversed(random_extension(P, rng)))] + [(p,) for p in range(P.n)]:
        owner = qrow._q_sweep_permutation(P, alphabet, local, order, qrow._offsets(P, r, s))
        assert sorted(owner) == list(range(len(labelings)))
        perm = [0] * len(owner)
        for j, k in enumerate(owner):
            perm[k] = j
        # the rank permutation and the single-step loop are two implementations
        for k, L in enumerate(labelings):
            assert perm[k] == position[qrow._q_sweep(P, alphabet, local, order, L).labels]
        if r == s == 1:
            assert perm == list(P.sweep_permutation(order))
    # only each orbit's first labeling is decoded, from its rank
    assert qrow._representatives(P, alphabet, local) == [
        (len(o), o[0]) for o in q_orbits(P, alphabet, local_theta=local)]
    # a single step builds its labeling unchecked, equal to a checked one
    for L in rng.sample(labelings, min(len(labelings), 5)):
        out = q_rowmotion(P, alphabet, L, local_theta=local)
        assert out == QLabeling(P, alphabet, out.labels)
        assert out.ideal_mask == ideal_mask_of(out.labels, alphabet)


@settings(derandomize=True, max_examples=40, deadline=None, database=None,
          suppress_health_check=list(HealthCheck))
@given(hst.data())
def test_walk_table_reads_the_toggle_table(data):
    rng = random.Random(data.draw(hst.integers(0, 10 ** 6)))
    P = random_poset(rng, data.draw(hst.integers(0, 7)))
    r, s = data.draw(hst.sampled_from([(1, 2), (2, 1), (2, 2), (3, 3)]))
    alphabet = FlavorAlphabet.random(r, s, rng)
    masks = P.ideal_masks()
    table = P.toggle_table()
    offsets = qrow._offsets(P, r, s)
    for p in range(P.n):
        # the aligned pairs are exactly where a toggle at p moves an ideal
        pairs = list(zip(table.addable[p], table.removable[p]))
        assert sorted(pairs) == sorted(
            (i, P.ideal_index(P.toggle_mask(p, m))) for i, m in enumerate(masks)
            if not m >> p & 1 and P.toggle_mask(p, m) != m)
        # a toggle at p moves only the labelings on those pairs, within them
        owner = qrow._q_sweep_permutation(P, alphabet, None, (p,), offsets)
        moved = {i for pair in pairs for i in pair}
        for i in range(len(masks)):
            block = range(offsets[i], offsets[i + 1])
            if i not in moved:
                assert list(owner[offsets[i]:offsets[i + 1]]) == list(block)
        for a, b in pairs:
            both = set(range(offsets[a], offsets[a + 1])) | set(range(offsets[b], offsets[b + 1]))
            assert {owner[j] for j in both} == both
    # nothing is kept on the poset, so it is freed at once after a walk
    q_orbits(P, alphabet)
    ref = weakref.ref(P)
    del P
    assert ref() is None


def _rank(P, alphabet, labels, mask):
    """The rank of a labeling: the offset of its zero-labeled ideal, then one
    mixed-radix digit per element, element 0 the most significant."""
    r, s = alphabet.r, alphabet.s
    rank = 0
    for p, x in enumerate(labels):
        R, d = (s, x) if mask >> p & 1 else (r, x - s)
        rank = rank * R + d
    return qrow._offsets(P, r, s)[P.ideal_index(mask)] + rank


@settings(derandomize=True, max_examples=60, deadline=None, database=None,
          suppress_health_check=list(HealthCheck))
@given(hst.data())
def test_rank_is_the_position_in_enumerate_labelings(data):
    rng = random.Random(data.draw(hst.integers(0, 10 ** 6)))
    P = random_poset(rng, data.draw(hst.integers(0, 7)))
    pairs = [(r, s) for r in (1, 2, 3) for s in (1, 2, 3)
             if labeling_count(P, FlavorAlphabet.default(r, s)) <= 3000]
    r, s = data.draw(hst.sampled_from(pairs))
    alphabet = FlavorAlphabet.random(r, s, rng)
    labelings = enumerate_labelings(P, alphabet)
    assert qrow._offsets(P, r, s)[-1] == len(labelings)
    for k, L in enumerate(labelings):
        assert _rank(P, alphabet, L.labels, L.ideal_mask) == k
    # each orbit's first labeling, decoded from its rank, is at that rank
    for (size, labels), orbit in zip(qrow._representatives(P, alphabet), q_orbits(P, alphabet)):
        assert (size, labels) == (len(orbit), orbit[0])
        k = _rank(P, alphabet, labels, ideal_mask_of(labels, alphabet))
        assert labelings[k].labels == labels


def test_q_walk_memory_is_a_byte_per_labeling():
    import tracemalloc

    P = rectangle(3, 4)
    f = named_statistic(P, "antichain_card")
    alphabet = FlavorAlphabet.default(2, 2)
    assert labeling_count(P, alphabet) == 143_360
    tracemalloc.start()
    try:
        q_homomesy_check(P, alphabet, f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


def test_single_q_steps_enumerate_no_ideals():
    P = rectangle(12, 12)
    alphabet = FlavorAlphabet.default(1, 2)
    L = QLabeling(P, alphabet, (2,) * P.n)  # every element labeled 1
    L = q_rowmotion(P, alphabet, L)
    assert L.ideal_mask == 1  # the minimum joined the zero-labeled ideal
    q_toggle(P, alphabet, 0, L)
    assert P._ideal_masks is None


@pytest.mark.parametrize("top, code", [
    (2 ** 7 - 1, "b"), (2 ** 7, "h"), (2 ** 15 - 1, "h"), (2 ** 15, "i"),
    (2 ** 31 - 1, "i"), (2 ** 31, "q"), (2 ** 63 - 1, "q"), (2 ** 63, None)])
@pytest.mark.parametrize("low", [False, True])
def test_q_orbit_sums_match_a_plain_oracle(top, code, low):
    # numerators up to each array type's bound, then one past it, as the
    # largest value or (low) as the least one, -top - 1; the oracle reads
    # each labeling's value off its zero-labeled ideal
    P = rectangle(2, 3)  # 10 ideals
    where = {m: k for k, m in enumerate(P.ideal_masks())}
    rng = random.Random(top)
    nums = [rng.randint(-9, 9) for _ in where]
    nums[rng.randrange(len(nums))] = -top - 1 if low else top
    f = Statistic(P, nums=nums)
    for r, s in ((1, 1), (2, 1), (1, 2), (2, 2)):
        alphabet = FlavorAlphabet.random(r, s, rng)
        want = [(sum(f.nums[where[ideal_mask_of(labels, alphabet)]] for labels in orbit),
                 len(orbit)) for orbit in q_orbits(P, alphabet)]
        report = q_homomesy_check(P, alphabet, f)
        assert report.orbit_sizes == tuple(k for _, k in want)
        assert report.orbit_averages == tuple(Fraction(t, k) for t, k in want)
    values = qrow._rank_values(f.nums, [2, 0, 3] + [1] * 7)
    assert getattr(values, "typecode", None) == code
    assert list(values) == [nums[0]] * 2 + [nums[2]] * 3 + nums[3:]
