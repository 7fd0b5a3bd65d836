import pytest

from rowmotion import (
    OrderIdeal,
    enumerate_ideals,
    is_graded,
    maximal_elements,
    poset_isomorphic,
    rank_of,
)
from rowmotion.families import (
    all_minuscule,
    chain_of_vs,
    double_tailed_diamond,
    from_specifier,
    minuscule_E6,
    minuscule_E7,
    rectangle,
    root_poset_A,
    root_poset_B,
    root_poset_D4,
    root_poset_from_cartan,
    shifted_staircase,
    staircase_quotient,
    trapezoid,
    type_b_quotient,
)


def cover_degrees_at_most_two(P):
    return all(
        bin(P.up_covers[x]).count("1") <= 2 and bin(P.down_covers[x]).count("1") <= 2
        for x in range(P.n)
    )


def test_rectangle_basics():
    P = rectangle(2, 2)
    assert P.n == 4 and len(P.covers) == 4
    assert len(enumerate_ideals(P)) == 6
    assert rectangle(1, 1).n == 1
    Q = rectangle(3, 4)
    assert Q.n == 12
    assert len(enumerate_ideals(Q)) == 35
    with pytest.raises(ValueError):
        rectangle(0, 2)


def test_staircase_basics():
    assert shifted_staircase(2).n == 3
    assert poset_isomorphic(shifted_staircase(3), double_tailed_diamond(3))


def test_staircase_quotient_image_is_symmetric_ideals():
    q = staircase_quotient(4)
    rect44 = q.target
    images = set()
    for I in enumerate_ideals(q.source):
        J = q(I)
        # image is an ideal (constructor validates) and is transpose-symmetric
        sym = {rect44.coords[x] for x in J.members}
        assert {(j, i) for i, j in sym} == sym
        images.add(J.mask)
    assert len(images) == len(enumerate_ideals(q.source)) == 16
    symmetric = [
        I.mask
        for I in enumerate_ideals(rect44)
        if {(j, i) for i, j in (rect44.coords[x] for x in I.members)}
        == {rect44.coords[x] for x in I.members}
    ]
    assert images == set(symmetric)


def test_root_poset_A_basics():
    P = root_poset_A(2)
    assert P.n == 3
    assert len(enumerate_ideals(P)) == 5
    assert root_poset_B(1).n == 1


def test_type_b_quotient_commutes_with_max():
    q = type_b_quotient(2)
    for I in enumerate_ideals(q.source):
        J = q(I)  # raises if not an ideal
        lhs = q.mask_image(maximal_elements(I).mask)
        assert lhs == q.target.toggleable_mask(J.mask) & J.mask


def test_double_tailed_diamond():
    assert poset_isomorphic(double_tailed_diamond(2), rectangle(2, 2))
    for n in range(2, 6):
        P = double_tailed_diamond(n)
        assert len(enumerate_ideals(P)) == 2 * n + 2
        ranks = sorted(P.rank)
        expect = sorted(list(range(n - 1)) + [n - 1, n - 1] + list(range(n, 2 * n - 1)))
        assert ranks == expect
    with pytest.raises(ValueError):
        double_tailed_diamond(1)


def test_exceptional_minuscule_invariants():
    from rowmotion import dual

    for P, nideals in ((minuscule_E6(), 27), (minuscule_E7(), 56)):
        assert is_graded(P)
        assert poset_isomorphic(P, dual(P))
        assert cover_degrees_at_most_two(P)
        assert len(enumerate_ideals(P)) == nideals


def test_exceptional_minuscule_decompose():
    from rowmotion import decompose, named_statistic

    for P in (minuscule_E6(), minuscule_E7()):
        dec = decompose(P, named_statistic(P, "antichain_card"))
        assert dec is not None


def test_trapezoid_and_chain_of_vs():
    for n in (2, 3):
        assert poset_isomorphic(trapezoid(n, n), root_poset_B(n))
    V = chain_of_vs(1)
    assert V.n == 3 and len(V.covers) == 2
    with pytest.raises(ValueError):
        trapezoid(3, 2)


def test_root_poset_from_cartan_D4():
    P = root_poset_D4()
    assert P.n == 12
    assert max(bin(m).count("1") for m in P.down_covers) == 3
    assert P.rank is not None  # ranked by height


def test_root_poset_from_cartan_matches_grid_realizations():
    a3 = root_poset_from_cartan([[2, -1, 0], [-1, 2, -1], [0, -1, 2]])
    assert poset_isomorphic(a3, root_poset_A(3))
    b2 = root_poset_from_cartan([[2, -1], [-2, 2]])
    assert poset_isomorphic(b2, root_poset_B(2))


def test_malformed_cartan_rejected():
    with pytest.raises(ValueError):
        root_poset_from_cartan([[2, 1], [1, 2]])
    with pytest.raises(ValueError):
        root_poset_from_cartan([[1]])
    with pytest.raises(ValueError):
        root_poset_from_cartan([[2, -1], [0, 2]])


def test_cover_degree_invariant_per_family():
    bounded = [
        rectangle(3, 4), shifted_staircase(4), root_poset_A(4), root_poset_B(3),
        double_tailed_diamond(4), minuscule_E6(), minuscule_E7(), trapezoid(2, 4),
    ]
    for P in bounded:
        assert cover_degrees_at_most_two(P)
    assert not cover_degrees_at_most_two(root_poset_D4())
    assert not cover_degrees_at_most_two(chain_of_vs(2))


def test_all_minuscule_contents_and_dedup():
    got = all_minuscule(4)
    for probe in (rectangle(1, 1), rectangle(1, 2), rectangle(1, 3), rectangle(1, 4),
                  rectangle(2, 2), double_tailed_diamond(2), shifted_staircase(2)):
        assert any(poset_isomorphic(P, probe) for P in got)
    small = [P for P in all_minuscule(8)]
    for i in range(len(small)):
        for j in range(i + 1, len(small)):
            assert not poset_isomorphic(small[i], small[j])
    assert any(P.name == "E7" for P in all_minuscule(27))
    assert not any(P.name == "E7" for P in all_minuscule(26))


def test_from_specifier(tmp_path):
    import json

    assert from_specifier("rect:2,3").n == 6
    assert from_specifier("E6").n == 16
    assert from_specifier("rootD:4").n == 12
    path = tmp_path / "poset.json"
    path.write_text(json.dumps(shifted_staircase(3).to_dict()))
    assert from_specifier(f"file:{path}").n == 6
    with pytest.raises(ValueError):
        from_specifier("nonsense:1")
    with pytest.raises(ValueError):
        from_specifier("rect:2")


def test_grid_covers_are_exactly_adjacent_pairs():
    for P in (rectangle(3, 3), shifted_staircase(4), root_poset_A(4),
              root_poset_B(3), trapezoid(2, 4)):
        boxes = set(P.coords)
        expect = set()
        for x, (i, j) in enumerate(P.coords):
            for nb in ((i + 1, j), (i, j + 1)):
                if nb in boxes:
                    expect.add((x, P.element_at(nb)))
        assert set(P.covers) == expect
