import itertools
import random
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import HealthCheck, given, settings, strategies as hst

from rowmotion import (
    Poset,
    Statistic,
    antichain_span_dim,
    decompose,
    enumerate_ideals,
    homomesy_check,
    named_statistic,
    orbit_partition,
    q_decompose,
    rowmotion,
    rowmotion_sigma,
    t_signed,
    toggleability_space_dims,
    verify_independence,
)
from rowmotion.families import (
    chain_of_vs,
    double_tailed_diamond,
    rectangle,
    root_poset_A,
    root_poset_D4,
    shifted_staircase,
    trapezoid,
)
from rowmotion.linalg import factor
from rowmotion.qpoly import Polynomial, RationalFunction, q_number
from rowmotion.statistics import QRATIONAL, RATIONAL, indicator_ideal, t_out

from conftest import random_poset

q = Polynomial((0, 1))  # q itself, in Z[q]


def chain(n):
    return Poset(n, [(k, k + 1) for k in range(n - 1)])


def test_square_certificates_match_known_coefficients():
    P = rectangle(2, 2)
    dec = decompose(P, named_statistic(P, "ideal_card"))
    assert dec.constant == 2
    assert dec.coeffs == (Fraction(-2), Fraction(-3, 2), Fraction(-3, 2), Fraction(-2))
    dec = decompose(P, named_statistic(P, "antichain_card"))
    assert dec.constant == 1
    assert dec.coeffs == (Fraction(-1), Fraction(-1, 2), Fraction(-1, 2), Fraction(0))


def test_rectangle_antichain_closed_form_coefficients():
    for a in range(1, 6):
        for b in range(1, 6):
            P = rectangle(a, b)
            dec = decompose(P, named_statistic(P, "antichain_card"))
            assert dec.constant == Fraction(a * b, a + b)
            for p, (i, j) in enumerate(P.coords):
                expect = Fraction(
                    a * b - a * (b + 1 - j) - b * (a + 1 - i), a + b
                )
                assert dec.coeffs[p] == expect


def test_decompose_absent_on_bad_posets():
    for P in (root_poset_D4(), trapezoid(2, 3), chain_of_vs(2)):
        assert decompose(P, named_statistic(P, "antichain_card")) is None


def test_decompose_implies_homomesy_under_all_rank_permutations():
    import itertools

    P = shifted_staircase(3)
    f = named_statistic(P, "antichain_card")
    dec = decompose(P, f)
    rep = homomesy_check(f, lambda I: rowmotion(P, I))
    assert rep.is_homomesic and rep.constant == dec.constant
    for sigma in itertools.permutations(range(P.max_rank() + 1)):
        rep = homomesy_check(f, rowmotion_sigma(P, sigma))
        assert rep.is_homomesic and rep.constant == dec.constant


def _sparse(rows):
    """Dense integer rows as the kernel's sparse rows {column: entry}."""
    return [{c: v for c, v in enumerate(row) if v} for row in rows]


def _solve(rows, rhs):
    """The unique solution of the integer system rows . x = rhs, by the kernel."""
    fact = factor(_sparse(rows), len(rows[0]))
    return [Fraction(v, fact.det) for v in fact.replay([rhs[i] for i in fact.rows])]


def test_certificate_uniqueness_under_row_permutation():
    P = rectangle(2, 3)
    f = named_statistic(P, "ideal_card")
    columns = [[1] * len(P.ideal_masks())] + [
        [int(v) for v in t_signed(P, p).values] for p in range(P.n)
    ]
    rows = [list(row) for row in zip(*columns)]
    rhs = [int(v) for v in f.values]
    base = _solve(rows, rhs)
    dec = decompose(P, f)
    assert base == [dec.constant, *dec.coeffs]
    rng = random.Random(3)
    for _ in range(5):
        perm = list(range(len(rows)))
        rng.shuffle(perm)
        assert _solve([rows[i] for i in perm], [rhs[i] for i in perm]) == base


def _leibniz_det(rows):
    import itertools

    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        term = -1 if sum(perm[i] > perm[j] for i in range(n)
                         for j in range(i + 1, n)) % 2 else 1
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


def _rank(rows):
    """Rank over Q by Gaussian elimination on Fractions: a reference that
    shares no code with the kernel in linalg."""
    rows = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        top = rows[rank]
        for r in range(rank + 1, len(rows)):
            if rows[r][c]:
                m = rows[r][c] / top[c]
                rows[r] = [a - m * b for a, b in zip(rows[r], top)]
        rank += 1
    return rank


def _solves(rows, rhs, det, y):
    return all(sum(a * v for a, v in zip(row, y)) == det * b for row, b in zip(rows, rhs))


def test_fraction_free_solve_matches_rational_solve():
    rng = random.Random(11)
    singular = 0
    for _ in range(60):
        n = rng.randint(1, 6)
        rows = [[rng.choice((0, 0, 1, -1, rng.randint(-9, 9))) for _ in range(n)]
                for _ in range(n)]
        rhs = [rng.randint(-9, 9) for _ in range(n)]
        fact = factor(_sparse(rows), n)
        det = _leibniz_det(rows)
        if fact.det == 0:
            assert det == 0
            singular += 1
            continue
        assert fact.det == det
        assert _solves(rows, rhs, det, fact.replay(rhs))
    assert 0 < singular < 60
    # a zero leading entry needs a row swap, which flips the sign of det
    fact = factor([{1: 1}, {0: 1}], 2)
    assert (fact.det, fact.replay([2, 3])) == (-1, [-3, -2])


def test_tall_factor_pivots_on_independent_rows():
    rng = random.Random(12)
    deficient = 0
    for _ in range(60):
        n = rng.randint(1, 5)
        rows = [[rng.choice((0, 0, 0, 1, -1, rng.randint(-4, 4))) for _ in range(n)]
                for _ in range(rng.randint(n, 2 * n + 2))]
        rhs = [rng.randint(-9, 9) for _ in rows]
        fact = factor(_sparse(rows), n)
        # the pivot rows are the first independent rows, in input order
        assert list(fact.rows) == [i for i in range(len(rows))
                                   if _rank(rows[:i + 1]) > _rank(rows[:i])]
        if _rank(rows) < n:
            assert fact.det == 0
            deficient += 1
            continue
        # and det is their determinant
        assert fact.det == _leibniz_det([rows[i] for i in fact.rows])
        b = [rhs[i] for i in fact.rows]
        assert _solves([rows[i] for i in fact.rows], b, fact.det, fact.replay(b))
    assert 0 < deficient < 60


def test_factor_rank_on_wide_and_deficient_matrices():
    rng = random.Random(13)
    deficient = 0
    for _ in range(80):
        n = rng.randint(1, 7)
        rank = rng.randint(0, n)
        # products of random m x rank and rank x n factors: rank at most `rank`,
        # and wide whenever fewer than n rows are drawn
        left = [[rng.randint(-3, 3) for _ in range(rank)] for _ in range(rng.randint(1, n + 2))]
        right = [[rng.choice((0, 0, 1, -1, rng.randint(-5, 5))) for _ in range(n)]
                 for _ in range(rank)]
        rows = [[sum(a * right[k][c] for k, a in enumerate(row)) for c in range(n)]
                for row in left]
        fact = factor(_sparse(rows), n)
        want = _rank(rows)
        assert len(fact.rows) == want
        assert (fact.det == 0) == (want < n)
        deficient += want < n
    assert 0 < deficient < 80


def _fraction_elimination(rows, n):
    """(the indices of the first independent rows, at most n, and their
    determinant, or 0 when there are fewer than n) by Gaussian elimination
    on Fractions: a reference that shares no code with the kernel."""
    basis, kept = [], []  # reduced rows with their pivot columns
    for i, row in enumerate(rows):
        if len(kept) == n:
            break
        r = [Fraction(v) for v in row]
        for c, b in basis:
            if r[c]:
                m = r[c] / b[c]
                r = [x - m * y for x, y in zip(r, b)]
        c = next((c for c, v in enumerate(r) if v), None)
        if c is not None:
            basis.append((c, r))
            kept.append(i)
    if len(kept) < n:
        return kept, 0
    m = [[Fraction(v) for v in rows[i]] for i in kept]
    det = Fraction(1)
    for c in range(n):
        piv = next(r for r in range(c, n) if m[r][c])
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return kept, det


_MATRICES = hst.integers(0, 5).flatmap(lambda n: hst.tuples(
    hst.just(n),
    hst.lists(hst.lists(hst.sampled_from((0, 0, 0, 1, -1, 2, -3, 7)), min_size=n, max_size=n),
              max_size=2 * n + 2),  # tall, square, wide, empty, with zero rows
    hst.lists(hst.integers(-9, 9), min_size=2 * n + 2, max_size=2 * n + 2)))


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(_MATRICES)
def test_sparse_kernel_matches_fraction_elimination(case):
    n, rows, rhs = case
    fact = factor(_sparse(rows), n)
    kept, det = _fraction_elimination(rows, n)
    assert list(fact.rows) == kept and fact.det == det
    if det:
        b = [rhs[i] for i in kept]
        assert _solves([rows[i] for i in kept], b, det, fact.replay(b))


@hst.composite
def _low_rank(draw):
    """(n, the product of an m x r and an r x n integer matrix): rank <= r."""
    n, r, m = draw(hst.integers(0, 6)), draw(hst.integers(0, 4)), draw(hst.integers(0, 8))
    left = draw(hst.lists(hst.lists(hst.integers(-3, 3), min_size=r, max_size=r),
                          min_size=m, max_size=m))
    right = draw(hst.lists(hst.lists(hst.sampled_from((0, 0, 1, -1, 2, -5)),
                                     min_size=n, max_size=n), min_size=r, max_size=r))
    return n, [[sum(a * b[c] for a, b in zip(row, right)) for c in range(n)] for row in left]


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(hst.one_of(_MATRICES.map(lambda case: case[:2]), _low_rank()))
def test_kernel_basis_spans_the_null_space(case):
    # tall, wide, empty and rank-deficient integer matrices
    n, rows = case
    basis = factor(_sparse(rows), n).kernel(n)
    assert all(len(x) == n and all(isinstance(v, int) for v in x) for x in basis)
    assert all(sum(a * v for a, v in zip(row, x)) == 0 for row in rows for x in basis)
    assert len(basis) == n - _rank(rows)
    assert _rank(basis) == len(basis)  # independent


def test_kernel_refuses_an_inexact_back_substitution():
    from rowmotion.linalg import Factorization
    from rowmotion.qpoly import CertificateError

    # no factorization makes this pivot row, whose last pivot 2 is not a
    # multiple of the pivot 3 it divides by
    fact = Factorization((0, 1), ({0: 3, 2: 1}, {1: 2, 2: 1}), (0, 1), ((), ()), 0, 0)
    with pytest.raises(CertificateError, match="inexact back-substitution at column 0"):
        fact.kernel(3)


def _value(p, z):
    """An int, or a Polynomial at q = z."""
    return p if isinstance(p, int) else sum(c * z ** k for k, c in enumerate(p.coeffs))


_ENTRY = hst.sampled_from((0, 0, 0, 1, -1, 2, -3))
_Q_SYSTEMS = hst.integers(0, 5).flatmap(lambda n: hst.tuples(
    hst.lists(hst.lists(hst.tuples(_ENTRY, _ENTRY), min_size=n, max_size=n),
              min_size=n, max_size=n),  # [plus, minus] pairs of a square system
    hst.lists(hst.tuples(hst.integers(-9, 9), hst.integers(-9, 9)), min_size=n, max_size=n)))


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(_Q_SYSTEMS)
def test_kernel_over_zq_matches_the_integer_kernel_at_each_point(case):
    mod = _q_module()
    pairs, rhs = case
    n = len(pairs)
    rows = [{j: list(pair) for j, pair in enumerate(row) if any(pair)} for row in pairs]
    over_zq = factor(mod._at(rows, q), n)
    y = over_zq.replay([a + b * q for a, b in rhs]) if over_zq.det else None
    for z in range(4):
        at_z = factor(mod._at(rows, z), n)
        assert _value(over_zq.det, z) == at_z.det
        if at_z.det:
            want = at_z.replay([a + b * z for a, b in rhs])
            assert [_value(v, z) for v in y] == want


def test_random_in_span_statistics_recovered():
    P = shifted_staircase(3)
    rng = random.Random(5)
    for _ in range(10):
        const = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        coeffs = [
            Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(P.n)
        ]
        stat = None
        from rowmotion import constant_statistic

        stat = constant_statistic(P, const)
        for p, c in enumerate(coeffs):
            stat = stat + c * t_signed(P, p)
        dec = decompose(P, stat)
        assert dec.constant == const
        assert list(dec.coeffs) == coeffs


def test_decompose_rejects_q_statistics():
    P = rectangle(2, 2)
    from rowmotion import t_q

    with pytest.raises(ValueError):
        decompose(P, t_q(P, 0))


def test_q_decompose_rectangle_values():
    for a in range(1, 5):
        for b in range(1, 5):
            P = rectangle(a, b)
            dec = q_decompose(P, named_statistic(P, "antichain_card"))
            assert dec.constant == RationalFunction(
                q_number(a) * q_number(b), q_number(a + b)
            )
            for i in range(1, a + 1):
                dec = q_decompose(P, named_statistic(P, f"pfiber:{i}"))
                expect = RationalFunction(
                    Polynomial.q_power(a - i) * q_number(b), q_number(a + b)
                )
                assert dec.constant == expect


def test_q_decompose_staircase_values():
    from rowmotion.qpoly import q_binomial

    for n in range(1, 5):
        P = shifted_staircase(n)
        dec = q_decompose(P, named_statistic(P, "diag"))
        assert dec.constant == RationalFunction(
            Polynomial((1,)), Polynomial((1, 1))
        )
        dec = q_decompose(P, named_statistic(P, "antichain_card"))
        assert dec.constant == q_binomial(n + 1, 2) / RationalFunction(q_number(2 * n))


def test_q_decompose_ideal_card_absent_on_squares():
    for a, b in ((2, 2), (2, 3), (3, 3)):
        P = rectangle(a, b)
        assert q_decompose(P, named_statistic(P, "ideal_card")) is None


def test_q_certificates_specialize_to_classical():
    for P in (rectangle(2, 3), shifted_staircase(3)):
        f = named_statistic(P, "antichain_card")
        qdec = q_decompose(P, f)
        dec = decompose(P, f)
        assert qdec.constant.evaluate(1) == dec.constant
        for cq, c in zip(qdec.coeffs, dec.coeffs):
            assert cq.evaluate(1) == c


def test_verify_independence():
    P = rectangle(2, 2)
    for z in (0, Fraction(1, 2), 1, 2):
        assert verify_independence(P, z)
    two = Poset(2, [])
    assert verify_independence(two, 1)
    with pytest.raises(ValueError):
        verify_independence(P, -1)


def _independent_on_ideals(P, z):
    """Whether [1] and the T+_p - z*T-_p are independent as rows over the
    ideals, by the Fraction rank `_rank`, with addable and removable read
    off the masks."""
    masks = P.ideal_masks()
    rows = [[1] * len(masks)]
    for p in range(P.n):
        bit = 1 << p
        rows.append([
            (1 if not m & bit and m & P.down_covers[p] == P.down_covers[p] else 0)
            - (z if m & bit and not m & P.up_covers[p] else 0)
            for m in masks])
    return _rank(rows) == P.n + 1


def test_verify_independence_matches_the_ideal_rank(roster):
    rng = random.Random(13)
    posets = [P for _, P in roster] + [random_poset(rng, rng.randint(0, 8))
                                       for _ in range(200)]
    for P in posets:
        for z in (0, Fraction(1, 2), 1, 2, Fraction(7, 3)):
            assert verify_independence(P, z) == _independent_on_ideals(P, z)


def test_verify_independence_enumerates_no_ideal():
    import time

    P = rectangle(12, 12)
    start = time.perf_counter()
    assert verify_independence(P, Fraction(7, 3)) is True
    assert time.perf_counter() - start < 2
    assert P._ideal_masks is None


def test_chain_span_is_everything():
    # on a chain, 1 and the signed toggleabilities span the whole space
    rng = random.Random(9)
    P = chain(4)
    values = [Fraction(rng.randint(-9, 9)) for _ in P.ideal_masks()]
    stat = Statistic(P, values, kind=RATIONAL, label="random")
    assert decompose(P, stat) is not None


def test_toggleability_space_dims_examples():
    single = rectangle(1, 1)
    dims = toggleability_space_dims(single)
    assert dims["dim_A"] == 1 and dims["dim_I"] == 1

    dims = toggleability_space_dims(rectangle(2, 3))
    assert dims == {"dim_A": 4, "dim_I": 4, "dim_A_q": 4, "dim_I_q": 2}

    dims = toggleability_space_dims(root_poset_A(3))
    assert dims == {"dim_A": 3, "dim_I": 3, "dim_A_q": 1, "dim_I_q": 0}


def _classical_dims(P):
    """dim_A and dim_I from the rank formula n - (rank(M + obs) - rank(M)),
    with M the rows 1, T_0, ..., T_{n-1}, by the Fraction reference rank."""
    base = [[1] * len(P.ideal_masks())] + [t_signed(P, p).values for p in range(P.n)]
    out_rows = [t_out(P, p).values for p in range(P.n)]
    ind_rows = [[m >> p & 1 for m in P.ideal_masks()] for p in range(P.n)]
    rank_m = _rank(base)
    return {"dim_A": P.n - (_rank(base + out_rows) - rank_m),
            "dim_I": P.n - (_rank(base + ind_rows) - rank_m)}


# (n, covers) -> toggleability_space_dims, recorded before the dimensions
# were computed from the certificate system; the first is the affine D4 star,
# whose rows at {} and the singletons fall short of full rank
TABLE2_OFF_FAMILY = [
    ((6, [(0, 1), (1, 2), (1, 3), (1, 5)]), (5, 5, 4, 4)),
    ((6, [(0, 1), (1, 2), (2, 5), (4, 5)]), (5, 5, 2, 2)),
    ((3, [(1, 2)]), (3, 3, 3, 3)),
    ((6, [(0, 5), (1, 5), (2, 5), (4, 5)]), (5, 5, 4, 4)),
    ((6, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (3, 5)]), (4, 4, 2, 2)),
    ((7, [(0, 2), (0, 3), (1, 4), (3, 4), (3, 6), (5, 6)]), (3, 3, 0, 0)),
    ((4, [(0, 2), (0, 3), (1, 2), (1, 3)]), (2, 2, 2, 2)),
    ((7, [(0, 1), (0, 6), (1, 3), (1, 5), (2, 3), (2, 5), (3, 4)]), (4, 4, 1, 1)),
    ((7, [(0, 3), (0, 6), (1, 3), (1, 4), (4, 5)]), (4, 4, 1, 1)),
]


def test_toggleability_space_dims_off_the_families():
    rng = random.Random(2024)
    for k, ((n, covers), want) in enumerate(TABLE2_OFF_FAMILY):
        P = Poset(n, covers)
        if k:  # the rest are the seeded random posets, in order
            assert P.covers == random_poset(rng, rng.randint(3, 7)).covers
        dims = toggleability_space_dims(P)
        assert tuple(dims.values()) == want, covers
        assert list(dims) == ["dim_A", "dim_I", "dim_A_q", "dim_I_q"]
        assert {k: dims[k] for k in ("dim_A", "dim_I")} == _classical_dims(P), covers


def _table2_from_every_observable(P):
    """The four Table 2 dimensions from the residuals of all n observables
    of each space, replayed over Z and over Z[q], each n minus the rank of
    its residual rows: a reference that takes no kernel, and whose Z[q]
    replays and residuals run in `Polynomial`s, with no packing."""
    mod = _q_module()
    system = mod._system(P)
    dims = {}
    for name, observables in (
            ("A", [{A: minus for A, (_, minus) in col.items() if minus}
                   for col in system.columns[1:]]),
            ("I", [{1 << p: 1} for p in range(P.n)])):
        rows = mod._residual_rows(P, observables)
        dims[f"dim_{name}"] = P.n - len(factor(rows, P.n).rows)
        fact, q_rows = _pivots_over_zq(system), {}  # one row per monomial and power of q
        for j, obs in enumerate(observables):
            r = mod._residual(P, {A: fact.det * v for A, v in obs.items()},
                              fact.replay([obs.get(A, 0) for A in system.pivots]), q)
            for A, v in r.items():
                for k, c in enumerate(v.coeffs):
                    if c:
                        q_rows.setdefault((A, k), {})[j] = c
        dims[f"dim_{name}_q"] = P.n - len(factor(list(q_rows.values()), P.n).rows)
    return {k: dims[k] for k in ("dim_A", "dim_I", "dim_A_q", "dim_I_q")}


TABLE2_DIFFERENTIAL = (
    "rect:1,1", "rect:2,3", "rect:3,3", "rect:2,5", "rect:1,6", "rect:4,5", "rect:5,5",
    "sstair:3", "sstair:5", "rootA:3", "rootA:6", "rootB:3", "rootB:5", "trap:2,4",
    "trap:3,5", "E6", "E7", "dtd:4", "rootD:4", "vchain:3",
)


def test_table2_from_the_kernel_matches_every_observable():
    import contextlib
    import hashlib
    import io

    from rowmotion.cli import main
    from rowmotion.families import from_specifier

    # only the kernel at q = 1 is replayed over Z[q]; the dimensions are
    # those of all n observables, on the families and on random posets
    rng = random.Random(26)
    posets = [from_specifier(spec) for spec in TABLE2_DIFFERENTIAL]
    posets += [random_poset(rng, rng.randint(0, 7)) for _ in range(80)]
    for P in posets:
        assert toggleability_space_dims(P) == _table2_from_every_observable(P), P.covers
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["verify", "table2", "--max", "6"])
    # the digest of the stdout before the kernel at q = 1 was used
    assert hashlib.sha256(f"{code}\n{buf.getvalue()}".encode()).hexdigest() == (
        "c83f86dc95ccaf2051246f53b7ee9e49769d801716695077fd01c1ef6def9bef")


def test_toggleability_space_dims_are_bounded_before_they_start(monkeypatch):
    import time

    from rowmotion import linalg
    from rowmotion.poset import CapExceededError

    # rect:6,6 answers at the default cap; at this one its system is
    # factored and its kernels at q = 1 are found (17 856 estimated updates),
    # and the 22 replays at q = 2^B that they leave (36 388) are refused
    # before they start
    monkeypatch.setattr(linalg, "WORK_CAP", 30_000)
    start = time.perf_counter()
    with pytest.raises(CapExceededError,
                       match="toggleability space dimensions in 22 replays over Z.q. "
                             ".* WORK_CAP = 30000"):
        toggleability_space_dims(rectangle(6, 6))
    assert time.perf_counter() - start < 1
    # and at a lower cap, so are the 72 replays at q = 1 that find the kernels
    monkeypatch.setattr(linalg, "WORK_CAP", 10_000)
    with pytest.raises(CapExceededError,
                       match="toggleability space dimensions in 72 replays takes"):
        toggleability_space_dims(rectangle(6, 6))


@pytest.mark.parametrize("a, estimate", [(53, 10_280_622), (60, 16_426_440)])
def test_q_solve_estimate_admits_the_frontier(a, estimate, monkeypatch):
    from rowmotion import linalg

    # the Q(q) solve of rect:a,a antichain_card, sized once its pivot rows
    # are factored over Z[q]: e = 2a coefficients per entry and per step,
    # and e^2/4 + e per coefficient put in lowest terms, under the default
    # cap (rect:53,53 read 33 662 632 at e^2 per coefficient); the solve
    # itself is not run
    mod, seen = _q_module(), []
    monkeypatch.setattr(mod, "check_work",
                        lambda work, what: seen.append(work) or linalg.check_work(work, what))

    def stop(*args, **kwargs):
        raise LookupError("the replay was reached")

    monkeypatch.setattr(mod, "_replay_at_q", stop)
    P = rectangle(a, a)
    with pytest.raises(LookupError, match="the replay was reached"):
        q_decompose(P, named_statistic(P, "antichain_card"))
    assert seen == [estimate] and estimate < linalg.WORK_CAP


def test_antichain_span_dims():
    P = rectangle(2, 2)
    assert antichain_span_dim(P) == 4
    for n in (2, 3, 4):
        assert antichain_span_dim(chain(n)) == n
    for n in (3, 4, 5):
        # the signed single-element statistics already span the 0-mesic space
        D = double_tailed_diamond(n)
        ideals = enumerate_ideals(D)
        orbits = orbit_partition(lambda I: rowmotion(D, I), ideals)
        assert antichain_span_dim(D) == len(ideals) - len(orbits)
        rows = [t_signed(D, p).values for p in range(D.n)]
        assert _rank(rows) == len(ideals) - len(orbits)


def test_antichain_span_cap(monkeypatch):
    import time

    from rowmotion import CapExceededError, linalg

    # the rank over the 924 ideals of rect:6,6 updates about 3 million
    # entries, past this cap
    monkeypatch.setattr(linalg, "WORK_CAP", 100_000)
    start = time.perf_counter()
    with pytest.raises(CapExceededError, match="WORK_CAP = 100000"):
        antichain_span_dim(rectangle(6, 6))
    assert time.perf_counter() - start < 1


def test_antichain_span_frontier():
    P = rectangle(6, 6)
    ideals = enumerate_ideals(P)
    orbits = orbit_partition(lambda I: rowmotion(P, I), ideals)
    assert antichain_span_dim(P) == len(ideals) - len(orbits) == 844


def test_certificate_json():
    P = rectangle(2, 2)
    dec = decompose(P, named_statistic(P, "antichain_card"))
    data = dec.to_json_dict()
    assert data["verified"] is True
    assert data["constant"] == "1/1"
    assert data["coeffs"]["1"] == "-1/2"
    qdec = q_decompose(P, named_statistic(P, "antichain_card"))
    qdata = qdec.to_json_dict()
    assert qdata["kind"] == "q"
    assert qdata["constant"]["num"] == ["1/1", "1/1"]
    assert qdata["constant"]["den"] == ["1/1", "0/1", "1/1"]


# -- row selection and the single certificate check ---------------------------

LADDER = ("rect:2,3", "rect:3,4", "sstair:4", "rootA:4", "rootB:3", "dtd:4", "E6")
NOT_IN_SPAN = ("rootD:4", "trap:2,3", "trap:2,4", "vchain:2", "vchain:3")


def _ladder_statistics():
    from rowmotion.families import from_specifier

    for spec in LADDER:
        P = from_specifier(spec)
        for kind in ("antichain_card", "ideal_card"):
            yield spec, P, named_statistic(P, kind)


def _not_in_span_statistics():
    from rowmotion.families import from_specifier

    for spec in NOT_IN_SPAN:
        P = from_specifier(spec)
        yield spec, P, named_statistic(P, "antichain_card")
    P = rectangle(3, 3)
    yield "rect:3,3 centre", P, 2 * indicator_ideal(P, P.element_at((2, 2)))


def _spy_on_factor(monkeypatch):
    """Record the number of rows of each factorization decompose runs."""
    import importlib

    mod = importlib.import_module("rowmotion.decompose")
    calls = []

    def spy(rows, n):
        calls.append(len(rows))
        return factor(rows, n)

    monkeypatch.setattr(mod, "factor", spy)
    return mod, calls


def _answer(dec):
    return None if dec is None else (dec.constant, dec.coeffs)


def _monomial_rows(P):
    """The number of monomials the certificate system of P touches: {},
    every singleton, every lower-cover set and every nonempty set of upper
    covers of one element."""
    rows = {0} | {1 << p for p in range(P.n)} | set(P.down_covers)
    for up in P.up_covers:
        rows |= {sum(1 << q for q, keep in zip(_members(up), bits) if keep)
                 for bits in itertools.product((0, 1), repeat=up.bit_count())}
    return len(rows)


def _members(mask):
    return [q for q in range(mask.bit_length()) if mask >> q & 1]


def test_monomial_rows_reach_full_rank(monkeypatch):
    mod, calls = _spy_on_factor(monkeypatch)
    seen = set()
    for spec, P, f in _ladder_statistics():
        calls.clear()
        dec = decompose(P, f)
        assert dec is not None or f.label == "ideal_card", spec
        if spec in seen:  # a second statistic on the poset factors nothing
            assert calls == [], spec
        else:
            assert calls == [_monomial_rows(P)], spec
        seen.add(spec)
    for spec, P, f in _not_in_span_statistics():
        calls.clear()
        assert decompose(P, f) is None, spec
        assert len(calls) == 1, spec


def _ideal_answer(P, f, z=Fraction(1)):
    """[c, c_0, ..., c_{n-1}] at q = z from the rows 1, T^z_p at every ideal,
    by Fraction elimination that shares no code with the solver, or None
    when f at q = z is outside their span."""
    base = [[1] * len(P.ideal_masks())] + [
        [v if v >= 0 else z * v for v in t_signed(P, p).values] for p in range(P.n)]
    values = [v.evaluate(z) if isinstance(v, RationalFunction) else v for v in f.values]
    if _rank(base + [values]) > _rank(base):
        return None
    rows = list(zip(*base))
    k = len(base)
    # the normal equations, square and nonsingular as the columns are independent
    m = [[sum(r[i] * r[j] for r in rows) for j in range(k)]
         + [sum(r[i] * v for r, v in zip(rows, values))] for i in range(k)]
    for c in range(k):
        piv = next(r for r in range(c, k) if m[r][c])
        m[c], m[piv] = m[piv], m[c]
        m[c] = [Fraction(a) / m[c][c] for a in m[c]]
        for r in range(k):
            if r != c and m[r][c]:
                m[r] = [a - m[r][c] * b for a, b in zip(m[r], m[c])]
    return [row[-1] for row in m]


def _at(dec, z=Fraction(1)):
    """The certificate of `dec` at q = z as a list, or None."""
    if dec is None:
        return None
    return [c.evaluate(z) if isinstance(c, RationalFunction) else Fraction(c)
            for c in (dec.constant, *dec.coeffs)]


def test_ideal_rows_give_same_answers():
    for spec, P, f in [*_ladder_statistics(), *_not_in_span_statistics()]:
        assert _at(decompose(P, f)) == _ideal_answer(P, f), spec


def test_affine_d4_star_certificates():
    """The affine D4 star: its rows at {} and the singletons have rank n <
    n+1, so a monomial of upper covers completes the system."""
    import importlib

    from rowmotion import constant_statistic, t_q
    from rowmotion.statistics import QRATIONAL

    mod = importlib.import_module("rowmotion.decompose")
    P = Poset(6, [(0, 1), (1, 2), (1, 3), (1, 5)])  # element 4 is isolated
    f = constant_statistic(P, Fraction(3, 2)) + 2 * t_signed(P, 1)
    f = f - Fraction(1, 3) * t_signed(P, 4)
    dec = decompose(P, f)
    system = mod._system(P)
    small = [{j: col[A] for j, col in enumerate(system.columns) if A in col}
             for A in [0, *(1 << p for p in range(P.n))]]
    assert len(factor(mod._at(small, 1), P.n + 1).rows) == P.n
    assert max(A.bit_count() for A in system.pivots) >= 2
    assert dec.constant == Fraction(3, 2)
    assert dec.coeffs == (0, 2, 0, 0, Fraction(-1, 3), 0)
    q = RationalFunction.q()
    fq = Statistic(P, [RationalFunction.const(Fraction(3, 2))] * len(P.ideal_masks()),
                   kind=QRATIONAL)
    fq = fq + (q + 1) * t_q(P, 1) - Fraction(1, 3) * t_q(P, 4)
    qdec = q_decompose(P, fq)
    assert qdec.constant == Fraction(3, 2)
    assert qdec.coeffs == (0, q + 1, 0, 0, Fraction(-1, 3), 0)
    g = named_statistic(P, "antichain_card")
    assert decompose(P, g) is None and q_decompose(P, g) is None


def test_wrong_candidate_fails_the_check():
    import importlib

    mod = importlib.import_module("rowmotion.decompose")
    P = rectangle(3, 3)
    f = named_statistic(P, "antichain_card")
    dec = decompose(P, f)
    sol = [dec.constant, *dec.coeffs]
    mono, den = mod._monomials(P, f)
    values = {A: Fraction(v, den) for A, v in mono.items()}
    assert mod._is_certificate(P, values, sol)
    for k in range(len(sol)):
        bad = list(sol)
        bad[k] += Fraction(1, 7)
        assert not mod._is_certificate(P, values, bad)


def test_reconstruction_matches_statistic():
    for _, P, f in _ladder_statistics():
        dec = decompose(P, f)
        assert dec is None or dec.reconstruction() == f.values
    P = rectangle(2, 3)
    fq = named_statistic(P, "antichain_card")
    assert q_decompose(P, fq).reconstruction() == tuple(
        RationalFunction.const(v) for v in fq.values)


def test_pole_check_survives_optimize():
    import os
    import subprocess
    import sys

    import rowmotion

    code = (
        "from rowmotion.decompose import _check_no_nonnegative_pole\n"
        "from rowmotion.qpoly import CertificateError, Polynomial, RationalFunction\n"
        "assert False, 'asserts are on'\n"
    )
    # under -O the line above is dropped; the pole check must still raise
    code += (
        "c = RationalFunction(Polynomial((1,)), Polynomial((-1, 1)))  # 1/(q-1)\n"
        "try:\n"
        "    _check_no_nonnegative_pole(c)\n"
        "except CertificateError:\n"
        "    print('raised')\n"
    )
    src = os.path.dirname(os.path.dirname(rowmotion.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "raised"


def _pole_raises(den):
    from rowmotion.decompose import _check_no_nonnegative_pole
    from rowmotion.qpoly import CertificateError

    try:
        _check_no_nonnegative_pole(RationalFunction(Polynomial((1,)), den))
    except CertificateError:
        return True
    return False


def test_pole_check_on_known_denominators():
    import time

    A = 10 ** 300
    q = Polynomial((0, 1))
    wide = Polynomial((1,))
    for b in range(1, 21):
        wide = wide * (q * q - b * q + b * b)  # the roots b(1 +- i*sqrt(3))/2
    cases = [
        # (q - 1/2)(q + 3)(q^2 + 1): a rational root at 1/2
        ((q - Fraction(1, 2)) * (q + 3) * (q * q + 1), True),
        (q * q, True),  # a double root at 0
        ((q + 3) * (q * q + 1), False),
        (q * q - 2, True),  # irrational roots +-sqrt(2), and den(1) < 0
        (q * q - 2 * q + 3, False),  # complex roots with a sign variation
        ((q - A) ** 2 + 1, False),  # 300-digit coefficients
        ((q - Fraction(1, A)) * (q + A), True),
        (wide, False),  # degree 40, with sign variations
        (wide * (q - Fraction(1, 3)), True),
    ]
    for den, raises in cases:
        start = time.perf_counter()
        assert _pole_raises(den) is raises, den
        assert time.perf_counter() - start < 1


_RATIONAL_ROOT = hst.fractions(min_value=-6, max_value=6, max_denominator=5)
_FACTORS = hst.one_of(
    # (q - r), with the root r
    _RATIONAL_ROOT.map(lambda r: (Polynomial((-r, 1)), r >= 0)),
    # q^2 + bq + c with b^2 < 4c: no real root
    hst.tuples(hst.integers(-9, 9), hst.integers(1, 30)).filter(
        lambda bc: bc[0] ** 2 < 4 * bc[1]).map(
        lambda bc: (Polynomial((bc[1], bc[0], 1)), False)),
    # q^2 + 2mq + m^2 - k, k not a square: the roots -m +- sqrt(k)
    hst.tuples(hst.integers(-6, 6), hst.integers(2, 60)).filter(
        lambda mk: isqrt(mk[1]) ** 2 != mk[1]).map(
        lambda mk: (Polynomial((mk[0] ** 2 - mk[1], 2 * mk[0], 1)),
                    mk[0] <= 0 or mk[1] > mk[0] ** 2)),
)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(hst.lists(_FACTORS, min_size=1, max_size=5))
def test_pole_check_on_denominators_with_known_roots(factors):
    den = Polynomial((1,))
    for f, _ in factors:
        den = den * f
    assert _pole_raises(den) is any(nonnegative for _, nonnegative in factors)


def test_q_decompose_with_a_huge_pole_free_constant():
    import time

    P = rectangle(2, 2)
    c = RationalFunction(Polynomial((1,)), Polynomial((10 ** 40, 1)))  # 1/(q + 10^40)
    f = Statistic(P, [c] * len(P.ideal_masks()), kind=QRATIONAL)
    start = time.perf_counter()
    dec = q_decompose(P, f)
    assert time.perf_counter() - start < 1
    assert dec.constant == c and not any(dec.coeffs)


# -- Q(q) certificates over Z[q] ------------------------------------------------


def _q_module():
    import importlib

    return importlib.import_module("rowmotion.decompose")


def test_q_decompose_large_rectangles():
    for a, b in ((5, 6), (6, 6)):
        P = rectangle(a, b)
        dec = q_decompose(P, named_statistic(P, "antichain_card"))
        assert dec.constant == RationalFunction(
            q_number(a) * q_number(b), q_number(a + b)
        )


def test_q_answers_match_ideal_evaluation():
    from rowmotion.families import from_specifier

    cases = [(P, named_statistic(P, kind))
             for P in (rectangle(2, 3), shifted_staircase(3), from_specifier("rootD:4"))
             for kind in ("antichain_card", "ideal_card")]
    answers = [q_decompose(P, f) for P, f in cases]
    assert answers.count(None) == 4
    for (P, f), dec in zip(cases, answers):
        for z in (Fraction(2), Fraction(1, 2)):
            assert _at(dec, z) == _ideal_answer(P, f, z), (P.name, f.label, z)


def test_q_decompose_not_in_span_controls():
    from rowmotion.families import from_specifier

    for a in range(2, 6):  # rect:1,1 has two ideals and two unknowns
        P = rectangle(a, a)
        assert q_decompose(P, named_statistic(P, "ideal_card")) is None, a
    for spec in ("trap:2,3", "rootD:4"):
        P = from_specifier(spec)
        assert q_decompose(P, named_statistic(P, "antichain_card")) is None, spec


def test_q_decompose_rejects_a_certificate_over_q_alone():
    """A seeded random poset on which antichain_card has a certificate over
    Q, so that it passes the residual at q = 1, but is outside the Q(q)
    span."""
    rng = random.Random(15)
    P = random_poset(rng, rng.randint(3, 7))
    f = named_statistic(P, "antichain_card")
    assert P.covers == ((0, 1), (1, 2), (1, 3))
    assert decompose(P, f) is not None and _ideal_answer(P, f, Fraction(2)) is None
    assert q_decompose(P, f) is None


def test_q_decompose_q_valued_statistics():
    from rowmotion import t_q
    from rowmotion.statistics import QRATIONAL

    P = rectangle(2, 3)
    for p in range(P.n):
        dec = q_decompose(P, t_q(P, p))
        assert dec.constant == 0
        assert dec.coeffs == tuple(int(x == p) for x in range(P.n))
    q = RationalFunction.q()
    const = RationalFunction(Polynomial((1,)), Polynomial((1, 1)))  # 1/(1+q)
    c0 = RationalFunction(Polynomial((1, 1)), Polynomial((2, 1)))   # (1+q)/(2+q)
    c3 = q * q - 3
    f = Statistic(P, [const] * len(P.ideal_masks()), kind=QRATIONAL)
    f = f + c0 * t_q(P, 0) + c3 * t_q(P, 3)
    dec = q_decompose(P, f)
    assert dec.constant == const
    assert dec.coeffs == tuple(
        c0 if x == 0 else c3 if x == 3 else 0 for x in range(P.n)
    )
    assert dec.reconstruction() == f.values


def test_q_certificate_check_survives_optimize():
    import os
    import subprocess
    import sys

    import rowmotion

    # with asserts off, the residual over Z[q] must still turn down a
    # statistic outside the span
    code = (
        "from rowmotion import named_statistic, q_decompose\n"
        "from rowmotion.families import rectangle\n"
        "assert False, 'asserts are on'\n"
        "P = rectangle(3, 3)\n"
        "print(q_decompose(P, named_statistic(P, 'ideal_card')))\n"
    )
    src = os.path.dirname(os.path.dirname(rowmotion.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "None"


def _pivots_over_zq(system):
    """The pivot rows of a certificate system factored over Z[q], in
    `Polynomial`s: the reference for their factorizations at q = 2^B."""
    return factor(_q_module()._at(system.pivots.values(), q), len(system.pivots))


def _falling(k):
    """prod_{z < k} (q - z) in Z[q], which vanishes at q = 0, ..., k-1 only."""
    out = 1
    for z in range(k):
        out = out * (q - z)
    return out


def _q_valued_statistic():
    from rowmotion import t_q
    from rowmotion.statistics import QRATIONAL

    P = rectangle(2, 3)
    q = RationalFunction.q()
    const = RationalFunction(Polynomial((1,)), Polynomial((1, 1)))  # 1/(1+q)
    c0 = RationalFunction(Polynomial((1, 1)), Polynomial((2, 1)))  # (1+q)/(2+q)
    f = Statistic(P, [const] * len(P.ideal_masks()), kind=QRATIONAL)
    return P, f + c0 * t_q(P, 0) + (q * q - 3) * t_q(P, 3)


def test_q_check_rejects_every_low_degree_tampering():
    """A Cramer numerator moved by det * s * prod_{z<k} (q - z) agrees with
    the true one at z = 0, ..., k-1; the residual over Z[q] must still
    reject it, for every k up to n+1+d, the degree bound of the solve."""
    mod = _q_module()
    cases = [(P, named_statistic(P, "antichain_card")) for P in (rectangle(3, 3),
                                                                 shifted_staircase(3))]
    cases.append(_q_valued_statistic())
    for P, f in cases:
        assert q_decompose(P, f) is not None
        system = mod._system(P)
        g, s = mod._monomials(P, f)
        d = max(v.degree for v in g.values()) if f.kind == QRATIONAL else 0
        fact = _pivots_over_zq(system)
        y = fact.replay([g.get(A, 0) for A in system.pivots])
        det_g = {A: fact.det * v for A, v in g.items()}
        assert mod._is_certificate(P, det_g, y, q)
        for k in range(P.n + 2 + d):
            j = 1 + k % P.n  # spread the tampering over the coefficients
            bad = list(y)
            bad[j] = bad[j] + fact.det * s * _falling(k)
            assert not mod._is_certificate(P, det_g, bad, q), (P.name, k)


def test_q_check_rejects_tampering_under_optimize():
    import os
    import subprocess
    import sys

    import rowmotion

    # asserts off, and every replayed candidate moved by det * s *
    # prod_{z<k} (q - z) in one coefficient, at the packing point 2^B where
    # the replay runs: only the residual stands between q_decompose and a
    # wrong certificate
    code = (
        "import importlib\n"
        "from rowmotion import named_statistic, q_decompose\n"
        "from rowmotion.families import rectangle\n"
        "from rowmotion.linalg import Factorization\n"
        "from rowmotion.qpoly import Polynomial, horner\n"
        "assert False, 'asserts are on'\n"
        "replay = Factorization.replay\n"
        "P = rectangle(3, 3)\n"
        "f = named_statistic(P, 'antichain_card')\n"
        "print(q_decompose(P, f) is not None)\n"
        "system = importlib.import_module('rowmotion.decompose')._system(P)\n"
        "for k in range(40):\n"
        "    move = Polynomial((1,))\n"
        "    for z in range(k):\n"
        "        move = move * Polynomial((-z, 1))\n"
        "    def tampered(self, rhs):\n"
        "        y = replay(self, rhs)\n"
        "        B, = (B for B, packed in system._packed.items() if packed is self)\n"
        "        y[2] = y[2] + self.det * f.den * horner(move, 1 << B)\n"
        "        return y\n"
        "    Factorization.replay = tampered\n"
        "    print(q_decompose(P, f))\n"
    )
    src = os.path.dirname(os.path.dirname(rowmotion.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["True"] + ["None"] * 40


def test_q_decompose_refuses_a_tampered_unpacking_under_optimize():
    import os
    import subprocess
    import sys

    import rowmotion

    # asserts off, and the unpacked determinant or one unpacked numerator
    # moved by (q - 2^B) * h, which agrees with the true one at the packing
    # point: only the bound on the unpacked residual refuses it, at each of
    # the _PACKINGS points tried
    code = (
        "import importlib\n"
        "from rowmotion import named_statistic, q_decompose\n"
        "from rowmotion.families import rectangle, shifted_staircase\n"
        "from rowmotion.qpoly import CertificateError, Polynomial\n"
        "assert False, 'asserts are on'\n"
        "mod = importlib.import_module('rowmotion.decompose')\n"
        "unpack = mod.unpack\n"
        "for P in (rectangle(3, 3), shifted_staircase(3)):\n"
        "    f = named_statistic(P, 'antichain_card')\n"
        "    print(q_decompose(P, f) is not None)\n"
        "    for h in (Polynomial((1,)), Polynomial((0, -1)), Polynomial((3, 0, 0, 1))):\n"
        "        for k in (1, 3):  # the determinant, then the numerator of T_0\n"
        "            seen = []\n"
        "            def tampered(v, B):\n"
        "                seen.append(B)\n"
        "                p = unpack(v, B)\n"
        "                if seen.count(B) == k:\n"
        "                    p = p + Polynomial((-(1 << B), 1)) * h\n"
        "                return p\n"
        "            mod.unpack = tampered\n"
        "            try:\n"
        "                print(q_decompose(P, f))\n"
        "            except CertificateError:\n"
        "                print('refused', len(set(seen)), len(seen) // len(set(seen)))\n"
        "            mod.unpack = unpack\n"
    )
    src = os.path.dirname(os.path.dirname(rowmotion.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    mod = _q_module()
    # each of the _PACKINGS points unpacks the determinant and the n+1
    # numerators once, and stops
    refused = [f"refused {mod._PACKINGS} {n + 2}" for n in (9, 6)]
    assert out.stdout.splitlines() == (["True"] + [refused[0]] * 6 + ["True"] + [refused[1]] * 6)


def _zq_answer(P, f):
    """q_decompose's answer as (constant, coeffs), or None, from the replay
    and residual of the pivot rows factored over Z[q] in `Polynomial`s."""
    mod = _q_module()
    system = mod._system(P)
    g, s = mod._monomials(P, f)
    fact = _pivots_over_zq(system)
    y = fact.replay([g.get(A, 0) for A in system.pivots])
    if not mod._is_certificate(P, {A: fact.det * v for A, v in g.items()}, y, q):
        return None
    sol = [RationalFunction(v, fact.det * s) for v in y]
    return sol[0], tuple(sol[1:])


def _random_q_statistic(rng, P):
    """A random combination of a constant, the T_p (T^q_p over Q(q)) and the
    1_p, with rational coefficients, some of 100 bits, or with coefficients
    in Q(q)."""
    from rowmotion import t_q

    pick = [0, 1, -1, 2, Fraction(1, 3), Fraction(-5, 2), Fraction(2 ** 100 + 7, 3)]
    if rng.random() < 0.5:
        parts = [indicator_ideal(P, p) for p in range(P.n)] + [
            t_signed(P, p) for p in range(P.n)]
        f = Statistic(P, [rng.choice(pick)] * len(P.ideal_masks()))
    else:
        q = RationalFunction.q()
        pick += [q, 1 + q, q * q - 3 * q, RationalFunction(Polynomial((1,)), Polynomial((2, 1))),
                 RationalFunction(Polynomial((0, 4)), Polynomial((3, 0, 1)))]
        parts = [Statistic(P, [RationalFunction(v) for v in indicator_ideal(P, p).values],
                           kind=QRATIONAL) for p in range(P.n)]
        parts += [t_q(P, p) for p in range(P.n)]
        f = Statistic(P, [RationalFunction.const(1) * rng.choice(pick)] * len(P.ideal_masks()),
                      kind=QRATIONAL)
    for part in parts:
        if rng.random() < 0.4:
            f = f + rng.choice(pick) * part
    return f


def test_packed_replay_matches_the_polynomial_replay():
    """On random posets with n <= 7, q_decompose's replay at q = 2^B answers
    as the replay over Z[q] in Polynomials, certificate for certificate and
    NOT IN SPAN for NOT IN SPAN."""
    rng = random.Random(29)
    answered = 0
    for _ in range(120):
        P = random_poset(rng, rng.randint(0, 7))
        for f in (_random_q_statistic(rng, P), named_statistic(P, "antichain_card"),
                  named_statistic(P, "ideal_card")):
            want, dec = _zq_answer(P, f), q_decompose(P, f)
            assert (None if dec is None else (dec.constant, dec.coeffs)) == want, P.covers
            answered += want is not None
    assert answered > 120


def test_a_point_where_the_pivot_rows_are_singular_is_skipped(monkeypatch):
    from rowmotion.qpoly import CertificateError

    # det(2^B) = 0 is forced at the first point: B doubles, and the answers
    # are those of the unpatched solve
    mod = _q_module()
    P = rectangle(3, 3)
    dec = q_decompose(P, named_statistic(P, "antichain_card"))
    dims = toggleability_space_dims(P)
    packed, seen = mod._System.packed, []

    def singular_at_first(self, B):
        seen.append(B)
        fact = packed(self, B)
        return fact._replace(det=0) if B == seen[0] else fact

    monkeypatch.setattr(mod._System, "packed", singular_at_first)
    P = rectangle(3, 3)
    got = q_decompose(P, named_statistic(P, "antichain_card"))
    assert (got.constant, got.coeffs) == (dec.constant, dec.coeffs)
    assert seen[0] == 64 and seen[-1] == 128
    seen.clear()
    assert toggleability_space_dims(P) == dims and seen[-1] == 128
    # singular at every point tried, the solve is refused
    monkeypatch.setattr(mod._System, "packed", lambda self, B: packed(self, B)._replace(det=0))
    with pytest.raises(CertificateError, match=f"any of {mod._PACKINGS} points"):
        q_decompose(P, named_statistic(P, "antichain_card"))


def test_packed_pivots_have_the_degree_of_the_determinant():
    from rowmotion.qpoly import unpack

    # at q = 2^64 a pivot of q-degree D has D words past its first, and on
    # rect:a,a none exceeds the determinant's 2a - 1; the determinant
    # unpacked from 2^64 is the one over Z[q]
    for a in range(2, 9):
        system = _q_module()._system(rectangle(a, a))
        fact = system.packed(64)
        words = [u[c].bit_length() >> 6 for u, c in zip(fact.lu, fact.cols)]
        assert max(words) == words[-1] == 2 * a - 1, a
        assert unpack(fact.det, 64) == _pivots_over_zq(system).det, a


def test_the_factorization_at_one_keeps_its_pivots_and_work():
    import hashlib

    from rowmotion.families import from_specifier

    # the word count of an entry is 0 at q = 1, so the pivot columns and the
    # work are those recorded before entries were pivoted by their words
    for spec, want in (("rect:8,8", ("64b56a737de975b8", 65, 1051)),
                       ("sstair:6", ("1acef06c7d5ae0f4", 22, 244)),
                       ("E7", ("65f0259b3585b39e", 28, 261))):
        fact = _q_module()._system(from_specifier(spec)).at_one
        digest = hashlib.sha256(repr(fact.cols).encode()).hexdigest()[:16]
        assert (digest, len(fact.cols), fact.work) == want, spec


# -- the antichain-monomial basis ------------------------------------------------

MONOMIAL = settings(derandomize=True, max_examples=80, deadline=None, database=None,
                    suppress_health_check=list(HealthCheck))
_COEFFS = hst.sampled_from([0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3)])


@MONOMIAL
@given(hst.data())
def test_monomial_certificates_match_ideal_evaluation(data):
    from rowmotion import constant_statistic
    from rowmotion.statistics import from_combo

    P = random_poset(random.Random(data.draw(hst.integers(0, 10 ** 6))),
                      data.draw(hst.integers(1, 8)))
    combo = [data.draw(hst.lists(_COEFFS, min_size=P.n, max_size=P.n)) for _ in range(3)]
    f = from_combo(P, *combo)
    if data.draw(hst.booleans()):  # a statistic given by values only
        f = Statistic(P, (f + constant_statistic(P, data.draw(_COEFFS))).values)
    dec = decompose(P, f)
    assert _at(dec) == _ideal_answer(P, f)
    if dec is not None:
        assert dec.reconstruction() == f.values
    qdec = q_decompose(P, f)
    points = (Fraction(2), Fraction(1, 2))
    answers = [_ideal_answer(P, f, z) for z in points]
    if qdec is None:  # outside the Q(q) span, so outside it at all but finitely many q
        assert None in answers
    else:
        assert [_at(qdec, z) for z in points] == answers


def test_combo_certificates_enumerate_no_ideal():
    from rowmotion import lifted
    from rowmotion.families import from_specifier

    for spec in ("rect:3,4", "E7", "rect:12,12"):
        P = from_specifier(spec)
        f = named_statistic(P, "antichain_card")
        dec = decompose(P, f)
        assert P._ideal_masks is None, spec
    assert dec.constant == 6
    h, c = lifted.certificate_witness(f, dec)
    rng = random.Random(12)
    for _ in range(2):
        pl = lifted.random_point(lifted.PLPoint, P, rng, alpha=Fraction(-1, 2),
                                 omega=Fraction(3))
        bp = lifted.random_point(lifted.BPoint, P, rng, alpha=Fraction(2),
                                 omega=Fraction(5, 3))
        assert lifted.check_constant(h, c, pl) and lifted.check_constant(h, c, bp)
    assert P._ideal_masks is None
    # over Q(q) too, on a combo whose coefficients have a common denominator 6
    P = rectangle(3, 3)
    f = (Fraction(1, 2) * named_statistic(P, "antichain_card")
         + Fraction(1, 3) * named_statistic(P, "pfiber:1"))
    q3 = RationalFunction(q_number(3), q_number(6))
    want = q3 * (RationalFunction(q_number(3)) * Fraction(1, 2)
                 + RationalFunction(Polynomial.q_power(2)) * Fraction(1, 3))
    assert q_decompose(P, f).constant == want
    assert P._ideal_masks is None
