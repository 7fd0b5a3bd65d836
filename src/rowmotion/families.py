"""Constructors for the poset families under study.

Grid families carry matrix-convention coordinates (i, j); (i, j) <= (i', j')
iff i <= i' and j <= j'.  Quotient maps onto doubled shapes are exposed as
first-class objects because many identities transfer through them.
"""

from __future__ import annotations

from .poset import CapExceededError, OrderIdeal, Poset

# -- grid shapes ---------------------------------------------------------------


def _grid_poset(boxes, name, colors=None):
    boxes = sorted(boxes)
    index = {c: i for i, c in enumerate(boxes)}
    covers = []
    for (i, j), x in index.items():
        for nb in ((i + 1, j), (i, j + 1)):
            if nb in index:
                covers.append((x, index[nb]))
    return Poset(len(boxes), covers, coords=boxes, name=name, colors=colors)


def rectangle(a: int, b: int) -> Poset:
    """Product of chains [a] x [b] as an a-by-b grid of boxes."""
    if a < 1 or b < 1:
        raise ValueError("rectangle dimensions must be positive")
    boxes = [(i, j) for i in range(1, a + 1) for j in range(1, b + 1)]
    colors = [j - i for i, j in boxes]
    return _grid_poset(boxes, f"rect:{a},{b}", colors=colors)


def shifted_staircase(n: int) -> Poset:
    """Boxes {(i, j): 1 <= i <= j <= n}; quotient of the n-by-n square."""
    if n < 1:
        raise ValueError("staircase size must be positive")
    boxes = [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]
    colors = [
        ("diag_odd" if i % 2 == 1 else "diag_even") if i == j else j - i
        for i, j in boxes
    ]
    return _grid_poset(boxes, f"sstair:{n}", colors=colors)


def root_poset_A(n: int) -> Poset:
    """Type A_n positive roots: boxes {(i, j): 1 <= i, j <= n, i + j >= n + 1}."""
    if n < 1:
        raise ValueError("rank must be positive")
    boxes = [
        (i, j)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
        if i + j >= n + 1
    ]
    return _grid_poset(boxes, f"rootA:{n}")


def root_poset_B(n: int) -> Poset:
    """Type B_n positive roots: {(i, j): 1 <= i <= j <= 2n-1, i + j >= 2n}."""
    if n < 1:
        raise ValueError("rank must be positive")
    boxes = [
        (i, j)
        for i in range(1, 2 * n)
        for j in range(i, 2 * n)
        if i + j >= 2 * n
    ]
    return _grid_poset(boxes, f"rootB:{n}")


def trapezoid(a: int, b: int) -> Poset:
    """Doppelganger of the rectangle: the trapezoid shape T(a, b), a <= b."""
    if not 1 <= a <= b:
        raise ValueError("trapezoid requires 1 <= a <= b")
    boxes = [
        (i, j)
        for i in range(1, a + b)
        for j in range(b, a + b)
        if i + j >= a + b and i <= j
    ]
    return _grid_poset(boxes, f"trap:{a},{b}")


# -- non-grid families ----------------------------------------------------------


def double_tailed_diamond(n: int) -> Poset:
    """Chain of n-1, two incomparable middle elements, chain of n-1."""
    if n < 2:
        raise ValueError("double-tailed diamond needs n >= 2")
    # elements 0..n-2: lower tail; n-1, n: middles; n+1..2n-1: upper tail
    covers = [(k, k + 1) for k in range(n - 2)]
    covers += [(n - 2, n - 1), (n - 2, n), (n - 1, n + 1), (n, n + 1)]
    covers += [(k, k + 1) for k in range(n + 1, 2 * n - 1)]
    return Poset(2 * n, covers, name=f"dtd:{n}")


def chain_of_vs(n: int) -> Poset:
    """Product of the 3-element V poset with the n-element chain."""
    if n < 1:
        raise ValueError("chain length must be positive")
    # V = {0 < 1, 0 < 2}; element (v, k) -> index 3*k + v
    covers = []
    for k in range(n):
        base = 3 * k
        covers += [(base, base + 1), (base, base + 2)]
        if k + 1 < n:
            covers += [(base + v, base + 3 + v) for v in range(3)]
    return Poset(3 * n, covers, name=f"vchain:{n}")


# Exceptional minuscule posets, shipped as static cover data and validated by
# gradedness, self-duality, and cover-degree checks in the test suite.
_E6_COVERS = (
    (0, 1), (1, 2), (2, 3), (2, 5), (3, 4), (3, 6), (4, 7), (5, 6), (6, 7),
    (6, 8), (7, 9), (8, 9), (8, 11), (9, 10), (9, 12), (10, 13), (11, 12),
    (12, 13), (13, 14), (14, 15),
)
_E7_COVERS = (
    (0, 1), (1, 2), (2, 3), (3, 4), (3, 5), (4, 6), (4, 10), (5, 6), (6, 7),
    (6, 11), (7, 8), (7, 12), (8, 9), (8, 13), (9, 14), (10, 11), (11, 12),
    (12, 13), (12, 15), (13, 14), (13, 16), (14, 17), (15, 16), (16, 17),
    (16, 18), (17, 19), (18, 19), (18, 21), (19, 20), (19, 22), (20, 23),
    (21, 22), (22, 23), (23, 24), (24, 25), (25, 26),
)


def minuscule_E6() -> Poset:
    """The 16-element exceptional minuscule poset (27 order ideals)."""
    return Poset(16, _E6_COVERS, name="E6")


def minuscule_E7() -> Poset:
    """The 27-element exceptional minuscule poset (56 order ideals)."""
    return Poset(27, _E7_COVERS, name="E7")


# -- root posets from Cartan data -------------------------------------------------


def root_poset_from_cartan(cartan) -> Poset:
    """Positive-root poset of a finite-type Cartan matrix.

    Roots are generated by reflection closure from the simple roots;
    alpha <= beta iff beta - alpha is a nonnegative combination of simple
    roots, with covers exactly where the difference is a simple root.
    """
    A = [list(map(int, row)) for row in cartan]
    n = len(A)
    if n == 0 or any(len(row) != n for row in A):
        raise ValueError("Cartan matrix must be square and nonempty")
    for i in range(n):
        if A[i][i] != 2:
            raise ValueError("Cartan matrix diagonal must be 2")
        for j in range(n):
            if i != j and (A[i][j] > 0 or (A[i][j] == 0) != (A[j][i] == 0)):
                raise ValueError("malformed off-diagonal Cartan entries")

    simple = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    roots = set(simple)
    frontier = list(simple)
    cap = 10_000
    while frontier:
        nxt = []
        for alpha in frontier:
            for i in range(n):
                pairing = sum(alpha[j] * A[i][j] for j in range(n))
                beta = list(alpha)
                beta[i] -= pairing
                beta = tuple(beta)
                if min(beta) >= 0 and any(beta) and beta not in roots:
                    roots.add(beta)
                    nxt.append(beta)
                    if len(roots) > cap:
                        raise ValueError("root generation did not terminate; "
                                         "matrix is not of finite type")
        frontier = nxt

    elems = sorted(roots, key=lambda r: (sum(r), r))
    index = {r: k for k, r in enumerate(elems)}
    covers = []
    for r, x in index.items():
        for i in range(n):
            up = tuple(r[j] + (1 if j == i else 0) for j in range(n))
            if up in index:
                covers.append((x, index[up]))
    return Poset(len(elems), covers, name=f"root_poset<{n}>")


_D4_CARTAN = (
    (2, -1, 0, 0),
    (-1, 2, -1, -1),
    (0, -1, 2, 0),
    (0, -1, 0, 2),
)


def root_poset_D4() -> Poset:
    """Positive roots of type D4; one element covers three others."""
    P = root_poset_from_cartan(_D4_CARTAN)
    return Poset(P.n, P.covers, name="rootD:4")


# -- classification helpers --------------------------------------------------------


def all_minuscule(up_to_size: int):
    """All minuscule posets with at most the given element count.

    One representative per isomorphism class: rectangles with a <= b,
    staircases from n = 3, double-tailed diamonds from n = 4, and the two
    exceptional posets.
    """
    out = []
    for a in range(1, up_to_size + 1):
        for b in range(a, up_to_size + 1):
            if a * b <= up_to_size:
                out.append(rectangle(a, b))
    n = 3
    while n * (n + 1) // 2 <= up_to_size:
        out.append(shifted_staircase(n))
        n += 1
    n = 4
    while 2 * n <= up_to_size:
        out.append(double_tailed_diamond(n))
        n += 1
    if up_to_size >= 16:
        out.append(minuscule_E6())
    if up_to_size >= 27:
        out.append(minuscule_E7())
    return out


# -- quotient maps ---------------------------------------------------------------


class QuotientMap:
    """Doubling map sending ideals of a folded shape to symmetric ideals."""

    __slots__ = ("source", "target", "element_image")

    def __init__(self, source, target, element_image):
        self.source = source
        self.target = target
        self.element_image = tuple(element_image)  # per source element: target mask

    def mask_image(self, mask):
        out = 0
        for x in range(self.source.n):
            if mask >> x & 1:
                out |= self.element_image[x]
        return out

    def __call__(self, I: OrderIdeal) -> OrderIdeal:
        if I.poset is not self.source:
            raise ValueError("ideal does not live on the source poset")
        return OrderIdeal(self.target, mask=self.mask_image(I.mask))


def _transpose_quotient(folded, doubled):
    image = []
    for i, j in folded.coords:
        m = 1 << doubled.element_at((i, j))
        if i != j:
            m |= 1 << doubled.element_at((j, i))
        image.append(m)
    return QuotientMap(folded, doubled, image)


def staircase_quotient(n: int) -> QuotientMap:
    """Map sending ideals of the n-staircase to symmetric ideals of [n]x[n]."""
    return _transpose_quotient(shifted_staircase(n), rectangle(n, n))


def type_b_quotient(n: int) -> QuotientMap:
    """Map sending type-B_n ideals to symmetric type-A_{2n-1} ideals."""
    return _transpose_quotient(root_poset_B(n), root_poset_A(2 * n - 1))


# -- CLI family specifiers ---------------------------------------------------------


# The most elements a family specifier may ask for, checked before anything
# is built.  Building takes about quadratic time in the element count:
# rect:100,100 (10 000 elements) takes 0.4 s on a 2-core x86-64 host.
MAX_ELEMENTS = 10_000


def _check_size(spec, n):
    if n > MAX_ELEMENTS:
        raise CapExceededError(
            f"{spec} has {n} elements, more than the cap of {MAX_ELEMENTS}")


def parse_ints(text, count, error) -> list:
    """The comma-separated integers in `text`, exactly `count` of them unless
    count is None; anything else raises ValueError(error)."""
    try:
        values = [int(t) for t in text.split(",")]
        if count in (None, len(values)):
            return values
    except ValueError:
        pass
    raise ValueError(error)


def from_specifier(spec: str) -> Poset:
    """Parse a family specifier such as 'rect:2,3', 'E6', or 'file:p.json'."""
    import json

    if spec == "E6":
        return minuscule_E6()
    if spec == "E7":
        return minuscule_E7()
    head, sep, tail = spec.partition(":")
    if not sep:
        raise ValueError(f"unknown family specifier: {spec!r}")
    if head == "file":
        with open(tail) as fh:
            data = json.load(fh)
        try:
            _check_size(spec, int(data["n"]))
            return Poset.from_dict(data)
        except (TypeError, OverflowError) as exc:
            raise ValueError(f"malformed poset file {tail!r}: {exc}") from None
    args = parse_ints(tail, None, f"bad arguments in family specifier: {spec!r}")
    table = {  # constructor, arity, element count
        "rect": (rectangle, 2, lambda a, b: a * b),
        "sstair": (shifted_staircase, 1, lambda n: n * (n + 1) // 2),
        "rootA": (root_poset_A, 1, lambda n: n * (n + 1) // 2),
        "rootB": (root_poset_B, 1, lambda n: n * n),
        "dtd": (double_tailed_diamond, 1, lambda n: 2 * n),
        "trap": (trapezoid, 2, lambda a, b: a * b),
        "vchain": (chain_of_vs, 1, lambda n: 3 * n),
    }
    if head == "rootD":
        if args != [4]:
            raise ValueError("only rootD:4 is available")
        return root_poset_D4()
    if head not in table:
        raise ValueError(f"unknown family specifier: {spec!r}")
    fn, arity, size = table[head]
    if len(args) != arity:
        raise ValueError(f"{head} takes {arity} argument(s)")
    _check_size(spec, size(*(max(a, 0) for a in args)))
    return fn(*args)
