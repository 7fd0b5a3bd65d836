"""Independent oracles for the benchmark's verdicts.

Nothing here imports `rowmotion`.  A poset is seen only through its raw
data (element count, cover pairs, grid coordinates); every other quantity
(order ideals, addable and removable elements, rowmotion, statistic values,
closed-form constants, counts, ranks) is recomputed from the definitions.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, lcm


def bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def popcount(mask):
    return bin(mask).count("1")


# -- posets from raw cover data ------------------------------------------------


class Shape:
    """A finite poset rebuilt from its cover pairs and optional coordinates."""

    def __init__(self, n, covers, coords=None):
        self.n = n
        self.coords = None if coords is None else [tuple(c) for c in coords]
        self.up = [0] * n
        self.down = [0] * n
        for lo, hi in covers:
            self.up[lo] |= 1 << hi
            self.down[hi] |= 1 << lo
        order = []
        indeg = [popcount(m) for m in self.down]
        ready = [x for x in range(n) if indeg[x] == 0]
        while ready:
            x = ready.pop()
            order.append(x)
            for y in bits(self.up[x]):
                indeg[y] -= 1
                if indeg[y] == 0:
                    ready.append(y)
        if len(order) != n:
            raise ValueError("cover data has a cycle")
        self.downset = [0] * n
        self.height = [0] * n
        for x in order:
            m = 1 << x
            for y in bits(self.down[x]):
                m |= self.downset[y]
                self.height[x] = max(self.height[x], self.height[y] + 1)
            self.downset[x] = m

    @classmethod
    def of(cls, poset):
        return cls(poset.n, poset.covers, poset.coords)

    def is_ideal(self, mask):
        return all(self.down[x] & ~mask == 0 for x in bits(mask))

    def addable(self, mask):
        out = 0
        for p in range(self.n):
            if not mask >> p & 1 and self.down[p] & ~mask == 0:
                out |= 1 << p
        return out

    def removable(self, mask):
        out = 0
        for p in bits(mask):
            if self.up[p] & mask == 0:
                out |= 1 << p
        return out

    def rowmotion(self, mask):
        out = 0
        for p in bits(self.addable(mask)):
            out |= self.downset[p]
        return out

    def top_height(self):
        return max(self.height, default=0)

    def coord_mask(self, pred):
        return sum(1 << x for x, c in enumerate(self.coords) if pred(*c))

    def brute_ideals(self):
        """Every down-closed subset, by filtering the power set."""
        return [m for m in range(1 << self.n) if self.is_ideal(m)]


def check_ideals(shape, masks, expected_count):
    """The program's ideal list: distinct, down-closed, and of the known size."""
    if len(masks) != expected_count:
        return f"{len(masks)} ideals, expected {expected_count}"
    if len(set(masks)) != len(masks):
        return "ideal list has duplicates"
    for m in masks:
        if not shape.is_ideal(m):
            return f"mask {m:#x} is not down-closed"
    return None


# -- ideal counts ------------------------------------------------------------------


def catalan(n):
    return comb(2 * n, n) // (n + 1)


def ideal_count(spec, shape):
    """|J(P)| from closed forms; small posets without one are brute-forced."""
    head, _, tail = spec.partition(":")
    args = [int(t) for t in tail.split(",")] if tail else []
    if head == "rect":
        return comb(args[0] + args[1], args[0])
    if head == "sstair":
        return 2 ** args[0]
    if head == "rootA":
        return catalan(args[0] + 1)
    if head == "rootB":
        return comb(2 * args[0], args[0])
    if head == "dtd":
        return 2 * args[0] + 2
    if head == "E6":
        return 27
    if head == "E7":
        return 56
    if shape.n > 16:
        raise ValueError(f"no ideal count for {spec}")
    return len(shape.brute_ideals())


def coxeter_period(spec):
    """An exponent of rowmotion (and of every conjugate rank-permuted
    rowmotion) on the minuscule posets used by the benchmark."""
    head, _, tail = spec.partition(":")
    args = [int(t) for t in tail.split(",")] if tail else []
    if head == "rect":
        return args[0] + args[1]
    if head == "sstair":
        return 2 * args[0]
    if head == "dtd":
        return 2 * args[0] - 2
    return {"E6": 12, "E7": 18}[head]


# -- statistics of the criterion-3 ladder ---------------------------------------


class OwnStat:
    """f(I) = sum_{x in I} ind[x] + sum_{x removable from I} out[x].

    Values are kept as integers scaled by `den`, the common denominator.
    """

    def __init__(self, n):
        self.ind = [Fraction(0)] * n
        self.out = [Fraction(0)] * n

    def add(self, coeff, kind, mask):
        vec = self.ind if kind == "ind" else self.out
        for x in bits(mask):
            vec[x] += coeff

    def freeze(self):
        self.den = lcm(*(c.denominator for c in self.ind + self.out))
        self.ind_int = [int(c * self.den) for c in self.ind]
        self.out_int = [int(c * self.den) for c in self.out]
        return self

    def scaled(self, mask, rem):
        ind, out = self.ind_int, self.out_int
        return sum(ind[x] for x in bits(mask)) + sum(out[x] for x in bits(rem))

    def value(self, mask, rem):
        return Fraction(self.scaled(mask, rem), self.den)


def atom(shape, name):
    """(kind, mask) of a specifier atom, rebuilt from coordinates."""
    head, _, arg = name.partition(":")
    full = (1 << shape.n) - 1
    if head == "ideal_card":
        return "ind", full
    if head == "antichain_card":
        return "out", full
    if head == "file":
        k = int(arg)
        return "ind", shape.coord_mask(lambda i, j: j - i == k)
    if head == "pfiber":
        r = int(arg)
        return "out", shape.coord_mask(lambda i, j: i == r)
    if head == "nfiber":
        c = int(arg)
        return "out", shape.coord_mask(lambda i, j: j == c)
    if head == "sfiber":
        r = int(arg)
        return "out", shape.coord_mask(
            lambda i, j: (j == r and i <= r) or (i == r and j > r))
    if head == "diag":
        return "out", shape.coord_mask(lambda i, j: i == j)
    if head == "ind":
        return "ind", 1 << shape.coords.index(tuple(int(t) for t in arg.split(",")))
    raise ValueError(f"no oracle for atom {name!r}")


def own_stat(shape, terms):
    f = OwnStat(shape.n)
    for coeff, name in terms:
        if name == "rankalt":
            even = sum(1 << x for x in range(shape.n) if shape.height[x] % 2 == 0)
            f.add(coeff, "ind", even)
            f.add(-coeff, "ind", ((1 << shape.n) - 1) & ~even)
        else:
            kind, mask = atom(shape, name)
            f.add(coeff, kind, mask)
    return f.freeze()


def closed_form(spec, name, shape):
    """Criterion-3 constant of one atom, or None when the atom has none."""
    head, _, tail = spec.partition(":")
    args = [int(t) for t in tail.split(",")] if tail else []
    stat, _, arg = name.partition(":")
    n = shape.n
    if head == "rect":
        a, b = args
        if stat == "antichain_card":
            return Fraction(a * b, a + b)
        if stat == "ideal_card":
            return Fraction(a * b, 2)
        if stat == "pfiber":
            return Fraction(b, a + b)
        if stat == "nfiber":
            return Fraction(a, a + b)
        if stat == "file":
            k = int(arg)
            return Fraction(a * (b - k), a + b) if k >= 0 else Fraction(b * (a + k), a + b)
    if head == "sstair":
        m, = args
        if stat == "antichain_card":
            return Fraction(m + 1, 4)
        if stat == "ideal_card":
            return Fraction(m * (m + 1), 4)
        if stat in ("diag", "sfiber"):
            return Fraction(1, 2)
        if stat == "file":
            return Fraction(m - int(arg), 2)
    if head in ("dtd", "E6", "E7"):
        if stat == "antichain_card":
            return Fraction(n, shape.top_height() + 2)
        if stat == "ideal_card":
            return Fraction(n, 2)
    if head == "rootA":
        if stat in ("antichain_card", "rankalt"):
            return Fraction(args[0], 2)
    if head == "rootB":
        if stat == "antichain_card":
            return Fraction(args[0], 2)
        if stat == "diag":
            return Fraction(1, 2)
    return None


# -- certificates over Q -----------------------------------------------------------


def toggles(shape, masks):
    """(addable, removable) masks of every ideal, by the oracle's own test."""
    return [(shape.addable(m), shape.removable(m)) for m in masks]


def check_vector(masks, togs, f, values):
    """The program's statistic vector against the oracle's own evaluation."""
    for m, (_, rem), v in zip(masks, togs, values):
        if v != f.value(m, rem):
            return f"statistic value {v} on ideal {m:#x}, expected {f.value(m, rem)}"
    return None


def check_certificate(masks, togs, f, constant, coeffs):
    """f = c + sum_p c_p (T+_p - T-_p) on every ideal, by own toggle tests."""
    scale = lcm(f.den, constant.denominator, *(c.denominator for c in coeffs))
    big = [int(c * scale) for c in coeffs]
    base = int(constant * scale)
    fscale = scale // f.den
    for m, (add, rem) in zip(masks, togs):
        rhs = base
        for p in bits(add):
            rhs += big[p]
        for p in bits(rem):
            rhs -= big[p]
        if f.scaled(m, rem) * fscale != rhs:
            return f"identity fails on ideal {m:#x}"
    return None


def rank(rows):
    """Rank of a list of Fraction rows, by plain Gaussian elimination."""
    rows = [list(r) for r in rows]
    r = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(r + 1, len(rows)):
            if rows[i][c]:
                t = rows[i][c] / rows[r][c]
                rows[i] = [x - t * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


def in_span(n, masks, togs, f):
    """Is f in span{1, T_p}?  Decided by comparing two ranks."""
    base = []
    for add, rem in togs:
        base.append([Fraction(1)] + [
            Fraction(1) if add >> p & 1 else Fraction(-1) if rem >> p & 1 else Fraction(0)
            for p in range(n)])
    aug = [row + [f.value(m, rem)] for row, m, (_, rem) in zip(base, masks, togs)]
    return rank(aug) == rank(base)


# -- q-analogues -------------------------------------------------------------------


Q_POINTS = (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3))


def horner(coeffs, z):
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def qnum(m, z):
    return sum((z ** k for k in range(m)), Fraction(0))


def q_closed_form(spec, name, z):
    """q-constant of an atom at q = z: [a][b]/[a+b], q^(a-i)[b]/[a+b], ..."""
    head, _, tail = spec.partition(":")
    args = [int(t) for t in tail.split(",")]
    stat, _, arg = name.partition(":")
    if head == "rect":
        a, b = args
        if stat == "antichain_card":
            return qnum(a, z) * qnum(b, z) / qnum(a + b, z)
        if stat == "pfiber":
            return z ** (a - int(arg)) * qnum(b, z) / qnum(a + b, z)
    if head == "sstair":
        m, = args
        if stat == "diag":
            return 1 / (1 + z)
        if stat == "antichain_card":
            return qnum(m + 1, z) * qnum(m, z) / qnum(2, z) / qnum(2 * m, z)
    raise ValueError(f"no q-closed form for {name} on {spec}")


def rf_at(rf_parts, z):
    num, den = rf_parts
    d = horner(den, z)
    if d == 0:
        raise ZeroDivisionError(f"pole at q = {z}")
    return horner(num, z) / d


def check_q_certificate(masks, togs, f, constant, coeffs, points=Q_POINTS):
    """f = c(q) + sum_p c_p(q) (T+_p - q T-_p) on every ideal at each q."""
    for z in points:
        c = rf_at(constant, z)
        cp = [rf_at(x, z) for x in coeffs]
        for m, (add, rem) in zip(masks, togs):
            rhs = c
            for p in bits(add):
                rhs += cp[p]
            for p in bits(rem):
                rhs -= z * cp[p]
            if rhs != f.value(m, rem):
                return f"q-identity fails on ideal {m:#x} at q = {z}"
    return None


def gaussian_binomial(m, k):
    """Integer coefficients of [m choose k]_t, by the q-Pascal recurrence."""
    rows = {(0, 0): [1]}

    def get(mm, kk):
        if kk < 0 or kk > mm:
            return [0]
        if (mm, kk) not in rows:
            a = get(mm - 1, kk - 1)
            b = [0] * kk + get(mm - 1, kk)
            out = [0] * max(len(a), len(b))
            for i, v in enumerate(a):
                out[i] += v
            for i, v in enumerate(b):
                out[i] += v
            rows[(mm, kk)] = out
        return rows[(mm, kk)]

    return get(m, k)


def rect_labeling_count(a, b, r, s):
    """Labelings of rect:a,b by s zero-flavours and r one-flavours: the size
    generating function of J(rect:a,b) is the Gaussian binomial [a+b, a]."""
    n = a * b
    return sum(c * s ** k * r ** (n - k)
               for k, c in enumerate(gaussian_binomial(a + b, a)))


# -- the paper's Table 2 -----------------------------------------------------------


def table2(family, *params):
    """dim_A, dim_I, dim_A_q, dim_I_q of the toggleability spaces.

    Generic rows follow the paper's table.  Chains rect:1,b have every
    function in span{1, T_p}, so all four dimensions equal b; the other
    small shapes listed below have sporadic extra dimensions.
    """
    if family == "rect":
        a, b = params
        if a == 1:
            return {"dim_A": b, "dim_I": b, "dim_A_q": b, "dim_I_q": b}
        d = a + b - 1
        return {"dim_A": d, "dim_I": d, "dim_A_q": d, "dim_I_q": 2}
    n, = params
    if family == "sstair":
        row = {"dim_A": 2 * n - 1, "dim_I": 2 * n - 1, "dim_A_q": n + 1,
               "dim_I_q": 3 if n <= 3 else 2}
    elif family == "rootA":
        row = {"dim_A": n, "dim_I": n, "dim_A_q": 1, "dim_I_q": 1 if n <= 2 else 0}
    elif family == "rootB":
        row = {"dim_A": 2 * n - 1, "dim_I": 2 * n - 1,
               "dim_A_q": 1 if n == 1 else 2, "dim_I_q": 2 if n == 2 else 1}
    else:
        raise ValueError(f"no Table 2 row for {family}")
    return row


# -- lifted levels -------------------------------------------------------------------


def neighbours(shape, values, alpha, omega, p):
    """Values at the lower and upper covers of p, alpha and omega at the ends."""
    lower = [values[r] for r in bits(shape.down[p])] or [alpha]
    upper = [values[r] for r in bits(shape.up[p])] or [omega]
    return lower, upper


def pl_toggleability(shape, values, alpha, omega, p):
    lower, upper = neighbours(shape, values, alpha, omega, p)
    return values[p] - max(lower), min(upper) - values[p]


def pl_value(shape, coeff_in, coeff_out, coeff_ind, values, alpha, omega):
    """A lifted linear statistic at a PL point, from the definitions."""
    acc = Fraction(0)
    for p in range(shape.n):
        if coeff_in[p] or coeff_out[p]:
            t_in, t_out = pl_toggleability(shape, values, alpha, omega, p)
            acc += coeff_in[p] * t_in + coeff_out[p] * t_out
        if coeff_ind[p]:
            acc += coeff_ind[p] * (omega - values[p])
    return acc


def pl_orbit_law(shape, states, alpha, omega):
    """Sum over the orbit of T+_p - T-_p vanishes at every p."""
    for p in range(shape.n):
        total = Fraction(0)
        for values in states:
            t_in, t_out = pl_toggleability(shape, values, alpha, omega, p)
            total += t_in - t_out
        if total:
            return f"PL orbit sum of T_{p} is {total}"
    return None


def b_orbit_law(shape, states, alpha, omega):
    """Product over the orbit of T+_p / T-_p is 1 at every p."""
    for p in range(shape.n):
        prod = Fraction(1)
        for v in states:
            lower = sum((v[r] for r in bits(shape.down[p])), Fraction(0)) or alpha
            upper = sum((1 / v[r] for r in bits(shape.up[p])), Fraction(0)) or 1 / omega
            prod *= (v[p] / lower) * (v[p] * upper)
        if prod != 1:
            return f"birational orbit product of T_{p} is {prod}"
    return None


def rank_order(shape, sigma=None):
    """Toggle order of rowmotion (sigma None) or of its rank-permuted variant
    on a graded poset: the ranks in the reverse of sigma."""
    sigma = range(shape.top_height() + 1) if sigma is None else sigma
    return [p for i in reversed(tuple(sigma)) for p in range(shape.n) if shape.height[p] == i]


def pl_step(shape, order, values, alpha, omega):
    """PL toggles in `order`: v_p becomes max(lower) + min(upper) - v_p."""
    v = list(values)
    for p in order:
        lower, upper = neighbours(shape, v, alpha, omega, p)
        v[p] = max(lower) + min(upper) - v[p]
    return v


def b_step(shape, order, values, alpha, omega):
    """Birational toggles in `order`: v_p becomes sum(lower) / (v_p * sum(1/upper))."""
    v = list(values)
    for p in order:
        lower, upper = neighbours(shape, v, alpha, omega, p)
        v[p] = sum(lower) / (v[p] * sum(1 / u for u in upper))
    return v


def is_orbit(step, states):
    """Each state steps to the next, and the last back to the first."""
    return all(list(step(v)) == list(states[(k + 1) % len(states)])
               for k, v in enumerate(states))


def own_orbit(step, start, cap=1000):
    states, cur = [list(start)], step(start)
    while cur != states[0]:
        if len(states) >= cap:
            raise ValueError(f"no return within {cap} steps")
        states.append(cur)
        cur = step(cur)
    return states


def b_lift_power(shape, coeff_in, coeff_out, coeff_ind, states, alpha, omega, c):
    """(lhs, rhs): the product over `states` of the birational lift
    prod_p T+_p^a_p T-_p^a'_p (omega/v_p)^a''_p, and (omega/alpha)^(c * #states),
    both raised to the least power that clears every exponent's denominator."""
    c = Fraction(c)
    scale = lcm(c.denominator, *(Fraction(e).denominator
                                 for e in (*coeff_in, *coeff_out, *coeff_ind)))
    lhs = Fraction(1)
    for v in states:
        for p in range(shape.n):
            lower, upper = neighbours(shape, v, alpha, omega, p)
            t_in = v[p] / sum(lower)
            t_out = 1 / (v[p] * sum(1 / u for u in upper))
            for base, e in ((t_in, coeff_in[p]), (t_out, coeff_out[p]),
                            (omega / v[p], coeff_ind[p])):
                if e:
                    lhs *= base ** int(e * scale)
    return lhs, (omega / alpha) ** int(c * scale * len(states))


# -- reference work ------------------------------------------------------------------


_REFERENCE = []


def reference_work():
    """A fixed piece of oracle-like work (own rowmotion on every ideal of a
    6x6 grid, one small Fraction rank) whose time tracks the host's speed."""
    if not _REFERENCE:
        covers = [(6 * i + j, 6 * i + j + 1) for i in range(6) for j in range(5)]
        covers += [(6 * i + j, 6 * i + j + 6) for i in range(5) for j in range(6)]
        shape = Shape(36, covers)
        seen, frontier = {0}, [0]
        while frontier:
            grown = {m | 1 << p for m in frontier for p in bits(shape.addable(m))}
            frontier = list(grown - seen)
            seen |= grown
        _REFERENCE.append((shape, sorted(seen)))
    shape, masks = _REFERENCE[0]
    total = sum(popcount(shape.rowmotion(m)) for m in masks)
    rows = [[Fraction((i * j) % 7 + 1, (i + j) % 5 + 1) for j in range(9)] for i in range(9)]
    return total + rank(rows)
