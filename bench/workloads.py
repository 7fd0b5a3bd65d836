"""The four workloads: seeded inputs, timed operations and their checks.

An operation is one verdict.  `Op.run` makes only program calls and is the
timed part; `Op.check` judges the result with the oracles of `oracles.py`
(never with a stored copy of earlier output) and returns
(failure or None, states visited, certificate-or-law checks at a point).

Every round runs the same operations on posets and statistics built afresh,
so every round does the same work.  Within a round, operations on one poset
share it, as a user's session would.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction
from math import comb
from typing import NamedTuple

import oracles as orc

# Failure kinds that come from a fault in the program that is known and
# named; any other failure makes the run incorrect.  table2_op gives the
# kind only to the rows is_known_table2_chain names.
KNOWN_FAULTS = {
    "table2-exceptions": "verify.expected_table2 lists chain exceptions only up "
                         "to rect:1,4, so every rect:1,b with b >= 5 is misjudged",
}


class Failure(NamedTuple):
    kind: str
    detail: str


class Op:
    __slots__ = ("name", "run", "check", "frontier")

    def __init__(self, name, run, check, frontier=False):
        self.name, self.run, self.check, self.frontier = name, run, check, frontier


def ok(states=0, points=0):
    return None, states, points


def fail(kind, detail, states=0, points=0):
    return Failure(kind, detail), states, points


class Round:
    """Per-round caches: program objects (built inside timed operations)
    and the oracle's views of them (built inside checks)."""

    def __init__(self, rm, tracer=None):
        self.rm = rm
        self.tracer = tracer
        self.memo = {}
        self.views = {}

    def get(self, key, make):
        value = self.memo.get(key)
        if value is None:
            value = self.memo[key] = make()
        return value

    def poset(self, spec):
        return self.get(("poset", spec), lambda: self.rm.families.from_specifier(spec))

    def view(self, spec, P):
        """Own Shape of P, its ideals, their toggles, and any enumeration error."""
        v = self.views.get(spec)
        if v is None:
            shape = orc.Shape.of(P)
            masks = list(P.ideal_masks())
            error = orc.check_ideals(shape, masks, orc.ideal_count(spec, shape))
            v = self.views[spec] = (shape, masks, orc.toggles(shape, masks), error)
        return v

    def cli(self, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.rm.cli.main(argv)
        text = buf.getvalue()
        if self.tracer is not None:
            self.tracer.count("cli.bytes_out", len(text.encode()))
        return code, text


# -- statistics and their expressions --------------------------------------------


def expression(terms):
    """Specifier text such as '3/4*file:0 - 2*pfiber:1'."""
    parts = []
    for coeff, name in terms:
        text = f"{abs(coeff)}*{name}"
        if not parts:
            parts.append(("-" if coeff < 0 else "") + text)
        else:
            parts.append(("- " if coeff < 0 else "+ ") + text)
    return " ".join(parts)


def build_stat(rm, P, terms):
    if any(name.startswith("ind:") for _, name in terms):
        total = None
        for coeff, name in terms:
            coord = tuple(int(t) for t in name[4:].split(","))
            term = Fraction(coeff) * rm.statistics.indicator_ideal(P, P.element_at(coord))
            total = term if total is None else total + term
        return total
    return rm.statistics.parse_statistic(P, expression(terms))


def spec_args(spec):
    head, _, tail = spec.partition(":")
    return head, [int(t) for t in tail.split(",")] if tail else []


def ladder_atoms(spec):
    """Criterion-3 atoms of a poset; each has a closed-form constant."""
    head, args = spec_args(spec)
    if head == "rect":
        a, b = args
        return (["antichain_card", "ideal_card"] + [f"pfiber:{i}" for i in range(1, a + 1)]
                + [f"nfiber:{j}" for j in range(1, b + 1)]
                + [f"file:{k}" for k in range(1 - a, b)])
    if head == "sstair":
        n, = args
        return (["antichain_card", "ideal_card", "diag"]
                + [f"sfiber:{i}" for i in range(1, n + 1)] + [f"file:{k}" for k in range(n)])
    if head == "rootA":
        return ["antichain_card", "rankalt"]
    if head == "rootB":
        return ["antichain_card", "diag"]
    return ["antichain_card", "ideal_card"]


def _file_combination(k, lo, hi):
    return [(Fraction(c), f"file:{j}") for c, j in ((2, k), (-1, k - 1), (-1, k + 1))
            if lo <= j <= hi]


def ladder_combinations(spec):
    """Criterion-3 statistics with constant 1 that are not single atoms."""
    head, args = spec_args(spec)
    if head == "rootA":
        n, = args
        return [_file_combination(k, 1 - n, n - 1) for k in range(n - 1, -n, -2)]
    if head == "rootB":
        n, = args
        out = [_file_combination(k, 0, 2 * n - 2) for k in range(2, 2 * n - 1, 2)]
        return out + [[(Fraction(2), "file:0"), (Fraction(-2), "file:1")]]
    return []


def random_coeff(rng):
    """A signed k/(k+1) or (k+1)/k: every seed draws coefficients of one size,
    so the seed changes the inputs but not the cost of a round."""
    k = rng.randint(2, 7)
    return rng.choice((-1, 1)) * (Fraction(k, k + 1) if rng.random() < 0.5 else Fraction(k + 1, k))


def seeded_pairs(rng, atoms, count):
    out = []
    for _ in range(count):
        x, y = rng.sample(atoms, 2)
        out.append([(random_coeff(rng), x), (random_coeff(rng), y)])
    return out


def expected_constant(spec, terms, shape, fixed):
    if fixed is not None:
        return fixed
    return sum((c * orc.closed_form(spec, name, shape) for c, name in terms), Fraction(0))


# -- certify ----------------------------------------------------------------------


CERTIFY_LADDER = (
    "rect:2,2", "rect:2,3", "rect:3,3", "rect:3,4", "rect:4,4", "rect:4,5",
    "sstair:3", "sstair:4", "sstair:5", "rootA:3", "rootA:4", "rootA:5",
    "rootB:2", "rootB:3", "rootB:4", "dtd:3", "dtd:4", "dtd:5", "E6", "E7",
)
CERTIFY_CONTROLS = (
    ("rootD:4", [(Fraction(1), "antichain_card")]),
    ("trap:2,3", [(Fraction(1), "antichain_card")]),
    ("trap:2,4", [(Fraction(1), "antichain_card")]),
    ("vchain:2", [(Fraction(1), "antichain_card")]),
    ("vchain:3", [(Fraction(1), "antichain_card")]),
    ("rect:3,3", [(Fraction(2), "ind:2,2")]),   # the centre box paired with itself
)
CERTIFY_FRONTIER = ("rect:8,8", [(Fraction(1), "antichain_card")])


def certify_items(rng, combos_per_poset=2):
    """(spec, terms, fixed constant or None) of every in-span statistic."""
    items = []
    for spec in CERTIFY_LADDER:
        atoms = ladder_atoms(spec)
        items += [(spec, [(Fraction(1), a)], None) for a in atoms]
        items += [(spec, t, Fraction(1)) for t in ladder_combinations(spec)]
        items += [(spec, t, None) for t in seeded_pairs(rng, atoms, combos_per_poset)]
    return items


def decompose_op(spec, terms, fixed, in_span=True, frontier=False):
    def run(rd):
        P = rd.poset(spec)
        f = build_stat(rd.rm, P, terms)
        return P, f, rd.rm.decompose.decompose(P, f)

    def check(rd, result):
        P, f, dec = result
        shape, masks, togs, error = rd.view(spec, P)
        if error:
            return fail("ideals", f"{spec}: {error}")
        own = orc.own_stat(shape, terms)
        error = orc.check_vector(masks, togs, own, f.values)
        if error:
            return fail("statistic", f"{spec}: {error}")
        states = len(masks)
        if dec is None:
            if in_span:
                return fail("verdict", f"{spec} {expression(terms)}: NOT IN SPAN", states)
            if orc.in_span(shape.n, masks, togs, own):
                return fail("verdict", f"{spec}: own rank test finds it in the span", states)
            return ok(states)
        if not in_span:
            return fail("verdict", f"{spec}: certificate for a statistic outside the span",
                        states)
        want = expected_constant(spec, terms, shape, fixed)
        if dec.constant != want:
            return fail("constant", f"{spec} {expression(terms)}: c = {dec.constant}, "
                                    f"expected {want}", states)
        error = orc.check_certificate(masks, togs, own, dec.constant, dec.coeffs)
        if error:
            return fail("certificate", f"{spec} {expression(terms)}: {error}", states)
        return ok(states, states)

    return Op(f"decompose {spec} {expression(terms)}", run, check, frontier)


def certify(rm, seed):
    rng = random.Random(seed)
    ops = [decompose_op(spec, terms, fixed) for spec, terms, fixed in certify_items(rng)]
    ops += [decompose_op(spec, terms, None, in_span=False) for spec, terms in CERTIFY_CONTROLS]
    ops.append(decompose_op(*CERTIFY_FRONTIER, None, frontier=True))
    return ops


# -- qcertify ---------------------------------------------------------------------


QCERTIFY_FIXED = (
    ("rect:2,2", ["antichain_card", "pfiber:1", "pfiber:2"]),
    ("rect:2,3", ["antichain_card", "pfiber:1", "pfiber:2"]),
    ("rect:3,3", ["antichain_card", "pfiber:1", "pfiber:2", "pfiber:3"]),
    ("rect:3,4", ["antichain_card"]),
    ("rect:4,4", ["antichain_card"]),
    ("sstair:3", ["antichain_card", "diag"]),
    ("sstair:4", ["antichain_card", "diag"]),
    ("sstair:5", ["diag"]),
)
QCERTIFY_SEEDED = (("rect:2,2", 20), ("rect:2,3", 20), ("sstair:3", 20))
QCERTIFY_FRONTIER = ("rect:5,5", "antichain_card")
TABLE2_ROWS = (
    [("rect", a, b) for a in range(1, 5) for b in range(a, 5)]
    + [("sstair", n) for n in range(2, 5)]
    + [("rootA", n) for n in range(1, 5)] + [("rootB", n) for n in range(1, 5)]
    + [("rect", 1, 5), ("rect", 1, 6)]
)


def q_atoms(spec):
    head, args = spec_args(spec)
    if head == "rect":
        return ["antichain_card"] + [f"pfiber:{i}" for i in range(1, args[0] + 1)]
    return ["antichain_card", "diag"]


def rf_parts(rf):
    return tuple(rf.num.coeffs), tuple(rf.den.coeffs)


def q_decompose_op(spec, terms, frontier=False):
    def run(rd):
        P = rd.poset(spec)
        f = build_stat(rd.rm, P, terms)
        return P, f, rd.rm.decompose.q_decompose(P, f)

    def check(rd, result):
        P, f, dec = result
        shape, masks, togs, error = rd.view(spec, P)
        if error:
            return fail("ideals", f"{spec}: {error}")
        own = orc.own_stat(shape, terms)
        error = orc.check_vector(masks, togs, own, f.values)
        if error:
            return fail("statistic", f"{spec}: {error}")
        states = len(masks)
        if dec is None:
            return fail("verdict", f"{spec} {expression(terms)}: NOT IN SPAN over Q(q)", states)
        constant = rf_parts(dec.constant)
        for z in orc.Q_POINTS:
            want = sum((c * orc.q_closed_form(spec, name, z) for c, name in terms), Fraction(0))
            got = orc.rf_at(constant, z)
            if got != want:
                return fail("constant", f"{spec} {expression(terms)}: c({z}) = {got}, "
                                        f"expected {want}", states)
        error = orc.check_q_certificate(masks, togs, own, constant,
                                        [rf_parts(c) for c in dec.coeffs])
        if error:
            return fail("certificate", f"{spec} {expression(terms)}: {error}", states)
        return ok(states, states)

    return Op(f"q_decompose {spec} {expression(terms)}", run, check, frontier)


def is_known_table2_chain(row):
    """rect:1,b with b >= 5: past the last chain in verify's exception table."""
    return row[0] == "rect" and row[1] == 1 and row[2] >= 5


def table2_op(row):
    family, *params = row
    spec = f"{family}:{','.join(map(str, params))}"

    def run(rd):
        P = rd.poset(spec)
        dims = rd.rm.decompose.toggleability_space_dims(P)
        return P, dims, rd.rm.verify.expected_table2(family, *params)

    def check(rd, result):
        P, dims, program_row = result
        shape, masks, togs, error = rd.view(spec, P)
        if error:
            return fail("ideals", f"{spec}: {error}")
        want = orc.table2(family, *params)
        if dims != want:
            return fail("table2", f"{spec}: dimensions {dims}, expected {want}", len(masks))
        if program_row != dims:
            # only the chains named in KNOWN_FAULTS are excused; any other
            # disagreement of verify.expected_table2 makes the run incorrect
            kind = "table2-exceptions" if is_known_table2_chain(row) else "table2-program"
            return fail(kind, f"{spec}: verify.expected_table2 gives "
                              f"{program_row}, dimensions are {dims}", len(masks))
        return ok(len(masks))

    return Op(f"table2 {spec}", run, check)


def qcertify(rm, seed):
    rng = random.Random(seed)
    ops = [q_decompose_op(spec, [(Fraction(1), a)])
           for spec, atoms in QCERTIFY_FIXED for a in atoms]
    for spec, count in QCERTIFY_SEEDED:
        ops += [q_decompose_op(spec, t) for t in seeded_pairs(rng, q_atoms(spec), count)]
    ops += [table2_op(row) for row in TABLE2_ROWS]
    spec, name = QCERTIFY_FRONTIER
    ops.append(q_decompose_op(spec, [(Fraction(1), name)], frontier=True))
    return ops


# -- lifted -----------------------------------------------------------------------


LIFTED_POINTS = 16         # shared PL points and birational points per poset
LIFTED_FRONTIER = ("E7", "1*ideal_card")
LIFTED_ORBITS = ("rect:2,3", "rect:3,3", "rect:2,4", "sstair:3")


def random_fraction(rng, bound=100):
    return Fraction(rng.randint(1, bound), rng.randint(1, bound))


def pl_point(rm, P, rng):
    alpha = random_fraction(rng) - Fraction(1, 2)
    omega = random_fraction(rng) + 1
    return rm.lifted.PLPoint(P, [random_fraction(rng) for _ in range(P.n)], alpha, omega)


def b_point(rm, P, rng, bound=100):
    return rm.lifted.BPoint(P, [random_fraction(rng, bound) for _ in range(P.n)],
                            random_fraction(rng, bound), random_fraction(rng, bound))


def random_sigma(rng, P):
    top = P.max_rank()
    return tuple(rng.sample(range(top + 1), top + 1))


def period_divides(spec, period):
    head, args = spec_args(spec)
    return head != "rect" or (args[0] + args[1]) % period == 0


def witness_check_op(spec, shape, label, h, c, pls, bps, frontier=False):
    def run(rd):
        L = rd.rm.lifted
        return ([L.check_pl_constant(h, c, pt) for pt in pls],
                [L.check_b_constant(h, c, pt) for pt in bps])

    def check(rd, result):
        pl_ok, b_ok = result
        n = len(pls) + len(bps)
        if not all(pl_ok) or not all(b_ok):
            return fail("lifted", f"{spec} {label}: lift reported not constant", n, n)
        for pt in pls:
            got = orc.pl_value(shape, h.coeff_in, h.coeff_out, h.coeff_ind,
                               pt.values, pt.alpha, pt.omega)
            if got != c * (pt.omega - pt.alpha):
                return fail("lifted", f"{spec} {label}: own PL value {got} is not "
                                      f"{c} * (omega - alpha)", n, n)
        for pt in bps:
            lhs, rhs = orc.b_lift_power(shape, h.coeff_in, h.coeff_out, h.coeff_ind,
                                        [pt.values], pt.alpha, pt.omega, c)
            if lhs != rhs:
                return fail("lifted", f"{spec} {label}: own birational value is not "
                                      f"(omega/alpha)^{c}", n, n)
        return ok(n, n)

    return Op(f"lifted {spec} {label}", run, check, frontier)


def own_lifted_step(shape, birational, sigma, alpha, omega):
    """The benchmark's own PL or birational map of rowmotion (or its rank
    permutation sigma) on value lists."""
    step = orc.b_step if birational else orc.pl_step
    order = orc.rank_order(shape, sigma)
    return lambda values: step(shape, order, values, alpha, omega)


def lifted_orbit_op(spec, shape, start, sigma):
    birational = type(start).__name__ == "BPoint"

    def run(rd):
        L = rd.rm.lifted
        states = L.lifted_orbit(start, sigma=sigma, max_iter=1000)
        if birational:
            law = True
            for p in range(start.poset.n):
                prod = Fraction(1)
                for s in states:
                    prod *= L.b_t_ratio(s, p)
                law = law and prod == 1
        else:
            law = all(sum(L.pl_t_signed(s, p) for s in states) == 0
                      for p in range(start.poset.n))
        return states, law

    def check(rd, result):
        states, law = result
        n = len(states)
        if not law:
            return fail("orbit-law", f"{spec} sigma={sigma}: program law fails", n, n)
        if not period_divides(spec, n):
            return fail("period", f"{spec} sigma={sigma}: period {n}", n, n)
        values = [s.values for s in states]
        step = own_lifted_step(shape, birational, sigma, start.alpha, start.omega)
        if values[0] != start.values or not orc.is_orbit(step, values):
            return fail("orbit-law", f"{spec} sigma={sigma}: not an orbit of own map", n, n)
        own = orc.b_orbit_law if birational else orc.pl_orbit_law
        error = own(shape, values, start.alpha, start.omega)
        if error:
            return fail("orbit-law", f"{spec} sigma={sigma}: {error}", n, n)
        return ok(n, n)

    level = "birational" if birational else "pl"
    return Op(f"{level} orbit {spec} sigma={sigma}", run, check)


def witness_orbit_op(spec, shape, label, h, c, start, sigma):
    def run(rd):
        return rd.rm.lifted.orbit_homomesy_lifted(h, c, start, sigma=sigma, max_iter=1000)

    birational = type(start).__name__ == "BPoint"

    def check(rd, report):
        n = report.period
        if not report.finite or report.holds is not True:
            return fail("orbit-law", f"{spec} {label}: orbit law not confirmed", n, n)
        if not period_divides(spec, n):
            return fail("period", f"{spec} {label}: period {n}", n, n)
        step = own_lifted_step(shape, birational, sigma, start.alpha, start.omega)
        states = orc.own_orbit(step, start.values)
        if len(states) != n:
            return fail("period", f"{spec} {label}: period {n}, own orbit has {len(states)}",
                        n, n)
        if birational:
            lhs, rhs = orc.b_lift_power(shape, h.coeff_in, h.coeff_out, h.coeff_ind,
                                        states, start.alpha, start.omega, c)
        else:
            lhs = sum((orc.pl_value(shape, h.coeff_in, h.coeff_out, h.coeff_ind,
                                    v, start.alpha, start.omega) for v in states), Fraction(0))
            rhs = n * c * (start.omega - start.alpha)
        if lhs != rhs or report.lhs != lhs or report.rhs != rhs:
            return fail("orbit-law", f"{spec} {label}: own orbit law or the reported "
                                     f"sides disagree", n, n)
        return ok(n, n)

    return Op(f"witness orbit {spec} {label} sigma={sigma}", run, check)


def cli_lifted_op(spec, shape, level, sigma, argv):
    def run(rd):
        return rd.cli(argv)

    def check(rd, result):
        code, text = result
        if code != 0:
            return fail("cli", f"{' '.join(argv)}: exit {code}")
        out = json.loads(text)
        rows = [[Fraction(v) for v in row["values"]] for row in out["rows"]]
        n = len(rows)
        if not out["toggleability_orbit_law"] or out["period"] != n:
            return fail("cli", f"{' '.join(argv)}: orbit law or period misreported", n, n)
        if not period_divides(spec, n):
            return fail("period", f"{' '.join(argv)}: period {n}", n, n)
        alpha, omega = Fraction(out["alpha"]), Fraction(out["omega"])
        if not orc.is_orbit(own_lifted_step(shape, level == "birational", sigma, alpha, omega),
                            rows):
            return fail("cli", f"{' '.join(argv)}: rows are not an orbit of own map", n, n)
        own = orc.b_orbit_law if level == "birational" else orc.pl_orbit_law
        error = own(shape, rows, alpha, omega)
        if error:
            return fail("cli", f"{' '.join(argv)}: {error}", n, n)
        return ok(n, n)

    return Op("cli " + " ".join(argv), run, check)


def cli_suite_op(argv):
    """A `verify` suite through the CLI.  Its JSON holds only each check's
    pass flag, so this verdict is the program's own: the benchmark checks
    the exit code and that every listed check passed, nothing deeper."""
    def run(rd):
        return rd.cli(argv)

    def check(rd, result):
        code, text = result
        out = json.loads(text) if code in (0, 1) else {}
        checks = out.get("checks", [])
        if code != 0 or not out.get("passed") or not checks or not all(
                c["passed"] for c in checks):
            return fail("cli", f"{' '.join(argv)}: exit {code}, suite did not pass")
        return ok()

    return Op("cli " + " ".join(argv), run, check)


def lifted(rm, seed):
    """Certificates are computed here, in set-up; the timed operations only
    evaluate them at the PL and birational levels."""
    rng = random.Random(seed)
    ops = []
    witnesses = {}
    for spec in CERTIFY_LADDER:
        P = rm.families.from_specifier(spec)
        shape = orc.Shape.of(P)
        pls = [pl_point(rm, P, rng) for _ in range(LIFTED_POINTS)]
        bps = [b_point(rm, P, rng) for _ in range(LIFTED_POINTS)]
        stats = [[(Fraction(1), a)] for a in ladder_atoms(spec)] + ladder_combinations(spec)
        for terms in stats:
            f = build_stat(rm, P, terms)
            h, c = rm.lifted.certificate_witness(f, rm.decompose.decompose(P, f))
            label = expression(terms)
            witnesses[(spec, label)] = (P, shape, h, c)
            ops.append(witness_check_op(spec, shape, label, h, c, pls, bps,
                                        frontier=(spec, label) == LIFTED_FRONTIER))
    for spec in LIFTED_ORBITS:
        P = rm.families.from_specifier(spec)
        shape = orc.Shape.of(P)
        for sigma in (None, random_sigma(rng, P), random_sigma(rng, P)):
            ops.append(lifted_orbit_op(spec, shape, pl_point(rm, P, rng), sigma))
            ops.append(lifted_orbit_op(spec, shape, b_point(rm, P, rng, 20), sigma))
    for spec in ("rect:2,3", "rect:3,3"):
        for label in ("antichain_card", "ideal_card"):
            P, shape, h, c = witnesses[(spec, f"1*{label}")]
            sigma = random_sigma(rng, P)
            ops.append(witness_orbit_op(spec, shape, label, h, c, pl_point(rm, P, rng), sigma))
            ops.append(witness_orbit_op(spec, shape, label, h, c, b_point(rm, P, rng, 20),
                                        None))
    ops.append(cli_suite_op(["verify", "lifting", "--seed", str(rng.randint(1, 10**6))]))
    for spec, level, variant in (("rect:3,3", "pl", "rowmotion"),
                                 ("rect:2,3", "birational", "rowmotion"),
                                 ("rect:2,4", "pl", "sigma"),
                                 ("sstair:3", "birational", "sigma")):
        P = rm.families.from_specifier(spec)
        alpha = random_fraction(rng, 20) * (-1 if level == "pl" else 1)
        argv = ["orbits", spec, "--level", level, "--start", f"random:{rng.randint(1, 10**6)}",
                f"--alpha={alpha}", f"--omega={random_fraction(rng, 20) + 1}"]
        sigma = None
        if variant == "sigma":
            sigma = random_sigma(rng, P)
            argv.append("--variant=sigma:" + ",".join(map(str, sigma)))
        ops.append(cli_lifted_op(spec, orc.Shape.of(P), level, sigma, argv))
    return ops


# -- orbits -----------------------------------------------------------------------


# Most homomesy verdicts are on rect:7,7, so that the median operation is
# tens of milliseconds long rather than a fraction of one.
ORBIT_POSETS = {
    "rect:7,7": ["antichain_card", "ideal_card", "pfiber:1", "pfiber:4", "pfiber:7",
                 "nfiber:1", "nfiber:2", "nfiber:7", "file:-3", "file:0", "file:3"],
    "rect:8,8": ["antichain_card"],
    "sstair:6": ["antichain_card", "ideal_card", "diag", "sfiber:3", "file:2"],
    "E7": ["antichain_card", "ideal_card"],
}
ORBIT_VARIANTS = ("rowmotion", "gyration", "sigma", "antichain")
# (spec, r, s, flavour cycle, homomesy or bare partition); the first is the frontier
Q_RUNS = (
    ("rect:4,4", 1, 2, "default", True),
    ("rect:3,4", 2, 2, "random", True),
    ("rect:3,5", 2, 1, "random", True),
    ("rect:4,4", 2, 1, "random", False),
)


def own_sigma_step(shape, sigma):
    ranks = [[p for p in range(shape.n) if shape.height[p] == i]
             for i in range(shape.top_height() + 1)]
    order = [p for i in reversed(sigma) for p in ranks[i]]
    up, down = shape.up, shape.down

    def step(mask):
        for p in order:
            if mask >> p & 1:
                if up[p] & mask == 0:
                    mask ^= 1 << p
            elif down[p] & ~mask == 0:
                mask |= 1 << p
        return mask

    return step


def own_step(shape, variant, sigma):
    if variant == "rowmotion":
        return shape.rowmotion
    if variant == "antichain":
        def step(mask):
            ideal = 0
            for p in orc.bits(mask):
                ideal |= shape.downset[p]
            return shape.addable(ideal)
        return step
    if variant == "gyration":
        top = shape.top_height()
        sigma = tuple(range(1, top + 1, 2)) + tuple(range(0, top + 1, 2))
    return own_sigma_step(shape, sigma)


def action(rd, spec, variant, sigma):
    """(step, state space) of a rowmotion variant, through the program."""
    D, P = rd.rm.dynamics, rd.poset(spec)
    if variant == "antichain":
        space = rd.get(("antichains", spec), lambda: rd.rm.poset.enumerate_antichains(P))
        return (lambda A: D.antichain_rowmotion(P, A)), space
    space = rd.get(("ideals", spec), lambda: rd.rm.poset.enumerate_ideals(P))
    if variant == "rowmotion":
        return (lambda I: D.rowmotion(P, I)), space
    if variant == "gyration":
        return D.gyration(P), space
    return D.rowmotion_sigma(P, sigma), space


def partition_op(spec, variant, sigma):
    def run(rd):
        step, space = action(rd, spec, variant, sigma)
        return rd.poset(spec), rd.rm.dynamics.orbit_partition(step, space)

    def check(rd, result):
        P, orbits = result
        shape, masks, togs, error = rd.view(spec, P)
        if error:
            return fail("ideals", f"{spec}: {error}")
        total = sum(len(o.states) for o in orbits)
        if total != len(masks):
            return fail("orbits", f"{spec} {variant}: {total} states, expected {len(masks)}")
        h = orc.coxeter_period(spec)
        bad = [len(o.states) for o in orbits if h % len(o.states)]
        if bad:
            return fail("period", f"{spec} {variant}: periods {bad} do not divide {h}", total)
        step = own_step(shape, variant, sigma)
        for o in orbits:
            ms = [s.mask for s in o.states]
            if any(step(m) != ms[(k + 1) % len(ms)] for k, m in enumerate(ms)):
                return fail("orbits", f"{spec} {variant}: an orbit is not a cycle of the map",
                            total)
        return ok(total)

    return Op(f"orbit_partition {spec} {variant}", run, check)


def homomesy_op(spec, variant, sigma, name):
    def run(rd):
        P = rd.poset(spec)
        f = rd.get(("stat", spec, name), lambda: rd.rm.statistics.named_statistic(P, name))
        step, space = action(rd, spec, variant, sigma)
        return P, rd.rm.statistics.homomesy_check(f, step, space)

    def check(rd, result):
        P, report = result
        shape, masks, togs, error = rd.view(spec, P)
        if error:
            return fail("ideals", f"{spec}: {error}")
        want = orc.closed_form(spec, name, shape)
        total = sum(report.orbit_sizes)
        if total != len(masks):
            return fail("orbits", f"{spec} {variant}: {total} states", total, total)
        if (not report.is_homomesic or report.global_average != want
                or any(a != want for a in report.orbit_averages)):
            seen = [str(x) for x in sorted(set(report.orbit_averages))]
            return fail("average", f"{spec} {variant} {name}: orbit averages {seen}, "
                                   f"expected {want}",
                        total, total)
        return ok(total, total)

    return Op(f"homomesy {spec} {variant} {name}", run, check)


def q_orbit_op(spec, r, s, theta_seed, homomesy, frontier=False):
    a, b = spec_args(spec)[1]
    count = orc.rect_labeling_count(a, b, r, s)

    def alphabet(rm):
        if theta_seed is None:
            return rm.qrow.FlavorAlphabet.default(r, s)
        return rm.qrow.FlavorAlphabet.random(r, s, random.Random(theta_seed))

    def run(rd):
        rm, P = rd.rm, rd.poset(spec)
        if not homomesy:
            return rm.qrow.q_orbits(P, alphabet(rm))
        f = rd.get(("stat", spec, "antichain_card"),
                   lambda: rm.statistics.named_statistic(P, "antichain_card"))
        expected = rm.qpoly.RationalFunction(
            rm.qpoly.q_number(a) * rm.qpoly.q_number(b), rm.qpoly.q_number(a + b))
        return rm.qrow.q_homomesy_check(P, alphabet(rm), f, expected=expected)

    def check(rd, result):
        if not homomesy:
            # Distinct labelings are counted without a set beside the result:
            # the orbits are emptied into one list, sorted in place, so that
            # the check stays below the program's own peak memory.
            labelings = []
            while result:
                labelings += result.pop()
            labelings.sort()
            total = len(labelings)
            distinct = total - sum(labelings[k] == labelings[k - 1] for k in range(1, total))
            if total != count or distinct != count:
                return fail("q-orbits", f"{spec} r={r} s={s}: {total} labelings "
                                        f"({distinct} distinct), expected {count}", total)
            return ok(total)
        total = sum(result.orbit_sizes)
        want = orc.q_closed_form(spec, "antichain_card", Fraction(r, s))
        if total != count:
            return fail("q-orbits", f"{spec} r={r} s={s}: {total} labelings, expected {count}",
                        total, total)
        if (not result.is_homomesic or result.matches_expected is not True
                or any(x != want for x in result.orbit_averages)):
            seen = [str(x) for x in sorted(set(result.orbit_averages))]
            return fail("average", f"{spec} r={r} s={s}: q-orbit averages {seen}, "
                                   f"expected {want}",
                        total, total)
        return ok(total, total)

    kind = "q_homomesy_check" if homomesy else "q_orbits"
    return Op(f"{kind} {spec} r={r} s={s}", run, check, frontier)


def cli_orbits_op(argv, spec, count, period):
    def run(rd):
        return rd.cli(argv)

    def check(rd, result):
        code, text = result
        if code != 0:
            return fail("cli", f"{' '.join(argv)}: exit {code}")
        out = json.loads(text)
        sizes = out["orbit_sizes"]
        if out["total_states"] != count or sum(sizes) != count or not out["sum_check"]:
            return fail("cli", f"{' '.join(argv)}: {out['total_states']} states, "
                               f"expected {count}", count)
        if period and any(period % k for k in sizes):
            return fail("period", f"{' '.join(argv)}: periods do not divide {period}", count)
        return ok(count)

    return Op("cli " + " ".join(argv), run, check)


def cli_qrow_op(argv, want):
    def run(rd):
        return rd.cli(argv)

    def check(rd, result):
        code, text = result
        out = json.loads(text) if code in (0, 1) else {}
        if code != 0 or out.get("matches_expected") is not True:
            return fail("cli", f"{' '.join(argv)}: exit {code}, no match")
        if Fraction(out["expected_at_q"]) != want or any(
                Fraction(x) != want for x in out["orbit_averages"]):
            return fail("average", f"{' '.join(argv)}: averages {out['orbit_averages']}, "
                                   f"expected {want}")
        n = sum(out["orbit_sizes"])
        return ok(n, n)

    return Op("cli " + " ".join(argv), run, check)


def orbits(rm, seed):
    rng = random.Random(seed)
    ops = []
    for spec, names in ORBIT_POSETS.items():
        P = rm.families.from_specifier(spec)
        sigma = random_sigma(rng, P)
        for variant in ORBIT_VARIANTS:
            ops.append(partition_op(spec, variant, sigma))
            ops += [homomesy_op(spec, variant, sigma, name) for name in names]
    for k, (spec, r, s, theta, homomesy) in enumerate(Q_RUNS):
        theta_seed = None if theta == "default" else rng.randint(1, 10**6)
        ops.append(q_orbit_op(spec, r, s, theta_seed, homomesy, frontier=k == 0))
    sigma = random_sigma(rng, rm.families.from_specifier("rect:5,5"))
    ops += [
        cli_orbits_op(["orbits", "rect:6,6", "--variant", "gyration"], "rect:6,6",
                      comb(12, 6), 12),
        cli_orbits_op(["orbits", "rect:5,5", "--variant", "sigma:" + ",".join(map(str, sigma))],
                      "rect:5,5", comb(10, 5), 10),
        cli_orbits_op(["orbits", "E7", "--variant", "antichain"], "E7", 56, 18),
        cli_orbits_op(["orbits", "rect:3,3", "--variant", "q:1,2",
                       "--theta", f"random:{rng.randint(1, 10**6)}"],
                      "rect:3,3", orc.rect_labeling_count(3, 3, 1, 2), None),
        cli_qrow_op(["qrow", "--family", "rect:3,3", "--r", "1", "--s", "2",
                     "--theta", f"random:{rng.randint(1, 10**6)}", "--stat", "antichain_card",
                     "--expect", "qnum(3)*qnum(3)/qnum(6)"],
                    orc.q_closed_form("rect:3,3", "antichain_card", Fraction(1, 2))),
        cli_suite_op(["verify", "striker", "--seed", str(rng.randint(1, 10**6))]),
        cli_suite_op(["verify", "qstriker", "--seed", str(rng.randint(1, 10**6))]),
    ]
    return ops


WORKLOADS = {"certify": certify, "qcertify": qcertify, "lifted": lifted, "orbits": orbits}
