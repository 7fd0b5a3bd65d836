"""Command-line driver: orbit tables, certificates, verification suites, and
q-rowmotion experiments, with deterministic JSON/CSV output.

Exit codes: 0 answer produced / checks pass, 1 verification failure (the
mathematics failed), 2 usage error, 3 resource cap exceeded, 4 internal
error, 141 stdout closed by its reader (128 + SIGPIPE).  Every failure
prints one `error:` line to stderr, except a resource cap, which prints a
JSON object to stdout, and a closed stdout, which prints nothing.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import random
import sys

from . import dynamics, families, lifted, qrow, statistics as st, verify
from .decompose import decompose, q_decompose
from .poset import CapExceededError, _bits
from .qpoly import (
    CertificateError,
    RationalFunction,
    format_fraction,
    q_binomial,
    q_factorial,
    q_number,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_CAP = 3
EXIT_INTERNAL = 4
EXIT_PIPE = 141  # 128 + SIGPIPE, as a shell reports a tool stopped by a closed pipe


def _emit(args, payload):
    if getattr(args, "format", "json") == "csv":
        _emit_csv(payload)
    else:
        print(json.dumps(payload, sort_keys=True, indent=2))


def _emit_csv(payload):
    rows = payload.get("rows")
    if rows is None:
        raise ValueError("this command has no CSV table form")
    if rows:
        header = list(rows[0])
        out = csv.writer(sys.stdout, lineterminator="\n")
        out.writerow(header)
        out.writerows([str(row[h]) for h in header] for row in rows)


# -- orbits ---------------------------------------------------------------------------


def cmd_orbits(args) -> int:
    P = families.from_specifier(args.family)
    variant = args.variant
    if args.level != "combinatorial":
        return _lifted_orbit_payload(args, P)
    if variant.startswith("q:"):
        r, s = families.parse_ints(
            variant[2:], 2, f"variant {variant!r} must be q:<r>,<s> with integers r and s")
        alphabet, offsets = _alphabet(args, P, r, s)
        orbits = qrow._representatives(P, alphabet, offsets=offsets)
        total = offsets[-1]
        sizes = [size for size, _ in orbits]
        sep = "," if r + s > 10 else ""  # a label may have two digits
        reps = [sep.join(map(str, first)) for _, first in orbits]
    else:
        # antichain k is max of ideal k, so antichain rowmotion has the
        # cycles of rowmotion on the ideal indices
        sigma = _rank_sigma(P, "rowmotion" if variant == "antichain" else variant,
                            f"unknown variant {variant!r}")
        order = dynamics.rowmotion_order(P) if sigma is None else dynamics.sigma_order(P, sigma)
        cycles = dynamics.index_orbits(P, P.sweep_permutation(order))
        masks = P.antichain_masks() if variant == "antichain" else P.ideal_masks()
        total = len(masks)
        sizes = [len(cyc) for cyc in cycles]
        reps = [str(list(_bits(masks[cyc[0]]))) for cyc in cycles]
    payload = {
        "family": args.family,
        "variant": variant,
        "orbit_sizes": sizes,
        "representatives": reps,
        "total_states": total,
        "sum_check": sum(sizes) == total,
        "rows": [
            {"orbit": k, "size": sz, "representative": rep}
            for k, (sz, rep) in enumerate(zip(sizes, reps))
        ],
    }
    _emit(args, payload)
    return EXIT_OK if payload["sum_check"] else EXIT_FAIL


def _rank_sigma(P, variant, error):
    """The rank permutation that a rowmotion, gyration or sigma:<perm>
    variant names, None for rowmotion's order; any other variant raises
    ValueError(error)."""
    if variant == "rowmotion":
        return None
    if variant == "gyration":
        return dynamics.gyration_sigma(P)
    if variant.startswith("sigma:"):
        return tuple(families.parse_ints(
            variant[6:], None, f"variant {variant!r} must be sigma:<ranks> with integer ranks"))
    raise ValueError(error)


def _lifted_orbit_payload(args, P) -> int:
    bounds = {name: st.parse_fraction(text)
              for name, text in (("alpha", args.alpha), ("omega", args.omega)) if text}
    point = lifted.PLPoint if args.level == "pl" else lifted.BPoint
    pt = point(P, _start_values(args, P), **bounds)
    sigma = _rank_sigma(P, args.variant,
                        "lifted levels support variants rowmotion, gyration and sigma:<perm>")
    states = lifted.lifted_orbit(pt, sigma=sigma, max_iter=args.max_iter)
    laws = lifted.toggleability_orbit_law(states)
    payload = {
        "family": args.family,
        "level": args.level,
        "variant": args.variant,
        "alpha": format_fraction(pt.alpha),
        "omega": format_fraction(pt.omega),
        "start": [format_fraction(v) for v in pt.values],
        "period": len(states),
        "toggleability_orbit_law": laws,
        "rows": [{"step": k, "values": [format_fraction(v) for v in s.values]}
                 for k, s in enumerate(states)],
    }
    _emit(args, payload)
    return EXIT_OK if laws else EXIT_FAIL


def _start_values(args, P):
    spec = args.start
    if spec.startswith("random:"):
        rng = random.Random(*families.parse_ints(
            spec[7:], 1, f"start {spec!r} must be random:<seed> with an integer seed"))
        return [lifted.random_fraction(rng) for _ in range(P.n)]
    if spec.startswith("file:"):
        with open(spec.split(":", 1)[1]) as fh:
            data = json.load(fh)
        if not isinstance(data, list):
            raise ValueError("a start file must hold a JSON list of values")
        return [st.parse_fraction(v) for v in data]
    raise ValueError("start must be 'random:<seed>' or 'file:<path>'")


def _alphabet(args, P, r, s):
    """The flavor alphabet that --theta names, and the labeling offsets of
    `qrow._offsets`, whose cap check runs first and once per command."""
    offsets = qrow._offsets(P, r, s)
    theta = getattr(args, "theta", "default") or "default"
    if theta == "default":
        return qrow.FlavorAlphabet.default(r, s), offsets
    if theta.startswith("random:"):
        rng = random.Random(*families.parse_ints(
            theta[7:], 1, f"theta {theta!r} must be random:<seed> with an integer seed"))
        return qrow.FlavorAlphabet.random(r, s, rng), offsets
    raise ValueError("theta must be 'default' or 'random:<seed>'")


# -- decompose -------------------------------------------------------------------------


def cmd_decompose(args) -> int:
    P = families.from_specifier(args.family)
    stat = st.parse_statistic(P, args.stat)
    dec = (q_decompose if args.q else decompose)(P, stat)
    if dec is None:
        _emit(args, {"family": args.family, "stat": args.stat,
                     "status": "NOT IN SPAN"})
        return EXIT_OK
    payload = {
        "family": args.family,
        "stat": args.stat,
        "status": "ok",
        "constant": "c = " + (format_fraction(dec.constant) if dec.kind == st.RATIONAL
                              else str(dec.constant)),
        "certificate": dec.to_json_dict(),
    }
    _emit(args, payload)
    return EXIT_OK


# -- verify ----------------------------------------------------------------------------


def cmd_verify(args) -> int:
    result = verify.run_suite(
        args.suite,
        max_cells=args.max_cells,
        max_size=args.max,
        seed=args.seed,
        jobs=args.jobs,
    )
    payload = result.to_json_dict()
    payload["rows"] = [
        {"check": c.label, "passed": c.passed, "detail": c.detail}
        for c in result.checks
    ]
    _emit(args, payload)
    return EXIT_OK if result.passed else EXIT_FAIL


# -- qrow ------------------------------------------------------------------------------


def cmd_qrow(args) -> int:
    P = families.from_specifier(args.family)
    alphabet, offsets = _alphabet(args, P, args.r, args.s)
    stat = st.parse_statistic(P, args.stat)
    expected = parse_q_expression(args.expect) if args.expect else None
    report = qrow.q_homomesy_check(P, alphabet, stat, expected=expected, offsets=offsets)
    payload = {
        "family": args.family,
        "r": args.r,
        "s": args.s,
        "theta": list(alphabet.theta),
        "stat": args.stat,
        "orbit_sizes": list(report.orbit_sizes),
        "orbit_averages": [format_fraction(a) for a in report.orbit_averages],
        "is_homomesic": report.is_homomesic,
    }
    passed = report.is_homomesic
    if expected is not None:
        payload["expected_at_q"] = format_fraction(report.expected)
        payload["matches_expected"] = passed = report.matches_expected
    _emit(args, payload)
    return EXIT_OK if passed else EXIT_FAIL


# -- q-expression grammar ----------------------------------------------------------------
#
#   expr   := term (('+'|'-') term)*
#   term   := factor (('*'|'/') factor)*
#   factor := base ('^' int)?
#   base   := 'q' | int | 'qnum(n)' | 'qfact(n)' | 'qbinom(n,k)' | '(' expr ')'
#
# No polynomial of degree above MAX_Q_DEGREE is built: each rule checks the
# degree of what it is about to build first.  At the bound the slowest single
# rule, (1+q)^300, takes about 0.6 s on a 2-core x86-64 host.

MAX_Q_DEGREE = 300


def _bound_degree(degree):
    if degree > MAX_Q_DEGREE:
        raise ValueError(f"q-expression degree {degree} exceeds the bound {MAX_Q_DEGREE}")


def _degree(value: RationalFunction) -> int:
    return max(value.num.degree, value.den.degree, 0)


def parse_q_expression(text: str) -> RationalFunction:
    tokens = _tokenize_q(text)
    try:
        value, pos = _parse_expr(tokens, 0)
    except RecursionError:
        raise ValueError("q-expression is nested too deeply") from None
    if pos != len(tokens):
        raise ValueError(f"trailing tokens in q-expression: {tokens[pos:]}")
    return value


def _tokenize_q(text):
    out = []
    k = 0
    while k < len(text):
        ch = text[k]
        if ch.isspace():
            k += 1
        elif ch.isdigit() or ch.isalpha():
            same = str.isdigit if ch.isdigit() else str.isalpha  # a run of one kind
            j = k + 1
            while j < len(text) and same(text[j]):
                j += 1
            out.append(text[k:j])
            k = j
        elif ch in "+-*/^(),":
            out.append(ch)
            k += 1
        else:
            raise ValueError(f"bad character {ch!r} in q-expression")
    return out


def _parse_expr(tokens, pos):
    value, pos = _parse_term(tokens, pos)
    while pos < len(tokens) and tokens[pos] in "+-":
        op = tokens[pos]
        rhs, pos = _parse_term(tokens, pos + 1)
        _bound_degree(_degree(value) + _degree(rhs))
        value = value + rhs if op == "+" else value - rhs
    return value, pos


def _parse_term(tokens, pos):
    value, pos = _parse_factor(tokens, pos)
    while pos < len(tokens) and tokens[pos] in "*/":
        op = tokens[pos]
        rhs, pos = _parse_factor(tokens, pos + 1)
        if op == "/" and rhs.is_zero():
            raise ValueError("division by zero in q-expression")
        _bound_degree(_degree(value) + _degree(rhs))
        value = value * rhs if op == "*" else value / rhs
    return value, pos


def _parse_factor(tokens, pos):
    value, pos = _parse_base(tokens, pos)
    if pos < len(tokens) and tokens[pos] == "^":
        k = _integer(_token(tokens, pos + 1))
        if k > MAX_Q_DEGREE:
            raise ValueError(f"q-expression exponent {k} exceeds the bound {MAX_Q_DEGREE}")
        _bound_degree(k * _degree(value))
        value = value ** k
        pos += 2
    return value, pos


def _token(tokens, pos):
    if pos >= len(tokens):
        raise ValueError("q-expression ended unexpectedly")
    return tokens[pos]


def _integer(tok):
    return families.parse_ints(tok, 1, f"expected an integer in q-expression, not {tok!r}")[0]


def _parse_base(tokens, pos):
    tok = _token(tokens, pos)
    if tok == "(":
        value, pos = _parse_expr(tokens, pos + 1)
        if _token(tokens, pos) != ")":
            raise ValueError("unbalanced parentheses in q-expression")
        return value, pos + 1
    if tok == "q":
        return RationalFunction.q(), pos + 1
    if tok.isdigit():
        return RationalFunction.const(_integer(tok)), pos + 1
    if tok in ("qnum", "qfact", "qbinom"):
        if _token(tokens, pos + 1) != "(":
            raise ValueError(f"{tok} needs parenthesized arguments")
        argv = []
        p = pos + 2
        while _token(tokens, p) != ")":
            if tokens[p] != ",":
                argv.append(_integer(tokens[p]))
            p += 1
        arity = 2 if tok == "qbinom" else 1
        if len(argv) != arity:
            raise ValueError(f"{tok} takes {arity} argument(s), not {len(argv)}")
        n = argv[0]  # qfact(n) and qbinom(n, k) build [n]_q!
        _bound_degree(n - 1 if tok == "qnum" else n * (n - 1) // 2)
        if tok == "qnum":
            return RationalFunction(q_number(*argv)), p + 1
        if tok == "qfact":
            return RationalFunction(q_factorial(*argv)), p + 1
        return q_binomial(*argv), p + 1
    raise ValueError(f"unexpected token {tok!r} in q-expression")


# -- entry point ---------------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="rowmotion",
        description="Rowmotion dynamics and exact homomesy certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_orb = sub.add_parser("orbits", help="orbit structure of a rowmotion variant")
    p_orb.add_argument("family")
    p_orb.add_argument("--variant", default="rowmotion",
                       help="rowmotion|gyration|antichain|sigma:<perm>|q:<r,s>")
    p_orb.add_argument("--theta", default="default")
    p_orb.add_argument("--level", choices=("combinatorial", "pl", "birational"),
                       default="combinatorial")
    p_orb.add_argument("--alpha", default=None, help="boundary value, e.g. 2/3")
    p_orb.add_argument("--omega", default=None)
    p_orb.add_argument("--start", default="random:1",
                       help="random:<seed> or file:<path> (lifted levels)")
    p_orb.add_argument("--max-iter", type=int, default=10_000)
    p_orb.add_argument("--format", choices=("json", "csv"), default="json")
    p_orb.set_defaults(fn=cmd_orbits)

    p_dec = sub.add_parser("decompose", help="certificate for a statistic")
    p_dec.add_argument("family")
    p_dec.add_argument("stat")
    p_dec.add_argument("--q", action="store_true", help="work over Q(q)")
    p_dec.add_argument("--format", choices=("json",), default="json")
    p_dec.set_defaults(fn=cmd_decompose)

    p_ver = sub.add_parser("verify", help="run a verification suite")
    p_ver.add_argument("suite", choices=verify.SUITES)
    p_ver.add_argument("--max-cells", type=int, default=16)
    p_ver.add_argument("--max", type=int, default=4)
    p_ver.add_argument("--seed", type=int, default=1)
    p_ver.add_argument("--jobs", type=int, default=1)
    p_ver.add_argument("--format", choices=("json", "csv"), default="json")
    p_ver.set_defaults(fn=cmd_verify)

    p_q = sub.add_parser("qrow", help="q-rowmotion homomesy experiment")
    p_q.add_argument("--family", required=True)
    p_q.add_argument("--r", type=int, required=True)
    p_q.add_argument("--s", type=int, required=True)
    p_q.add_argument("--theta", default="default",
                     help="default or random:<seed>")
    p_q.add_argument("--stat", required=True)
    p_q.add_argument("--expect", default=None,
                     help="rational function of q, e.g. 'qnum(2)*qnum(3)/qnum(5)'")
    p_q.add_argument("--format", choices=("json",), default="json")
    p_q.set_defaults(fn=cmd_qrow)
    return parser


@functools.cache
def _parser():
    """The parser `main` reads every call with, built once per process:
    parsing leaves it as it was, and building it is most of a small call.
    Each subcommand's `fn` is bound when it is built."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # argparse (3.11) parses `--opt=--` to []; no option here takes a list
    listed = [dest for dest, value in vars(args).items() if isinstance(value, list)]
    if listed:
        print(f"error: argument --{listed[0].replace('_', '-')}: expected one argument",
              file=sys.stderr)
        return EXIT_USAGE
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a reader that closed stdout shows here, not at exit
        return code
    except CapExceededError as exc:
        print(json.dumps({"error": "resource cap", "detail": str(exc)}))
        return EXIT_CAP
    except BrokenPipeError:
        # the reader closed stdout; keep the final flush quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CertificateError as exc:
        print(f"error: a certificate check failed: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except Exception as exc:
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
