"""Oracle self-test: every injected error must be reported as a failed operation.

    python3 bench/selftest.py

Runs a few operations of the workloads once, then hands each check a result
with one error injected: a tampered certificate coefficient, a wrong
constant, wrong orbit averages (combinatorial and q), NOT IN SPAN verdicts
flipped both ways, a wrong Table 2 row outside the known chain fault,
tampered PL and birational orbit states, and a lifted orbit law reported to
hold with wrong sides.  The untampered results are checked too and must
pass.  Prints one JSON object; exit code 0 when every injected error was
reported as a failed operation of a kind that makes the run incorrect and
every clean result passed.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from fractions import Fraction

import run
import workloads as wl


def tamper_coeff(result):
    P, f, dec = result
    coeffs = list(dec.coeffs)
    coeffs[len(coeffs) // 2] += Fraction(1, 3)
    return P, f, dataclasses.replace(dec, coeffs=tuple(coeffs))


def wrong_constant(result):
    P, f, dec = result
    return P, f, dataclasses.replace(dec, constant=dec.constant + 1)


def wrong_average(result):
    P, report = result
    averages = list(report.orbit_averages)
    averages[-1] += Fraction(1, 7)
    return P, dataclasses.replace(report, orbit_averages=tuple(averages))


def wrong_q_average(report):
    averages = list(report.orbit_averages)
    averages[0] -= Fraction(1, 11)
    return dataclasses.replace(report, orbit_averages=tuple(averages))


def wrong_table2_row(result):
    P, dims, program_row = result
    return P, dims, dict(program_row, dim_I_q=program_row["dim_I_q"] + 1)


def tampered_orbit_state(result):
    states, law = result
    states = list(states)
    states[1] = states[1].replace_value(0, states[1].values[0] + Fraction(1, 5))
    return states, law


def wrong_orbit_law_sides(report):
    return dataclasses.replace(report, lhs=report.rhs + 1, rhs=report.rhs + 1)


def flip_to_certificate(rm):
    def inject(result):
        P, f, dec = result
        fake = rm.decompose.Decomposition(P, Fraction(1), (Fraction(0),) * P.n,
                                          rm.statistics.RATIONAL)
        return P, f, fake
    return inject


def flip_to_not_in_span(result):
    P, f, dec = result
    return P, f, None


def main():
    sys.path.insert(0, str(run.ROOT / "src"))
    rm = run.fresh_import()
    ops = {op.name: op for w in ("certify", "qcertify", "orbits", "lifted")
           for op in wl.WORKLOADS[w](rm, 1)}
    witness = next(name for name in ops
                   if name.startswith("witness orbit rect:3,3 antichain_card sigma=("))
    cases = (
        ("decompose rect:3,3 1*antichain_card", "tampered certificate coefficient", tamper_coeff),
        ("decompose sstair:4 1*diag", "wrong constant", wrong_constant),
        ("homomesy E7 rowmotion antichain_card", "wrong orbit average", wrong_average),
        ("q_homomesy_check rect:3,5 r=2 s=1", "wrong q-orbit average", wrong_q_average),
        ("decompose rootD:4 1*antichain_card", "NOT IN SPAN flipped to a certificate",
         flip_to_certificate(rm)),
        ("decompose E6 1*ideal_card", "certificate flipped to NOT IN SPAN", flip_to_not_in_span),
        ("table2 rect:2,3", "wrong Table 2 row from verify.expected_table2", wrong_table2_row),
        ("pl orbit rect:2,3 sigma=None", "tampered PL orbit state", tampered_orbit_state),
        ("birational orbit rect:3,3 sigma=None", "tampered birational orbit state",
         tampered_orbit_state),
        (witness, "orbit law reported to hold with wrong sides", wrong_orbit_law_sides),
    )
    rd = wl.Round(rm)
    report, good = [], True
    for name, what, inject in cases:
        op = ops[name]
        result = op.run(rd)
        for label, value in (("clean", result), ("injected", inject(result))):
            failure, _, _ = op.check(rd, value)
            expect_failure = label == "injected"
            # an injected error must fail the operation and make the run
            # incorrect, so it may not pass for the known fault
            good = good and (failure is None if not expect_failure
                             else failure is not None and failure.kind not in wl.KNOWN_FAULTS)
            report.append({"operation": name, "input": what if expect_failure else label,
                           "reported": "passed" if failure is None
                           else f"failed ({failure.kind}: {failure.detail})"})
    failed = sum(r["reported"] != "passed" for r in report)
    print(json.dumps({"ok": good, "attempted": len(report), "failed": failed,
                      "cases": report}, indent=1))
    return 0 if good else 1


if __name__ == "__main__":
    sys.exit(main())
