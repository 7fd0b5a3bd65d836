"""Per-layer tracing of the rowmotion package, installed from outside.

`Tracer.install` replaces the layer functions listed in TARGETS by wrappers.
It patches every binding a caller actually uses: a function imported with
`from .linalg import solve_exact` is a separate module attribute in each
importing module (and in the package namespace, where `rowmotion.decompose`
is the function, not the module), so every attribute of every `rowmotion`
module that is the original object is replaced.  Methods are replaced on
their class.  An untraced run never imports this module.

A target missing from the program is skipped and its metric reads 0.

Spans (id, name, start, end, parent) are kept in memory and written out when
the run ends.  A layer's self time is its spans' duration minus the time of
the wrapped calls made inside them.  Very hot functions are only counted or
timed in aggregate, without a span record each.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

# (name, unit) of every per-layer metric, in report order.
PER_LAYER = (
    ("poset.enum_s", "s"), ("poset.ideals", "count"),
    ("families.build_s", "s"),
    ("statistics.vector_s", "s"), ("statistics.vectors", "count"),
    ("statistics.entries", "count"), ("statistics.homomesy_s", "s"),
    ("linalg.solve_s", "s"), ("linalg.rows_added", "count"),
    ("linalg.pivot_yield", "ratio"), ("linalg.rf_solve_s", "s"),
    ("linalg.rf_rows_added", "count"), ("linalg.nullspace_s", "s"),
    ("decompose.self_s", "s"), ("decompose.certs", "count"),
    ("decompose.not_in_span", "count"), ("decompose.dims_s", "s"),
    ("qpoly.gcd_calls", "count"), ("qpoly.gcd_s", "s"), ("qpoly.rf_built", "count"),
    ("lifted.check_s", "s"), ("lifted.checks", "count"), ("lifted.eval_s", "s"),
    ("lifted.toggles", "count"), ("lifted.orbit_s", "s"),
    ("dynamics.orbit_s", "s"), ("dynamics.states", "count"), ("dynamics.steps", "count"),
    ("qrow.orbit_s", "s"), ("qrow.labelings", "count"), ("qrow.homomesy_s", "s"),
    ("verify.check_s", "s"), ("verify.checks", "count"),
    ("cli.self_s", "s"), ("cli.bytes_out", "bytes"),
)

SPAN = "span"      # timed, one span record per call
TIMED = "timed"    # timed in aggregate, no span record
COUNT = "count"    # counted only; its time stays with the caller


def _len_sum(result):
    return sum(len(o) for o in result)


# (module, function or Class.method names, self-time bucket, mode, counters)
# A counter is (metric, fn(args, result) -> increment).
TARGETS = (
    ("poset", ("Poset.ideal_masks",), "poset.enum_s", "enum", ()),
    ("families", ("rectangle", "shifted_staircase", "root_poset_A", "root_poset_B",
                  "trapezoid", "double_tailed_diamond", "chain_of_vs", "minuscule_E6",
                  "minuscule_E7", "root_poset_from_cartan", "root_poset_D4",
                  "all_minuscule", "staircase_quotient", "type_b_quotient",
                  "from_specifier"), "families.build_s", SPAN, ()),
    ("statistics", ("Statistic.__init__",), None, COUNT,
     (("statistics.vectors", lambda a, r: 1),
      ("statistics.entries", lambda a, r: len(a[0].values)))),
    ("statistics", ("from_combo", "indicator_ideal", "t_in", "t_out", "t_signed", "t_q",
                    "constant_statistic", "rook_rect", "rook_sstair", "rook_A", "rook_B",
                    "var_rook_B", "antichain_toggleability", "named_statistic",
                    "parse_statistic", "Statistic.__add__", "Statistic.__sub__",
                    "Statistic.__rmul__", "Statistic.as_q", "Statistic.specialize"),
     "statistics.vector_s", SPAN, ()),
    ("statistics", ("homomesy_check",), "statistics.homomesy_s", SPAN, ()),
    ("linalg", ("solve_exact",), "linalg.solve_s", SPAN, ()),
    ("linalg", ("solve_exact_rf",), "linalg.rf_solve_s", SPAN, ()),
    ("linalg", ("rank_rational", "null_space_basis", "span_basis", "intersect_spans",
                "rank_poly_matrix"), "linalg.nullspace_s", SPAN, ()),
    ("linalg", ("IntEchelon.add",), None, COUNT,
     (("linalg.rows_added", lambda a, r: 1),
      ("linalg.pivots", lambda a, r: r is not None))),
    ("linalg", ("RFEchelon.add",), None, COUNT, (("linalg.rf_rows_added", lambda a, r: 1),)),
    ("decompose", ("decompose", "q_decompose"), "decompose.self_s", SPAN,
     (("decompose.certs", lambda a, r: r is not None),
      ("decompose.not_in_span", lambda a, r: r is None))),
    ("decompose", ("verify_independence", "antichain_span_dim",
                   "Decomposition.reconstruction"), "decompose.self_s", SPAN, ()),
    ("decompose", ("toggleability_space_dims",), "decompose.dims_s", SPAN, ()),
    ("qpoly", ("poly_gcd",), "qpoly.gcd_s", TIMED, (("qpoly.gcd_calls", lambda a, r: 1),)),
    ("qpoly", ("RationalFunction.__init__",), None, COUNT, (("qpoly.rf_built", lambda a, r: 1),)),
    ("lifted", ("check_pl_constant", "check_b_constant"), "lifted.check_s", SPAN,
     (("lifted.checks", lambda a, r: 1),)),
    ("lifted", ("LiftedStatistic.eval_pl", "LiftedStatistic.b_factors", "lift_statistic",
                "certificate_witness"), "lifted.eval_s", SPAN, ()),
    ("lifted", ("pl_t_in", "pl_t_out", "pl_t_signed", "b_t_in", "b_t_out", "b_t_ratio",
                "lifted_toggleability"), "lifted.eval_s", TIMED, ()),
    ("lifted", ("pl_toggle", "b_toggle"), None, COUNT, (("lifted.toggles", lambda a, r: 1),)),
    ("lifted", ("lifted_orbit", "orbit_homomesy_lifted"), "lifted.orbit_s", SPAN, ()),
    ("lifted", ("pl_rowmotion", "b_rowmotion", "pl_rowmotion_sigma", "b_rowmotion_sigma"),
     "lifted.orbit_s", TIMED, ()),
    ("dynamics", ("orbit_partition",), "dynamics.orbit_s", SPAN,
     (("dynamics.states", lambda a, r: _len_sum(r)),)),
    ("dynamics", ("as_index_permutation",), "dynamics.orbit_s", SPAN,
     (("dynamics.states", lambda a, r: len(r)),)),
    ("dynamics", ("orbit", "permutation_orbits"), "dynamics.orbit_s", SPAN, ()),
    ("dynamics", ("rowmotion", "antichain_rowmotion", "toggle", "rowmotion_by_toggles"),
     None, COUNT, (("dynamics.steps", lambda a, r: 1),)),
    ("dynamics", ("rank_toggle", "rowmotion_sigma"), None, "step_factory", ()),
    ("qrow", ("q_orbits",), "qrow.orbit_s", SPAN, (("qrow.labelings", lambda a, r: _len_sum(r)),)),
    ("qrow", ("enumerate_labelings",), "qrow.orbit_s", SPAN,
     (("qrow.labelings", lambda a, r: len(r)),)),
    ("qrow", ("labeling_count", "q_rowmotion", "q_toggle"), "qrow.orbit_s", SPAN, ()),
    ("qrow", ("q_homomesy_check",), "qrow.homomesy_s", SPAN, ()),
    ("verify", ("_run_item",), "verify.check_s", SPAN, (("verify.checks", lambda a, r: 1),)),
    ("verify", ("run_suite", "roster", "expected_table2", "check_striker",
                "check_antichain_striker", "check_rooks", "check_halfrook", "check_lifting",
                "check_qstriker", "check_spans", "check_table2", "_orbit_cycles"),
     "verify.check_s", SPAN, ()),
    ("cli", ("main", "build_parser", "cmd_orbits", "cmd_decompose", "cmd_verify",
             "cmd_qrow", "_lifted_orbit_payload", "parse_q_expression", "_emit"),
     "cli.self_s", SPAN, ()),
)


class Tracer:
    def __init__(self, span_cap=50_000):
        self.span_cap = span_cap
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.spans = []
        self.dropped = 0
        self.stack = []          # open frames: [child seconds, span id]
        self.next_id = 1
        self.t0 = time.perf_counter()

    def count(self, metric, k=1):
        self.counts[metric] += k

    # -- wrappers ----------------------------------------------------------------

    def _timed(self, fn, name, bucket, record, counters):
        stack, self_s, counts = self.stack, self.self_s, self.counts
        clock = time.perf_counter
        tracer = self

        def wrapped(*args, **kwargs):
            sid = tracer.next_id
            tracer.next_id += 1
            frame = [0.0, sid]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                self_s[bucket] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if record:
                    tracer._record(sid, name, start, end, stack[-1][1] if stack else 0)
            for metric, fn_count in counters:
                counts[metric] += fn_count(args, result)
            return result

        return wrapped

    def _counted(self, fn, counters):
        counts = self.counts

        def wrapped(*args, **kwargs):
            result = fn(*args, **kwargs)
            for metric, fn_count in counters:
                counts[metric] += fn_count(args, result)
            return result

        return wrapped

    def _enum(self, fn, name):
        """Poset.ideal_masks: only calls that enumerate (cache misses) count."""
        timed = self._timed(fn, name, "poset.enum_s", True,
                            (("poset.ideals", lambda a, r: len(r)),))

        def wrapped(poset, *args, **kwargs):
            if poset._ideal_masks is not None:
                return fn(poset, *args, **kwargs)
            return timed(poset, *args, **kwargs)

        return wrapped

    def _step_factory(self, fn):
        counts = self.counts

        def wrapped(*args, **kwargs):
            step = fn(*args, **kwargs)

            def counted(state):
                counts["dynamics.steps"] += 1
                return step(state)

            return counted

        return wrapped

    def _record(self, sid, name, start, end, parent):
        if len(self.spans) < self.span_cap:
            self.spans.append((sid, name, start - self.t0, end - self.t0, parent))
        else:
            self.dropped += 1

    # -- installation ------------------------------------------------------------------

    def install(self):
        modules = [m for k, m in sys.modules.items()
                   if k == "rowmotion" or k.startswith("rowmotion.")]
        for mod_name, names, bucket, mode, counters in TARGETS:
            module = sys.modules[f"rowmotion.{mod_name}"]
            for qual in names:
                cls_name, _, attr = qual.rpartition(".")
                owner = getattr(module, cls_name, None) if cls_name else module
                original = vars(owner).get(attr) if owner is not None else None
                if original is None:
                    continue  # a later version may drop a target; its metric stays 0
                label = f"{mod_name}.{qual}"
                if mode == "enum":
                    wrapper = self._enum(original, label)
                elif mode == COUNT:
                    wrapper = self._counted(original, counters)
                elif mode == "step_factory":
                    wrapper = self._step_factory(original)
                else:
                    wrapper = self._timed(original, label, bucket, mode == SPAN, counters)
                if cls_name:
                    setattr(owner, attr, wrapper)
                    continue
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)

    # -- results -------------------------------------------------------------------------

    def metrics(self, rounds):
        """Per-layer metrics per round (totals divided by the round count)."""
        rows_added = self.counts["linalg.rows_added"]
        out = {}
        for name, unit in PER_LAYER:
            if name == "linalg.pivot_yield":
                value = self.counts["linalg.pivots"] / rows_added if rows_added else 0.0
            elif unit == "s":
                value = self.self_s[name] / rounds
            else:
                value = self.counts[name] / rounds
            out[name] = {"value": value, "unit": unit}
        return out

    def write_spans(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"dropped": self.dropped,
                       "fields": ["id", "name", "start_s", "end_s", "parent"],
                       "spans": self.spans}, fh)
