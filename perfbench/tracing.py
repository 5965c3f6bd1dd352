"""Spans around the public functions of each `eqlearn` layer, from outside.

`Tracer` patches every binding of a wrapped function in the loaded
`eqlearn` modules (the CLI imports names directly, so patching only the
defining module would miss its calls) and every wrapped method on its class.
`install()` and `uninstall()` swap the wrappers in and out, so untraced and
traced executions of the same job run in one process.

Spans are kept in memory as parallel arrays (name, start, end, parent, job)
and written out once at the end.  A layer's self time is its spans' duration
minus the duration of their direct child spans.  `ldim_subset` and the
SplitMix64 generator are not wrapped: they run millions of times per job,
so their time lands in their caller's self time.  Work counts come from the
wrapped calls' arguments and results, computed where the count is a formula
(2^|X| totals per scan, 3^|X| DP cells, sum of n!/(n-L)! cycle tuples,
sum of k^(2k) * 2^k DFAs).
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import sys
from array import array
from math import perm
from time import perf_counter

# (span name, module, public functions and Class.method names)
SPANS = (
    ("cli", "eqlearn.cli", ("execute",)),
    ("core.parse", "eqlearn.core", ("parse_class", "parse_distribution", "parse_partial")),
    ("gametree", "eqlearn.gametree", ("lc_exact_with_stats", "lc_eq_exact", "lc_eqmq_exact")),
    (
        "dimensions.scan",
        "eqlearn.dimensions",
        ("consistency_dim", "consistency_threshold", "m_consistent_totals"),
    ),
    ("dimensions.scdp", "eqlearn.dimensions", ("strong_consistency_dim",)),
    ("dimensions.ldim", "eqlearn.dimensions", ("ldim", "full_ldim_partial")),
    ("dimensions.vc", "eqlearn.dimensions", ("vc_dim",)),
    (
        "learners",
        "eqlearn.learners",
        ("run_session",)
        + tuple(
            f"{cls}.__init__"
            for cls in (
                "OptimalEqLearner",
                "Sc2EqLearner",
                "HalvingEqLearner",
                "CdimEqLearner",
                "EqMqLearner",
                "ThicketMaxMinLearner",
                "ComposeLearner",
            )
        ),
    ),
    (
        "teachers",
        "eqlearn.teachers",
        tuple(
            f"{cls}.{method}"
            for cls in ("HonestTeacher", "TreeAdversary", "WitnessAdversary", "RandomTeacher")
            for method in ("__init__", "respond")
        ),
    ),
    ("thicket.rank", "eqlearn.thicket", ("ThicketGraph.max_query_rank", "query_rank")),
    ("thicket.cycles", "eqlearn.thicket", ("deficient_cycle_search",)),
    ("thicket.montecarlo", "eqlearn.thicket", ("estimate_expected_queries",)),
    ("compression", "eqlearn.compression", ("check_roundtrip", "CompressionScheme.__init__")),
    (
        "automata",
        "eqlearn.automata",
        ("dfa_class_summary", "learn_dfa", "enumerate_dfa_class", "parse_dfa"),
    ),
)

SPAN_NAMES = tuple(name for name, _, _ in SPANS)

COUNTS = (
    "gametree.nodes",
    "dimensions.scan_totals",
    "dimensions.scdp_cells",
    "dimensions.ldim_memo_entries",
    "learners.sessions",
    "learners.queries",
    "learners.budget",
    "teachers.responses",
    "thicket.cycle_tuples",
    "thicket.trials",
    "compression.samples",
    "compression.rho_calls",
    "automata.dfas_enumerated",
    "core.parse.calls",
)

# per-layer metrics as reported: (name, unit)
PER_LAYER = (
    ("gametree.self_s", "s"),
    ("gametree.nodes", "count"),
    ("gametree.nodes_per_s", "1/s"),
    ("dimensions.scan.self_s", "s"),
    ("dimensions.scan_totals", "count"),
    ("dimensions.scdp.self_s", "s"),
    ("dimensions.scdp_cells", "count"),
    ("dimensions.scdp_cells_per_s", "1/s"),
    ("dimensions.ldim.self_s", "s"),
    ("dimensions.vc.self_s", "s"),
    ("dimensions.ldim_memo_entries", "count"),
    ("learners.self_s", "s"),
    ("learners.sessions", "count"),
    ("learners.queries", "count"),
    ("learners.budget_ratio", "ratio"),
    ("teachers.self_s", "s"),
    ("teachers.responses", "count"),
    ("thicket.rank.self_s", "s"),
    ("thicket.cycles.self_s", "s"),
    ("thicket.cycle_tuples", "count"),
    ("thicket.montecarlo.self_s", "s"),
    ("thicket.trials", "count"),
    ("compression.self_s", "s"),
    ("compression.samples", "count"),
    ("compression.samples_per_s", "1/s"),
    ("compression.rho_per_sample", "ratio"),
    ("automata.self_s", "s"),
    ("automata.dfas_enumerated", "count"),
    ("core.parse.self_s", "s"),
    ("core.parse.calls", "count"),
    ("cli.self_s", "s"),
    ("trace.overhead_frac", "ratio"),
)


def _is_all_totals(hypotheses):
    return type(hypotheses).__name__ == "AllTotals"


def _size(concept_class):
    return concept_class.universe.size


# Hooks run after a wrapped call returns: hook(tracer, bound_arguments, result).
# Hooks that read no arguments get None, which spares binding them.


def _on_exact(t, a, result):
    t.counts["gametree.nodes"] += result[1]


def _on_consistency_dim(t, a, result):
    if not _is_all_totals(a["hypotheses"]):
        t.counts["dimensions.scan_totals"] += 1 << _size(a["concept_class"])


def _on_m_totals(t, a, result):
    t.counts["dimensions.scan_totals"] += 1 << _size(a["concept_class"])


def _on_strong(t, a, result):
    if not _is_all_totals(a["hypotheses"]):
        t.counts["dimensions.scdp_cells"] += 3 ** _size(a["concept_class"])


def _on_session(t, a, result):
    t.counts["learners.sessions"] += 1
    t.counts["learners.queries"] += result.eq_count + result.mq_count
    t.counts["learners.budget"] += a["learner"].certified_budget


def _on_respond(t, a, result):
    t.counts["teachers.responses"] += 1


def _on_cycles(t, a, result):
    n = len(a["concept_class"])
    t.counts["thicket.cycle_tuples"] += sum(perm(n, k) for k in range(2, a["max_len"] + 1))


def _on_montecarlo(t, a, result):
    t.counts["thicket.trials"] += a["trials"]


def _on_roundtrip(t, a, result):
    t.counts["compression.samples"] += result[0]


def _on_dfa_class(t, a, result):
    t.counts["automata.dfas_enumerated"] += sum(
        k ** (2 * k) * 2**k for k in range(1, a["n"] + 1)
    )
    t.job_classes.append(result)


def _on_parse(t, a, result):
    t.counts["core.parse.calls"] += 1


def _on_parse_class(t, a, result):
    t.counts["core.parse.calls"] += 1
    t.job_classes.append(result)


_NO_ARGS = frozenset({_on_exact, _on_respond, _on_roundtrip, _on_parse, _on_parse_class})

HOOKS = {
    "lc_exact_with_stats": _on_exact,
    "consistency_dim": _on_consistency_dim,
    "m_consistent_totals": _on_m_totals,
    "strong_consistency_dim": _on_strong,
    "run_session": _on_session,
    "deficient_cycle_search": _on_cycles,
    "estimate_expected_queries": _on_montecarlo,
    "check_roundtrip": _on_roundtrip,
    "enumerate_dfa_class": _on_dfa_class,
    "parse_class": _on_parse_class,
    "parse_distribution": _on_parse,
    "parse_partial": _on_parse,
    "respond": _on_respond,
}


class Tracer:
    def __init__(self):
        self.names = array("b")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.jobs = array("l")
        self.stack = []
        self.job = -1
        self.job_classes = []
        self.counts = dict.fromkeys(COUNTS, 0)
        self.missing = []
        self._swaps = []  # (owner, attribute, original, wrapper)
        for name_id, (name, module_name, targets) in enumerate(SPANS):
            module = importlib.import_module(module_name)
            for target in targets:
                self._plan(name_id, module, target)
        self._plan_counter(importlib.import_module("eqlearn.compression"), "decompress")

    # -- planning the patches

    def _plan(self, name_id, module, target):
        owner_name, _, attr = target.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        original = owner.__dict__.get(attr) if owner is not None else None
        if original is None:
            self.missing.append(f"{module.__name__}.{target}")
            return
        wrapper = self._span_wrapper(name_id, original, HOOKS.get(attr))
        if owner_name:
            self._swaps.append((owner, attr, original, wrapper))
        else:
            self._swaps.extend((m, a, original, wrapper) for m, a in _bindings(original))

    def _plan_counter(self, module, attr):
        original = module.__dict__.get(attr)
        if original is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return
        counts = self.counts

        def counted(*args, **kwargs):
            counts["compression.rho_calls"] += 1
            return original(*args, **kwargs)

        self._swaps.extend((m, a, original, counted) for m, a in _bindings(original))

    def _span_wrapper(self, name_id, fn, hook):
        names, starts, ends, parents, jobs = (
            self.names, self.starts, self.ends, self.parents, self.jobs
        )
        stack = self.stack
        signature = None if hook is None or hook in _NO_ARGS else inspect.signature(fn)

        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            jobs.append(self.job)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(self, bound.arguments, result)
            elif hook is not None:
                hook(self, None, result)
            return result

        return wrapper

    # -- switching

    def install(self, job_id):
        self.job = job_id
        for owner, attr, _, wrapper in self._swaps:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in self._swaps:
            setattr(owner, attr, original)
        memo = 0
        for concept_class in self.job_classes:
            memo += len(getattr(concept_class, "_ldim_memo", ()))
        self.counts["dimensions.ldim_memo_entries"] += memo
        self.job_classes.clear()

    # -- results

    def self_times(self):
        """Total self time per span name."""
        return self_times(self.names, self.starts, self.ends, self.parents)

    def write(self, path):
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\tjob\n")
            for i in range(len(self.starts)):
                fh.write(
                    f"{SPAN_NAMES[self.names[i]]}\t{self.starts[i]:.9f}\t{self.ends[i]:.9f}"
                    f"\t{self.parents[i]}\t{self.jobs[i]}\n"
                )


def _bindings(fn):
    """Every (module, attribute) in the loaded eqlearn modules bound to `fn`."""
    found = []
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "eqlearn" or mod_name.startswith("eqlearn.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is fn:
                found.append((module, attr))
    return found


def self_times(names, starts, ends, parents):
    """Total self time per span name: each span's duration minus the
    durations of its direct children."""
    n = len(starts)
    child = [0.0] * n
    for i in range(n):
        p = parents[i]
        if p >= 0:
            child[p] += ends[i] - starts[i]
    totals = dict.fromkeys(SPAN_NAMES, 0.0)
    for i in range(n):
        totals[SPAN_NAMES[names[i]]] += ends[i] - starts[i] - child[i]
    return totals


def per_layer_metrics(self_s, counts, jobs, overhead_frac):
    """The reported per-layer metrics: times and counts are per job."""

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    per_job = {name: value / jobs for name, value in self_s.items()}
    c = {name: value / jobs for name, value in counts.items()}
    values = {
        "gametree.self_s": per_job["gametree"],
        "gametree.nodes": c["gametree.nodes"],
        "gametree.nodes_per_s": rate(counts["gametree.nodes"], self_s["gametree"]),
        "dimensions.scan.self_s": per_job["dimensions.scan"],
        "dimensions.scan_totals": c["dimensions.scan_totals"],
        "dimensions.scdp.self_s": per_job["dimensions.scdp"],
        "dimensions.scdp_cells": c["dimensions.scdp_cells"],
        "dimensions.scdp_cells_per_s": rate(
            counts["dimensions.scdp_cells"], self_s["dimensions.scdp"]
        ),
        "dimensions.ldim.self_s": per_job["dimensions.ldim"],
        "dimensions.vc.self_s": per_job["dimensions.vc"],
        "dimensions.ldim_memo_entries": c["dimensions.ldim_memo_entries"],
        "learners.self_s": per_job["learners"],
        "learners.sessions": c["learners.sessions"],
        "learners.queries": c["learners.queries"],
        "learners.budget_ratio": rate(counts["learners.queries"], counts["learners.budget"]),
        "teachers.self_s": per_job["teachers"],
        "teachers.responses": c["teachers.responses"],
        "thicket.rank.self_s": per_job["thicket.rank"],
        "thicket.cycles.self_s": per_job["thicket.cycles"],
        "thicket.cycle_tuples": c["thicket.cycle_tuples"],
        "thicket.montecarlo.self_s": per_job["thicket.montecarlo"],
        "thicket.trials": c["thicket.trials"],
        "compression.self_s": per_job["compression"],
        "compression.samples": c["compression.samples"],
        "compression.samples_per_s": rate(counts["compression.samples"], self_s["compression"]),
        "compression.rho_per_sample": rate(
            counts["compression.rho_calls"], counts["compression.samples"]
        ),
        "automata.self_s": per_job["automata"],
        "automata.dfas_enumerated": c["automata.dfas_enumerated"],
        "core.parse.self_s": per_job["core.parse"],
        "core.parse.calls": c["core.parse.calls"],
        "cli.self_s": per_job["cli"],
        "trace.overhead_frac": overhead_frac,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
