"""Spans around the calls into each arrconn module, recorded from outside
the program.

A wrapper is installed at every module attribute that names a traced
function, so a name imported with ``from ... import`` is wrapped in the
importing module too.  Spans stay in memory as tuples
``(name, start, end, parent, op, failed)`` and are reduced to per-layer
metrics, or written out, when the run ends.
"""

from __future__ import annotations

import gzip
import importlib
import json
import time
from collections import Counter

MODULES = ("numkernel", "arrangement", "connection", "lauricella", "pkcriteria", "holonomy", "cli")

# layer boundaries: the public functions each workload's time is spent in
TRACED = {
    "numkernel": ("rank_kernel", "ode_transport", "hermitian_signature"),
    "arrangement": ("build_lattice", "is_irreducible_flat"),
    "connection": (
        "check_torsion_free",
        "check_flat",
        "weights",
        "check_weight_constraints",
        "load_connection",
    ),
    "lauricella": ("reduced_residues", "recover_parameters"),
    "pkcriteria": ("signature_formula", "pk_exists"),
    "holonomy": ("generator_loops", "holonomy", "invariant_forms", "irreducibility", "holonomy_report"),
    "cli": ("main",),
}

NAME, START, END, PARENT, OP, FAILED = range(6)


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = None  # id of the op in progress; None outside the timed phase
        self.counts = Counter()  # counts read from arguments and results
        self.max_err = 0.0
        self._stack = []
        self._installed = []

    # -- installation ------------------------------------------------------------

    def install(self):
        loaded = {m: importlib.import_module(f"arrconn.{m}") for m in MODULES}
        for owner, names in TRACED.items():
            for name in names:
                original = getattr(loaded[owner], name)
                wrapped = self._wrap(f"{owner}.{name}", original)
                for module in loaded.values():
                    if getattr(module, name, None) is original:
                        setattr(module, name, wrapped)
                        self._installed.append((module, name, original))

    def uninstall(self):
        for module, name, original in reversed(self._installed):
            setattr(module, name, original)
        self._installed.clear()

    def _wrap(self, name, fn):
        observe = getattr(self, "_observe_" + name.replace(".", "_"), None)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            if name == "numkernel.ode_transport" and self.op is not None:
                args = (self._counting_rhs(args[0]),) + args[1:]
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            failed = True
            start = clock()
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op, failed)
            if observe is not None and self.op is not None:
                observe(result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- counts taken at the boundaries --------------------------------------------

    def _counting_rhs(self, rhs):
        counts = self.counts

        def counted(t):
            counts["numkernel.rhs_evals"] += 1
            return rhs(t)

        return counted

    def _observe_arrangement_build_lattice(self, lattice):
        self.counts["arrangement.flats"] += len(lattice)

    def _observe_holonomy_irreducibility(self, verdict):
        self.counts["holonomy.irreducibility.words"] += verdict.words_used
        self.counts["holonomy.irreducibility.span_dim"] += verdict.span_dim
        self.counts["holonomy.irreducibility.undecided"] += verdict.irreducible is None

    def _observe_holonomy_holonomy_report(self, report):
        self.max_err = max(self.max_err, report.max_err)

    # -- output ----------------------------------------------------------------------

    def write(self, path: str):
        """Spans as JSON lines, gzip-compressed."""
        with gzip.open(path, "wt") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans) -> list:
    """Span duration minus the time its direct children cover."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def has_ancestor(spans, index: int, name: str) -> bool:
    parent = spans[index][PARENT]
    while parent >= 0:
        if spans[parent][NAME] == name:
            return True
        parent = spans[parent][PARENT]
    return False


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics over the spans of the timed phase (op is set), as
    name -> (value, unit)."""
    spans = tracer.spans
    own = self_times(spans)
    seconds, calls, errors = Counter(), Counter(), Counter()
    kernels_in_lattice = 0
    for i, span in enumerate(spans):
        if span[OP] is None:
            continue
        name = span[NAME]
        seconds[name] += own[i]
        calls[name] += 1
        errors[name.split(".")[0]] += span[FAILED]
        if name == "numkernel.rank_kernel" and has_ancestor(spans, i, "arrangement.build_lattice"):
            kernels_in_lattice += 1
    counts = tracer.counts
    m = {}
    for owner, names in TRACED.items():
        for name in names:
            key = f"{owner}.{name}"
            if key == "cli.main":
                time_name, calls_name = "cli.self_s", "cli.calls"
            else:
                time_name, calls_name = f"{key}.s", f"{key}.calls"
            m[time_name] = (seconds[key], "s")
            m[calls_name] = (calls[key], "count")
        m[f"{owner}.errors"] = (errors[owner], "count")
    flats = counts["arrangement.flats"]
    m["arrangement.flats"] = (flats, "count")
    m["arrangement.rank_kernel_per_flat"] = (kernels_in_lattice / flats if flats else 0.0, "ratio")
    rhs = counts["numkernel.rhs_evals"]
    ode_s = seconds["numkernel.ode_transport"]
    m["numkernel.rhs_evals"] = (rhs, "count")
    m["numkernel.rhs_evals_per_s"] = (rhs / ode_s if ode_s else 0.0, "1/s")
    words = counts["holonomy.irreducibility.words"]
    m["holonomy.irreducibility.words"] = (words, "count")
    m["holonomy.irreducibility.span_per_word"] = (
        counts["holonomy.irreducibility.span_dim"] / words if words else 0.0,
        "ratio",
    )
    m["holonomy.irreducibility.undecided"] = (counts["holonomy.irreducibility.undecided"], "count")
    m["holonomy.max_err"] = (tracer.max_err, "1")
    return m
