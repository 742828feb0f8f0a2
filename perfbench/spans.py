"""Per-layer tracing from outside the program.

Every public function named in LAYERS is replaced, at every name it is
bound to in a loaded sfiber module (so from-imports such as
``decide.normalize`` are covered too), by a wrapper that counts calls and
accumulates self time: a span's duration minus the time its traced
children took.  Spans live in memory; nothing is written until the run
ends.  Tracing cannot be removed again, which is why a traced run uses a
process of its own.
"""

from __future__ import annotations

import importlib
import sys
from collections import Counter, defaultdict
from functools import wraps
from time import perf_counter

LAYERS = {
    "cli": ("parse_seifert",),
    "seifert": ("normalize", "euler_number", "gamma_vector", "reverse_orientation"),
    "decide": (
        "admits_transverse_contact",
        "admits_transverse_foliation",
        "admits_invariant_transverse_contact",
    ),
    "realizability": ("is_realizable",),
    "blowdown": ("decide_route", "parse_delta_sequences", "run_trace"),
    "cf": ("neg_cf_expand", "neg_cf_eval", "riemenschneider_dual"),
    "plumbing": ("build_plumbing", "to_dot", "intersection_matrix", "is_negative_definite"),
    "sweeps": (
        "route_oracle_sweep",
        "theorem_consistency_sweep",
        "derived_consistency_sweep",
        "definiteness_sweep",
    ),
}

# Work done inside a span, read off the span's result.
WORK = {
    "realizability.is_realizable": ("realizable", lambda cert: int(cert is not None)),
    "cf.neg_cf_expand": ("terms", len),
    "blowdown.run_trace": ("states", len),
    "plumbing.build_plumbing": ("vertices", lambda graph: len(graph.vertices)),
}

DECISIONS = {
    "decide.admits_transverse_contact": "contact",
    "decide.admits_transverse_foliation": "foliation",
}


class Tracer:
    """Calls, self time and work counts of the wrapped functions."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.work = Counter()
        self.decisions = []  # (kind, b, g, fibers) of every contact/foliation decision
        self.oracle_runs_in_decisions = 0
        self._child_time = []  # one accumulator per open span
        self._open_decisions = 0

    def install(self) -> None:
        originals = {}
        for module, functions in LAYERS.items():
            mod = importlib.import_module(f"sfiber.{module}")
            for fn in functions:
                original = getattr(mod, fn)
                originals[id(original)] = self._wrap(f"{module}.{fn}", original)
        for name, mod in list(sys.modules.items()):
            if name != "sfiber" and not name.startswith("sfiber."):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)

    def _wrap(self, span, fn):
        work = WORK.get(span)
        decision = DECISIONS.get(span)
        is_decision = span.startswith("decide.")
        is_oracle = span == "realizability.is_realizable"
        child_time = self._child_time

        @wraps(fn)
        def traced(*args, **kwargs):
            if decision:
                data = args[0]
                self.decisions.append((decision, data.b, data.g, data.fibers))
            if is_oracle and self._open_decisions:
                self.oracle_runs_in_decisions += 1
            self._open_decisions += is_decision
            child_time.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self.self_s[span] += elapsed - child_time.pop()
                if child_time:
                    child_time[-1] += elapsed
                self.calls[span] += 1
                self._open_decisions -= is_decision
            if work:
                self.work[f"{span}.{work[0]}"] += work[1](result)
            return result

        return traced

    def metrics(self, rounds: int, wall_s: float, consults: int) -> dict[str, float]:
        """Totals per round; the consult ratio is taken over the whole run."""
        out = {}
        for module, functions in LAYERS.items():
            for fn in functions:
                span = f"{module}.{fn}"
                if module != "sweeps":
                    out[f"{span}.calls"] = self.calls[span] / rounds
                out[f"{span}.self_s"] = self.self_s[span] / rounds
        for span, (count, _) in WORK.items():
            out[f"{span}.{count}"] = self.work[f"{span}.{count}"] / rounds
        out["decide.realizability_consults"] = consults / rounds
        out["decide.oracle_runs_per_consult"] = (
            self.oracle_runs_in_decisions / consults if consults else 0.0
        )
        out["trace.wall_s"] = wall_s / rounds
        return out
