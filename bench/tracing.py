"""Spans and counters recorded around calls into the program's layers.

Nothing in the program is edited. Each public function is wrapped where
its caller looks it up: the module attribute the command line or a
sibling module reads at call time. Spans are kept in memory and written
out when the run ends; a span's self time is its duration minus the time
its child spans cover.
"""
from __future__ import annotations

import json
from collections import Counter
from time import perf_counter

CHECKERS = (
    "is_pairwise_efficient",
    "has_disjoint_yields",
    "is_weakly_pareto_optimal_for_firms",
    "check_firm_optimality",
    "check_pair_tradeoff",
    "check_group_tradeoff",
    "check_employment_invariance",
    "check_sides_opposed",
)

SPANS = (
    "model.read_instance_file",
    "procedure.build_proposal_space",
    "procedure.run_procedure",
    "stability.blocking_coalitions",
    "procedure.enumerate_procedure_outcomes",
    "model.enumerate_outcomes",
    "stability.enumerate_core",
) + tuple(f"verify.{name}" for name in CHECKERS)


class Tracer:
    """In-memory span recorder. `op` is the id the spans of one op share."""

    def __init__(self):
        self.spans: list[tuple] = []  # (op, id, parent id or -1, name, start, end)
        self.counts: Counter = Counter()
        self.op = 0
        self._open: list[int] = []
        self._patched: list[tuple] = []

    def span(self, name, fn, *args, **kwargs):
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._open[-1] if self._open else -1
        self._open.append(sid)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._open.pop()
            self.spans[sid] = (self.op, sid, parent, name, start, end)

    def _patch(self, module, attr, wrapper) -> None:
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def wrap_span(self, module, attr, name, after=None) -> None:
        fn = getattr(module, attr)

        def wrapper(*args, **kwargs):
            result = self.span(name, fn, *args, **kwargs)
            if after is not None:
                after(result)
            return result

        self._patch(module, attr, wrapper)

    def count_calls(self, module, attr, name) -> None:
        fn = getattr(module, attr)
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        self._patch(module, attr, wrapper)

    def count_items(self, module, attr, *names) -> None:
        fn = getattr(module, attr)
        counts = self.counts

        def wrapper(*args, **kwargs):
            n = 0
            try:
                for item in fn(*args, **kwargs):
                    n += 1
                    yield item
            finally:
                for name in names:
                    counts[name] += n

        self._patch(module, attr, wrapper)

    def install(self, model, procedure, stability, verify) -> None:
        """Wrap every layer function the per-layer metrics name."""
        counts = self.counts

        def run_counts(result):
            steps = result[1].steps
            counts["procedure.stages"] += len(steps)
            counts["procedure.proposals"] += sum(len(s.proposals) for s in steps)

        def enum_counts(result):
            counts["procedure.enumerate_procedure_outcomes.outcomes"] += len(result)

        def core_counts(result):
            counts["stability.enumerate_core.returned"] += len(result)

        self.wrap_span(model, "read_instance_file", "model.read_instance_file")
        self.wrap_span(model, "enumerate_outcomes", "model.enumerate_outcomes")
        self.wrap_span(procedure, "build_proposal_space", "procedure.build_proposal_space")
        self.wrap_span(procedure, "run_procedure", "procedure.run_procedure", run_counts)
        self.wrap_span(
            procedure,
            "enumerate_procedure_outcomes",
            "procedure.enumerate_procedure_outcomes",
            enum_counts,
        )
        self.wrap_span(stability, "blocking_coalitions", "stability.blocking_coalitions")
        self.wrap_span(stability, "enumerate_core", "stability.enumerate_core", core_counts)
        for name in CHECKERS:
            self.wrap_span(verify, name, f"verify.{name}")
        items = "model.iter_raw_outcomes.items"
        self.count_items(model, "iter_raw_outcomes", items)
        self.count_items(verify, "iter_raw_outcomes", items)
        self.count_items(stability, "iter_raw_outcomes", items, "stability.enumerate_core.examined")
        self.count_calls(stability, "payoffs_are_blocked", "stability.payoffs_are_blocked.calls")
        self.count_calls(verify, "payoffs_are_blocked", "stability.payoffs_are_blocked.calls")

    def restore(self) -> None:
        while self._patched:
            module, attr, fn = self._patched.pop()
            setattr(module, attr, fn)

    def self_times(self) -> tuple[Counter, Counter]:
        """Self time and span count per span name."""
        covered = Counter()
        for _, _, parent, _, start, end in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        self_s, calls = Counter(), Counter()
        for _, sid, _, name, start, end in self.spans:
            self_s[name] += end - start - covered[sid]
            calls[name] += 1
        return self_s, calls

    def per_op(self, ops: int) -> dict[str, float]:
        """Per-layer metrics, each a mean per op."""
        self_s, calls = self.self_times()
        c = self.counts
        out = {f"{name}.s": self_s[name] / ops for name in SPANS}
        out.update(
            {
                "procedure.stages": c["procedure.stages"] / ops,
                "procedure.proposals": c["procedure.proposals"] / ops,
                "procedure.enumerate_procedure_outcomes.calls":
                    calls["procedure.enumerate_procedure_outcomes"] / ops,
                "procedure.enumerate_procedure_outcomes.outcomes":
                    c["procedure.enumerate_procedure_outcomes.outcomes"] / ops,
                "model.iter_raw_outcomes.items": c["model.iter_raw_outcomes.items"] / ops,
                "stability.enumerate_core.calls": calls["stability.enumerate_core"] / ops,
                "stability.payoffs_are_blocked.calls":
                    c["stability.payoffs_are_blocked.calls"] / ops,
                "stability.core_yield": (
                    c["stability.enumerate_core.returned"] / c["stability.enumerate_core.examined"]
                    if c["stability.enumerate_core.examined"]
                    else 0.0
                ),
                "cli.main.self_s": self_s["cli.main"] / ops,
            }
        )
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for op, sid, parent, name, start, end in self.spans:
                fh.write(
                    json.dumps(
                        {"op": op, "id": sid, "parent": parent, "name": name,
                         "start": start, "end": end}
                    )
                    + "\n"
                )
            fh.write(json.dumps({"counts": dict(self.counts)}) + "\n")
