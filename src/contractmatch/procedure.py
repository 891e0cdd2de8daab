"""Firm-proposing deferred acceptance over contract menus.

Firms propose individual (worker, division) contracts in descending order
of their own payoff; a firm may return to the same worker several times
with different divisions. Each worker holds the best acceptable proposal
seen so far and rejects the rest. A firm proposes only contracts that pay
it strictly more than the zero of staying single; a worker accepts any
contract that pays it at least that zero, so a worker who rejects an offer
always holds one at least as good. The procedure runs in stages: every
firm whose proposal was rejected (and that still has untried acceptable
contracts) proposes again in the next stage, and the run stops at the
first stage with no proposers. The held contracts form the final outcome,
which is always stable.

solve runs the procedure once; run_procedure also reads a trace off the
stages of its run. Payoff ties are resolved by a TieBreakPolicy;
enumerate_procedure_outcomes explores every resolution instead and returns
the reachable outcomes as a list sorted by Outcome.sort_key, each once.
"""
from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial

from .model import (
    DEFAULT_MAX_OUTCOMES,
    Allocation,
    EnumerationBudget,
    Instance,
    Outcome,
    _budget_exceeded,
    _require_two_sided,
    payments_to_dict,
)


@dataclass(frozen=True)
class Proposal:
    """One contract a firm can offer to a worker."""

    firm: int
    worker: int
    allocation: Allocation

    @property
    def worker_payoff(self) -> Fraction:
        return self.allocation[self.worker]


@dataclass(frozen=True)
class TieBreakPolicy:
    """Deterministic resolution of payoff ties.

    firm_prefers_low_worker: among a firm's payoff-tied contracts, propose
        to the lower (else higher) worker id first; equal-worker ties go to
        the lexicographically smaller allocation.
    worker_keeps_held: a held offer wins payoff ties against new offers;
        when False the lower firm id wins even against the incumbent.
    Among a worker's payoff-tied new offers the lower firm id always wins.
    """

    firm_prefers_low_worker: bool = True
    worker_keeps_held: bool = True


DEFAULT_POLICY = TieBreakPolicy()

#: Named policies exposed on the command line. "strict-list" resolves every
#: tie from a fixed ranking (no incumbency bonus), which makes the run
#: equivalent to textbook deferred acceptance on tie-broken preference lists.
POLICIES: dict[str, TieBreakPolicy] = {
    "default": DEFAULT_POLICY,
    "high-worker": TieBreakPolicy(firm_prefers_low_worker=False),
    "strict-list": TieBreakPolicy(worker_keeps_held=False),
}


def _proposal_rows(inst: Instance, policy: TieBreakPolicy) -> list[list[tuple]]:
    """Each firm's proposable contracts as the engine's rows, sorted
    best-first, in firm id order.

    A row is (-firm amount, tie key, worker amount, firm, worker), all
    ints, with both amounts and both agents from the instance's columns,
    which hold one int object per agent. One pass over the columns files
    each row under its firm. Rows sort as tuples: a firm's own payoff,
    then the policy's worker rule, then the worker's amount, which in one
    firm's list orders contracts tied on worker and firm payoff as their
    allocations compare. No two rows of a firm are equal.
    """
    _require_two_sided(inst)
    side = 1 if policy.firm_prefers_low_worker else -1
    rows: dict[int, list[tuple]] = {f: [] for f in inst.firms}
    for f, w, x, y in zip(inst.firsts, inst.seconds, inst.xs, inst.ys):
        if x > 0:
            rows[f].append((-x, side * w, y, f, w))
    for firm_rows in rows.values():
        firm_rows.sort()
    return list(rows.values())


def _proposal(inst: Instance, row: tuple) -> Proposal:
    x, _, y, f, w = row
    return Proposal(f, w, inst.allocation(f, -x, w, y))


def build_proposal_space(
    inst: Instance, policy: TieBreakPolicy = DEFAULT_POLICY
) -> dict[int, tuple[Proposal, ...]]:
    """Each firm's contracts paying it more than zero, sorted best-first.

    Payoff ties are ordered by the policy's firm rule, then by allocation.
    The sort runs on the amount ranks of the instance's columns.
    """
    return {
        f: tuple(_proposal(inst, row) for row in rows)
        for f, rows in zip(inst.firms, _proposal_rows(inst, policy))
    }


@dataclass(frozen=True)
class TraceStep:
    """Everything that happened in one stage of a run."""

    stage: int
    proposers: tuple[int, ...]
    proposals: dict[int, Proposal]
    received: dict[int, tuple[Proposal, ...]]
    held: dict[int, Proposal]
    rejected: tuple[Proposal, ...]

    @property
    def acceptable(self) -> dict[int, tuple[Proposal, ...]]:
        """The received offers that pay their worker at least zero."""
        return {
            w: tuple(p for p in ps if p.worker_payoff >= 0)
            for w, ps in self.received.items()
        }


@dataclass(frozen=True)
class Trace:
    """Full stage history of one run; the final stage has no proposers."""

    steps: tuple[TraceStep, ...]


class _Branch(Exception):
    """A choice point had several tied options and no scripted pick."""

    def __init__(self, n_options: int):
        self.n_options = n_options


def _pick(picks: Iterator[int] | None, n: int) -> int:
    """The option taken at a choice among n options: the first with no
    script or no tie, else the script's next pick. A tie past the
    script's end raises _Branch."""
    if picks is None or n == 1:
        return 0
    for j in picks:
        return j
    raise _Branch(n)


def _execute(
    firm_rows: list[list[tuple]],
    worker_keeps_held: bool,
    script: tuple[int, ...] | None = None,
    stages: list[tuple[dict, dict]] | None = None,
) -> dict[int, tuple]:
    """One proposing run over _proposal_rows lists, in firm id order.

    A row is (-firm amount, tie key, worker amount, firm, worker). Returns
    the held row of every matched worker. Each firm proposes from a
    cursor into its rows. With no script every tie of two or more
    options goes to the first, in the policy's order: a firm's tied rows
    as sorted, a worker's tied offers with the incumbent first when
    worker_keeps_held, then by firm id. Otherwise script[k] is the option
    taken at the k-th such tie, as _pick reads it. A firm's tie is the
    leading run of its untried rows with equal payoff; a scripted pick of
    a later row of that run moves the row to the front, keeping the
    order of the rest, on a copy of the firm's list made for this run.
    Each stage appends to `stages`, when given, the rows offered to each
    worker and a copy of the held rows after it; the last has no offers.
    """
    lists = list(firm_rows)
    pos = [0] * len(lists)
    held: dict[int, tuple] = {}
    held_firms: set[int] = set()
    picks = None if script is None else iter(script)
    while True:
        offers: dict[int, list[tuple]] = {}
        for i, rows in enumerate(lists):
            p = pos[i]
            if p == len(rows) or rows[p][3] in held_firms:
                continue
            if picks is not None:
                n = 1
                top = rows[p][0]
                while p + n < len(rows) and rows[p + n][0] == top:
                    n += 1
                j = _pick(picks, n)
                if j:
                    if rows is firm_rows[i]:
                        rows = lists[i] = rows.copy()
                    rows.insert(p, rows.pop(p + j))
            pos[i] = p + 1
            row = rows[p]
            offers.setdefault(row[4], []).append(row)
        for w in sorted(offers):
            prev = held.get(w)
            pool = [r for r in offers[w] if r[2] >= 0]
            if prev is not None:
                pool.append(prev)
            if not pool:
                continue
            incumbent = prev if worker_keeps_held else None
            pool.sort(key=lambda r: (-r[2], r is not incumbent, r[3]))
            tied = [r for r in pool if r[2] == pool[0][2]]
            choice = tied[_pick(picks, len(tied))]
            if choice is not prev:
                if prev is not None:
                    held_firms.discard(prev[3])
                held[w] = choice
                held_firms.add(choice[3])
        if stages is not None:
            stages.append((offers, dict(held)))
        if not offers:
            return held


def _held_outcome(inst: Instance, held: dict[int, tuple]) -> Outcome:
    return inst.outcome([(f, -x, w, y) for x, _, y, f, w in held.values()])


def solve(inst: Instance, policy: TieBreakPolicy = DEFAULT_POLICY) -> Outcome:
    """The outcome of run_procedure, from a run that builds no trace."""
    held = _execute(_proposal_rows(inst, policy), policy.worker_keeps_held)
    return _held_outcome(inst, held)


def run_procedure(
    inst: Instance, policy: TieBreakPolicy = DEFAULT_POLICY
) -> tuple[Outcome, Trace]:
    """Run the staged proposing procedure once, resolving ties by policy.

    Returns the resulting outcome (always stable) and the full trace, read
    off the stages the run returns. A stage rejects, worker by worker in
    id order, each offer and the row held before it, bar the row held
    after. Identical instance and policy give a bit-for-bit identical
    trace.
    """
    proposal = cache(partial(_proposal, inst))  # one Proposal per row
    stages: list[tuple[dict, dict]] = []
    held = _execute(_proposal_rows(inst, policy), policy.worker_keeps_held, stages=stages)
    steps, before = [], {}
    for stage, (offers, after) in enumerate(stages, 1):
        offered = sorted((r for rows in offers.values() for r in rows), key=lambda r: r[3])
        proposals = {r[3]: proposal(r) for r in offered}
        received = {w: tuple(map(proposal, offers[w])) for w in sorted(offers)}
        kept = {w: proposal(r) for w, r in after.items()}
        rejected = tuple(
            proposal(r)
            for w in sorted(offers)
            for r in (offers[w] + [before[w]] if w in before else offers[w])
            if r is not after.get(w)
        )
        steps.append(TraceStep(stage, tuple(proposals), proposals, received, kept, rejected))
        before = after
    return _held_outcome(inst, held), Trace(tuple(steps))


def enumerate_procedure_outcomes(
    inst: Instance, budget: EnumerationBudget | None = None
) -> list[Outcome]:
    """Every outcome reachable by some resolution of the payoff ties.

    Branches at every choice point with two or more tied options, on both
    sides. The budget bounds the number of replayed runs, since distinct
    tie resolutions may collapse to few distinct outcomes. Each run is
    replayed from the first stage, with no trace. The outcomes are listed
    once each, sorted by Outcome.sort_key.
    """
    firm_rows = _proposal_rows(inst, DEFAULT_POLICY)
    keeps_held = DEFAULT_POLICY.worker_keeps_held
    cap = DEFAULT_MAX_OUTCOMES if budget is None else budget.max_outcomes

    # Keyed by the ids of the held rows, which live as long as firm_rows:
    # an Outcome is built once per distinct set of held contracts. A menu
    # repeats no contract, so distinct sets give distinct outcomes.
    reached: dict[frozenset[int], dict[int, tuple]] = {}
    stack: list[tuple[int, ...]] = [()]
    runs = 0
    while stack:
        script = stack.pop()
        runs += 1
        if runs > cap:
            raise _budget_exceeded(cap, "tie-break branches")
        try:
            held = _execute(firm_rows, keeps_held, script)
        except _Branch as b:
            stack.extend(script + (i,) for i in reversed(range(b.n_options)))
            continue
        reached.setdefault(frozenset(map(id, held.values())), held)
    outcomes = [_held_outcome(inst, held) for held in reached.values()]
    outcomes.sort(key=Outcome.sort_key)
    return outcomes


# --- trace serialization ----------------------------------------------------


def _proposal_dict(p: Proposal) -> dict:
    return {
        "firm": p.firm,
        "worker": p.worker,
        "contract": payments_to_dict(p.allocation.payments),
    }


def trace_step_to_dict(step: TraceStep) -> dict:
    return {
        "stage": step.stage,
        "proposers": list(step.proposers),
        "proposals": [_proposal_dict(step.proposals[f]) for f in sorted(step.proposals)],
        "received": {
            str(w): [_proposal_dict(p) for p in ps] for w, ps in step.received.items()
        },
        "acceptable": {
            str(w): [_proposal_dict(p) for p in ps] for w, ps in step.acceptable.items()
        },
        "held": {str(w): _proposal_dict(step.held[w]) for w in sorted(step.held)},
        "rejected": [_proposal_dict(p) for p in step.rejected],
    }
