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

solve runs the procedure once; run_procedure also records each stage in a
trace. Payoff ties are resolved by a TieBreakPolicy;
enumerate_procedure_outcomes explores every resolution instead and returns
the set of reachable outcomes.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial

from .errors import BudgetExceededError
from .model import (
    Allocation,
    EnumerationBudget,
    Instance,
    Outcome,
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


def _proposal_rows(inst: Instance, policy: TieBreakPolicy) -> dict[int, list[tuple]]:
    """Each firm's proposable contracts as the engine's rows, sorted best-first.

    A row is (-firm amount, tie key, worker amount, firm, worker), all
    ints, with both amounts from the instance's columns. Rows sort as
    tuples: a firm's own payoff, then the policy's worker rule, then the
    worker's amount, which in one firm's list orders contracts tied on
    worker and firm payoff as their allocations compare. No two rows of
    a firm are equal.
    """
    _require_two_sided(inst)
    side = 1 if policy.firm_prefers_low_worker else -1
    rows: dict[int, list[tuple]] = {f: [] for f in inst.firms}
    for f, w, x, y in zip(inst.firsts, inst.seconds, inst.xs, inst.ys):
        if x > 0:
            rows[f].append((-x, side * w, y, f, w))
    for firm_rows in rows.values():
        firm_rows.sort()
    return rows


def _proposal(inst: Instance, row: tuple) -> Proposal:
    x, _, y, f, w = row
    return Proposal(f, w, inst.allocation(f, -x, w, y))


def build_proposal_space(
    inst: Instance, policy: TieBreakPolicy = DEFAULT_POLICY
) -> dict[int, tuple[Proposal, ...]]:
    """Each firm's contracts paying it more than zero, sorted best-first.

    Payoff ties are ordered by the policy's firm rule, then by allocation.
    The sort runs on the integer amounts of the instance's columns.
    """
    return {
        f: tuple(_proposal(inst, row) for row in rows)
        for f, rows in _proposal_rows(inst, policy).items()
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


def _execute(
    firm_rows: list[list[tuple]],
    worker_keeps_held: bool,
    script: tuple[int, ...] | None = None,
    record=None,
) -> dict[int, tuple]:
    """One proposing run over _proposal_rows lists, in firm id order.

    A row is (-firm amount, tie key, worker amount, firm, worker). Returns
    the held row of every matched worker. Each firm proposes from a
    cursor into its rows. With no script every tie of two or more
    options goes to the first, in the policy's order: a firm's tied rows
    as sorted, a worker's tied offers with the incumbent first when
    worker_keeps_held, then by firm id. Otherwise script[k] is the option
    taken at the k-th such tie, and a tie past the script's end raises
    _Branch. A firm's tie is the leading run of its untried rows with equal
    payoff; a scripted pick of a later row of that run moves the row to
    the front, keeping the order of the rest, on a copy of the firm's list
    made for this run. When `record` is given, it is called at the end of
    each stage with the stage number, the rows proposed, the offers each
    worker received, the held rows and the rows rejected.
    """
    lists = list(firm_rows)
    pos = [0] * len(lists)
    held: dict[int, tuple] = {}
    held_firms: set[int] = set()
    picks = 0
    stage = 0
    while True:
        stage += 1
        offers: dict[int, list[tuple]] = {}
        proposed = []
        for i, rows in enumerate(lists):
            p = pos[i]
            if p == len(rows) or rows[p][3] in held_firms:
                continue
            n = 1
            if script is not None:
                top = rows[p][0]
                while p + n < len(rows) and rows[p + n][0] == top:
                    n += 1
            if n > 1:
                if picks == len(script):
                    raise _Branch(n)
                j = script[picks]
                picks += 1
                if j:
                    if rows is firm_rows[i]:
                        rows = lists[i] = rows.copy()
                    rows.insert(p, rows.pop(p + j))
            pos[i] = p + 1
            row = rows[p]
            proposed.append(row)
            offers.setdefault(row[4], []).append(row)
        if not proposed:
            if record is not None:
                record(stage, [], {}, held, [])
            return held
        rejected: list[tuple] = []
        for w in sorted(offers):
            ps = offers[w]
            prev = held.get(w)
            pool = [r for r in ps if r[2] >= 0]
            if prev is not None:
                pool.append(prev)
            if not pool:
                rejected += ps
                continue
            if len(pool) == 1:
                choice = pool[0]
            else:
                best = max(r[2] for r in pool)
                tied = [r for r in pool if r[2] == best]
                if len(tied) == 1:
                    choice = tied[0]
                else:
                    incumbent = prev if worker_keeps_held else None
                    tied.sort(key=lambda r: (r is not incumbent, r[3]))
                    if script is None:
                        choice = tied[0]
                    elif picks == len(script):
                        raise _Branch(len(tied))
                    else:
                        choice = tied[script[picks]]
                        picks += 1
            if choice is not prev:
                if prev is not None:
                    held_firms.discard(prev[3])
                held[w] = choice
                held_firms.add(choice[3])
            if record is not None:
                rejected += (r for r in ps if r is not choice)
                if prev is not None and prev is not choice:
                    rejected.append(prev)
        if record is not None:
            record(stage, proposed, offers, held, rejected)


def _held_outcome(inst: Instance, held: dict[int, tuple]) -> Outcome:
    return inst.outcome([(f, -x, w, y) for x, _, y, f, w in held.values()])


def solve(inst: Instance, policy: TieBreakPolicy = DEFAULT_POLICY) -> Outcome:
    """The outcome of run_procedure, from a run that builds no trace."""
    rows = _proposal_rows(inst, policy)
    return _held_outcome(inst, _execute([rows[f] for f in sorted(rows)], policy.worker_keeps_held))


def run_procedure(
    inst: Instance, policy: TieBreakPolicy = DEFAULT_POLICY
) -> tuple[Outcome, Trace]:
    """Run the staged proposing procedure once, resolving ties by policy.

    Returns the resulting outcome (always stable) and the full trace.
    Identical instance and policy give a bit-for-bit identical trace.
    """
    rows = _proposal_rows(inst, policy)
    proposal = cache(partial(_proposal, inst))  # one Proposal per row
    steps: list[TraceStep] = []

    def record(stage, proposed, offers, held, rejected) -> None:
        steps.append(
            TraceStep(
                stage,
                tuple(r[3] for r in proposed),
                {r[3]: proposal(r) for r in proposed},
                {w: tuple(map(proposal, offers[w])) for w in sorted(offers)},
                {w: proposal(r) for w, r in held.items()},
                tuple(map(proposal, rejected)),
            )
        )

    held = _execute([rows[f] for f in sorted(rows)], policy.worker_keeps_held, record=record)
    return _held_outcome(inst, held), Trace(tuple(steps))


def enumerate_procedure_outcomes(
    inst: Instance, budget: EnumerationBudget | None = None
) -> list[Outcome]:
    """Every outcome reachable by some resolution of the payoff ties.

    Branches at every choice point with two or more tied options, on both
    sides. The budget bounds the number of replayed runs, since distinct
    tie resolutions may collapse to few distinct outcomes. Each run is
    replayed from the first stage, with no trace.
    """
    rows = _proposal_rows(inst, DEFAULT_POLICY)
    firm_rows = [rows[f] for f in sorted(rows)]
    keeps_held = DEFAULT_POLICY.worker_keeps_held
    cap = (budget or EnumerationBudget()).max_outcomes

    # Keyed by the ids of the held rows, which live as long as firm_rows:
    # an Outcome is built once per distinct set of held contracts.
    reached: dict[frozenset[int], dict[int, tuple]] = {}
    stack: list[tuple[int, ...]] = [()]
    runs = 0
    while stack:
        script = stack.pop()
        runs += 1
        if runs > cap:
            raise BudgetExceededError(
                f"more than {cap} tie-break branches; raise the enumeration budget"
            )
        try:
            held = _execute(firm_rows, keeps_held, script)
        except _Branch as b:
            stack.extend(script + (i,) for i in reversed(range(b.n_options)))
            continue
        reached.setdefault(frozenset(map(id, held.values())), held)
    outcomes = {_held_outcome(inst, held) for held in reached.values()}
    return sorted(outcomes, key=Outcome.sort_key)


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
