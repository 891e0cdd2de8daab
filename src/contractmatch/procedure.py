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

Payoff ties are resolved by a TieBreakPolicy; enumerate_procedure_outcomes
explores every resolution instead and returns the set of reachable
outcomes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    BudgetExceededError,
    NotSingletonMenusError,
    NotTwoSidedError,
)
from .model import (
    ZERO,
    Allocation,
    EnumerationBudget,
    Instance,
    Matching,
    Outcome,
    money_str,
)


@dataclass(frozen=True)
class Proposal:
    """One contract a firm can offer to a worker."""

    firm: int
    worker: int
    allocation: Allocation

    @property
    def firm_payoff(self) -> Fraction:
        return self.allocation[self.firm]

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


def build_proposal_space(
    inst: Instance, policy: TieBreakPolicy = DEFAULT_POLICY
) -> dict[int, tuple[Proposal, ...]]:
    """Each firm's contracts paying it more than zero, sorted best-first.

    Payoff ties are ordered by the policy's firm rule, then by allocation.
    The sort runs on integer keys: every amount is scaled by the common
    denominator of all amounts, which keeps every comparison.
    """
    if not inst.two_sided:
        raise NotTwoSidedError("instance has no firm/worker partition")
    scale = math.lcm(
        *{v.denominator for m in inst.menus for c in m.contracts for _, v in c.payments}
    )
    side = 1 if policy.firm_prefers_low_worker else -1
    lists: dict[int, list[Proposal]] = {f: [] for f in inst.firms}
    for f, w, m in inst.oriented_menus():
        firm_index = 0 if f < w else 1
        for c in m.contracts:
            if c.payments[firm_index][1].numerator > 0:
                lists[f].append(Proposal(f, w, c))

    def key(p: Proposal) -> tuple[int, int, int]:
        # Orders as (-firm payoff, worker, allocation) does: in one firm's
        # list, contracts tied on worker and firm payoff differ only in the
        # worker's amount, which is then how their allocations compare.
        (a, low), (_, high) = p.allocation.payments
        mine, theirs = (low, high) if a == p.firm else (high, low)
        return (
            -mine.numerator * (scale // mine.denominator),
            side * p.worker,
            theirs.numerator * (scale // theirs.denominator),
        )

    return {f: tuple(sorted(ps, key=key)) for f, ps in lists.items()}


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

    @property
    def terminal_stage(self) -> int:
        return self.steps[-1].stage


class _Branch(Exception):
    """A choice point had several tied options and no scripted pick."""

    def __init__(self, n_options: int):
        self.n_options = n_options


def _execute(
    inst: Instance,
    by_firm: dict[int, tuple[Proposal, ...]],
    worker_keeps_held: bool,
    pick,
):
    """One proposing run; pick(options) resolves every tie of two or more.

    Options arrive in the policy's order: a firm's tied contracts as
    build_proposal_space sorted them, a worker's tied offers with the
    incumbent first when worker_keeps_held, then by firm id.
    """
    remaining = {f: list(ps) for f, ps in by_firm.items()}
    held: dict[int, Proposal] = {}
    held_firms: set[int] = set()
    steps: list[TraceStep] = []
    stage = 0
    while True:
        stage += 1
        active = tuple(
            f for f in sorted(remaining) if f not in held_firms and remaining[f]
        )
        if not active:
            steps.append(TraceStep(stage, (), {}, {}, dict(held), ()))
            break
        proposals: dict[int, Proposal] = {}
        received: dict[int, tuple[Proposal, ...]] = {}
        for f in active:
            untried = remaining[f]
            top = untried[0].firm_payoff
            n = 1
            while n < len(untried) and untried[n].firm_payoff == top:
                n += 1
            choice = untried[0] if n == 1 else pick(tuple(untried[:n]))
            untried.remove(choice)
            proposals[f] = choice
            received[choice.worker] = received.get(choice.worker, ()) + (choice,)
        received = dict(sorted(received.items()))
        rejected: list[Proposal] = []
        for w, ps in received.items():
            prev = held.get(w)
            pool = [p for p in ps if p.worker_payoff >= 0]
            if prev is not None:
                pool.append(prev)
            if not pool:
                rejected.extend(ps)
                continue
            best = max(p.worker_payoff for p in pool)
            tied = [p for p in pool if p.worker_payoff == best]
            if len(tied) == 1:
                choice = tied[0]
            else:
                incumbent = prev if worker_keeps_held else None
                tied.sort(key=lambda p: (p is not incumbent, p.firm))
                choice = pick(tuple(tied))
            rejected.extend(p for p in ps if p != choice)
            if prev is not None and prev != choice:
                rejected.append(prev)
                held_firms.discard(prev.firm)
            held[w] = choice
            held_firms.add(choice.firm)
        steps.append(
            TraceStep(stage, active, proposals, received, dict(held), tuple(rejected))
        )

    payoffs = {a: ZERO for a in inst.agents}
    pairs = []
    for w, p in held.items():
        pairs.append((p.firm, w))
        payoffs[p.firm] = p.firm_payoff
        payoffs[w] = p.worker_payoff
    outcome = Outcome.of(Matching.from_pairs(pairs), payoffs)
    return outcome, Trace(tuple(steps))


def run_procedure(
    inst: Instance, policy: TieBreakPolicy = DEFAULT_POLICY
) -> tuple[Outcome, Trace]:
    """Run the staged proposing procedure once, resolving ties by policy.

    Returns the resulting outcome (always stable) and the full trace.
    Identical instance and policy give a bit-for-bit identical trace.
    """
    by_firm = build_proposal_space(inst, policy)
    return _execute(inst, by_firm, policy.worker_keeps_held, lambda options: options[0])


def enumerate_procedure_outcomes(
    inst: Instance, budget: EnumerationBudget | None = None
) -> list[Outcome]:
    """Every outcome reachable by some resolution of the payoff ties.

    Branches at every choice point with two or more tied options, on both
    sides. The budget bounds the number of replayed runs, since distinct
    tie resolutions may collapse to few distinct outcomes.
    """
    by_firm = build_proposal_space(inst, DEFAULT_POLICY)
    cap = (budget or EnumerationBudget()).max_outcomes

    def replay(script: tuple[int, ...]):
        cursor = 0

        def scripted(options):
            nonlocal cursor
            if cursor < len(script):
                cursor += 1
                return options[script[cursor - 1]]
            raise _Branch(len(options))

        return _execute(inst, by_firm, DEFAULT_POLICY.worker_keeps_held, scripted)

    outcomes: set[Outcome] = set()
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
            outcome, _ = replay(script)
        except _Branch as b:
            stack.extend(script + (i,) for i in reversed(range(b.n_options)))
            continue
        outcomes.add(outcome)
    return sorted(outcomes, key=Outcome.sort_key)


def classic_da(inst: Instance) -> Outcome:
    """Textbook firm-proposing deferred acceptance for one-contract menus.

    An intentionally separate implementation (rank lists and a free queue,
    no shared engine code) used as a differential oracle. Ties are broken
    by lower id on both sides, from a fixed ranking, which corresponds to
    the "strict-list" policy of run_procedure. Acceptability follows
    run_procedure too: a firm lists workers whose contract pays the firm
    more than zero, and a worker ranks every firm that pays it at least
    zero.
    """
    if not inst.two_sided:
        raise NotTwoSidedError("instance has no firm/worker partition")
    for m in inst.menus:
        if len(m.contracts) != 1:
            raise NotSingletonMenusError(f"pair {m.pair} has {len(m.contracts)} contracts")

    firm_set = set(inst.firms)
    contract: dict[tuple[int, int], Allocation] = {}
    for m in inst.menus:
        a, b = m.pair
        f, w = (a, b) if a in firm_set else (b, a)
        contract[(f, w)] = m.contracts[0]

    # Preference lists: higher own payoff first, lower id breaks ties.
    firm_list: dict[int, list[int]] = {}
    for f in inst.firms:
        acceptable = [
            (c[f], w) for (g, w), c in contract.items() if g == f and c[f] > 0
        ]
        firm_list[f] = [w for _, w in sorted(acceptable, key=lambda t: (-t[0], t[1]))]
    worker_rank: dict[int, dict[int, int]] = {}
    for w in inst.workers:
        acceptable = [
            (c[w], f) for (f, x), c in contract.items() if x == w and c[w] >= 0
        ]
        ranked = [f for _, f in sorted(acceptable, key=lambda t: (-t[0], t[1]))]
        worker_rank[w] = {f: i for i, f in enumerate(ranked)}

    next_choice = {f: 0 for f in inst.firms}
    engaged: dict[int, int] = {}
    free = sorted(inst.firms)
    while free:
        f = free.pop(0)
        if next_choice[f] >= len(firm_list[f]):
            continue
        w = firm_list[f][next_choice[f]]
        next_choice[f] += 1
        ranks = worker_rank[w]
        if f not in ranks:
            free.append(f)
            continue
        current = engaged.get(w)
        if current is None:
            engaged[w] = f
        elif ranks[f] < ranks[current]:
            engaged[w] = f
            free.append(current)
        else:
            free.append(f)

    payoffs = {a: ZERO for a in inst.agents}
    pairs = []
    for w, f in engaged.items():
        c = contract[(f, w)]
        pairs.append((f, w))
        payoffs[f] = c[f]
        payoffs[w] = c[w]
    return Outcome.of(Matching.from_pairs(pairs), payoffs)


# --- trace serialization ----------------------------------------------------


def _proposal_dict(p: Proposal) -> dict:
    return {
        "firm": p.firm,
        "worker": p.worker,
        "contract": {str(a): money_str(v) for a, v in p.allocation.payments},
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
