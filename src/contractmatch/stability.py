"""Blocking detection and core enumeration.

A pair blocks an outcome when some entry of its menu pays both members
strictly more than the outcome does. The core is the set of feasible
outcomes no pair blocks; singles can never block because every payoff is
already at least the zero they would get alone.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import BudgetExceededError
from .model import (
    Allocation,
    EnumerationBudget,
    Instance,
    Outcome,
    _require_feasible,
    iter_raw_outcomes,  # unused here; benchmark tracing wraps this attribute
)


@dataclass(frozen=True)
class BlockingCertificate:
    """A pair and the menu entry with which it improves on an outcome."""

    coalition: tuple[int, int]
    allocation: Allocation


def _blocking(inst: Instance, payoffs: dict[int, Fraction]):
    """Each contract (a, x, b, y) paying both its agents more than `payoffs`,
    which must cover all agents, in pair order then menu order."""
    v = inst.floor_ranks(payoffs)
    for a, b, x, y in zip(inst.firsts, inst.seconds, inst.xs, inst.ys):
        if x > v[a] and y > v[b]:
            yield a, x, b, y


def payoffs_are_blocked(inst: Instance, payoffs: dict[int, Fraction]) -> bool:
    """True iff some pair blocks `payoffs`: the test behind is_stable and
    verify's stability check."""
    return next(_blocking(inst, payoffs), None) is not None


def blocking_coalitions(inst: Instance, outcome: Outcome) -> list[BlockingCertificate]:
    """Every (pair, contract) that blocks the outcome, in pair order then menu order."""
    _require_feasible(inst, outcome)
    return [
        BlockingCertificate((a, b) if a < b else (b, a), inst.allocation(a, x, b, y))
        for a, x, b, y in _blocking(inst, outcome.payoff_map())
    ]


def is_stable(inst: Instance, outcome: Outcome) -> bool:
    """True iff no pair blocks the outcome."""
    _require_feasible(inst, outcome)
    return not payoffs_are_blocked(inst, outcome.payoff_map())


def enumerate_core(
    inst: Instance, budget: EnumerationBudget | None = None
) -> list[Outcome]:
    """All stable outcomes, in the order enumerate_outcomes produces them.

    A depth-first search assigns agents in id order: each is single or is
    matched, on a menu contract paying both at least zero, to a later
    agent not yet assigned. A branch is rejected as soon as a contract of
    a newly assigned agent pays it more than its payoff and pays the other
    member more than that member has or, if still unassigned, more than
    any contract with an unassigned partner would pay it. Amounts are
    the ranks of the instance's columns, and the search runs on an explicit
    stack, so its depth is not bounded by the recursion limit.

    The budget bounds the outcomes examined: stable outcomes reached plus
    branches rejected. A rejected branch with every later agent single is
    a feasible outcome of its own, so the search never examines more
    outcomes than enumerate_outcomes would list.
    """
    cap = (budget or EnumerationBudget()).max_outcomes
    agents = inst.agents
    n = len(agents)
    index = {a: i for i, a in enumerate(agents)}
    # choices[i]: single, then (partner, own amount, partner's amount, pair,
    # menu index) for each usable contract with a later partner.
    single = (-1, 0, 0, None, -1)
    choices: list[list[tuple]] = [[single] for _ in agents]
    # offers[i]: (amount, partner) of i's usable contracts, best first.
    offers: list[list[tuple[int, int]]] = [[] for _ in agents]
    # rivals[i]: (own, partner, partner's) of each contract paying both
    # members more than zero, the only ones that can block; best first.
    rivals: list[list[tuple[int, int, int]]] = [[] for _ in agents]
    for first, second, start, stop in inst.spans():
        pair = a, b = (first, second) if first < second else (second, first)
        i, j = index[a], index[b]
        for k, (x, y) in enumerate(zip(inst.xs[start:stop], inst.ys[start:stop])):
            if first != a:
                x, y = y, x
            if x >= 0 and y >= 0:
                choices[i].append((j, x, y, pair, k))
                offers[i].append((x, j))
                offers[j].append((y, i))
            if x > 0 and y > 0:
                rivals[i].append((x, j, y))
                rivals[j].append((y, i, x))
    for lists in (offers, rivals):
        for entries in lists:
            entries.sort(reverse=True)

    val: list[int | None] = [None] * n

    def blocked(i: int) -> bool:
        mine = val[i]
        for own, j, theirs in rivals[i]:
            if own <= mine:
                return False
            has = val[j]
            if has is None:
                has = next((x for x, k in offers[j] if val[k] is None), 0)
            if theirs > has:
                return True
        return False

    def undo(z: int, option: tuple) -> None:
        val[z] = None
        if option[0] >= 0:
            val[option[0]] = None

    examined = 0
    leaves: list[tuple] = []
    trail: list[tuple] = []  # (agent, choice) of each agent assigned by choice
    frames = [(0, iter(choices[0]))] if n else []
    while frames:
        z, options = frames[-1]
        if val[z] is not None:  # back from the branch below this choice
            undo(*trail.pop())
        for option in options:
            j = option[0]
            if j >= 0 and val[j] is not None:
                continue
            val[z] = option[1]
            if j >= 0:
                val[j] = option[2]
            trail.append((z, option))
            nxt = z + 1
            while nxt < n and val[nxt] is not None:
                nxt += 1
            rejected = blocked(z) or (j >= 0 and blocked(j))
            if rejected or nxt == n:
                examined += 1
                if examined > cap:
                    raise BudgetExceededError(
                        f"more than {cap} outcomes examined; raise the enumeration budget"
                    )
                if not rejected:
                    leaves.append(tuple([o for _, o in trail if o[0] >= 0]))
                undo(*trail.pop())
                continue
            frames.append((nxt, iter(choices[nxt])))
            break
        else:
            frames.pop()
    leaves.sort(key=lambda leaf: (tuple([o[3] for o in leaf]), tuple([o[4] for o in leaf])))
    return [inst.outcome([(a, x, b, y) for _, x, y, (a, b), _ in leaf]) for leaf in leaves]
