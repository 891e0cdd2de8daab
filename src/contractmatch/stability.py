"""Blocking detection and core enumeration.

A pair blocks an outcome when some entry of its menu pays both members
strictly more than the outcome does. The core is the set of feasible
outcomes no pair blocks; singles can never block because every payoff is
already at least the zero they would get alone.
"""
from __future__ import annotations

from bisect import bisect_right
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


def _blocking(inst: Instance, v: dict[int, int]):
    """Each contract (a, x, b, y) paying both its agents more than the rank
    map `v`, as Instance.floor_ranks gives it for all agents, in pair order
    then menu order."""
    for a, b, x, y in zip(inst.firsts, inst.seconds, inst.xs, inst.ys):
        if x > v[a] and y > v[b]:
            yield a, x, b, y


def payoffs_are_blocked(inst: Instance, payoffs: dict[int, Fraction]) -> bool:
    """True iff some pair blocks `payoffs`: the test behind is_stable and
    verify's stability check."""
    return next(_blocking(inst, inst.floor_ranks(payoffs)), None) is not None


def blocking_coalitions(inst: Instance, outcome: Outcome) -> list[BlockingCertificate]:
    """Every (pair, contract) that blocks the outcome, in pair order then menu order."""
    _require_feasible(inst, outcome)
    return [
        BlockingCertificate((a, b) if a < b else (b, a), inst.allocation(a, x, b, y))
        for a, x, b, y in _blocking(inst, inst.floor_ranks(outcome.payoff_map()))
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
    any contract with an unassigned partner would pay it. That bound is
    read from the member's contracts, best first: the scan stops at the
    first with an unassigned partner, or at the first paying less than the
    contract, so the branch and its count are those of the full bound.
    Amounts are the ranks of the instance's columns, and the search runs
    on an explicit stack, so its depth is not bounded by the recursion
    limit.

    The budget bounds the outcomes examined: stable outcomes reached plus
    branches rejected. A rejected branch with every later agent single is
    a feasible outcome of its own, so the search never examines more
    outcomes than enumerate_outcomes would list.
    """
    cap = (budget or EnumerationBudget()).max_outcomes
    n = len(inst.agents)
    index = {a: i for i, a in enumerate(inst.agents)}
    # Per agent index, each a list of int tuples, built from the columns:
    # choices[i]: single, then (partner, own amount, partner's amount,
    # column) for each usable contract with a later partner, in column order;
    # offers[i]: (amount, partner) of i's usable contracts, best first;
    # rivals[i]: (own, partner, partner's) of each contract paying both
    # members more than zero, the only ones that can block; best first.
    choices: list[list[tuple[int, int, int, int]]] = [[(-1, 0, 0, -1)] for _ in range(n)]
    offers: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    rivals: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    for c, (a, b, x, y) in enumerate(zip(inst.firsts, inst.seconds, inst.xs, inst.ys)):
        if x < 0 or y < 0:
            continue
        i, j = index[a], index[b]
        if i > j:
            i, j, x, y = j, i, y, x
        choices[i].append((j, x, y, c))
        offers[i].append((x, j))
        offers[j].append((y, i))
        if x and y:
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
            if has is not None:
                if theirs > has:
                    return True
                continue
            # j is unassigned: blocked unless an unassigned partner could
            # pay it at least `theirs`.
            for x, k in offers[j]:
                if x < theirs:
                    return True
                if val[k] is None:
                    break
            else:
                return True
        return False

    examined = 0
    leaves: list[tuple[int, ...]] = []
    trail: list[tuple[int, int, int, int]] = []  # the choice of each agent on the stack
    frames = [(0, iter(choices[0]))] if n else []
    while frames:
        z, options = frames[-1]
        if val[z] is not None:  # back from the branch below this choice
            val[z] = None
            j = trail.pop()[0]
            if j >= 0:
                val[j] = None
        for option in options:
            j, x, y, _ = option
            if j >= 0:
                if val[j] is not None:
                    continue
                val[j] = y
            val[z] = x
            trail.append(option)
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
                    leaves.append(tuple([o[3] for o in trail if o[3] >= 0]))
                trail.pop()
                val[z] = None
                if j >= 0:
                    val[j] = None
                continue
            frames.append((nxt, iter(choices[nxt])))
            break
        else:
            frames.pop()
    # By the pairs in trail order, then their menu positions: a menu's
    # index orders as its pair does, and within equal menus the columns
    # order as the positions do.
    starts = inst._starts
    leaves.sort(key=lambda leaf: ([bisect_right(starts, c) for c in leaf], leaf))
    firsts, seconds, xs, ys = inst.firsts, inst.seconds, inst.xs, inst.ys
    return [inst.outcome([(firsts[c], xs[c], seconds[c], ys[c]) for c in leaf]) for leaf in leaves]
