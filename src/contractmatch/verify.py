"""Executable checkers for the comparative properties of stable outcomes.

Each checker returns a PropertyReport; a False report carries witnesses
that replay to a concrete violation. Checkers raise only when their
hypotheses fail (PreconditionViolatedError and friends), never to signal
a property failure. PropertyBattery runs the named properties of the
`verify` command on one instance, sharing the enumerations they need.

Properties that compare an agent's payoffs in two outcomes compare their
ranks, as Instance.floor_ranks gives them: a feasible payoff is one of
the instance's levels, so its rank compares as the amount does and is
positive exactly when the amount is. Witnesses carry the exact amounts,
read back from the ranks through Instance.money.
"""
from __future__ import annotations

import copy
from dataclasses import dataclass, field
from itertools import islice
from typing import Iterable

from . import procedure, stability
from .errors import (
    ContractMatchError,
    InfeasibleOutcomeError,
    PreconditionViolatedError,
    UnstableInputError,
)
from .model import (
    EnumerationBudget,
    Instance,
    Matching,
    Outcome,
    _feasible_ranks,
    _partners,
    _repr,
    _require_feasible,
    _require_two_sided,
    iter_raw_outcomes,
    parse_agent,
)
from .stability import (
    _blocking,
    payoffs_are_blocked,  # unused here; benchmark tracing wraps this attribute
)


@dataclass(frozen=True)
class PropertyReport:
    """Verdict for one named property, with counterexample data when false."""

    name: str
    holds: bool
    witnesses: tuple = ()
    details: dict = field(default_factory=dict)


def _require_stable(inst: Instance, outcome: Outcome, label: str) -> dict[int, int]:
    """The outcome's rank map, once it is found feasible and unblocked."""
    v = _require_feasible(inst, outcome)
    if next(_blocking(inst, v), None) is not None:
        raise UnstableInputError(f"{label} admits a blocking pair")
    return v


def _rank_maps(inst: Instance, outcomes: list[Outcome]) -> list[dict[int, int]]:
    """Each outcome's rank map: for feasible outcomes, one lookup per agent."""
    return [inst.floor_ranks(o.payoff_map()) for o in outcomes]


def is_pairwise_efficient(inst: Instance) -> PropertyReport:
    """Within every menu, one side gains exactly when the other loses.

    For any two distinct contracts of the same pair, the firm's amounts and
    the worker's amounts must move in strictly opposite directions; equal
    firm amounts with different worker amounts (or vice versa) break the
    biconditional.
    """
    _require_two_sided(inst)
    witnesses = []
    for f, w, start, stop in inst.spans():
        pair = (f, w) if f < w else (w, f)
        cs = list(zip(inst.xs[start:stop], inst.ys[start:stop]))
        for i, (xi, yi) in enumerate(cs):
            for xj, yj in cs[i + 1:]:
                if (xi - xj) * (yi - yj) >= 0:
                    witnesses.append(
                        (pair, inst.allocation(f, xi, w, yi), inst.allocation(f, xj, w, yj))
                    )
    return PropertyReport("pairwise-efficiency", not witnesses, tuple(witnesses))


def has_disjoint_yields(inst: Instance) -> PropertyReport:
    """No firm can earn the same amount with two different workers."""
    _require_two_sided(inst)
    yields: dict[int, list[tuple[int, set[int]]]] = {f: [] for f in inst.firms}
    for f, w, start, stop in inst.spans():
        yields[f].append((w, set(inst.xs[start:stop])))
    witnesses = []
    for f, entries in yields.items():
        for i, (w1, s1) in enumerate(entries):
            for w2, s2 in entries[i + 1:]:
                witnesses += ((f, w1, w2, inst.money[x]) for x in sorted(s1 & s2))
    return PropertyReport("disjoint-yields", not witnesses, tuple(witnesses))


def is_weakly_pareto_optimal_for_firms(inst: Instance, outcome: Outcome) -> PropertyReport:
    """No feasible outcome pays every firm strictly more than this one.

    Such an outcome exists exactly when every firm can be matched to its
    own worker on a contract that pays the firm more than it gets here and
    pays the worker at least zero. The check searches for that
    firm-saturating matching by augmenting paths, one breadth-first search
    per firm, so it takes time polynomial in the size of the menus and
    enumerates nothing. A false report's witness pays each matched pair
    the first such contract of its menu.
    """
    _require_two_sided(inst)
    v = _require_feasible(inst, outcome)
    better: dict[int, dict[int, tuple]] = {f: {} for f in inst.firms}
    for f, w, start, stop in inst.spans():
        for x, y in zip(inst.xs[start:stop], inst.ys[start:stop]):
            if x > v[f] and y >= 0:
                better[f][w] = (f, x, w, y)
                break
    firm_of: dict[int, int] = {}
    worker_of: dict[int, int] = {}
    for f in inst.firms:
        if not _augment(f, better, firm_of, worker_of):
            return PropertyReport("firm-pareto", True)
    witness = inst.outcome([better[f][w] for w, f in firm_of.items()])
    return PropertyReport("firm-pareto", False, (witness,))


def _augment(root: int, edges, firm_of: dict, worker_of: dict) -> bool:
    """Match the unmatched firm `root` along an augmenting path, if there is one.

    Breadth-first over alternating paths; `firm_of` (worker to firm) and
    `worker_of` (firm to worker) hold the matching and are updated in place.
    """
    reached_from: dict[int, int] = {}
    frontier = [root]
    while frontier:
        following = []
        for f in frontier:
            for w in edges[f]:
                if w in reached_from:
                    continue
                reached_from[w] = f
                if w not in firm_of:
                    while w is not None:
                        f = reached_from[w]
                        previous = worker_of.get(f)
                        firm_of[w] = f
                        worker_of[f] = w
                        w = previous
                    return True
                following.append(firm_of[w])
        frontier = following
    return False


def check_firm_optimality(
    inst: Instance, outcome: Outcome, budget: EnumerationBudget | None = None
) -> PropertyReport:
    """Every stable outcome pays every firm at most what this outcome does."""
    _require_two_sided(inst)
    v = _require_feasible(inst, outcome)
    core = stability.enumerate_core(inst, budget)
    return _firm_bound(inst, v, core, _rank_maps(inst, core))


def _firm_bound(
    inst: Instance, v: dict[int, int], core: list[Outcome], ranks: list[dict[int, int]]
) -> PropertyReport:
    witnesses = []
    for stable, alt in zip(core, ranks):
        witnesses.extend((f, stable) for f in inst.firms if v[f] < alt[f])
    return PropertyReport("firm-optimality", not witnesses, tuple(witnesses))


def check_pair_tradeoff(inst: Instance, o1: Outcome, o2: Outcome) -> PropertyReport:
    """Between two stable outcomes, matched partners' payoffs trade off.

    For every pair matched in the first outcome, if one member does
    strictly better there than in the second outcome, the partner must do
    at least as well in the second. The report's details also say whether
    the partner always does strictly better, which need not hold.
    """
    v1 = _require_stable(inst, o1, "first outcome")
    v2 = _require_stable(inst, o2, "second outcome")
    return _pair_tradeoff_report(inst, o1, v1, v2)


def _pair_tradeoff_report(
    inst: Instance, o1: Outcome, v1: dict[int, int], v2: dict[int, int]
) -> PropertyReport:
    money = inst.money
    weak_witnesses = []
    strict_witnesses = []
    for pair in o1.matching.pairs:
        for a, b in (pair, pair[::-1]):
            if v1[a] > v2[a] and not v2[b] > v1[b]:
                found = strict_witnesses if v2[b] == v1[b] else weak_witnesses
                found.append((a, b, money[v1[a]], money[v2[a]], money[v1[b]], money[v2[b]]))
    return PropertyReport(
        "pair-tradeoff",
        not weak_witnesses,
        tuple(weak_witnesses),
        {
            "strict_holds": not weak_witnesses and not strict_witnesses,
            "strict_witnesses": tuple(strict_witnesses),
        },
    )


def check_group_tradeoff(
    inst: Instance, outcome: Outcome, stable_outcome: Outcome, group: Iterable[int]
) -> PropertyReport:
    """Gains of a group in a stable outcome are paid for by its partners.

    Hypotheses (violations raise PreconditionViolatedError): the second
    outcome is stable; every group member is paid strictly more there than
    in the first outcome; and no group member forms a blocking pair with
    their stable-outcome partner against the first outcome. Then each such
    partner is paid at least as much in the first outcome as in the stable
    one. An empty group holds vacuously. A member that is not an integer
    agent id raises FormatError.
    """
    members = sorted({parse_agent(a) for a in group})
    v = _feasible_ranks(inst, outcome)
    if v is None:
        raise PreconditionViolatedError("outcome", "first outcome is not feasible")
    try:
        vs = _require_stable(inst, stable_outcome, "stable outcome")
    except (InfeasibleOutcomeError, UnstableInputError) as exc:
        raise PreconditionViolatedError("stable-outcome", str(exc)) from exc
    if not set(members) <= set(inst.agents):
        raise PreconditionViolatedError("group", "group contains unknown agents")
    partner = _partners(stable_outcome.matching)
    blocking = _blocking_pairs(inst, v)
    for a in members:
        if not vs[a] > v[a]:
            raise PreconditionViolatedError(
                "strict-gain", f"agent {_repr(a)} does not strictly gain in the stable outcome"
            )
        # A strict gain over a nonnegative payoff means the agent is matched
        # in the stable outcome, so the partner is always a distinct agent.
        b = partner[a]
        if (a, b) in blocking:
            raise PreconditionViolatedError(
                "no-blocking",
                f"pair {{{_repr(a)}, {_repr(b)}}} blocks the first outcome",
            )
    return _group_tradeoff_report(inst, v, vs, partner, members)


def _blocking_pairs(inst: Instance, v: dict[int, int]) -> set[tuple[int, int]]:
    """Each pair, in both orders, with a contract paying both members more
    than the rank map `v`."""
    pairs = {(a, b) for a, _, b, _ in _blocking(inst, v)}
    return pairs | {(b, a) for a, b in pairs}


def _group_tradeoff_report(
    inst: Instance, v: dict[int, int], vs: dict[int, int], partner: dict, members: list[int]
) -> PropertyReport:
    money = inst.money
    witnesses = []
    for b in sorted({partner[a] for a in members}):
        if not v[b] >= vs[b]:
            witnesses.append((b, money[v[b]], money[vs[b]]))
    return PropertyReport("group-tradeoff", not witnesses, tuple(witnesses))


def check_employment_invariance(
    inst: Instance, budget: EnumerationBudget | None = None
) -> PropertyReport:
    """All stable outcomes employ the same firms and the same workers.

    Requires pairwise efficiency and disjoint yields; employment means a
    strictly positive payoff.
    """
    return PropertyBattery(inst, budget).run("employment-invariance")


def check_sides_opposed(inst: Instance, o1: Outcome, o2: Outcome) -> PropertyReport:
    """If every firm weakly prefers one stable outcome, every worker weakly
    prefers the other.

    Requires pairwise efficiency and disjoint yields, and both outcomes
    stable. The implication is checked in both directions whenever its
    antecedent holds.
    """
    PropertyBattery(inst).require_hypotheses()
    v1 = _require_stable(inst, o1, "first outcome")
    v2 = _require_stable(inst, o2, "second outcome")
    return _sides_opposed_report(inst, v1, v2)


def _sides_opposed_report(inst: Instance, v1: dict[int, int], v2: dict[int, int]) -> PropertyReport:
    money = inst.money
    witnesses = []
    for direction, (vx, vy) in (("forward", (v1, v2)), ("reverse", (v2, v1))):
        if all(vy[f] >= vx[f] for f in inst.firms):
            for w in inst.workers:
                if not vx[w] >= vy[w]:
                    witnesses.append((direction, w, money[vx[w]], money[vy[w]]))
    return PropertyReport("sides-opposed", not witnesses, tuple(witnesses))


# --- the verify battery ----------------------------------------------------


class PropertyBattery:
    """Runs named properties on one instance, sharing their enumerations.

    Each report, the core, its rank maps and the outcomes reachable under
    some tie resolution are computed at most once, when first needed. An
    error one of them raised is kept, as a copy, and raised again, as a
    fresh copy, to every later call that needs it.
    """

    def __init__(self, inst: Instance, budget: EnumerationBudget | None = None):
        self.inst = inst
        self.budget = budget
        self._memo: dict[str, tuple] = {}

    def _once(self, key: str, compute, *args):
        if key not in self._memo:
            try:
                self._memo[key] = (compute(*args), None)
            except ContractMatchError as exc:
                # A copy, which has no traceback: the error itself would,
                # through its traceback's frames, hold the battery in a
                # reference cycle.
                self._memo[key] = (None, copy.copy(exc))
        value, error = self._memo[key]
        if error is not None:
            raise copy.copy(error)
        return value

    def core(self) -> list[Outcome]:
        return self._once("core", stability.enumerate_core, self.inst, self.budget)

    def ranks(self) -> list[dict[int, int]]:
        """The rank map of each core outcome, in core order."""
        return self._once("ranks", _rank_maps, self.inst, self.core())

    def runs(self) -> list[Outcome]:
        return self._once("runs", procedure.enumerate_procedure_outcomes, self.inst, self.budget)

    def require_hypotheses(self) -> None:
        """Pairwise efficiency and disjoint yields, which several properties assume."""
        for name in ("pairwise-efficiency", "disjoint-yields"):
            if not self.run(name).holds:
                raise PreconditionViolatedError(name)

    def run(self, name: str) -> PropertyReport:
        """The report of the property `name`, one of PROPERTY_NAMES.

        Raises PreconditionViolatedError or another ContractMatchError when
        the property cannot be decided on this instance.
        """
        return self._once(name, PROPERTIES[name], self)


def _firm_pareto(battery: PropertyBattery) -> PropertyReport:
    witnesses = []
    for outcome in battery.runs():
        report = is_weakly_pareto_optimal_for_firms(battery.inst, outcome)
        if not report.holds:
            witnesses.append((outcome,) + report.witnesses)
    return PropertyReport("firm-pareto", not witnesses, tuple(witnesses))


def _firm_optimality(battery: PropertyBattery) -> PropertyReport:
    battery.require_hypotheses()
    outcomes = battery.runs()
    if len(outcomes) != 1:
        return PropertyReport(
            "firm-optimality", False, tuple(outcomes), {"reason": "not a singleton"}
        )
    inst = battery.inst
    v = inst.floor_ranks(outcomes[0].payoff_map())
    return _firm_bound(inst, v, battery.core(), battery.ranks())


def _employment(battery: PropertyBattery) -> PropertyReport:
    battery.require_hypotheses()
    inst = battery.inst
    reference = None
    witnesses = []
    for stable, v in zip(battery.core(), battery.ranks()):
        employed = (
            frozenset(f for f in inst.firms if v[f] > 0),
            frozenset(w for w in inst.workers if v[w] > 0),
        )
        if reference is None:
            reference = (stable, employed)
        elif employed != reference[1]:
            witnesses.append((reference[0], stable, reference[1], employed))
    return PropertyReport("employment-invariance", not witnesses, tuple(witnesses))


def _over_stable_pairs(battery: PropertyBattery, name: str, report) -> PropertyReport:
    # Every ordered pair of distinct outcomes among the first six of the
    # core, which lists no outcome twice. The core is stable, so only the
    # battery's hypotheses remain.
    core = list(zip(battery.core(), battery.ranks()))[:6]
    witnesses = []
    for i, (o1, v1) in enumerate(core):
        for j, (o2, v2) in enumerate(core):
            if i != j:
                verdict = report(battery.inst, o1, v1, v2)
                if not verdict.holds:
                    witnesses.append((o1, o2) + verdict.witnesses)
    return PropertyReport(name, not witnesses, tuple(witnesses))


def _sides_opposed(battery: PropertyBattery) -> PropertyReport:
    # The hypotheses are tested at the first pair of stable outcomes, so
    # with fewer than two the property holds untested. On a pool they
    # raise NotTwoSidedError.
    def report(inst: Instance, o1: Outcome, v1: dict, v2: dict) -> PropertyReport:
        battery.require_hypotheses()
        return _sides_opposed_report(inst, v1, v2)

    return _over_stable_pairs(battery, "sides-opposed", report)


def _pair_tradeoff(battery: PropertyBattery) -> PropertyReport:
    return _over_stable_pairs(battery, "pair-tradeoff", _pair_tradeoff_report)


def _group_tradeoff(battery: PropertyBattery) -> PropertyReport:
    # The first eight outcomes against the first four stable ones.
    inst = battery.inst
    # The outcomes are feasible, the core's stable, and each group gains
    # strictly by construction: of the checker's hypotheses, only
    # "no-blocking" is left to test.
    stable = [
        (s, vs, _partners(s.matching)) for s, vs in zip(battery.core()[:4], battery.ranks())
    ]
    witnesses = []
    checked = 0
    for pairs, payoffs in islice(iter_raw_outcomes(inst), 8):
        vo = inst.floor_ranks(payoffs)
        blocking = None
        for s, vs, partner in stable:
            group = [a for a in inst.agents if vs[a] > vo[a]]
            if not group:
                continue
            if blocking is None:
                blocking = _blocking_pairs(inst, vo)
            if any((a, partner[a]) in blocking for a in group):
                continue
            report = _group_tradeoff_report(inst, vo, vs, partner, group)
            checked += 1
            if not report.holds:
                o = Outcome(Matching(pairs), tuple(payoffs.items()))
                witnesses.append((o, s, tuple(group)) + report.witnesses)
    return PropertyReport(
        "group-tradeoff", not witnesses, tuple(witnesses), {"samples": checked}
    )


PROPERTIES = {
    "pairwise-efficiency": lambda battery: is_pairwise_efficient(battery.inst),
    "disjoint-yields": lambda battery: has_disjoint_yields(battery.inst),
    "firm-pareto": _firm_pareto,
    "firm-optimality": _firm_optimality,
    "employment-invariance": _employment,
    "sides-opposed": _sides_opposed,
    "pair-tradeoff": _pair_tradeoff,
    "group-tradeoff": _group_tradeoff,
}

PROPERTY_NAMES = tuple(PROPERTIES)
