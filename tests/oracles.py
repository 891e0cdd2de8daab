"""Independent brute-force reference implementations used only by tests.

These deliberately take different routes than the library: outcomes are
enumerated agent-first over all involutions (the library walks pair
subsets), and blocking is a plain double loop over pairs and contracts.
The ordered core keeps the library's former core engine, a sweep over
every outcome. The loader reference keeps the library's older
construction path, which parses every literal on its own. The tie replay
keeps the library's former proposing engine, which compares Fraction
payoffs, removes each proposal from a copy of its firm's list, and builds
a trace on every run. The pairwise-efficiency and disjoint-yields
references keep the library's former checkers, which compare Fraction
amounts looked up in each allocation.
"""
import random
import warnings
from collections.abc import Mapping
from fractions import Fraction
from itertools import product

from contractmatch import (
    DEFAULT_POLICY,
    BudgetExceededError,
    ContractMenu,
    EnumerationBudget,
    FormatError,
    Instance,
    Matching,
    NegativeContractWarning,
    NotTwoSidedError,
    Outcome,
    PropertyReport,
    build_proposal_space,
    instance_from_dict,
    instance_to_dict,
    money_str,
    validate_instance,
)
from contractmatch.model import ZERO, iter_raw_outcomes, parse_agent
from contractmatch.procedure import Trace, TraceStep


def oracle_outcomes(inst):
    """Set of (matched pairs, payoff items) for every feasible outcome."""
    menus = {m.pair: m.contracts for m in inst.menus}
    agents = list(inst.agents)

    def involutions(rest):
        if not rest:
            yield {}
            return
        a, tail = rest[0], rest[1:]
        for m in involutions(tail):
            yield {a: a, **m}
        for i, b in enumerate(tail):
            for m in involutions(tail[:i] + tail[i + 1:]):
                yield {a: b, b: a, **m}

    results = set()
    for mu in involutions(agents):
        pairs = tuple(sorted({tuple(sorted((a, b))) for a, b in mu.items() if a != b}))
        if any(p not in menus for p in pairs):
            continue
        usable = [
            [c for c in menus[p] if all(v >= 0 for _, v in c.payments)] for p in pairs
        ]
        if any(not cs for cs in usable):
            continue
        for combo in product(*usable):
            v = {a: Fraction(0) for a in agents}
            for alloc in combo:
                v.update(alloc.as_dict())
            results.add((pairs, tuple(sorted(v.items()))))
    return results


def oracle_blocking(inst, payoffs):
    """All (pair, contract) certificates via a naive double loop."""
    found = []
    for m in inst.menus:
        a, b = m.pair
        for c in m.contracts:
            if c[a] > payoffs[a] and c[b] > payoffs[b]:
                found.append((m.pair, c))
    return found


def oracle_core(inst):
    return {
        (pairs, items)
        for pairs, items in oracle_outcomes(inst)
        if not oracle_blocking(inst, dict(items))
    }


def oracle_ordered_core(inst):
    """The core as a list, in enumerate_outcomes order: every outcome, swept.

    Each outcome iter_raw_outcomes lists is kept when the naive double
    loop finds no blocking pair.
    """
    return [
        Outcome.of(Matching(pairs), v)
        for pairs, v in iter_raw_outcomes(inst)
        if not oracle_blocking(inst, v)
    ]


def seeded_pool(seed):
    """A partnership pool of 2-7 agents for differential tests.

    Each pair gets a menu with probability 0.7, holding one or two
    contracts with amounts from -1 to 4.
    """
    rng = random.Random(seed)
    n = rng.randint(2, 7)
    menus = [
        ContractMenu.of(
            (a, b),
            [{a: rng.randint(-1, 4), b: rng.randint(-1, 4)} for _ in range(rng.randint(1, 2))],
        )
        for a in range(1, n + 1)
        for b in range(a + 1, n + 1)
        if rng.random() < 0.7
    ]
    return validate_instance(Instance.of(range(1, n + 1), menus))


def relabelled(inst, seed, jitter=0.2):
    """`inst` with fresh agent ids and amounts in halves and thirds.

    Ids are drawn from 1..10n, so firms often get ids above workers'. Every
    amount is multiplied by one factor from 1/2, 3/2, 1/3, 2/3 and 5/6,
    and then, with probability `jitter` each, moved by 1/2 or 1/3 either
    way. The factor alone keeps how any two amounts compare, and so the
    generator's forced hypotheses; the moves mix denominators and may
    make amounts negative.
    """
    rng = random.Random(seed)
    data = instance_to_dict(inst)
    new = dict(zip(inst.agents, rng.sample(range(1, 10 * len(inst.agents) + 1), len(inst.agents))))
    k = rng.choice([Fraction(1, 2), Fraction(3, 2), Fraction(1, 3), Fraction(2, 3), Fraction(5, 6)])

    def amount(x):
        x = Fraction(x) * k
        if rng.random() < jitter:
            x += rng.choice([-1, 1]) * rng.choice([Fraction(1, 2), Fraction(1, 3)])
        return money_str(x)

    relabel = {"agents": sorted(new.values())}
    if inst.two_sided:
        relabel["firms"] = [new[a] for a in data["firms"]]
        relabel["workers"] = [new[a] for a in data["workers"]]
    relabel["menus"] = [
        {
            "pair": [new[a] for a in m["pair"]],
            "contracts": [{str(new[int(a)]): amount(x) for a, x in c.items()} for c in m["contracts"]],
        }
        for m in data["menus"]
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NegativeContractWarning)
        return instance_from_dict(relabel)


def _oriented_menus(inst):
    """(firm, worker, menu) for every menu of a two-sided instance."""
    firm_set = set(inst.firms)
    for m in inst.menus:
        a, b = m.pair
        yield (a, b, m) if a in firm_set else (b, a, m)


def oracle_pairwise_efficient(inst):
    """The pairwise-efficiency report, from Fraction amounts."""
    if not inst.two_sided:
        raise NotTwoSidedError("instance has no firm/worker partition")
    witnesses = []
    for f, w, m in _oriented_menus(inst):
        cs = m.contracts
        for i in range(len(cs)):
            for j in range(i + 1, len(cs)):
                df = cs[i][f] - cs[j][f]
                dw = cs[i][w] - cs[j][w]
                if not (df > 0 > dw or df < 0 < dw):
                    witnesses.append((m.pair, cs[i], cs[j]))
    return PropertyReport("pairwise-efficiency", not witnesses, tuple(witnesses))


def oracle_disjoint_yields(inst):
    """The disjoint-yields report, from Fraction amounts."""
    if not inst.two_sided:
        raise NotTwoSidedError("instance has no firm/worker partition")
    yields = {f: [] for f in inst.firms}
    for f, w, m in _oriented_menus(inst):
        yields[f].append((w, {c[f] for c in m.contracts}))
    witnesses = []
    for f in sorted(yields):
        entries = yields[f]
        for i in range(len(entries)):
            for j in range(i + 1, len(entries)):
                w1, s1 = entries[i]
                w2, s2 = entries[j]
                for value in sorted(s1 & s2):
                    witnesses.append((f, w1, w2, value))
    return PropertyReport("disjoint-yields", not witnesses, tuple(witnesses))


def oracle_firm_pareto(inst, payoffs):
    """True iff no feasible outcome pays every firm strictly more than `payoffs`.

    A sweep over every feasible outcome: the reference for the library's
    matching test.
    """
    return not any(
        all(dict(items)[f] > payoffs[f] for f in inst.firms)
        for _, items in oracle_outcomes(inst)
    )


def oracle_instance_from_dict(data):
    """`instance_from_dict` by Instance.of, ContractMenu.of and validate_instance.

    Every id and amount is parsed where it appears, with no memo, and every
    allocation is built by Allocation.of.
    """
    if not isinstance(data, Mapping):
        raise FormatError("instance data must be a JSON object")

    def id_list(key):
        values = data.get(key)
        if values is None:
            return None
        if not isinstance(values, list):
            raise FormatError(f"instance '{key}' must be a list of agent ids")
        return [parse_agent(a) for a in values]

    agents = id_list("agents")
    if agents is None:
        raise FormatError("instance needs an integer 'agents' list")
    entries = data.get("menus", [])
    if not isinstance(entries, (list, tuple)):
        raise FormatError("instance 'menus' must be a list")
    menus = []
    for entry in entries:
        if not isinstance(entry, Mapping) or not isinstance(entry.get("pair"), list):
            raise FormatError(f"malformed menu entry {entry!r}")
        try:
            contracts = [{parse_agent(a): v for a, v in c.items()} for c in entry["contracts"]]
            menus.append(ContractMenu.of(entry["pair"], contracts))
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise FormatError(f"malformed menu entry {entry!r}") from exc
    return validate_instance(
        Instance.of(agents, menus, firms=id_list("firms"), workers=id_list("workers"))
    )


class _Branch(Exception):
    def __init__(self, n_options):
        self.n_options = n_options


def _oracle_execute(inst, by_firm, worker_keeps_held, pick):
    """One proposing run on Fraction payoffs; pick(options) resolves every tie."""
    remaining = {f: list(ps) for f, ps in by_firm.items()}
    held = {}
    held_firms = set()
    steps = []
    stage = 0
    while True:
        stage += 1
        active = tuple(
            f for f in sorted(remaining) if f not in held_firms and remaining[f]
        )
        if not active:
            steps.append(TraceStep(stage, (), {}, {}, dict(held), ()))
            break
        proposals = {}
        received = {}
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
        rejected = []
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
    return Outcome.of(Matching.from_pairs(pairs), payoffs), Trace(tuple(steps))


def oracle_run_procedure(inst, policy):
    """(outcome, trace) of one run, every tie resolved by its first option."""
    by_firm = build_proposal_space(inst, policy)
    return _oracle_execute(inst, by_firm, policy.worker_keeps_held, lambda options: options[0])


def oracle_tie_outcomes(inst, budget=None):
    """(sorted tie outcomes, number of runs) by replaying every script from the root.

    Raises BudgetExceededError after the budget's number of runs, as
    enumerate_procedure_outcomes does.
    """
    by_firm = build_proposal_space(inst, DEFAULT_POLICY)
    cap = (budget or EnumerationBudget()).max_outcomes

    def replay(script):
        cursor = 0

        def scripted(options):
            nonlocal cursor
            if cursor < len(script):
                cursor += 1
                return options[script[cursor - 1]]
            raise _Branch(len(options))

        return _oracle_execute(inst, by_firm, DEFAULT_POLICY.worker_keeps_held, scripted)

    outcomes = set()
    stack = [()]
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
    return sorted(outcomes, key=Outcome.sort_key), runs
