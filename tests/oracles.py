"""Independent brute-force reference implementations used only by tests.

These deliberately take different routes than the library: outcomes are
enumerated agent-first over all involutions (the library walks pair
subsets), and blocking is a plain double loop over pairs and contracts.
The ordered core keeps the library's former core engine, a sweep over
every outcome, and the core-search reference its former depth-first
search, which also counts the outcomes it examines. The loader
reference reads in the loader's order and
raises the first fault, but keeps the library's older construction
path, which parses every literal on its own, builds an Allocation per
contract, drops duplicates by Fraction equality and derives the integer
columns from the Fraction menus. The tie replay
keeps the library's former proposing engine, which compares Fraction
payoffs, removes each proposal from a copy of its firm's list, and builds
a trace on every run. `classic_da`, textbook deferred acceptance on
rank lists, was the library's own independent reference for one-contract
menus. The pairwise-efficiency and disjoint-yields references keep the
library's former checkers, which compare Fraction amounts looked up in
each allocation. The pair-tradeoff, sides-opposed, group-tradeoff and
employment-invariance references compare the Fraction payoffs of outcomes, as the library's
battery did before it compared amount ranks, over the ordered core.
"""
import random
import warnings
from collections import namedtuple
from collections.abc import Mapping
from fractions import Fraction
from functools import lru_cache
from itertools import islice, product

from contractmatch import (
    DEFAULT_POLICY,
    Allocation,
    BudgetExceededError,
    ContractMatchError,
    DuplicateMenuError,
    EmptyContractSetError,
    EnumerationBudget,
    FormatError,
    Instance,
    InstanceError,
    InvalidPartitionError,
    MalformedMenuError,
    Matching,
    NegativeContractWarning,
    NotTwoSidedError,
    Outcome,
    PreconditionViolatedError,
    PropertyReport,
    SameSideMenuError,
    UnknownAgentError,
    build_proposal_space,
    instance_from_dict,
    instance_to_dict,
    money_str,
    parse_money,
)
from contractmatch.model import ZERO, _shown, iter_raw_outcomes, parse_agent
from contractmatch.procedure import Trace, TraceStep
from markets import instance_of, menu


#: One menu: its pair (low id first) and its contracts as Allocations.
Menu = namedtuple("Menu", "pair contracts")


@lru_cache(maxsize=64)
def menus_of(inst):
    """Every menu of `inst`, in pair order, parsed from its public dict form.

    Each contract of `instance_to_dict(inst)["menus"]` becomes an
    Allocation of the amounts `parse_money` reads from its strings.
    """
    return tuple(
        Menu(
            tuple(m["pair"]),
            tuple(
                Allocation(tuple(sorted((int(a), parse_money(v)) for a, v in c.items())))
                for c in m["contracts"]
            ),
        )
        for m in instance_to_dict(inst)["menus"]
    )


def menu_for(inst, a, b):
    """The menu of the pair {a, b}, by a scan of menus_of(inst), or None."""
    key = (a, b) if a < b else (b, a)
    for m in menus_of(inst):
        if m.pair == key:
            return m
    return None


def payoff(outcome, agent):
    """What the outcome pays `agent`, by a scan of its payoffs."""
    for a, v in outcome.payoffs:
        if a == agent:
            return v
    raise KeyError(agent)


def oracle_outcomes(inst):
    """Set of (matched pairs, payoff items) for every feasible outcome."""
    menus = {m.pair: m.contracts for m in menus_of(inst)}
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
                v.update(alloc.payments)
            results.add((pairs, tuple(sorted(v.items()))))
    return results


def oracle_blocking(inst, payoffs):
    """All (pair, contract) certificates via a naive double loop."""
    found = []
    for m in menus_of(inst):
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


def oracle_core_examined(inst):
    """(core, outcomes examined) by the library's former core search.

    The depth-first search of `enumerate_core` as it was before the
    search read its bounds with an early stop: each unassigned partner's
    bound is a full generator scan of its offers, choices carry their
    pair and menu index, and the stable leaves keep their choices. With
    no budget, it returns the core in enumerate_outcomes order and the
    number of outcomes examined (stable leaves plus rejected branches).
    """
    agents = inst.agents
    n = len(agents)
    index = {a: i for i, a in enumerate(agents)}
    single = (-1, 0, 0, None, -1)
    choices = [[single] for _ in agents]
    offers = [[] for _ in agents]
    rivals = [[] for _ in agents]
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

    val = [None] * n

    def blocked(i):
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

    def undo(z, option):
        val[z] = None
        if option[0] >= 0:
            val[option[0]] = None

    examined = 0
    leaves = []
    trail = []
    frames = [(0, iter(choices[0]))] if n else []
    while frames:
        z, options = frames[-1]
        if val[z] is not None:
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
                if not rejected:
                    leaves.append(tuple([o for _, o in trail if o[0] >= 0]))
                undo(*trail.pop())
                continue
            frames.append((nxt, iter(choices[nxt])))
            break
        else:
            frames.pop()
    leaves.sort(key=lambda leaf: (tuple([o[3] for o in leaf]), tuple([o[4] for o in leaf])))
    core = [inst.outcome([(a, x, b, y) for _, x, y, (a, b), _ in leaf]) for leaf in leaves]
    return core, examined


def seeded_pool(seed):
    """A partnership pool of 2-7 agents for differential tests.

    Each pair gets a menu with probability 0.7, holding one or two
    contracts with amounts from -1 to 4.
    """
    rng = random.Random(seed)
    n = rng.randint(2, 7)
    menus = [
        menu(
            (a, b),
            [{a: rng.randint(-1, 4), b: rng.randint(-1, 4)} for _ in range(rng.randint(1, 2))],
        )
        for a in range(1, n + 1)
        for b in range(a + 1, n + 1)
        if rng.random() < 0.7
    ]
    return instance_of(range(1, n + 1), menus)


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
    for m in menus_of(inst):
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


def oracle_pair_report(o1, o2):
    """check_pair_tradeoff's report on two outcomes, from their Fraction payoffs."""
    v1, v2 = o1.payoff_map(), o2.payoff_map()
    weak, strict = [], []
    for a, b in o1.matching.pairs:
        for x, y in ((a, b), (b, a)):
            if v1[x] > v2[x] and v2[y] < v1[y]:
                weak.append((x, y, v1[x], v2[x], v1[y], v2[y]))
            elif v1[x] > v2[x] and v2[y] == v1[y]:
                strict.append((x, y, v1[x], v2[x], v1[y], v2[y]))
    return PropertyReport(
        "pair-tradeoff",
        not weak,
        tuple(weak),
        {"strict_holds": not weak and not strict, "strict_witnesses": tuple(strict)},
    )


def oracle_sides_report(inst, o1, o2):
    """check_sides_opposed's report on two outcomes, from their Fraction payoffs."""
    witnesses = []
    for direction, x, y in (("forward", o1, o2), ("reverse", o2, o1)):
        vx, vy = x.payoff_map(), y.payoff_map()
        if all(vy[f] >= vx[f] for f in inst.firms):
            witnesses += [(direction, w, vx[w], vy[w]) for w in inst.workers if vx[w] < vy[w]]
    return PropertyReport("sides-opposed", not witnesses, tuple(witnesses))


def _oracle_over_core_pairs(inst, name, report):
    """The property `name` over ordered pairs of distinct outcomes among the
    first six of the ordered core, each pair through `report`."""
    core = oracle_ordered_core(inst)[:6]
    witnesses = []
    for o1 in core:
        for o2 in core:
            if o1 != o2:
                verdict = report(o1, o2)
                if not verdict.holds:
                    witnesses.append((o1, o2) + verdict.witnesses)
    return PropertyReport(name, not witnesses, tuple(witnesses))


def oracle_pair_tradeoff(inst):
    """The battery's pair-tradeoff report, from Fraction payoffs."""
    return _oracle_over_core_pairs(inst, "pair-tradeoff", oracle_pair_report)


def _oracle_hypotheses(inst):
    """Raise PreconditionViolatedError naming the first of pairwise
    efficiency and disjoint yields that fails; a pool raises
    NotTwoSidedError."""
    for name, oracle in (
        ("pairwise-efficiency", oracle_pairwise_efficient),
        ("disjoint-yields", oracle_disjoint_yields),
    ):
        if not oracle(inst).holds:
            raise PreconditionViolatedError(name)


def oracle_sides_opposed(inst):
    """The battery's sides-opposed report, from Fraction payoffs. The
    hypotheses are tested when the core has two outcomes or more."""
    if len(oracle_ordered_core(inst)) >= 2:
        _oracle_hypotheses(inst)
    return _oracle_over_core_pairs(
        inst, "sides-opposed", lambda o1, o2: oracle_sides_report(inst, o1, o2)
    )


def oracle_employment_invariance(inst):
    """The battery's employment-invariance report, from Fraction payoffs:
    each stable outcome whose employed firms and workers, those paid more
    than zero, differ from the first stable outcome's."""
    _oracle_hypotheses(inst)
    core = oracle_ordered_core(inst)
    employed = [
        (
            frozenset(f for f in inst.firms if payoff(o, f) > 0),
            frozenset(w for w in inst.workers if payoff(o, w) > 0),
        )
        for o in core
    ]
    witnesses = [
        (core[0], o, employed[0], e) for o, e in zip(core[1:], employed[1:]) if e != employed[0]
    ]
    return PropertyReport("employment-invariance", not witnesses, tuple(witnesses))


def oracle_group_tradeoff(inst):
    """The battery's group-tradeoff report, from Fraction payoffs.

    Each of the first eight outcomes against each of the first four
    stable ones: the group is every agent paid strictly more in the stable
    outcome. A non-empty group none of whose members blocks the outcome
    with its stable partner is a sample, and each partner must be paid at
    least as much in the outcome as in the stable one.
    """
    core = oracle_ordered_core(inst)[:4]
    witnesses = []
    samples = 0
    for pairs, vo in islice(iter_raw_outcomes(inst), 8):
        blocking = {pair for pair, _ in oracle_blocking(inst, vo)}
        for s in core:
            vs = s.payoff_map()
            group = [a for a in inst.agents if vs[a] > vo[a]]
            mate = s.matching.mate
            if not group or any(tuple(sorted((a, mate(a)))) in blocking for a in group):
                continue
            samples += 1
            found = [(b, vo[b], vs[b]) for b in sorted({mate(a) for a in group}) if vo[b] < vs[b]]
            if found:
                witnesses.append((Outcome.of(Matching(pairs), vo), s, tuple(group)) + tuple(found))
    return PropertyReport(
        "group-tradeoff", not witnesses, tuple(witnesses), {"samples": samples}
    )


def oracle_instance_from_dict(data):
    """`instance_from_dict` by a parse of its own and the former validation.

    It reads in the loader's order and raises the first fault: the agents
    and their checks, the partition and its checks, then each menu entry
    in input order. An entry's pair is parsed and checked first (repeat,
    unknown agent, duplicate, same side). Then each contract is read id
    by id and amount by amount, with no memo, into an Allocation, which
    must cover exactly the pair. An empty menu is checked last. Duplicate
    contracts are dropped by Fraction equality of their Allocations, the
    warning counts the contracts kept, and the contract columns and the
    levels are derived from the canonical Fraction menus.
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
    agents = tuple(sorted(set(agents)))
    if not agents:
        raise InstanceError("instance must have at least one agent")
    if agents[0] < 1:
        raise InstanceError("agent ids must be positive integers")
    agent_set = set(agents)

    firms, workers = id_list("firms"), id_list("workers")
    if (firms is None) != (workers is None):
        raise InvalidPartitionError("firms and workers must be given together")
    if firms is not None:
        firms = tuple(sorted(set(firms)))
        workers = tuple(sorted(set(workers)))
        for a in firms + workers:
            if a not in agent_set:
                raise UnknownAgentError(f"partition references unknown agent {a}")
        if set(firms) & set(workers):
            raise InvalidPartitionError("firms and workers overlap")
        if set(firms) | set(workers) != agent_set:
            raise InvalidPartitionError("firms and workers must cover all agents")
    firm_set = set(firms or ())
    worker_set = set(workers or ())

    entries = data.get("menus", [])
    if not isinstance(entries, (list, tuple)):
        raise FormatError("instance 'menus' must be a list")
    seen = set()
    canonical = []
    for entry in entries:
        if (
            not isinstance(entry, Mapping)
            or not isinstance(entry.get("pair"), list)
            or len(entry["pair"]) != 2
        ):
            raise FormatError(f"malformed menu entry {_shown(entry)}")
        a, b = (parse_agent(x) for x in entry["pair"])
        if a == b:
            raise MalformedMenuError(f"menu pair {(a, b)!r} repeats an agent")
        for x in (a, b):
            if x not in agent_set:
                raise UnknownAgentError(f"menu references unknown agent {x}")
        key = (a, b) if a < b else (b, a)
        if key in seen:
            raise DuplicateMenuError(f"more than one menu for pair {key}")
        seen.add(key)
        if firms is not None and (
            (a in firm_set and b in firm_set) or (a in worker_set and b in worker_set)
        ):
            raise SameSideMenuError(f"pair {key} joins two agents on the same side")
        lo, hi = key
        contracts = []
        try:
            for c in entry["contracts"]:
                contract = {}
                for x, v in c.items():
                    x = parse_agent(x)
                    if x in contract:  # "1" and "01" name one agent
                        raise FormatError(f"contract names agent {x} more than once")
                    contract[x] = parse_money(v)
                allocation = Allocation(tuple(sorted(contract.items())))
                if sorted(contract) != [lo, hi]:
                    raise MalformedMenuError(
                        f"contract {allocation!r} does not cover exactly the pair {key}"
                    )
                if allocation not in contracts:
                    contracts.append(allocation)
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise FormatError(f"malformed menu entry {_shown(entry)}") from exc
        if not contracts:
            raise EmptyContractSetError(f"menu for pair {key} has no contracts")
        canonical.append(Menu(key, tuple(contracts)))
    canonical.sort(key=lambda m: m.pair)
    negatives = sum(
        any(v < 0 for _, v in c.payments) for m in canonical for c in m.contracts
    )
    if negatives:
        warnings.warn(
            f"{negatives} contract(s) contain negative amounts and can never "
            "appear in an outcome",
            NegativeContractWarning,
        )

    # The levels: the distinct amounts and zero as sorted Fractions. The
    # rank of an amount is its index less the number of negative levels.
    amounts = sorted({v for m in canonical for c in m.contracts for _, v in c.payments} | {ZERO})
    negative = sum(v < 0 for v in amounts)
    rank = {v: i - negative for i, v in enumerate(amounts)}
    firsts, seconds, xs, ys = [], [], [], []
    for m in canonical:
        lo, hi = m.pair
        first, second = (hi, lo) if hi in firm_set else (lo, hi)
        for c in m.contracts:
            firsts.append(first)
            seconds.append(second)
            xs.append(rank[c[first]])
            ys.append(rank[c[second]])
    levels = tuple(v.as_integer_ratio() for v in amounts)
    return Instance(
        agents, tuple(firsts), tuple(seconds), tuple(xs), tuple(ys), levels, firms, workers
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
            top = untried[0].allocation[f]
            n = 1
            while n < len(untried) and untried[n].allocation[f] == top:
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
        payoffs[p.firm] = p.allocation[p.firm]
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


class NotSingletonMenusError(ContractMatchError):
    """The operation requires exactly one contract per menu."""


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
    menus = menus_of(inst)
    for m in menus:
        if len(m.contracts) != 1:
            raise NotSingletonMenusError(f"pair {m.pair} has {len(m.contracts)} contracts")

    firm_set = set(inst.firms)
    contract: dict[tuple[int, int], Allocation] = {}
    for m in menus:
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
