"""Independent brute-force reference implementations used only by tests.

These deliberately take different routes than the library: outcomes are
enumerated agent-first over all involutions (the library walks pair
subsets), and blocking is a plain double loop over pairs and contracts.
The loader reference keeps the library's older construction path, which
parses every literal on its own.
"""
from collections.abc import Mapping
from fractions import Fraction
from itertools import product

from contractmatch import (
    ContractMenu,
    FormatError,
    Instance,
    validate_instance,
)
from contractmatch.model import parse_agent


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
