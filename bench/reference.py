"""Reference checks for two-sided contract-menu markets.

Written apart from the program under test and sharing no code with it. A
market is read from its JSON form (the format of the instance files the
command line reads) and an outcome from its JSON record, so these checks
see only the data, never the program's objects or helpers.

Money stays exact: every amount of a market is multiplied by the least
common multiple of its denominators, so the searches below compare
integers. An outcome amount that is not a multiple of that unit stays a
`Fraction`; it can match no contract, so such an outcome is infeasible.
"""
from __future__ import annotations

from fractions import Fraction
from math import lcm


class Market:
    """One market: agents, the firm/worker split and each pair's contracts.

    `menus` maps a pair `(low id, high id)` to its distinct contracts, each
    stored as `(amount of low, amount of high)` in scaled units.
    """

    def __init__(self, data: dict):
        self.agents = sorted(int(a) for a in data["agents"])
        self.firms = sorted(int(a) for a in data["firms"])
        self.workers = sorted(int(a) for a in data["workers"])
        self.firm_set = frozenset(self.firms)
        raw = []
        for entry in data["menus"]:
            a, b = sorted(int(x) for x in entry["pair"])
            contracts = [
                {int(k): Fraction(v) for k, v in c.items()} for c in entry["contracts"]
            ]
            raw.append(((a, b), contracts))
        self.scale = lcm(1, *(x.denominator for _, cs in raw for c in cs for x in c.values()))
        self.menus: dict[tuple[int, int], list[tuple[int, int]]] = {}
        for (a, b), contracts in raw:
            entries = self.menus.setdefault((a, b), [])
            for c in contracts:
                t = (int(c[a] * self.scale), int(c[b] * self.scale))
                if t not in entries:
                    entries.append(t)

    def amount(self, value) -> int | Fraction:
        x = Fraction(value) * self.scale
        return int(x) if x.denominator == 1 else x

    def outcome(self, record: dict) -> tuple[tuple[tuple[int, int], ...], dict]:
        """(matched pairs, payoffs) of an outcome record in scaled units."""
        pairs = tuple(sorted(tuple(sorted(int(x) for x in p)) for p in record["matches"]))
        payoffs = {int(a): self.amount(v) for a, v in record["payoffs"].items()}
        return pairs, payoffs

    def oriented(self):
        """Yield (firm, worker, [(firm amount, worker amount), ...]) per menu."""
        for (a, b), cs in self.menus.items():
            if a in self.firm_set:
                yield a, b, cs
            else:
                yield b, a, [(y, x) for x, y in cs]


def is_feasible(m: Market, pairs, v: dict) -> bool:
    """Every agent paid, nobody below 0, matched pairs disjoint and on a
    contract of their menu, singles paid exactly 0."""
    if sorted(v) != m.agents or any(x < 0 for x in v.values()):
        return False
    matched: set[int] = set()
    for a, b in pairs:
        if a == b or a in matched or b in matched:
            return False
        matched.update((a, b))
        key = (a, b) if a < b else (b, a)
        if (v[key[0]], v[key[1]]) not in m.menus.get(key, ()):
            return False
    return all(v[a] == 0 for a in m.agents if a not in matched)


def blocking(m: Market, v: dict) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """Every (pair, contract) paying both members strictly more than v does."""
    found = []
    for (a, b), cs in m.menus.items():
        for c in cs:
            if c[0] > v[a] and c[1] > v[b]:
                found.append(((a, b), c))
    return found


def firm_dominating_assignment(m: Market, v: dict) -> dict[int, int] | None:
    """A firm -> worker assignment through which every firm could earn more
    than v pays it, or None when v is weakly Pareto optimal for firms.

    Some feasible outcome pays every firm strictly more than v exactly when
    the graph with an edge f-w, wherever a contract pays f more than v[f]
    and pays w at least 0, has a matching that covers every firm. The
    matching is grown by augmenting paths.
    """
    edges: dict[int, list[int]] = {f: [] for f in m.firms}
    for f, w, cs in m.oriented():
        if any(cf > v[f] and cw >= 0 for cf, cw in cs):
            edges[f].append(w)
    holder: dict[int, int] = {}

    def augment(f: int, seen: set[int]) -> bool:
        for w in edges[f]:
            if w not in seen:
                seen.add(w)
                if w not in holder or augment(holder[w], seen):
                    holder[w] = f
                    return True
        return False

    for f in m.firms:
        if not augment(f, set()):
            return None
    return {f: w for w, f in holder.items()}


def core(m: Market) -> set[tuple[tuple[tuple[int, int], ...], tuple[int, ...]]]:
    """Every stable outcome, as (sorted pairs, payoffs in agent order).

    Brute force, firm by firm: each firm stays single or takes a free
    worker on one of their contracts that pays nobody below 0. Each
    complete outcome is kept when no pair blocks it.
    """
    options: dict[int, list[tuple[int, int, int]]] = {f: [] for f in m.firms}
    for f, w, cs in m.oriented():
        options[f].extend((w, cf, cw) for cf, cw in cs if cf >= 0 and cw >= 0)
    menus = [(a, b, cs) for (a, b), cs in m.menus.items()]
    v = {a: 0 for a in m.agents}
    pairs: list[tuple[int, int]] = []
    taken: set[int] = set()
    found = set()

    def unblocked() -> bool:
        for a, b, cs in menus:
            va, vb = v[a], v[b]
            for ca, cb in cs:
                if ca > va and cb > vb:
                    return False
        return True

    def assign(k: int) -> None:
        if k == len(m.firms):
            if unblocked():
                found.add((tuple(sorted(pairs)), tuple(v[a] for a in m.agents)))
            return
        assign(k + 1)
        f = m.firms[k]
        for w, cf, cw in options[f]:
            if w in taken:
                continue
            taken.add(w)
            pairs.append((f, w) if f < w else (w, f))
            v[f], v[w] = cf, cw
            assign(k + 1)
            v[f] = v[w] = 0
            pairs.pop()
            taken.discard(w)

    assign(0)
    return found


def payoff_map(m: Market, key) -> dict[int, int]:
    """The payoffs of a `core` entry as an agent -> amount map."""
    return dict(zip(m.agents, key[1]))


def firm_bound_violations(m: Market, v: dict, stable) -> list[tuple[int, tuple]]:
    """(firm, core entry) for every stable outcome paying a firm more than v."""
    return [
        (f, key)
        for key in sorted(stable)
        for f, x in zip(m.agents, key[1])
        if f in m.firm_set and x > v[f]
    ]


def pairwise_efficient(m: Market) -> bool:
    """Within every menu, any two contracts move the firm's and the worker's
    amounts in strictly opposite directions."""
    for _, _, cs in m.oriented():
        for i, (f1, w1) in enumerate(cs):
            for f2, w2 in cs[i + 1:]:
                if not ((f1 > f2 and w1 < w2) or (f1 < f2 and w1 > w2)):
                    return False
    return True


def disjoint_yields(m: Market) -> bool:
    """No firm can earn the same amount with two different workers."""
    seen: dict[int, dict[int, int]] = {f: {} for f in m.firms}
    for f, w, cs in m.oriented():
        for cf, _ in cs:
            if seen[f].setdefault(cf, w) != w:
                return False
    return True


def employment_invariant(m: Market, stable) -> bool:
    """All stable outcomes pay the same firms and the same workers more
    than 0 (the definition the program documents for employment)."""
    employed = {frozenset(a for a, x in zip(m.agents, key[1]) if x > 0) for key in stable}
    return len(employed) <= 1
