"""Core data model: instances, menus, outcomes, and brute-force enumeration.

An instance is a finite set of agents plus, for some unordered pairs, a
finite menu of exact-money divisions the pair may agree on. Staying single
is always feasible and pays zero; singleton menus are implicit and never
stored. An outcome matches agents into disjoint menued pairs, picks one
menu entry per matched pair, and pays zero to everyone single.

All amounts are `fractions.Fraction`, so comparisons are exact. Input
amounts must be integers or strings; floats are rejected because they do
not round-trip exactly.
"""
from __future__ import annotations

import json
import math
import warnings
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product

from .errors import (
    BudgetExceededError,
    DuplicateMenuError,
    EmptyContractSetError,
    FormatError,
    InstanceError,
    InvalidPartitionError,
    MalformedMenuError,
    NegativeContractWarning,
    SameSideMenuError,
    UnknownAgentError,
)

Money = Fraction

ZERO = Fraction(0)

DEFAULT_MAX_OUTCOMES = 250_000

#: Largest decimal exponent, in size, a money literal may carry: "1e1000"
#: parses, "1e1001" is a FormatError. Digit counts are bounded by Python's
#: limit on integer string conversion (4,300 digits by default).
MAX_MONEY_EXPONENT = 1000


def _shown(text: str) -> str:
    """The repr of an input literal, cut after 40 characters."""
    if len(text) <= 40:
        return repr(text)
    return f"{text[:40]!r}... ({len(text)} characters)"


def parse_money(value) -> Fraction:
    """Parse an exact amount from an int, or a decimal/fraction string like "1.5" or "3/2".

    A decimal exponent beyond MAX_MONEY_EXPONENT in size ("1e1001",
    "1e-1001") is a FormatError, raised before the power of ten is built.
    """
    if isinstance(value, bool):
        raise FormatError(f"money amount must be an integer or string, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        text = value.strip()
        _, marker, exponent = text.lower().partition("e")
        try:
            if marker and abs(int(exponent)) > MAX_MONEY_EXPONENT:
                raise FormatError(
                    f"money amount {_shown(value)} has a decimal exponent beyond "
                    f"{MAX_MONEY_EXPONENT} in size"
                )
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise FormatError(f"cannot parse money amount {_shown(value)}") from exc
    raise FormatError(
        f"money amount must be an integer or string, got {type(value).__name__}"
    )


def parse_agent(value) -> int:
    """Parse an agent id from an int (not a bool) or an integer string like "3"."""
    if type(value) is int:
        return value
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    raise FormatError(f"agent id must be an integer, got {value!r}")


def money_str(value: Fraction) -> str:
    """Canonical string form: "3" for integers, "3/2" otherwise."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


@dataclass(frozen=True, order=True)
class Allocation:
    """One division of money among the members of a coalition.

    Stored as (agent, amount) entries sorted by agent id, so allocations are
    hashable and compare lexicographically (used for deterministic
    tie-breaking).
    """

    payments: tuple[tuple[int, Fraction], ...]

    @classmethod
    def of(cls, payments: Mapping[int, object]) -> "Allocation":
        return cls(tuple(sorted((parse_agent(a), parse_money(v)) for a, v in payments.items())))

    def __getitem__(self, agent: int) -> Fraction:
        for a, v in self.payments:
            if a == agent:
                return v
        raise KeyError(agent)

    @property
    def agents(self) -> tuple[int, ...]:
        return tuple(a for a, _ in self.payments)

    def as_dict(self) -> dict[int, Fraction]:
        return dict(self.payments)

    def __repr__(self) -> str:
        inner = ", ".join(f"{a}: {money_str(v)}" for a, v in self.payments)
        return f"Allocation({{{inner}}})"


@dataclass(frozen=True)
class ContractMenu:
    """The finite set of divisions available to one unordered pair of agents.

    Contract order is preserved from the input; enumeration order depends
    on it.
    """

    pair: tuple[int, int]
    contracts: tuple[Allocation, ...]

    @classmethod
    def of(cls, pair: Iterable[int], contracts: Iterable) -> "ContractMenu":
        a, b = pair
        allocs = tuple(
            c if isinstance(c, Allocation) else Allocation.of(c) for c in contracts
        )
        return cls((parse_agent(a), parse_agent(b)), allocs)


@dataclass(frozen=True)
class Instance:
    """A contract choice problem, optionally split into firms and workers."""

    agents: tuple[int, ...]
    menus: tuple[ContractMenu, ...] = ()
    firms: tuple[int, ...] | None = None
    workers: tuple[int, ...] | None = None

    @classmethod
    def of(
        cls,
        agents: Iterable[int],
        menus: Iterable[ContractMenu] = (),
        firms: Iterable[int] | None = None,
        workers: Iterable[int] | None = None,
    ) -> "Instance":
        return cls(
            tuple(parse_agent(a) for a in agents),
            tuple(menus),
            None if firms is None else tuple(parse_agent(a) for a in firms),
            None if workers is None else tuple(parse_agent(a) for a in workers),
        )

    @property
    def two_sided(self) -> bool:
        return self.firms is not None and self.workers is not None

    def menu_for(self, a: int, b: int) -> ContractMenu | None:
        key = (a, b) if a < b else (b, a)
        for m in self.menus:
            if m.pair == key:
                return m
        return None

    def menu_map(self) -> dict[tuple[int, int], ContractMenu]:
        return {m.pair: m for m in self.menus}

    @cached_property
    def scale(self) -> int:
        """The common denominator of all the instance's amounts."""
        return math.lcm(
            *{v.denominator for m in self.menus for c in m.contracts for _, v in c.payments}
        )

    @cached_property
    def table(self) -> tuple[tuple, ...]:
        """Every menu on integer amounts, in menu order, built on first read.

        A row is (first, second, pair, contracts): first and second are the
        firm and the worker on a two-sided instance and the menu pair on a
        pool, and each contract is (x, y, allocation), with x and y what it
        pays first and second times `scale`, so they compare as the amounts do.
        """
        scale = self.scale
        firms = set(self.firms or ())
        rows = []
        for m in self.menus:
            a, b = m.pair
            first, second = (b, a) if b in firms else (a, b)
            contracts = []
            for c in m.contracts:
                (p, u), (_, v) = c.payments
                u, v = u.numerator * (scale // u.denominator), v.numerator * (scale // v.denominator)
                contracts.append((u, v, c) if p == first else (v, u, c))
            rows.append((first, second, m.pair, tuple(contracts)))
        return tuple(rows)

    def scaled(self, payoffs: Mapping[int, Fraction]) -> dict[int, int]:
        """Each payoff times `scale`, rounded down.

        An int of the table exceeds a scaled payoff exactly when its amount
        exceeds the payoff, whatever the payoff's denominator.
        """
        scale = self.scale
        return {a: v.numerator * scale // v.denominator for a, v in payoffs.items()}


def validate_instance(inst: Instance) -> Instance:
    """Check every instance invariant and return the canonical form.

    Canonical form: agents sorted, each menu pair stored (low, high),
    menus sorted by pair, duplicate contracts within a menu dropped
    (first occurrence wins). Idempotent. Contracts with negative amounts
    are legal but unreachable in outcomes; they trigger a warning.
    """
    agents = tuple(sorted({parse_agent(a) for a in inst.agents}))
    if not agents:
        raise InstanceError("instance must have at least one agent")
    if agents[0] < 1:
        raise InstanceError("agent ids must be positive integers")
    agent_set = set(agents)

    if (inst.firms is None) != (inst.workers is None):
        raise InvalidPartitionError("firms and workers must be given together")
    firms = workers = None
    if inst.firms is not None:
        firms = tuple(sorted({parse_agent(a) for a in inst.firms}))
        workers = tuple(sorted({parse_agent(a) for a in inst.workers}))
        for a in firms + workers:
            if a not in agent_set:
                raise UnknownAgentError(f"partition references unknown agent {a}")
        if set(firms) & set(workers):
            raise InvalidPartitionError("firms and workers overlap")
        if set(firms) | set(workers) != agent_set:
            raise InvalidPartitionError("firms and workers must cover all agents")

    firm_set = set(firms or ())
    worker_set = set(workers or ())
    seen: dict[tuple[int, int], None] = {}
    canonical: list[ContractMenu] = []
    negatives = 0
    for m in inst.menus:
        try:
            a, b = m.pair
        except ValueError as exc:
            raise MalformedMenuError(f"menu pair must have two agents: {m.pair!r}") from exc
        a, b = parse_agent(a), parse_agent(b)
        if a == b:
            raise MalformedMenuError(f"menu pair {m.pair!r} repeats an agent")
        for x in (a, b):
            if x not in agent_set:
                raise UnknownAgentError(f"menu references unknown agent {x}")
        key = (a, b) if a < b else (b, a)
        if key in seen:
            raise DuplicateMenuError(f"more than one menu for pair {key}")
        seen[key] = None
        if firm_set and (
            (a in firm_set and b in firm_set) or (a in worker_set and b in worker_set)
        ):
            raise SameSideMenuError(f"pair {key} joins two agents on the same side")
        lo, hi = key
        contracts: list[Allocation] = []
        for c in m.contracts:
            p = c.payments  # sorted by agent id
            if len(p) != 2 or p[0][0] != lo or p[1][0] != hi:
                raise MalformedMenuError(
                    f"contract {c!r} does not cover exactly the pair {key}"
                )
            if p[0][1].numerator < 0 or p[1][1].numerator < 0:
                negatives += 1
            if c not in contracts:
                contracts.append(c)
        if not contracts:
            raise EmptyContractSetError(f"menu for pair {key} has no contracts")
        canonical.append(ContractMenu(key, tuple(contracts)))
    canonical.sort(key=lambda m: m.pair)
    if negatives:
        warnings.warn(
            f"{negatives} contract(s) contain negative amounts and can never "
            "appear in an outcome",
            NegativeContractWarning,
            stacklevel=2,
        )
    return Instance(agents, tuple(canonical), firms, workers)


def is_superadditive(inst: Instance) -> bool:
    """True iff every present menu contains the all-zero division.

    With only singleton and pair coalitions feasible, merging two singles
    (each worth zero) into a menued pair is the only nontrivial case of
    super-additivity, and it requires the zero division to be on the menu.
    """
    return all(any(x == y == 0 for x, y, _ in cs) for _, _, _, cs in inst.table)


@dataclass(frozen=True)
class EnumerationBudget:
    """Cap on enumeration work; exceeding it raises BudgetExceededError."""

    max_outcomes: int = DEFAULT_MAX_OUTCOMES

    def __post_init__(self):
        if self.max_outcomes < 1:
            raise ValueError("max_outcomes must be positive")


@dataclass(frozen=True)
class Matching:
    """Disjoint matched pairs; agents not listed are single."""

    pairs: tuple[tuple[int, int], ...]

    @classmethod
    def from_pairs(cls, pairs: Iterable[Iterable[int]]) -> "Matching":
        canonical = []
        used: set[int] = set()
        for p in pairs:
            if not isinstance(p, (list, tuple)) or len(p) != 2:
                raise FormatError(f"matched pair must list two agents, got {p!r}")
            a, b = (parse_agent(x) for x in p)
            if a == b:
                raise FormatError(f"matched pair {p!r} repeats an agent")
            if a in used or b in used:
                raise FormatError("an agent appears in more than one matched pair")
            used.update((a, b))
            canonical.append((a, b) if a < b else (b, a))
        return cls(tuple(sorted(canonical)))

    def mate(self, agent: int) -> int:
        for a, b in self.pairs:
            if a == agent:
                return b
            if b == agent:
                return a
        return agent

    def matched_agents(self) -> frozenset[int]:
        return frozenset(a for p in self.pairs for a in p)


@dataclass(frozen=True)
class Outcome:
    """A matching together with the payoff of every agent."""

    matching: Matching
    payoffs: tuple[tuple[int, Fraction], ...]

    @classmethod
    def of(cls, matching: Matching, payoffs: Mapping[int, object]) -> "Outcome":
        return cls(
            matching,
            tuple(sorted((parse_agent(a), parse_money(v)) for a, v in payoffs.items())),
        )

    def payoff(self, agent: int) -> Fraction:
        for a, v in self.payoffs:
            if a == agent:
                return v
        raise KeyError(agent)

    def payoff_map(self) -> dict[int, Fraction]:
        return dict(self.payoffs)

    def singles(self) -> tuple[int, ...]:
        matched = self.matching.matched_agents()
        return tuple(a for a, _ in self.payoffs if a not in matched)

    def sort_key(self):
        return (self.matching.pairs, self.payoffs)


def outcome_is_feasible(inst: Instance, outcome: Outcome) -> bool:
    """True iff the outcome satisfies every feasibility invariant of the instance."""
    agents = tuple(a for a, _ in outcome.payoffs)
    if agents != inst.agents:
        return False
    v = outcome.payoff_map()
    if any(x < 0 for x in v.values()):
        return False
    matched: set[int] = set()
    menus = inst.menu_map()
    for a, b in outcome.matching.pairs:
        if a not in v or b not in v:
            return False
        menu = menus.get((a, b))
        if menu is None:
            return False
        if Allocation.of({a: v[a], b: v[b]}) not in menu.contracts:
            return False
        matched.update((a, b))
    return all(v[a] == 0 for a in inst.agents if a not in matched)


def _usable_contracts(inst: Instance) -> list[tuple[tuple[int, int], list[Allocation]]]:
    # Contracts with a negative amount can never satisfy the payoff bound.
    return [
        (m.pair, [c for c in m.contracts if all(x >= 0 for _, x in c.payments)])
        for m in inst.menus
    ]


def _iter_matchings(pairs: list[tuple[int, int]]) -> Iterator[tuple[tuple[int, int], ...]]:
    # Lexicographic order over sorted pair lists: a prefix precedes its
    # extensions, so a DFS that always appends later pairs is already sorted.
    chosen: list[tuple[int, int]] = []

    def rec(start: int, used: set[int]) -> Iterator[tuple[tuple[int, int], ...]]:
        yield tuple(chosen)
        for i in range(start, len(pairs)):
            a, b = pairs[i]
            if a in used or b in used:
                continue
            chosen.append(pairs[i])
            used.update((a, b))
            yield from rec(i + 1, used)
            chosen.pop()
            used.difference_update((a, b))

    return rec(0, set())


def iter_raw_outcomes(
    inst: Instance,
) -> Iterator[tuple[tuple[tuple[int, int], ...], dict[int, Fraction]]]:
    """Yield every feasible outcome as (matched pairs, payoff dict), cheaply.

    Order: matchings in lexicographic order of their sorted pair lists,
    then allocations per matched pair in menu order with the last pair
    varying fastest.
    """
    usable = _usable_contracts(inst)
    by_pair = dict(usable)
    base = {a: ZERO for a in inst.agents}
    for matching in _iter_matchings([p for p, _ in usable]):
        lists = [by_pair[p] for p in matching]
        if any(not L for L in lists):
            continue
        for combo in product(*lists):
            v = dict(base)
            for alloc in combo:
                for a, x in alloc.payments:
                    v[a] = x
            yield matching, v


def enumerate_outcomes(
    inst: Instance, budget: EnumerationBudget | None = None
) -> list[Outcome]:
    """Materialize every feasible outcome of the instance, in deterministic order."""
    cap = (budget or EnumerationBudget()).max_outcomes
    out: list[Outcome] = []
    for pairs, v in iter_raw_outcomes(inst):
        if len(out) >= cap:
            raise BudgetExceededError(
                f"more than {cap} outcomes; raise the enumeration budget"
            )
        out.append(Outcome.of(Matching(pairs), v))
    return out


# --- interchange formats ---------------------------------------------------


def instance_to_dict(inst: Instance) -> dict:
    d: dict = {"agents": list(inst.agents)}
    if inst.two_sided:
        d["firms"] = list(inst.firms)
        d["workers"] = list(inst.workers)
    d["menus"] = [
        {
            "pair": list(m.pair),
            "contracts": [
                {str(a): money_str(v) for a, v in c.payments} for c in m.contracts
            ],
        }
        for m in inst.menus
    ]
    return d


def _id_list(data: Mapping, key: str) -> list[int] | None:
    values = data.get(key)
    if values is None:
        return None
    if not isinstance(values, list):
        raise FormatError(f"instance '{key}' must be a list of agent ids")
    return [parse_agent(a) for a in values]


class _ParseMemo(dict):
    """Parsed values of str literals, each literal parsed on first use.

    Only str keys go in, so that True can never stand for 1.
    """

    def __init__(self, parse):
        super().__init__()
        self.parse = parse

    def __missing__(self, text: str):
        value = self[text] = self.parse(text)
        return value


def instance_from_dict(data: Mapping) -> Instance:
    """Build and validate an instance from its dict form.

    Each distinct agent-id string and money string is parsed once.
    """
    if not isinstance(data, Mapping):
        raise FormatError("instance data must be a JSON object")
    agents = _id_list(data, "agents")
    if agents is None:
        raise FormatError("instance needs an integer 'agents' list")
    entries = data.get("menus", [])
    if not isinstance(entries, (list, tuple)):
        raise FormatError("instance 'menus' must be a list")
    ids, amounts = _ParseMemo(parse_agent), _ParseMemo(parse_money)
    menus = []
    for entry in entries:
        if not isinstance(entry, Mapping) or not isinstance(entry.get("pair"), list):
            raise FormatError(f"malformed menu entry {entry!r}")
        try:
            a, b = entry["pair"]
            contracts = [
                {
                    ids[x] if type(x) is str else parse_agent(x):
                    amounts[v] if type(v) is str else parse_money(v)
                    for x, v in c.items()
                }
                for c in entry["contracts"]
            ]
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise FormatError(f"malformed menu entry {entry!r}") from exc
        allocations = tuple(Allocation(tuple(sorted(c.items()))) for c in contracts)
        menus.append(ContractMenu((parse_agent(a), parse_agent(b)), allocations))
    return validate_instance(
        Instance.of(
            agents, menus, firms=_id_list(data, "firms"), workers=_id_list(data, "workers")
        )
    )


def outcome_to_dict(outcome: Outcome) -> dict:
    return {
        "matches": [list(p) for p in outcome.matching.pairs],
        "singles": list(outcome.singles()),
        "payoffs": {str(a): money_str(v) for a, v in outcome.payoffs},
    }


def outcome_from_dict(data: Mapping) -> Outcome:
    if not isinstance(data, Mapping):
        raise FormatError("outcome data must be a JSON object")
    try:
        matches = data["matches"]
        entries = [(parse_agent(a), parse_money(v)) for a, v in data["payoffs"].items()]
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise FormatError("outcome needs 'matches' and a 'payoffs' map") from exc
    payoffs: dict[int, Fraction] = {}
    for a, v in entries:
        # Keys such as "1" and "01" name the same agent.
        if a in payoffs:
            raise FormatError(f"outcome 'payoffs' names agent {a} more than once")
        payoffs[a] = v
    if not isinstance(matches, list):
        raise FormatError("outcome 'matches' must be a list of pairs")
    matching = Matching.from_pairs(matches)
    known = set(payoffs)
    for a in matching.matched_agents():
        if a not in known:
            raise FormatError(f"matched agent {a} has no payoff entry")
    singles = data.get("singles")
    if singles is not None:
        if not isinstance(singles, list):
            raise FormatError("outcome 'singles' must be a list of agent ids")
        declared = {parse_agent(a) for a in singles} | matching.matched_agents()
        if declared != known:
            raise FormatError("matches plus singles must cover exactly the payoff keys")
    return Outcome.of(matching, payoffs)


def read_instance_file(path: str) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}: invalid JSON: {exc}") from exc
    return instance_from_dict(data)


def read_outcome_file(path: str) -> Outcome:
    # Line-oriented: the outcome is the first non-empty line, so files that
    # also carry trace records parse fine.
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                try:
                    return outcome_from_dict(json.loads(line))
                except json.JSONDecodeError as exc:
                    raise FormatError(f"{path}: invalid JSON: {exc}") from exc
    raise FormatError(f"{path}: empty outcome file")
