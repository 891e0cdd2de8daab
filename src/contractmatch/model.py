"""Core data model: instances, menus, outcomes, and brute-force enumeration.

An instance is a finite set of agents plus, for some unordered pairs, a
finite menu of exact-money divisions the pair may agree on. Staying single
is always feasible and pays zero; singleton menus are implicit and never
stored. An outcome matches agents into disjoint menued pairs, picks one
menu entry per matched pair, and pays zero to everyone single.

Amounts are exact: `fractions.Fraction` in menus and outcomes, and ints
scaled by a common denominator in an instance's table. Input amounts must
be integers or strings; floats are rejected because they do not
round-trip exactly.
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
    InfeasibleOutcomeError,
    InstanceError,
    InvalidPartitionError,
    MalformedMenuError,
    NegativeContractWarning,
    NotTwoSidedError,
    SameSideMenuError,
    UnknownAgentError,
)

ZERO = Fraction(0)

DEFAULT_MAX_OUTCOMES = 250_000

#: Largest decimal exponent, in size, a money literal may carry: "1e1000"
#: parses, "1e1001" is a FormatError. Digit counts are bounded by Python's
#: limit on integer string conversion (4,300 digits by default).
MAX_MONEY_EXPONENT = 1000


def _shown(value) -> str:
    """The repr of an input value, cut after 40 characters, then its length.

    A string is cut before its repr is taken, any other value after.
    """
    if isinstance(value, str):
        text, cut = value, repr(value[:40])
    else:
        text = repr(value)
        cut = text[:40]
    if len(text) <= 40:
        return repr(value)
    return f"{cut}... ({len(text)} characters)"


def parse_money(value) -> Fraction:
    """Parse an exact amount from an int, or a decimal/fraction string like "1.5" or "3/2".

    A decimal exponent beyond MAX_MONEY_EXPONENT in size ("1e1001",
    "1e-1001") is a FormatError, raised before the power of ten is built.
    """
    if isinstance(value, Fraction):
        return value
    return Fraction(*_money_ratio(value))


def _money_ratio(value) -> tuple[int, int]:
    """The amount parse_money reads, as (numerator, denominator) in lowest terms."""
    if type(value) is str:
        # The shapes files use, "1234" and "617/2", are read without
        # Fraction; any other shape, and any int() failure such as the
        # digit limit or a zero denominator, takes the general path below.
        num, slash, den = value.partition("/")
        if num.isdecimal() and (den.isdecimal() or not slash):
            try:
                n, d = int(num), int(den) if slash else 1
            except ValueError:
                pass
            else:
                if d:
                    g = math.gcd(n, d)
                    return n // g, d // g
    if isinstance(value, bool):
        raise FormatError(f"money amount must be an integer or string, got {value!r}")
    if isinstance(value, int):
        return value, 1
    if isinstance(value, Fraction):
        return value.as_integer_ratio()
    if isinstance(value, str):
        text = value.strip()
        _, marker, exponent = text.lower().partition("e")
        try:
            if "_" in text:  # Fraction reads "1_0" as 10 from Python 3.11 on
                raise ValueError(text)
            if marker and abs(int(exponent)) > MAX_MONEY_EXPONENT:
                raise FormatError(
                    f"money amount {_shown(value)} has a decimal exponent beyond "
                    f"{MAX_MONEY_EXPONENT} in size"
                )
            return Fraction(text).as_integer_ratio()
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
    raise FormatError(f"agent id must be an integer, got {_shown(value)}")


def money_str(value: Fraction) -> str:
    """Canonical string form: "3" for integers, "3/2" otherwise."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def payments_to_dict(payments: Iterable[tuple[int, Fraction]]) -> dict[str, str]:
    """The JSON form of (agent, amount) pairs: {"1": "3", "3": "1/2"}."""
    return {str(a): money_str(v) for a, v in payments}


@dataclass(frozen=True, order=True)
class Allocation:
    """One division of money among the members of a coalition.

    Stored as (agent, amount) entries sorted by agent id, so allocations are
    hashable and compare lexicographically (used for deterministic
    tie-breaking).
    """

    payments: tuple[tuple[int, Fraction], ...]

    def __getitem__(self, agent: int) -> Fraction:
        for a, v in self.payments:
            if a == agent:
                return v
        raise KeyError(agent)

    def __repr__(self) -> str:
        inner = ", ".join(f"{a}: {money_str(v)}" for a, v in self.payments)
        return f"Allocation({{{inner}}})"


@dataclass(frozen=True)
class Instance:
    """A valid contract choice problem, optionally split into firms and workers.

    Built by the loader, instance_from_dict, which stores the menus as one
    integer table in pair order. A row is (first, second, pair, contracts):
    first and second are the firm and the worker on a two-sided instance
    and the menu pair on a pool, and each contract is (x, y), what it pays
    first and second times `scale`, the common denominator of all the
    instance's amounts, so the ints compare as the amounts do.
    """

    agents: tuple[int, ...]
    table: tuple[tuple, ...] = ()
    scale: int = 1
    firms: tuple[int, ...] | None = None
    workers: tuple[int, ...] | None = None

    @property
    def two_sided(self) -> bool:
        return self.firms is not None and self.workers is not None

    @cached_property
    def money(self) -> dict[int, Fraction]:
        """The amount of each table int, each built on first use and shared."""
        scale = self.scale
        return _ParseMemo(lambda x: Fraction(x, scale))

    def allocation(self, a: int, x: int, b: int, y: int) -> Allocation:
        """The contract paying agent a the table int x and agent b the int y."""
        money = self.money
        if a < b:
            return Allocation(((a, money[x]), (b, money[y])))
        return Allocation(((b, money[y]), (a, money[x])))

    def outcome(self, contracts: Iterable[tuple[int, int, int, int]]) -> Outcome:
        """The outcome of disjoint table contracts (a, x, b, y), each paying
        agent a the int x and agent b the int y, taken as given; every other
        agent is single at zero.
        """
        money = self.money
        pairs, paid = [], {}
        for a, x, b, y in contracts:
            pairs.append((a, b) if a < b else (b, a))
            paid[a], paid[b] = money[x], money[y]
        pairs.sort()
        payoffs = tuple([(a, paid.get(a, ZERO)) for a in self.agents])
        return Outcome(Matching(tuple(pairs)), payoffs)

    @cached_property
    def by_pair(self) -> dict[tuple[int, int], tuple]:
        """The table row of each menu pair."""
        return {row[2]: row for row in self.table}

    def scaled(self, payoffs: Mapping[int, Fraction]) -> dict[int, int]:
        """Each payoff times `scale`, rounded down.

        An int of the table exceeds a scaled payoff exactly when its amount
        exceeds the payoff, whatever the payoff's denominator.
        """
        scale = self.scale
        return {a: v.numerator * scale // v.denominator for a, v in payoffs.items()}


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
                raise FormatError(f"matched pair must list two agents, got {_shown(p)}")
            a, b = (parse_agent(x) for x in p)
            if a == b:
                raise FormatError(f"matched pair {_shown(p)} repeats an agent")
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

    def payoff_map(self) -> dict[int, Fraction]:
        return dict(self.payoffs)

    def singles(self) -> tuple[int, ...]:
        matched = self.matching.matched_agents()
        return tuple([a for a, _ in self.payoffs if a not in matched])

    def sort_key(self):
        return (self.matching.pairs, self.payoffs)


def outcome_is_feasible(inst: Instance, outcome: Outcome) -> bool:
    """True iff the outcome satisfies every feasibility invariant of the instance."""
    agents = tuple([a for a, _ in outcome.payoffs])
    if agents != inst.agents:
        return False
    v = outcome.payoff_map()
    if any(x < 0 for x in v.values()):
        return False
    matched: set[int] = set()
    rows = inst.by_pair
    scale = inst.scale
    for a, b in outcome.matching.pairs:
        row = rows.get((a, b))
        # A payoff times the scale equals a table int only when it is that int.
        if row is None or (v[row[0]] * scale, v[row[1]] * scale) not in row[3]:
            return False
        matched.update((a, b))
    return all(v[a] == 0 for a in inst.agents if a not in matched)


def _require_feasible(inst: Instance, outcome: Outcome) -> None:
    if not outcome_is_feasible(inst, outcome):
        raise InfeasibleOutcomeError("outcome is not feasible for this instance")


def _require_two_sided(inst: Instance) -> None:
    if not inst.two_sided:
        raise NotTwoSidedError("instance has no firm/worker partition")


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
    money = inst.money
    # Each pair's contracts as (a, amount, b, amount). Contracts with a
    # negative amount can never satisfy the payoff bound.
    usable = {
        pair: [(a, money[x], b, money[y]) for x, y in cs if x >= 0 and y >= 0]
        for a, b, pair, cs in inst.table
    }
    base = {a: ZERO for a in inst.agents}
    for matching in _iter_matchings(list(usable)):
        for combo in product(*[usable[p] for p in matching]):
            v = dict(base)
            for a, x, b, y in combo:
                v[a] = x
                v[b] = y
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
    """The dict form of the instance, written from its table.

    Each contract lists its agents in id order, as an Allocation does.
    """
    d: dict = {"agents": list(inst.agents)}
    if inst.firms is not None:
        d["firms"] = list(inst.firms)
    if inst.workers is not None:
        d["workers"] = list(inst.workers)
    money = inst.money
    d["menus"] = [
        {
            "pair": list(pair),
            "contracts": [
                payments_to_dict(
                    ((a, money[x]), (b, money[y])) if a < b else ((b, money[y]), (a, money[x]))
                )
                for x, y in contracts
            ],
        }
        for a, b, pair, contracts in inst.table
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
    """Parsed values of keys, each key parsed on first use.

    The loader's memos take only str keys, so that True never stands for 1.
    """

    def __init__(self, parse):
        super().__init__()
        self.parse = parse

    def __missing__(self, key):
        value = self[key] = self.parse(key)
        return value


def instance_from_dict(data: Mapping) -> Instance:
    """Build and validate an instance from its dict form: the one loader.

    The instance is canonical: agents sorted, each menu pair stored (low,
    high), menus sorted by pair, duplicate contracts within a menu dropped
    (first occurrence wins). Contracts with negative amounts are legal but
    unreachable in outcomes; they trigger a warning.

    Two passes. The parse pass reads the menus in input order, raising
    each format error as it is met and the partition's after them, and
    collects each contract as a pair of indexes into the distinct amounts,
    so that value-equal literals such as "1", "2/2" and "1.0" collide as
    duplicates; each distinct agent-id string and money string is parsed
    once. The check pass then raises the first instance error. So errors
    keep one order: format errors first (the agents, the menus in input
    order, the partition), then the agents' checks, the partition's, and
    the menus' in input order. The scale comes from the distinct amounts
    alone.
    """
    if not isinstance(data, Mapping):
        raise FormatError("instance data must be a JSON object")
    agents = _id_list(data, "agents")
    if agents is None:
        raise FormatError("instance needs an integer 'agents' list")
    entries = data.get("menus", [])
    if not isinstance(entries, (list, tuple)):
        raise FormatError("instance 'menus' must be a list")
    try:
        firms, workers, late = _id_list(data, "firms"), _id_list(data, "workers"), None
    except FormatError as exc:  # raised after the menus' format errors
        firms, workers, late = None, None, exc

    firm_set = set(firms or ())

    ids = _ParseMemo(parse_agent)
    amounts: dict[tuple[int, int], int] = {}  # each distinct amount to its index

    def amount(value) -> int:
        return amounts.setdefault(_money_ratio(value), len(amounts))

    literals = _ParseMemo(amount)
    collected: list[tuple] = []
    for entry in entries:
        if not (type(entry) is dict or isinstance(entry, Mapping)) or not isinstance(
            entry.get("pair"), list
        ):
            raise FormatError(f"malformed menu entry {_shown(entry)}")
        try:
            a, b = entry["pair"]
            try:
                a, b = parse_agent(a), parse_agent(b)
            except FormatError as exc:  # raised once the contracts have parsed
                bad_pair, first, second = exc, None, None
            else:
                bad_pair = None
                key = lo, hi = (a, b) if a < b else (b, a)
                first, second = (hi, lo) if hi in firm_set else (lo, hi)
            # Each contract as its (first, second) amount indexes; the first
            # that does not cover exactly the pair is kept as parsed, for the
            # check pass.
            given, stray = [], None
            for c in entry["contracts"]:
                if type(c) is dict and len(c) == 2:
                    (x, u), (y, v) = c.items()  # each id before its amount, as given
                    x = ids[x] if type(x) is str else parse_agent(x)
                    u = literals[u] if type(u) is str else amount(u)
                    y = ids[y] if type(y) is str else parse_agent(y)
                    if x == y:  # as keys "1" and "01" do
                        raise FormatError(f"contract names agent {x} more than once")
                    v = literals[v] if type(v) is str else amount(v)
                    if x == first and y == second:
                        given.append((u, v))
                        continue
                    if x == second and y == first:
                        given.append((v, u))
                        continue
                    parsed = {x: u, y: v}
                else:
                    parsed = {}
                    for x, v in c.items():
                        x = ids[x] if type(x) is str else parse_agent(x)
                        if x in parsed:
                            raise FormatError(f"contract names agent {x} more than once")
                        parsed[x] = literals[v] if type(v) is str else amount(v)
                    if parsed.keys() == {first, second}:
                        given.append((parsed[first], parsed[second]))
                        continue
                if stray is None:
                    stray = parsed
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise FormatError(f"malformed menu entry {_shown(entry)}") from exc
        if bad_pair is not None:
            raise bad_pair
        collected.append((key, first, second, a, b, stray, given))
    if late is not None:
        raise late

    agent_set = set(agents)
    if not agent_set:
        raise InstanceError("instance must have at least one agent")
    if min(agent_set) < 1:
        raise InstanceError("agent ids must be positive integers")
    if (firms is None) != (workers is None):
        raise InvalidPartitionError("firms and workers must be given together")
    if firms is not None:
        firms = tuple(sorted(firm_set))
        workers = tuple(sorted(set(workers)))
        for a in firms + workers:
            if a not in agent_set:
                raise UnknownAgentError(f"partition references unknown agent {a}")
        if firm_set.intersection(workers):
            raise InvalidPartitionError("firms and workers overlap")
        if firm_set.union(workers) != agent_set:
            raise InvalidPartitionError("firms and workers must cover all agents")
    seen: set[tuple[int, int]] = set()
    for key, first, second, a, b, stray, given in collected:
        if a == b:
            raise MalformedMenuError(f"menu pair {(a, b)!r} repeats an agent")
        for x in (a, b):
            if x not in agent_set:
                raise UnknownAgentError(f"menu references unknown agent {x}")
        if key in seen:
            raise DuplicateMenuError(f"more than one menu for pair {key}")
        seen.add(key)
        # The partition covers the agents, so a pair without exactly one
        # firm joins two firms or two workers.
        if firm_set and (a in firm_set) == (b in firm_set):
            raise SameSideMenuError(f"pair {key} joins two agents on the same side")
        if stray is not None:
            values = [Fraction(*ratio) for ratio in amounts]
            shown = Allocation(tuple(sorted((p, values[i]) for p, i in stray.items())))
            raise MalformedMenuError(
                f"contract {shown!r} does not cover exactly the pair {key}"
            )
        if not given:
            raise EmptyContractSetError(f"menu for pair {key} has no contracts")

    scale = math.lcm(*{d for _, d in amounts})
    ints = [n * (scale // d) for n, d in amounts]
    collected.sort()  # by pair, as the pairs lead and are distinct
    # From a list, not a generator: tuple() shrinks a generator's tuple to
    # fit, and CPython keeps such tuples, once freed, on free lists that
    # only a full collection empties, so each load would pin memory.
    # dict.fromkeys drops repeated contracts, keeping the first.
    table = tuple([
        (first, second, key, tuple([(ints[i], ints[j]) for i, j in dict.fromkeys(given)]))
        for key, first, second, _, _, _, given in collected
    ])
    if min(ints, default=0) < 0:
        negatives = sum(ints[i] < 0 or ints[j] < 0 for *_, given in collected for i, j in given)
        warnings.warn(
            f"{negatives} contract(s) contain negative amounts and can never "
            "appear in an outcome",
            NegativeContractWarning,
            stacklevel=2,
        )
    return Instance(tuple(sorted(agent_set)), table, scale, firms, workers)


def outcome_to_dict(outcome: Outcome) -> dict:
    return {
        "matches": [list(p) for p in outcome.matching.pairs],
        "singles": list(outcome.singles()),
        "payoffs": payments_to_dict(outcome.payoffs),
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


# What reading a file as JSON raises on bad input: ValueError covers
# JSONDecodeError and UnicodeDecodeError (bytes that are not UTF-8), and the
# decoder raises RecursionError on arrays or objects nested too deeply.
_UNREADABLE = (ValueError, RecursionError)


def read_instance_file(path: str) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except _UNREADABLE as exc:
            raise FormatError(f"{path}: invalid JSON: {exc}") from exc
    return instance_from_dict(data)


def read_outcome_file(path: str) -> Outcome:
    # Line-oriented: the outcome is the first non-empty line, so files that
    # also carry trace records parse fine.
    with open(path, "r", encoding="utf-8") as fh:
        try:
            line = next((text for text in map(str.strip, fh) if text), None)
            data = None if line is None else json.loads(line)
        except _UNREADABLE as exc:
            raise FormatError(f"{path}: invalid JSON: {exc}") from exc
    if line is None:
        raise FormatError(f"{path}: empty outcome file")
    return outcome_from_dict(data)
