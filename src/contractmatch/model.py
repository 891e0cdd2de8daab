"""Core data model: instances, menus, outcomes, and brute-force enumeration.

An instance is a finite set of agents plus, for some unordered pairs, a
finite menu of exact-money divisions the pair may agree on. Staying single
is always feasible and pays zero; singleton menus are implicit and never
stored. An outcome matches agents into disjoint menued pairs, picks one
menu entry per matched pair, and pays zero to everyone single.

Amounts are exact: `fractions.Fraction` in outcomes, and in an
instance's contract columns signed ranks, which compare as the amounts
do and share their signs. Input amounts must be integers or strings;
floats are rejected because they do not round-trip exactly.
"""
from __future__ import annotations

import json
import math
import warnings
from bisect import bisect_right
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


def _repr(value) -> str:
    """repr(value), but an int past Python's limit on int-to-str
    conversion, alone or in a list, tuple or dict, is shown by its digit
    count, as <5001-digit int>; any other value whose repr meets that
    limit, by its type."""
    try:
        return repr(value)
    except ValueError:
        pass
    if isinstance(value, int):
        n = abs(value)
        k = int(n.bit_length() * 0.30102999566398120)  # n has k or k + 1 digits
        return f"<{'-' * (value < 0)}{k + (n >= 10**k)}-digit int>"
    if isinstance(value, dict):
        return "{" + ", ".join(f"{_repr(k)}: {_repr(v)}" for k, v in value.items()) + "}"
    if isinstance(value, (list, tuple)):
        inner = ", ".join(map(_repr, value))
        return f"[{inner}]" if isinstance(value, list) else f"({inner})"
    return f"<{type(value).__name__} too long to show>"


def _shown(value) -> str:
    """The repr of an input value, as _repr gives it, cut after 40
    characters, then its length.

    A string is cut before its repr is taken, any other value after.
    """
    if isinstance(value, str):
        text, cut = value, repr(value[:40])
    else:
        text = _repr(value)
        cut = text[:40]
    if len(text) <= 40:
        return _repr(value)
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
        if value.isdecimal():
            try:
                return int(value), 1
            except ValueError:
                pass
        else:
            num, slash, den = value.partition("/")
            if slash and num.isdecimal() and den.isdecimal():
                try:
                    n, d = int(num), int(den)
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


def _money_repr(value: Fraction) -> str:
    """money_str(value), with each int past the digit limit shown as _repr shows it."""
    if value.denominator == 1:
        return _repr(value.numerator)
    return f"{_repr(value.numerator)}/{_repr(value.denominator)}"


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
        inner = ", ".join(f"{_repr(a)}: {_money_repr(v)}" for a, v in self.payments)
        return f"Allocation({{{inner}}})"


@dataclass(frozen=True)
class Instance:
    """A valid contract choice problem, optionally split into firms and workers.

    Built by the loader, instance_from_dict, which stores the contracts in
    four parallel int columns, one entry per contract, in pair order and
    then menu order. A contract pays agent firsts[k] the amount of rank
    xs[k] and agent seconds[k] that of rank ys[k]. `levels` holds the
    distinct amounts and zero in increasing order, as (numerator,
    denominator) in lowest terms: zero has rank 0, the levels above it 1,
    2, ... and those below it -1, -2, .... The first and the second are
    the firm and the worker on a two-sided instance and the menu pair, low
    id first, on a pool. A menu is a run of entries with one (first,
    second); spans() yields them.
    """

    agents: tuple[int, ...]
    firsts: tuple[int, ...] = ()
    seconds: tuple[int, ...] = ()
    xs: tuple[int, ...] = ()
    ys: tuple[int, ...] = ()
    levels: tuple[tuple[int, int], ...] = ((0, 1),)
    firms: tuple[int, ...] | None = None
    workers: tuple[int, ...] | None = None

    @property
    def two_sided(self) -> bool:
        return self.firms is not None and self.workers is not None

    @cached_property
    def _zero(self) -> int:
        """The index of zero in levels, which is the number of negative levels."""
        return self.levels.index((0, 1))

    @cached_property
    def _ranks(self) -> dict[tuple[int, int], int]:
        """The rank of each level, keyed by the level."""
        return {level: r for r, level in enumerate(self.levels, -self._zero)}

    @cached_property
    def money(self) -> dict[int, Fraction]:
        """The amount of each rank, each built on first use and shared."""
        levels, z = self.levels, self._zero
        return _ParseMemo(lambda r: Fraction(*levels[r + z]))

    def allocation(self, a: int, x: int, b: int, y: int) -> Allocation:
        """The contract paying agent a the rank x and agent b the rank y."""
        money = self.money
        if a < b:
            return Allocation(((a, money[x]), (b, money[y])))
        return Allocation(((b, money[y]), (a, money[x])))

    def outcome(self, contracts: Iterable[tuple[int, int, int, int]]) -> Outcome:
        """The outcome of disjoint contracts (a, x, b, y), each paying agent
        a the rank x and agent b the rank y, taken as given; every other
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
    def _starts(self) -> tuple[int, ...]:
        """The column index at which each menu starts, then the columns' length."""
        f, s = self.firsts, self.seconds
        n = len(f)
        return tuple([k for k in range(n) if k == 0 or f[k] != f[k - 1] or s[k] != s[k - 1]] + [n])

    def spans(self) -> Iterator[tuple[int, int, int, int]]:
        """(first, second, start, stop) of each menu, in pair order: the
        menu's contracts are the column entries start to stop - 1."""
        starts, firsts, seconds = self._starts, self.firsts, self.seconds
        for start, stop in zip(starts, starts[1:]):
            yield firsts[start], seconds[start], start, stop

    def floor_ranks(self, payoffs: Mapping[int, Fraction]) -> dict[int, int]:
        """The rank of the greatest level at most each payoff, by one lookup
        when the payoff is a level and else by binary search: a rank
        exceeds it exactly when its amount exceeds the payoff."""
        floors = {a: self._ranks.get(v.as_integer_ratio()) for a, v in payoffs.items()}
        for a, r in floors.items():
            if r is None:
                i = bisect_right(self.levels, payoffs[a], key=lambda level: Fraction(*level))
                floors[a] = i - 1 - self._zero
        return floors


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
    if tuple([a for a, _ in outcome.payoffs]) != inst.agents:
        return False
    # Each payoff's rank. Zero is a level, so a payoff that is no level, of
    # rank None, is feasible for no agent.
    v = {a: inst._ranks.get(x.as_integer_ratio()) for a, x in outcome.payoffs}
    if None in v.values() or min(v.values()) < 0:
        return False
    mate = {}
    for a, b in outcome.matching.pairs:
        mate[a], mate[b] = b, a
    # The contracts that pay a matched pair its payoffs. A menu repeats no
    # contract, so there is at most one per matched pair.
    met = [
        a
        for a, b, x, y in zip(inst.firsts, inst.seconds, inst.xs, inst.ys)
        if x == v[a] and y == v[b] and mate.get(a) == b
    ]
    return len(met) == len(outcome.matching.pairs) and all(
        v[a] == 0 for a in inst.agents if a not in mate
    )


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
    money, xs, ys = inst.money, inst.xs, inst.ys
    # Each pair's contracts as (a, amount, b, amount). Contracts with a
    # negative amount can never satisfy the payoff bound.
    usable = {
        (a, b) if a < b else (b, a): [
            (a, money[x], b, money[y])
            for x, y in zip(xs[start:stop], ys[start:stop])
            if x >= 0 and y >= 0
        ]
        for a, b, start, stop in inst.spans()
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
    """The dict form of the instance, written from its columns.

    Each menu lists its pair low id first, and each contract its agents in
    id order, as an Allocation does. An amount is written as money_str
    writes it, from one string per level.
    """
    d: dict = {"agents": list(inst.agents)}
    if inst.two_sided:
        d["firms"], d["workers"] = list(inst.firms), list(inst.workers)
    z = inst._zero  # texts[r] is rank r's string; a negative r counts from the end
    texts = [str(n) if m == 1 else f"{n}/{m}" for n, m in inst.levels[z:] + inst.levels[:z]]
    xs, ys = inst.xs, inst.ys
    menus = d["menus"] = []
    for a, b, start, stop in inst.spans():
        x, y = xs[start:stop], ys[start:stop]
        if a > b:
            a, b, x, y = b, a, y, x
        sa, sb = str(a), str(b)
        contracts = [{sa: texts[u], sb: texts[v]} for u, v in zip(x, y)]
        menus.append({"pair": [a, b], "contracts": contracts})
    return d


def _id_list(data: Mapping, key: str) -> list[int] | None:
    values = data.get(key)
    if values is None:
        return None
    if not isinstance(values, list):
        raise FormatError(f"instance '{key}' must be a list of agent ids")
    return [parse_agent(a) for a in values]


class _ParseMemo(dict):
    """Parsed values of keys, each key parsed on first use."""

    def __init__(self, parse):
        super().__init__()
        self.parse = parse

    def __missing__(self, key):
        value = self[key] = self.parse(key)
        return value


class _Literals(dict):
    """The loader's amounts: each money string met, to the index of its amount.

    `amounts` maps each distinct amount, an int when whole and (numerator,
    denominator) otherwise, to its index, so that value-equal literals such
    as "1", "2/2" and "1.0" share one index. A string is parsed once, on
    first use. Only str keys are stored, so that True never stands for 1.
    """

    def __init__(self):
        super().__init__()
        self.amounts: dict = {}

    def __missing__(self, text):
        n, d = _money_ratio(text)
        amounts = self.amounts
        i = self[text] = amounts.setdefault(n if d == 1 else (n, d), len(amounts))
        return i

    def index(self, value) -> int:
        """The index of an amount given as any value parse_money reads."""
        amounts = self.amounts
        if type(value) is not int:
            if type(value) is str:
                return self[value]
            n, d = _money_ratio(value)
            value = n if d == 1 else (n, d)
        return amounts.setdefault(value, len(amounts))


def _key_of(agent: int):
    """The string a file's contract names an agent by, or, past the digit
    limit, where no string can, a new object that equals no key."""
    try:
        return str(agent)
    except ValueError:
        return object()


def instance_from_dict(data: Mapping) -> Instance:
    """Build and validate an instance from its dict form: the one loader.

    The instance is canonical: agents sorted, menus in pair order, each
    pair's first the firm on a two-sided instance and the low id on a pool,
    duplicate contracts within a menu dropped (first occurrence wins).
    Contracts with negative amounts are legal but unreachable in outcomes;
    they trigger a warning that counts the contracts kept.

    One pass in reading order, which raises the first fault it meets: the
    agents and their checks, then the partition and its checks, then each
    menu entry in input order. An entry's pair comes first: its format,
    then a repeated agent, an unknown agent, a pair already given and a
    pair on one side. Its contracts follow one by one, each raised where
    it is malformed or does not cover exactly the pair, and then an empty
    menu. A contract is kept as the indexes of its first's and its
    second's amounts among the distinct amounts, so that value-equal
    literals such as "1", "2/2" and "1.0" collide as duplicates; each
    distinct money string is parsed once. A contract of two string amounts
    keyed by the pair's ids as canonical strings is read by those keys;
    any other contract, or one that meets a format error there, is read
    entry by entry in the order of the file. The ranks come from the
    distinct amounts alone, and no container per menu or per contract
    outlives the load.
    """
    if not isinstance(data, Mapping):
        raise FormatError("instance data must be a JSON object")
    agents = _id_list(data, "agents")
    if agents is None:
        raise FormatError("instance needs an integer 'agents' list")
    agent_set = set(agents)
    if not agent_set:
        raise InstanceError("instance must have at least one agent")
    if min(agent_set) < 1:
        raise InstanceError("agent ids must be positive integers")
    firms, workers = _id_list(data, "firms"), _id_list(data, "workers")
    if (firms is None) != (workers is None):
        raise InvalidPartitionError("firms and workers must be given together")
    firm_set = set(firms or ())
    if firms is not None:
        firms = tuple(sorted(firm_set))
        workers = tuple(sorted(set(workers)))
        for a in firms + workers:
            if a not in agent_set:
                raise UnknownAgentError(f"partition references unknown agent {_repr(a)}")
        if firm_set.intersection(workers):
            raise InvalidPartitionError("firms and workers overlap")
        if firm_set.union(workers) != agent_set:
            raise InvalidPartitionError("firms and workers must cover all agents")
    entries = data.get("menus", [])
    if not isinstance(entries, (list, tuple)):
        raise FormatError("instance 'menus' must be a list")

    literals = _Literals()
    amounts = literals.amounts
    # Each agent to the key a contract names it by, for the fast path below.
    keys = {a: _key_of(a) for a in agent_set}
    # Each menu's pair (lo, hi) as the int lo * span + hi, to the menu's
    # index; the ints sort as the pairs do. Per menu, the offset of its
    # first contract in us and vs, which hold each contract's first's and
    # second's amount index.
    span = max(agent_set) + 1
    menus: dict[int, int] = {}
    offsets: list[int] = []
    us: list[int] = []
    vs: list[int] = []
    for entry in entries:
        if not (type(entry) is dict or isinstance(entry, Mapping)) or not isinstance(
            entry.get("pair"), list
        ):
            raise FormatError(f"malformed menu entry {_shown(entry)}")
        try:
            a, b = entry["pair"]
            a = a if type(a) is int else parse_agent(a)
            b = b if type(b) is int else parse_agent(b)
            ka, kb = keys.get(a), keys.get(b)
            if a == b:
                raise MalformedMenuError(f"menu pair {_repr((a, b))} repeats an agent")
            if ka is None:
                raise UnknownAgentError(f"menu references unknown agent {_repr(a)}")
            if kb is None:
                raise UnknownAgentError(f"menu references unknown agent {_repr(b)}")
            lo, hi, klo, khi = (a, b, ka, kb) if a < b else (b, a, kb, ka)
            # A pair given before leaves the number of menus as it was.
            menus[lo * span + hi] = len(offsets)
            if len(menus) == len(offsets):
                raise DuplicateMenuError(f"more than one menu for pair {_repr((lo, hi))}")
            # The partition covers the agents, so a pair without exactly one
            # firm joins two firms or two workers.
            hi_firm = hi in firm_set
            if firms is not None and hi_firm == (lo in firm_set):
                raise SameSideMenuError(
                    f"pair {_repr((lo, hi))} joins two agents on the same side"
                )
            first, second, sf, sw = (hi, lo, khi, klo) if hi_firm else (lo, hi, klo, khi)
            offsets.append(len(us))
            for c in entry["contracts"]:
                if type(c) is dict and len(c) == 2:
                    u, v = c.get(sf), c.get(sw)
                    if type(u) is str and type(v) is str:
                        try:
                            u, v = literals[u], literals[v]
                        except FormatError:
                            pass  # raised below, in the order of the file
                        else:
                            us.append(u)
                            vs.append(v)
                            continue
                parsed = {}
                for x, v in c.items():
                    x = parse_agent(x)
                    if x in parsed:
                        raise FormatError(f"contract names agent {x} more than once")
                    parsed[x] = literals.index(v)
                if len(parsed) == 2 and first in parsed and second in parsed:
                    us.append(parsed[first])
                    vs.append(parsed[second])
                    continue
                values = [Fraction(*k) if type(k) is tuple else Fraction(k) for k in amounts]
                shown = Allocation(tuple(sorted((p, values[i]) for p, i in parsed.items())))
                raise MalformedMenuError(
                    f"contract {shown!r} does not cover exactly the pair {_repr((lo, hi))}"
                )
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise FormatError(f"malformed menu entry {_shown(entry)}") from exc
        if offsets[-1] == len(us):
            raise EmptyContractSetError(f"menu for pair {_repr((lo, hi))} has no contracts")
    offsets.append(len(us))

    # The levels: the distinct amounts and zero, sorted by their floats,
    # which keep their order, or exactly if two share a float or one lies
    # past a float's range. ranks[i] is the rank of the amount of index i.
    zero = amounts.setdefault(0, len(amounts))
    ratios = [(k, 1) if type(k) is int else k for k in amounts]
    try:
        keys = [n / d for n, d in ratios]
    except OverflowError:
        keys = []
    if len(set(keys)) < len(ratios):
        keys = [Fraction(n, d) for n, d in ratios]
    by_amount = sorted(range(len(keys)), key=keys.__getitem__)
    levels = tuple(map(ratios.__getitem__, by_amount))
    z = by_amount.index(zero)
    ranks = [0] * len(keys)
    for r, i in enumerate(by_amount, -z):
        ranks[i] = r
    # The contracts in pair order, as indexes into us and vs, and the first
    # and the second of their menus.
    order: list[int] = []
    firsts: list[int] = []
    seconds: list[int] = []
    for key in sorted(menus):
        m = menus[key]
        start, stop = offsets[m], offsets[m + 1]
        order += range(start, stop)
        lo, hi = divmod(key, span)
        if hi in firm_set:
            lo, hi = hi, lo
        firsts += [lo] * (stop - start)
        seconds += [hi] * (stop - start)
    xs = [ranks[us[k]] for k in order]
    ys = [ranks[vs[k]] for k in order]
    # A menu's contracts share its first and second, so a contract repeated
    # within a menu repeats a whole row of the columns. Rows are compared
    # by hash first, which keeps no tuple per contract alive.
    if len(set(map(hash, zip(firsts, seconds, xs, ys)))) < len(xs):
        # dict.fromkeys drops repeated contracts, keeping the first.
        firsts, seconds, xs, ys = zip(*dict.fromkeys(zip(firsts, seconds, xs, ys)))
    if z:
        negatives = sum(x < 0 or y < 0 for x, y in zip(xs, ys))
        warnings.warn(
            f"{negatives} contract(s) contain negative amounts and can never "
            "appear in an outcome",
            NegativeContractWarning,
            stacklevel=2,
        )
    columns = (tuple(firsts), tuple(seconds), tuple(xs), tuple(ys), levels)
    return Instance(tuple(sorted(agent_set)), *columns, firms, workers)


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
            raise FormatError(f"matched agent {_repr(a)} has no payoff entry")
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
