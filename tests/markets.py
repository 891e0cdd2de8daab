"""Instances and outcomes for tests, built through the library's one loader.

`menu` and `instance_of` only assemble the dict form a file would hold and
pass it to `instance_from_dict`, which parses and checks every id and
amount. `many_denominators` and `solve_market_shaped` build a market in
that form, and `ordinal_map` and `renamed` transform one; none compares
amounts with engine code.
"""
import random
from fractions import Fraction

from contractmatch import (
    GenParams,
    Matching,
    Outcome,
    gen_random,
    instance_from_dict,
    instance_to_dict,
    money_str,
)


def menu(pair, contracts):
    """The dict form of one menu entry: the pair and its contracts, as given."""
    return {"pair": list(pair), "contracts": list(contracts)}


def instance_of(agents, menus=(), firms=None, workers=None):
    """The instance `instance_from_dict` loads from these parts."""
    data = {"agents": list(agents), "menus": list(menus)}
    if firms is not None:
        data["firms"] = list(firms)
    if workers is not None:
        data["workers"] = list(workers)
    return instance_from_dict(data)


def two_sided(menus, firms, workers):
    """The instance of these menus, partitioned into firms and workers."""
    agents = tuple(sorted(set(firms) | set(workers)))
    return instance_of(agents, menus, firms=firms, workers=workers)


def outcome_of(inst, pairs, payoffs):
    """The outcome matching `pairs` and paying `payoffs`; everyone else gets 0."""
    v = {a: 0 for a in inst.agents}
    v.update(payoffs)
    return Outcome.of(Matching.from_pairs(pairs), v)


def corpus_params(seed: int) -> GenParams:
    """The market of the gate-5 corpus with this seed: |F|, |W| <= 4, at most
    3 contracts per pair, integer amounts 0..5."""
    return GenParams(
        n_firms=1 + seed % 4,
        n_workers=1 + (seed // 4) % 4,
        contracts_per_pair=(1, 3),
        value_range=(0, 5),
        menu_density=0.8,
        seed=seed,
    )


def primes(count: int) -> list[int]:
    """The first `count` primes, by a sieve of Eratosthenes."""
    limit = 16
    while True:
        sieve = bytearray([1]) * limit
        sieve[:2] = b"\0\0"
        for p in range(2, int(limit**0.5) + 1):
            if sieve[p]:
                sieve[p * p::p] = bytes(len(range(p * p, limit, p)))
        found = [p for p in range(limit) if sieve[p]]
        if len(found) >= count:
            return found[:count]
        limit *= 2


def many_denominators(n: int, seed: int = 0) -> dict:
    """The dict form of an n x n market whose amounts have 4n^2 denominators.

    Firms 1..n, workers n+1..2n, and a two-contract menu for every pair.
    Each amount is k/p for the next of the first 4n^2 primes p, with k
    uniform in 1..50p, written in lowest terms as the writer writes it, so
    that a common denominator of all the amounts would have thousands of
    digits.
    """
    rng = random.Random(seed)
    denominators = iter(primes(4 * n * n))

    def amount() -> str:
        p = next(denominators)
        return money_str(Fraction(rng.randint(1, 50 * p), p))

    firms, workers = list(range(1, n + 1)), list(range(n + 1, 2 * n + 1))
    menus = [
        menu((f, w), [{str(f): amount(), str(w): amount()} for _ in range(2)])
        for f in firms
        for w in workers
    ]
    return {"agents": firms + workers, "firms": firms, "workers": workers, "menus": menus}


def solve_market_shaped(values: tuple[int, int], seed: int) -> dict:
    """The dict form of a 40x40 market written as the solve-market
    workload writes its files, with its menus then shuffled.

    gen_random's market, every agent relabelled from 1..800, and every
    amount times k/2 for one odd k, written "n" or "n/2"; so firms often
    take ids above workers', and the pairs come in no order.
    """
    rng = random.Random(seed)
    inst = gen_random(GenParams(40, 40, (1, 4), values, 0.75, seed=seed))
    new = dict(zip(inst.agents, rng.sample(range(1, 801), 80)))
    k = 2 * rng.randrange(50) + 1
    data = instance_to_dict(inst)
    menus = [
        {
            "pair": [new[a] for a in m["pair"]],
            "contracts": [
                {str(new[int(a)]): money_str(Fraction(int(x) * k, 2)) for a, x in c.items()}
                for c in m["contracts"]
            ],
        }
        for m in data["menus"]
    ]
    rng.shuffle(menus)
    return {
        "agents": sorted(new.values()),
        "firms": [new[a] for a in data["firms"]],
        "workers": [new[a] for a in data["workers"]],
        "menus": menus,
    }


def renamed(data: dict, rename) -> dict:
    """The market `data` with each agent id a renamed `rename(a)`."""
    image = {
        key: [rename(a) for a in data[key]] for key in ("agents", "firms", "workers") if key in data
    }
    image["menus"] = [
        {
            "pair": [rename(a) for a in m["pair"]],
            "contracts": [{str(rename(int(a))): x for a, x in c.items()} for c in m["contracts"]],
        }
        for m in data["menus"]
    ]
    return image


def ordinal_map(data: dict, rng: random.Random) -> tuple[dict, dict]:
    """The market `data` with each agent's amounts moved by a map of its
    own that is strictly increasing and fixes 0, and those maps.

    An agent's distinct positive amounts, in increasing order, go to as
    many distinct random positive fractions, in increasing order, and its
    negative amounts, in decreasing order, to such fractions negated. Each
    fraction is drawn with a numerator and a denominator of its own, so an
    image amount's denominator says nothing of its place in the order. So
    every comparison of two amounts of one agent, or of one amount with 0,
    comes out as before, in numbers with other denominators. The maps are
    {agent: {amount: image}}, with 0 to 0 for every agent.
    """
    received: dict[int, set] = {int(a): {Fraction(0)} for a in data["agents"]}
    for m in data["menus"]:
        for c in m["contracts"]:
            for a, x in c.items():
                received[int(a)].add(Fraction(x))
    maps = {}
    for a, amounts in received.items():
        image = maps[a] = {Fraction(0): Fraction(0)}
        for sign in (1, -1):
            xs = sorted(x * sign for x in amounts if x * sign > 0)
            drawn: set[Fraction] = set()
            while len(drawn) < len(xs):
                drawn.add(Fraction(rng.randint(1, 10**6), rng.randint(1, 1000)))
            for x, y in zip(xs, sorted(drawn)):
                image[x * sign] = y * sign
    menus = [
        {
            "pair": m["pair"],
            "contracts": [
                {a: money_str(maps[int(a)][Fraction(x)]) for a, x in c.items()}
                for c in m["contracts"]
            ],
        }
        for m in data["menus"]
    ]
    return {**data, "menus": menus}, maps
