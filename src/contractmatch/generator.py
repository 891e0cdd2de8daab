"""Builtin example instances and seeded random instance generation."""
from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import InfeasibleParamsError, UnknownNameError
from .model import Instance, instance_from_dict

BUILTIN_NAMES = ("gale-shapley-4", "illustration", "illustration-modified", "worker-tie")


def _menu(a: int, b: int, divisions) -> dict:
    """The dict form of the menu of {a, b}, one contract (x, y) per division."""
    return {"pair": [a, b], "contracts": [{a: x, b: y} for x, y in divisions]}


def builtin(name: str) -> Instance:
    """Return one of the bundled example problems.

    gale-shapley-4: the classic four-agent partnership problem with an
        empty set of stable outcomes. Each pair can either collaborate or
        take the zero division, which makes the problem super-additive.
    illustration: a two-firm/two-worker market whose proposing-procedure
        outcome is unique.
    illustration-modified: the same market with pair {1,4} offering (4,1)
        or (3,3), so firm 1 has two ways to earn 3 and tie-breaking decides
        where the run ends up.
    worker-tie: firms 1 and 2, workers 3 and 4, one contract per pair;
        pairwise efficient with disjoint firm yields, but worker 3 is paid
        9 by either firm. The procedure has two tie outcomes, each paying
        a different firm 10, so no outcome is firm-optimal.
    """
    if name == "gale-shapley-4":
        worth = {
            1: {2: 3, 3: 2, 4: 1},
            2: {1: 2, 3: 3, 4: 1},
            3: {1: 3, 2: 2, 4: 1},
            4: {1: 3, 2: 2, 3: 1},
        }
        menus = [
            _menu(a, b, [(worth[a][b], worth[b][a]), (0, 0)])
            for a in (1, 2, 3)
            for b in range(a + 1, 5)
        ]
        return instance_from_dict({"agents": [1, 2, 3, 4], "menus": menus})
    if name == "illustration":
        menus = [
            _menu(1, 3, [(3, 1), (1, 3)]),
            _menu(1, 4, [(4, 1), (1, 4)]),
            _menu(2, 3, [(3, 2), (2, 3)]),
            _menu(2, 4, [(4, 2), (2, 4)]),
        ]
    elif name == "illustration-modified":
        menus = [
            _menu(1, 3, [(3, 1), (1, 3)]),
            _menu(1, 4, [(4, 1), (3, 3)]),
            _menu(2, 3, [(3, 2), (2, 3)]),
            _menu(2, 4, [(4, 2), (2, 4)]),
        ]
    elif name == "worker-tie":
        menus = [
            _menu(1, 3, [(10, 9)]),
            _menu(1, 4, [(1, 11)]),
            _menu(2, 3, [(10, 9)]),
            _menu(2, 4, [(2, 10)]),
        ]
    else:
        raise UnknownNameError(f"no builtin instance named {name!r}; choose from {BUILTIN_NAMES}")
    return instance_from_dict(
        {"agents": [1, 2, 3, 4], "firms": [1, 2], "workers": [3, 4], "menus": menus}
    )


@dataclass(frozen=True)
class GenParams:
    """Parameters for seeded random two-sided instances.

    Firms get ids 1..n_firms, workers the next n_workers ids. Every
    firm-worker pair carries a menu with probability menu_density, holding
    between contracts_per_pair[0] and contracts_per_pair[1] contracts with
    integer amounts drawn from value_range (inclusive).

    force_pairwise_efficient builds each menu as strictly decreasing firm
    amounts paired with strictly increasing worker amounts.
    force_disjoint_yields draws each agent's amounts from per-partner
    disjoint pools, on both sides of the market, so no firm can earn the
    same amount with two workers and no worker can be paid the same amount
    by two firms. With both flags set, no two contracts pay the same agent
    the same amount. That does not make every comparison strict when 0 is
    in value_range: a contract can still pay an agent the 0 of staying
    single, which ties with being single.
    """

    n_firms: int
    n_workers: int
    contracts_per_pair: tuple[int, int] = (1, 3)
    value_range: tuple[int, int] = (0, 5)
    menu_density: float = 1.0
    force_pairwise_efficient: bool = False
    force_disjoint_yields: bool = False
    seed: int = 0


#: Size caps of gen_random, checked before anything is built: agents per
#: side, contracts per pair, contracts in all (n_firms * n_workers *
#: contracts_per_pair[1]), and the size of either end of value_range.
MAX_AGENTS_PER_SIDE = 1000
MAX_CONTRACTS_PER_PAIR = 100
MAX_CONTRACTS = 250_000
MAX_AMOUNT = 10**9


def _check_params(p: GenParams) -> None:
    lo, hi = p.contracts_per_pair
    if p.n_firms < 1 or p.n_workers < 1:
        raise InfeasibleParamsError("need at least one firm and one worker")
    if max(p.n_firms, p.n_workers) > MAX_AGENTS_PER_SIDE:
        raise InfeasibleParamsError(f"at most {MAX_AGENTS_PER_SIDE} agents per side")
    if not 1 <= lo <= hi:
        raise InfeasibleParamsError("contracts_per_pair must be an increasing range from >= 1")
    if hi > MAX_CONTRACTS_PER_PAIR:
        raise InfeasibleParamsError(f"at most {MAX_CONTRACTS_PER_PAIR} contracts per pair")
    if p.n_firms * p.n_workers * hi > MAX_CONTRACTS:
        raise InfeasibleParamsError(
            f"firms x workers x most contracts per pair exceeds {MAX_CONTRACTS}"
        )
    if p.value_range[0] > p.value_range[1]:
        raise InfeasibleParamsError("value_range is empty")
    if max(abs(v) for v in p.value_range) > MAX_AMOUNT:
        raise InfeasibleParamsError(f"value_range must lie within -{MAX_AMOUNT}..{MAX_AMOUNT}")
    if not 0.0 <= p.menu_density <= 1.0:
        raise InfeasibleParamsError("menu_density must be within [0, 1]")


def gen_random(p: GenParams) -> Instance:
    """Deterministic function of the seed; always returns a valid instance."""
    _check_params(p)
    rng = random.Random(p.seed)
    firms = tuple(range(1, p.n_firms + 1))
    workers = tuple(range(p.n_firms + 1, p.n_firms + p.n_workers + 1))
    values = range(p.value_range[0], p.value_range[1] + 1)

    sizes: dict[tuple[int, int], int] = {}
    for f in firms:
        for w in workers:
            if rng.random() < p.menu_density:
                sizes[(f, w)] = rng.randint(*p.contracts_per_pair)

    def disjoint_chunks(owner_pairs: list[tuple[int, int]], side: str) -> dict:
        need = sum(sizes[q] for q in owner_pairs)
        if need > len(values):
            raise InfeasibleParamsError(
                f"value_range too small for disjoint {side} pools "
                f"({need} distinct amounts needed, {len(values)} available)"
            )
        drawn = rng.sample(values, need)
        chunks = {}
        start = 0
        for q in owner_pairs:
            chunks[q] = drawn[start : start + sizes[q]]
            start += sizes[q]
        return chunks

    firm_vals: dict[tuple[int, int], list[int]] = {}
    worker_vals: dict[tuple[int, int], list[int]] = {}
    if p.force_disjoint_yields:
        for f in firms:
            owned = [q for q in sorted(sizes) if q[0] == f]
            firm_vals.update(disjoint_chunks(owned, "firm"))
        for w in workers:
            owned = [q for q in sorted(sizes) if q[1] == w]
            worker_vals.update(disjoint_chunks(owned, "worker"))
    else:
        for q in sorted(sizes):
            m = sizes[q]
            if p.force_pairwise_efficient:
                if m > len(values):
                    raise InfeasibleParamsError(
                        "value_range too small for distinct amounts within a menu"
                    )
                firm_vals[q] = rng.sample(values, m)
                worker_vals[q] = rng.sample(values, m)
            else:
                firm_vals[q] = [rng.choice(values) for _ in range(m)]
                worker_vals[q] = [rng.choice(values) for _ in range(m)]

    menus = []
    for q in sorted(sizes):
        f, w = q
        fv, wv = firm_vals[q], worker_vals[q]
        if p.force_pairwise_efficient:
            fv = sorted(fv, reverse=True)
            wv = sorted(wv)
        menus.append(_menu(f, w, zip(fv, wv)))

    return instance_from_dict(
        {"agents": list(firms + workers), "firms": list(firms), "workers": list(workers),
         "menus": menus}
    )
