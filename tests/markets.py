"""Instances and outcomes for tests, built through the library's one loader.

`menu` and `instance_of` only assemble the dict form a file would hold and
pass it to `instance_from_dict`, which parses and checks every id and
amount.
"""
from contractmatch import GenParams, Matching, Outcome, instance_from_dict


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
