"""Instances for tests, built through the library's one loader.

`menu` and `instance_of` only assemble the dict form a file would hold and
pass it to `instance_from_dict`, which parses and checks every id and
amount.
"""
from contractmatch import instance_from_dict


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
