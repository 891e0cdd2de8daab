"""The benchmark's workloads: the markets each one builds, its op and its checks.

Every op's output is checked with `reference`, which shares no code with
the program. Each workload's markets come from the program's generator,
`gen_random`, under fixed generator seeds. The workload seed then gives
every agent a fresh id and scales every amount by one positive factor.
Neither changes how any two amounts compare, so every seed poses the same
markets in other numbers, up to the order in which ties are broken by id.
Markets drawn afresh per seed were not steady enough: five seeds moved
the `solve-market` median op by 13 % (quartile spread), and `tie-corpus`
rounds, where a few markets carry most of the time, took 1.9 s to 5.0 s.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random

from contractmatch import cli, generator, model, procedure

import reference as ref

PROPERTIES = [
    "pairwise-efficiency",
    "disjoint-yields",
    "firm-pareto",
    "firm-optimality",
    "employment-invariance",
    "sides-opposed",
    "pair-tradeoff",
    "group-tradeoff",
]

PHI = (math.sqrt(5) - 1) / 2
ROOT2 = math.sqrt(2) - 1


def spread(i: int, step: float) -> float:
    """The i-th point of a low-discrepancy sequence in [0, 1)."""
    return (i * step) % 1


def copy_market(data: dict, rng: random.Random) -> dict:
    """Relabel every agent and scale every amount by one odd multiple of 1/2.

    The amounts `gen_random` writes are integers.
    """
    agents = data["agents"]
    new = dict(zip(agents, rng.sample(range(1, 10 * len(agents) + 1), len(agents))))
    k = 2 * rng.randrange(50) + 1

    def money(x: str) -> str:
        n = int(x) * k
        return str(n // 2) if n % 2 == 0 else f"{n}/2"

    return {
        "agents": sorted(new.values()),
        "firms": [new[a] for a in data["firms"]],
        "workers": [new[a] for a in data["workers"]],
        "menus": [
            {
                "pair": [new[a] for a in m["pair"]],
                "contracts": [
                    {str(new[int(a)]): money(x) for a, x in c.items()} for c in m["contracts"]
                ],
            }
            for m in data["menus"]
        ],
    }


def outcome_record(outcome) -> dict:
    """The data of an Outcome object, in the shape of the JSON record."""
    return {
        "matches": [list(p) for p in outcome.matching.pairs],
        "payoffs": dict(outcome.payoffs),
    }


def outcome_key(m: ref.Market, record: dict):
    pairs, v = m.outcome(record)
    return pairs, tuple(v[a] for a in m.agents)


def stable_and_wpo(m: ref.Market, record: dict, label: str) -> list[str]:
    pairs, v = m.outcome(record)
    if not ref.is_feasible(m, pairs, v):
        return [f"{label}: infeasible outcome {record}"]
    errors = []
    blocked = ref.blocking(m, v)
    if blocked:
        errors.append(f"{label}: blocked by {blocked[0]}")
    dominating = ref.firm_dominating_assignment(m, v)
    if dominating is not None:
        errors.append(f"{label}: not weakly Pareto optimal for firms; {dominating}")
    return errors


class OpError(Exception):
    """An op ended in an error exit code."""


class Workload:
    """Markets in a fixed order; a round runs the op once on each."""

    name = ""

    def __init__(self, seed: int, work_dir: str):
        self.work_dir = work_dir
        self.rng = random.Random(f"{self.name}:{seed}")
        self.markets: list[dict] = []
        self._ref: dict[int, ref.Market] = {}

    def write(self, i: int, data: dict) -> str:
        path = os.path.join(self.work_dir, f"m{i}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(data))
        return path

    def data(self, i: int) -> dict:
        market = self.markets[i]
        if "data" in market:
            return market["data"]
        with open(market["path"], encoding="utf-8") as fh:
            return json.load(fh)

    def reference(self, i: int) -> ref.Market:
        if i not in self._ref:
            self._ref[i] = ref.Market(self.data(i))
        return self._ref[i]

    @staticmethod
    def run_cli(argv: list[str]) -> tuple[int, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        if code not in (0, 1):
            raise OpError(f"{argv[0]} exited {code}: {err.getvalue().strip()}")
        return code, out.getvalue()


class SolveMarket(Workload):
    """`solve` then `check` through the command line on large markets."""

    name = "solve-market"
    size = 40

    def params(self, i: int) -> generator.GenParams:
        # Sizes spread smoothly over 30..50 per side, denser at the small
        # end, so that one round of 40 markets takes 5-7 s and a run of
        # 30 s times each market four times or more.
        n = 30 + round(20 * spread(i, PHI) ** 2)
        narrow = i % 2 == 0
        return generator.GenParams(
            n_firms=n,
            n_workers=n,
            contracts_per_pair=(1, 4),
            value_range=(0, 5) if narrow else (0, 1000),
            menu_density=0.5 + 0.5 * spread(i, ROOT2),
            seed=1000 + i,
        )

    def build(self) -> None:
        for i in range(self.size):
            inst = generator.gen_random(self.params(i))
            data = copy_market(model.instance_to_dict(inst), self.rng)
            self.markets.append({"path": self.write(i, data)})

    def op(self, i: int):
        path = self.markets[i]["path"]
        _, solved = self.run_cli(["solve", path])
        outcome_path = path + ".outcome"
        with open(outcome_path, "w", encoding="utf-8") as fh:
            fh.write(solved)
        code, checked = self.run_cli(["check", path, outcome_path])
        return solved, code, checked

    def check(self, i: int, result) -> list[str]:
        solved, code, checked = result
        m = self.reference(i)
        lines = solved.splitlines()
        errors = [] if len(lines) == 1 else [f"solve printed {len(lines)} lines"]
        errors += stable_and_wpo(m, json.loads(lines[0]), f"market {i}")
        if code != 0 or [json.loads(x) for x in checked.splitlines()] != [{"stable": True}]:
            errors.append(f"market {i}: check exited {code} with {checked.strip()!r}")
        return errors


class TieCorpus(Workload):
    """Library tie enumeration over the 500 markets of the gate-5 corpus."""

    name = "tie-corpus"
    size = 500

    @staticmethod
    def params(i: int) -> generator.GenParams:
        # The gate-5 corpus: at most 4 agents per side, 1-3 contracts per
        # pair, amounts 0..5, density 0.8.
        return generator.GenParams(
            n_firms=1 + i % 4,
            n_workers=1 + (i // 4) % 4,
            contracts_per_pair=(1, 3),
            value_range=(0, 5),
            menu_density=0.8,
            seed=i,
        )

    def build(self) -> None:
        for i in range(self.size):
            inst = generator.gen_random(self.params(i))
            data = copy_market(model.instance_to_dict(inst), self.rng)
            self.markets.append({"data": data, "inst": model.instance_from_dict(data)})

    def op(self, i: int):
        return tuple(procedure.enumerate_procedure_outcomes(self.markets[i]["inst"]))

    def check(self, i: int, result) -> list[str]:
        m = self.reference(i)
        records = [outcome_record(o) for o in result]
        keys = [outcome_key(m, r) for r in records]
        errors = [] if len(set(keys)) == len(keys) else [f"market {i}: repeated outcomes"]
        for r in records:
            errors += stable_and_wpo(m, r, f"market {i}")
        inst = self.markets[i]["inst"]
        for name, policy in sorted(procedure.POLICIES.items()):
            run = outcome_key(m, outcome_record(procedure.run_procedure(inst, policy)[0]))
            if run not in keys:
                errors.append(f"market {i}: the {name} run is not among the outcomes")
        return errors


class CoreVerify(Workload):
    """`verify` (all eight properties) then `core` on small markets."""

    name = "core-verify"
    size = 64
    # Every shape with 3..5 agents per side but 5x5, and amounts 0..9 where
    # the flags are not forced: with 5x5 markets and amounts 0..5, tie
    # enumeration inside `verify` took up to 5.3 s on one market, and a
    # round took 9-12 s. Tie enumeration is what `tie-corpus` measures.
    shapes = [(f, w) for f in (3, 4, 5) for w in (3, 4, 5) if f + w < 10]

    @classmethod
    def params(cls, i: int) -> tuple[generator.GenParams, bool]:
        forced = (i // len(cls.shapes)) % 2 == 1
        n_firms, n_workers = cls.shapes[i % len(cls.shapes)]
        return (
            generator.GenParams(
                n_firms=n_firms,
                n_workers=n_workers,
                contracts_per_pair=(1, 3),
                value_range=(0, 40) if forced else (0, 9),
                menu_density=0.6 + 0.4 * spread(i, PHI),
                force_pairwise_efficient=forced,
                force_disjoint_yields=forced,
                seed=7919 + i,
            ),
            forced,
        )

    def build(self) -> None:
        for i in range(self.size):
            params, forced = self.params(i)
            inst = generator.gen_random(params)
            data = copy_market(model.instance_to_dict(inst), self.rng)
            self.markets.append({"path": self.write(i, data), "forced": forced})

    def op(self, i: int):
        path = self.markets[i]["path"]
        code, verified = self.run_cli(["verify", path])
        _, core = self.run_cli(["core", path])
        return code, verified, core

    def check(self, i: int, result) -> list[str]:
        code, verified, core_text = result
        m = self.reference(i)
        label = f"market {i}"
        errors = []

        stable = ref.core(m)
        records = [json.loads(x) for x in core_text.splitlines()]
        listed = [outcome_key(m, r) for r in records[:-1]]
        if records[-1] != {"count": len(listed)}:
            errors.append(f"{label}: core count record {records[-1]} for {len(listed)} outcomes")
        if len(set(listed)) != len(listed) or set(listed) != stable:
            errors.append(f"{label}: core lists {len(listed)} outcomes, reference has {len(stable)}")

        reports = {}
        for r in map(json.loads, verified.splitlines()):
            reports[r["property"]] = None if "skipped" in r else r["holds"]
        if list(reports) != PROPERTIES:
            return errors + [f"{label}: verify reported {list(reports)}"]
        pe, dy = ref.pairwise_efficient(m), ref.disjoint_yields(m)
        expected = {
            "pairwise-efficiency": pe,
            "disjoint-yields": dy,
            "firm-pareto": True,
            "pair-tradeoff": True,
            "group-tradeoff": True,
            "employment-invariance": ref.employment_invariant(m, stable) if pe and dy else None,
        }
        if self.markets[i]["forced"]:
            expected["firm-optimality"] = True
        for name, want in expected.items():
            if reports[name] != want:
                errors.append(f"{label}: {name} reported {reports[name]}, reference {want}")
        # sides-opposed tests its hypotheses only when the core has two
        # outcomes to compare; with fewer it holds vacuously.
        hypotheses = pe and dy
        skipped = {"firm-optimality": not hypotheses,
                   "sides-opposed": not hypotheses and len(stable) >= 2}
        for name, want in skipped.items():
            if (reports[name] is None) != want:
                errors.append(f"{label}: {name} skipped={reports[name] is None}, pe={pe}, dy={dy}")
        if reports["firm-optimality"]:
            inst = model.read_instance_file(self.markets[i]["path"])
            run = outcome_key(m, outcome_record(procedure.run_procedure(inst)[0]))
            if run not in stable:
                errors.append(f"{label}: the run is not in the reference core")
            over = ref.firm_bound_violations(m, ref.payoff_map(m, run), stable)
            if over:
                errors.append(f"{label}: a stable outcome pays firm {over[0][0]} more than the run")
        if code != (1 if False in reports.values() else 0):
            errors.append(f"{label}: verify exited {code} with verdicts {reports}")
        return errors


WORKLOADS = {w.name: w for w in (SolveMarket, TieCorpus, CoreVerify)}
