"""End-to-end acceptance gates. Each check prints one PASS/FAIL line
(run with `pytest -s tests/test_acceptance.py` to see them).

The gates encode what the paper claims for its firm-proposing procedure:
its outcomes are in the core and weakly Pareto optimal for firms on any
menus (criteria 2 and 5, including menus that pay a worker exactly zero,
which a worker accepts since it is no worse than staying single), and
under pairwise efficiency and disjoint yields its outcome is unique and
no stable outcome pays a firm more (criterion 6). Criterion 2 does not
require a singleton core: the `illustration` market has five stable
outcomes, a count checked against an independent brute-force oracle.
"""
import json
import time
from fractions import Fraction

import pytest

from contractmatch import (
    BudgetExceededError,
    EnumerationBudget,
    GenParams,
    POLICIES,
    PreconditionViolatedError,
    builtin,
    check_employment_invariance,
    check_firm_optimality,
    check_group_tradeoff,
    check_pair_tradeoff,
    enumerate_core,
    enumerate_outcomes,
    enumerate_procedure_outcomes,
    gen_random,
    instance_to_dict,
    is_stable,
    is_weakly_pareto_optimal_for_firms,
    run_procedure,
)
from contractmatch.cli import main as cli_main
from markets import corpus_params
from oracles import classic_da, oracle_core

CORPUS_SIZE = 500


@pytest.fixture(scope="module")
def corpus():
    return [gen_random(corpus_params(seed)) for seed in range(CORPUS_SIZE)]


def report(criterion: str, ok: bool, detail: str = ""):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" - {detail}"
    print(line)
    assert ok, line


def write_instance(tmp_path, inst, name):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(instance_to_dict(inst)), encoding="utf-8")
    return str(path)


def run_cli(capsys, *argv):
    code = cli_main(list(argv))
    out = capsys.readouterr().out
    return code, [json.loads(line) for line in out.splitlines() if line.strip()]


def test_criterion_1_empty_core(tmp_path, capsys, gs4):
    start = time.perf_counter()
    code, records = run_cli(capsys, "core", write_instance(tmp_path, gs4, "gs4"))
    elapsed = time.perf_counter() - start
    ok = code == 0 and records == [{"count": 0}] and elapsed < 1.0
    report("1", ok, f"gale-shapley-4 core count {records[-1]['count']}, {elapsed:.3f}s")


def test_criterion_2_solve_illustration(tmp_path, capsys, illustration):
    start = time.perf_counter()
    code, records = run_cli(capsys, "solve", write_instance(tmp_path, illustration, "ill"))
    elapsed = time.perf_counter() - start
    expected = {
        "matches": [[1, 3], [2, 4]],
        "singles": [],
        "payoffs": {"1": "3", "2": "4", "3": "1", "4": "2"},
    }
    ok = code == 0 and records[0] == expected and elapsed < 1.0
    report("2 (solve)", ok, f"payoffs {records[0]['payoffs']}, {elapsed:.3f}s")


def test_criterion_2_core_count(tmp_path, capsys, illustration):
    # The abstract promises that the proposing procedure's outcome is in the
    # core and, under its hypotheses, that no stable outcome pays a firm
    # more (`illustration` lacks disjoint yields, yet the bound holds here).
    # It does not promise a singleton core: `illustration` has several
    # stable outcomes, and the expected count comes from the brute-force
    # oracle.
    start = time.perf_counter()
    inst_path = write_instance(tmp_path, illustration, "ill")
    core_code, core_records = run_cli(capsys, "core", inst_path)
    solve_code, runs = run_cli(capsys, "solve", inst_path, "--all-tiebreaks")
    elapsed = time.perf_counter() - start
    core = core_records[:-1]
    count = core_records[-1]["count"]
    expected_count = len(oracle_core(illustration))
    expected_run = {
        "matches": [[1, 3], [2, 4]],
        "singles": [],
        "payoffs": {"1": "3", "2": "4", "3": "1", "4": "2"},
    }
    bounded = all(
        Fraction(o["payoffs"]["1"]) <= 3 and Fraction(o["payoffs"]["2"]) <= 4
        for o in core
    )
    ok = (
        core_code == 0
        and solve_code == 0
        and runs == [expected_run]
        and expected_run in core
        and bounded
        and count == len(core) == expected_count
        and elapsed < 1.0
    )
    report(
        "2 (core)",
        ok,
        f"{len(runs)} reachable run outcome(s), in a core of {count} "
        f"(oracle {expected_count}); no stable outcome pays "
        f"firm 1 more than 3 or firm 2 more than 4: {bounded}, {elapsed:.3f}s",
    )


def test_criterion_3_modified_illustration(tmp_path, capsys, modified):
    start = time.perf_counter()
    inst_path = write_instance(tmp_path, modified, "mod")
    outcomes = (
        {"matches": [[1, 3], [2, 4]], "singles": [],
         "payoffs": {"1": "3", "2": "4", "3": "1", "4": "2"}},
        {"matches": [[1, 4], [2, 3]], "singles": [],
         "payoffs": {"1": "3", "2": "3", "3": "2", "4": "3"}},
    )
    both_stable = True
    for i, outcome in enumerate(outcomes):
        path = tmp_path / f"outcome{i}.json"
        path.write_text(json.dumps(outcome), encoding="utf-8")
        code, records = run_cli(capsys, "check", inst_path, str(path))
        both_stable = both_stable and code == 0 and records[0] == {"stable": True}
    code, records = run_cli(capsys, "solve", inst_path, "--all-tiebreaks")
    reachable = code == 0 and len(records) == 2 and all(o in records for o in outcomes)
    elapsed = time.perf_counter() - start
    ok = both_stable and reachable and elapsed < 1.0
    report("3", ok, f"both outcomes stable and reachable, {elapsed:.3f}s")


def test_criterion_4_runs_are_always_stable(corpus):
    start = time.perf_counter()
    failures = []
    for i, inst in enumerate(corpus):
        for pname, policy in POLICIES.items():
            outcome, _ = run_procedure(inst, policy)
            if not is_stable(inst, outcome):
                failures.append((i, pname))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 60.0
    report(
        "4",
        ok,
        f"{len(corpus)} instances x {len(POLICIES)} policies, "
        f"{len(failures)} unstable, {elapsed:.1f}s",
    )


def test_criterion_5_runs_are_firm_pareto_optimal(corpus):
    failures = []
    for i, inst in enumerate(corpus):
        for outcome in enumerate_procedure_outcomes(inst):
            if not is_weakly_pareto_optimal_for_firms(inst, outcome).holds:
                failures.append(i)
                break
    ok = not failures
    report(
        "5",
        ok,
        f"{len(failures)} of {len(corpus)} instances have a run that is not "
        f"firm-Pareto-optimal; first failing seed {failures[0] if failures else '-'}",
    )


def test_criterion_6_forced_regime_is_firm_optimal_and_invariant():
    start = time.perf_counter()
    n = 200
    failures = []
    for seed in range(n):
        inst = gen_random(
            GenParams(
                n_firms=1 + seed % 3,
                n_workers=1 + (seed // 3) % 3,
                contracts_per_pair=(1, 2),
                value_range=(1, 6),
                menu_density=0.9,
                force_pairwise_efficient=True,
                force_disjoint_yields=True,
                seed=seed,
            )
        )
        outcomes = enumerate_procedure_outcomes(inst)
        if len(outcomes) != 1:
            failures.append((seed, "not singleton"))
            continue
        if not check_firm_optimality(inst, outcomes[0]).holds:
            failures.append((seed, "not firm optimal"))
            continue
        if not check_employment_invariance(inst).holds:
            failures.append((seed, "employment varies"))
    elapsed = time.perf_counter() - start
    report("6", not failures, f"{n} forced instances, failures {failures[:3]}, {elapsed:.1f}s")


def test_criterion_7_tradeoff_laws_on_sampled_cores(corpus):
    start = time.perf_counter()
    pair_samples = 0
    group_samples = 0
    pair_failures = []
    group_failures = []
    for i, inst in enumerate(corpus):
        if pair_samples >= 500 and group_samples >= 500:
            break
        try:
            core = enumerate_core(inst, EnumerationBudget(2000))[:4]
        except BudgetExceededError:
            continue
        for o1 in core:
            for o2 in core:
                if not check_pair_tradeoff(inst, o1, o2).holds:
                    pair_failures.append(i)
                pair_samples += 1
        outcomes = enumerate_outcomes(inst)[:6]
        for o in outcomes:
            vo = o.payoff_map()
            for s in core[:3]:
                vs = s.payoff_map()
                group = [a for a in inst.agents if vs[a] > vo[a]]
                if not group:
                    continue
                try:
                    holds = check_group_tradeoff(inst, o, s, group).holds
                except PreconditionViolatedError:
                    continue
                if not holds:
                    group_failures.append(i)
                group_samples += 1
    elapsed = time.perf_counter() - start
    ok = (
        not pair_failures
        and not group_failures
        and pair_samples >= 500
        and group_samples >= 500
    )
    report(
        "7",
        ok,
        f"{pair_samples} pair-tradeoff and {group_samples} group-tradeoff samples, "
        f"failures {len(pair_failures)}/{len(group_failures)}, {elapsed:.1f}s",
    )


def test_criterion_8_reduction_to_classic_deferred_acceptance():
    start = time.perf_counter()
    n = 200
    mismatches = []
    for seed in range(n):
        inst = gen_random(
            GenParams(
                n_firms=1 + seed % 4,
                n_workers=1 + (seed // 4) % 4,
                contracts_per_pair=(1, 1),
                value_range=(0, 5),
                menu_density=0.8,
                seed=10_000 + seed,
            )
        )
        reference = classic_da(inst)
        outcome, _ = run_procedure(inst, POLICIES["strict-list"])
        if outcome.matching != reference.matching:
            mismatches.append(seed)
    elapsed = time.perf_counter() - start
    report("8", not mismatches, f"{n} singleton-menu instances, {len(mismatches)} mismatches, {elapsed:.1f}s")


def test_worker_tie_has_two_runs_and_no_firm_optimal_outcome(tmp_path, capsys):
    # Pairwise efficiency and disjoint firm yields both hold on
    # `worker-tie`, but worker 3 is paid 9 by either firm, so the tie
    # decides which firm earns 10. The firm bound fails there: the verdict
    # is right, and the gap lies between the claim and the hypotheses as
    # the code reads them (README, "Known discrepancies").
    path = write_instance(tmp_path, builtin("worker-tie"), "worker-tie")
    runs = [
        {"matches": [[1, 3], [2, 4]], "singles": [],
         "payoffs": {"1": "10", "2": "2", "3": "9", "4": "10"}},
        {"matches": [[1, 4], [2, 3]], "singles": [],
         "payoffs": {"1": "1", "2": "10", "3": "9", "4": "11"}},
    ]
    solve_code, solved = run_cli(capsys, "solve", path, "--all-tiebreaks")
    core_code, core = run_cli(capsys, "core", path)
    verify_code, reports = run_cli(capsys, "verify", path)
    verdicts = {r["property"]: r for r in reports}
    optimality = verdicts["firm-optimality"]
    ok = (
        solve_code == 0
        and solved == runs
        and core_code == 0
        and core[-1] == {"count": 2}
        and verdicts["pairwise-efficiency"]["holds"]
        and verdicts["disjoint-yields"]["holds"]
        and optimality["holds"] is False
        and optimality["details"] == {"reason": "not a singleton"}
        and verify_code == 1
    )
    report(
        "worker-tie",
        ok,
        f"{len(solved)} tie outcomes, core count {core[-1]['count']}, "
        f"firm-optimality {optimality['holds']}, verify exit {verify_code}",
    )
