import copy
import gc
import pickle
import random
import warnings
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from contractmatch import (
    BUILTIN_NAMES,
    Allocation,
    EnumerationBudget,
    BudgetExceededError,
    ContractMatchError,
    FormatError,
    GenParams,
    InfeasibleParamsError,
    Matching,
    NegativeContractWarning,
    NotTwoSidedError,
    Outcome,
    PreconditionViolatedError,
    PropertyReport,
    UnstableInputError,
    builtin,
    check_employment_invariance,
    check_firm_optimality,
    check_group_tradeoff,
    check_pair_tradeoff,
    check_sides_opposed,
    enumerate_core,
    enumerate_outcomes,
    enumerate_procedure_outcomes,
    gen_random,
    has_disjoint_yields,
    instance_from_dict,
    instance_to_dict,
    is_pairwise_efficient,
    is_stable,
    is_weakly_pareto_optimal_for_firms,
    outcome_is_feasible,
    run_procedure,
)
from contractmatch import verify
from contractmatch.verify import PROPERTY_NAMES, PropertyBattery
from markets import menu, ordinal_map, outcome_of, two_sided
from oracles import (
    menu_for,
    oracle_blocking,
    oracle_disjoint_yields,
    oracle_employment_invariance,
    oracle_firm_pareto,
    oracle_group_tradeoff,
    oracle_outcomes,
    oracle_pair_report,
    oracle_pair_tradeoff,
    oracle_pairwise_efficient,
    oracle_sides_opposed,
    payoff,
    relabelled,
    seeded_pool,
)


def forced_instances(n, start_seed):
    for seed in range(start_seed, start_seed + n):
        yield gen_random(
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


def check_wpo_against_oracle(inst, outcome):
    """The check's verdict, asserted equal to brute force; a witness must replay."""
    v = outcome.payoff_map()
    report = is_weakly_pareto_optimal_for_firms(inst, outcome)
    assert report.holds == oracle_firm_pareto(inst, v)
    if not report.holds:
        (witness,) = report.witnesses
        assert outcome_is_feasible(inst, witness)
        assert all(payoff(witness, f) > v[f] for f in inst.firms)
    return report.holds


@pytest.fixture(scope="module")
def tiny_singleton_core():
    # one firm, one worker, one contract: the core is exactly that match
    return two_sided(
        [menu((1, 2), [{1: 2, 2: 1}])], firms=(1,), workers=(2,)
    )


class TestPairwiseEfficiency:
    def test_modified_holds(self, modified):
        assert is_pairwise_efficient(modified).holds

    def test_both_sides_rising_fails(self):
        inst = two_sided(
            [menu((1, 2), [{1: 3, 2: 1}, {1: 4, 2: 2}])],
            firms=(1,),
            workers=(2,),
        )
        report = is_pairwise_efficient(inst)
        assert not report.holds
        pair, c1, c2 = report.witnesses[0]
        assert pair == (1, 2)
        assert {c1[1], c2[1]} == {Fraction(3), Fraction(4)}

    def test_equal_firm_payoff_different_worker_payoff_fails(self):
        inst = two_sided(
            [menu((1, 2), [{1: 3, 2: 1}, {1: 3, 2: 2}])],
            firms=(1,),
            workers=(2,),
        )
        assert not is_pairwise_efficient(inst).holds

    def test_requires_partition(self, gs4):
        with pytest.raises(NotTwoSidedError):
            is_pairwise_efficient(gs4)


class TestDisjointYields:
    def test_modified_fails_with_shared_yield_three(self, modified):
        report = has_disjoint_yields(modified)
        assert not report.holds
        assert (1, 3, 4, Fraction(3)) in report.witnesses

    def test_illustration_fails_with_shared_yield_one(self, illustration):
        report = has_disjoint_yields(illustration)
        assert not report.holds
        assert report.witnesses[0] == (1, 3, 4, Fraction(1))

    def test_distinct_yields_hold(self):
        inst = two_sided(
            [
                menu((1, 2), [{1: 3, 2: 1}]),
                menu((1, 3), [{1: 4, 3: 1}]),
            ],
            firms=(1,),
            workers=(2, 3),
        )
        assert has_disjoint_yields(inst).holds


class TestMenuCheckersMatchFractionOracles:
    """The menu checkers on the instance's integer columns against the
    Fraction checkers they replaced: whole reports, witnesses in order."""

    @pytest.mark.filterwarnings("ignore::contractmatch.NegativeContractWarning")
    def test_reports_agree(self):
        verdicts = {"pairwise-efficiency": set(), "disjoint-yields": set()}
        for seed in range(240):
            mode = seed % 4
            try:
                inst = gen_random(
                    GenParams(
                        n_firms=1 + seed % 4,
                        n_workers=1 + seed // 4 % 4,
                        contracts_per_pair=(1, 3),
                        value_range=(-2, 6) if mode == 0 else (1, 12),
                        menu_density=0.8,
                        force_pairwise_efficient=mode in (1, 3),
                        force_disjoint_yields=mode in (2, 3),
                        seed=6000 + seed,
                    )
                )
            except InfeasibleParamsError:
                continue
            # Forced markets keep their hypotheses when only scaled.
            for market in (inst, relabelled(inst, seed, jitter=0.2 if mode == 0 else 0)):
                for check, oracle in (
                    (is_pairwise_efficient, oracle_pairwise_efficient),
                    (has_disjoint_yields, oracle_disjoint_yields),
                ):
                    report = check(market)
                    assert report == oracle(market), (seed, report.name)
                    verdicts[report.name].add((report.holds, market is inst))
        for pool in map(seeded_pool, range(20)):
            for check in (is_pairwise_efficient, has_disjoint_yields):
                with pytest.raises(NotTwoSidedError):
                    check(pool)
        assert all(len(seen) == 4 for seen in verdicts.values()), verdicts


class TestWeakParetoOptimality:
    def test_illustration_procedure_outcome_holds(self, illustration):
        o = outcome_of(illustration, [(1, 3), (2, 4)], {1: 3, 2: 4, 3: 1, 4: 2})
        assert is_weakly_pareto_optimal_for_firms(illustration, o).holds

    def test_modified_second_outcome_holds(self, modified):
        o = outcome_of(modified, [(1, 4), (2, 3)], {1: 3, 2: 3, 3: 2, 4: 3})
        assert is_weakly_pareto_optimal_for_firms(modified, o).holds

    def test_single_firm_below_its_best_fails(self):
        inst = two_sided(
            [menu((1, 2), [{1: 3, 2: 2}, {1: 1, 2: 1}])],
            firms=(1,),
            workers=(2,),
        )
        o = outcome_of(inst, [(1, 2)], {1: 1, 2: 1})
        report = is_weakly_pareto_optimal_for_firms(inst, o)
        assert not report.holds
        witness = report.witnesses[0]
        assert payoff(witness, 1) == 3
        assert outcome_is_feasible(inst, witness)

    def test_worker_zero_payoff_contract_breaks_the_property(self):
        # This contract used to break the property: a worker rejected
        # (3, 0), the run ended all-single, and matching at (3, 0) paid the
        # firm more. A worker now accepts any offer paying at least the
        # zero of staying single, so the run reaches that match.
        inst = two_sided(
            [menu((1, 2), [{1: 3, 2: 0}])], firms=(1,), workers=(2,)
        )
        o, _ = run_procedure(inst)
        assert o == outcome_of(inst, [(1, 2)], {1: 3, 2: 0})
        assert is_stable(inst, o)
        assert is_weakly_pareto_optimal_for_firms(inst, o).holds

    def test_holds_for_all_runs_when_worker_payoffs_are_positive(self):
        for seed in range(100):
            inst = gen_random(
                GenParams(
                    n_firms=1 + seed % 3,
                    n_workers=1 + (seed // 3) % 3,
                    contracts_per_pair=(1, 3),
                    value_range=(1, 5),
                    menu_density=0.8,
                    seed=1000 + seed,
                )
            )
            for o in enumerate_procedure_outcomes(inst):
                assert is_weakly_pareto_optimal_for_firms(inst, o).holds

    def test_budget_applies(self, illustration):
        # The budget bounds enumeration only. This check searches for a
        # matching instead and takes no budget, so it decides markets with
        # more outcomes than a budget that would stop an enumeration.
        budget = EnumerationBudget(max_outcomes=3)
        assert len(enumerate_outcomes(illustration)) > budget.max_outcomes
        verdicts = []
        for payoffs in ({1: 3, 2: 4, 3: 1, 4: 2}, {1: 1, 2: 2, 3: 3, 4: 4}):
            o = outcome_of(illustration, [(1, 3), (2, 4)], payoffs)
            report = is_weakly_pareto_optimal_for_firms(illustration, o)
            assert report.holds == oracle_firm_pareto(illustration, o.payoff_map())
            verdicts.append(report.holds)
        assert verdicts == [True, False]

    def test_agrees_with_brute_force_over_generator_modes(self):
        # Every feasible outcome of markets from every generator mode, with
        # amounts that include 0, negative amounts, and empty menus, each
        # market also relabelled with amounts in halves and thirds.
        checked = {True: 0, False: 0}
        for seed in range(120):
            lo, hi = ((0, 5), (-3, 4), (1, 6))[seed % 3]
            mode = seed // 3 % 4
            params = GenParams(
                n_firms=1 + seed % 3,
                n_workers=1 + seed // 2 % 3,
                contracts_per_pair=(1, 3),
                value_range=(lo, hi),
                menu_density=0.0 if seed % 7 == 0 else (0.5, 0.9)[seed % 2],
                force_pairwise_efficient=mode in (1, 3),
                force_disjoint_yields=mode in (2, 3),
                seed=4000 + seed,
            )
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", NegativeContractWarning)
                    inst = gen_random(params)
            except InfeasibleParamsError:
                continue
            for market in (inst, relabelled(inst, seed)):
                for pairs, items in sorted(oracle_outcomes(market)):
                    o = Outcome.of(Matching(pairs), dict(items))
                    checked[check_wpo_against_oracle(market, o)] += 1
        assert checked[True] >= 200 and checked[False] >= 200

    def test_market_without_menus_holds(self):
        inst = two_sided([], firms=(1, 2), workers=(3,))
        o = outcome_of(inst, [], {})
        assert check_wpo_against_oracle(inst, o)

    def test_market_without_firms_fails_vacuously(self):
        # With no firms, every outcome pays "every firm" more.
        inst = two_sided([], firms=(), workers=(1, 2))
        o = outcome_of(inst, [], {})
        assert not check_wpo_against_oracle(inst, o)

    def test_needs_an_augmenting_path(self):
        # Firm 1 gains only with worker 3 or 4, firm 2 only with worker 3:
        # first matching firm 1 to worker 3 must be undone.
        inst = two_sided(
            [
                menu((1, 3), [{1: 2, 3: 0}]),
                menu((1, 4), [{1: 2, 4: 1}]),
                menu((2, 3), [{2: 2, 3: 1}]),
            ],
            firms=(1, 2),
            workers=(3, 4),
        )
        o = outcome_of(inst, [], {})
        assert not check_wpo_against_oracle(inst, o)
        witness = is_weakly_pareto_optimal_for_firms(inst, o).witnesses[0]
        assert witness.matching.pairs == ((1, 4), (2, 3))


class TestFirmOptimality:
    def test_illustration_procedure_outcome_dominates_core(self, illustration):
        o, _ = run_procedure(illustration)
        assert check_firm_optimality(illustration, o).holds

    def test_modified_second_outcome_is_not_firm_optimal(self, modified):
        o = outcome_of(modified, [(1, 4), (2, 3)], {1: 3, 2: 3, 3: 2, 4: 3})
        report = check_firm_optimality(modified, o)
        assert not report.holds
        firm, better = report.witnesses[0]
        assert firm == 2
        assert payoff(better, 2) == 4

    def test_vacuous_on_singleton_core(self, tiny_singleton_core):
        o, _ = run_procedure(tiny_singleton_core)
        assert check_firm_optimality(tiny_singleton_core, o).holds


class TestPairTradeoff:
    def test_modified_pair_24_trades_off(self, modified):
        o1 = outcome_of(modified, [(1, 3), (2, 4)], {1: 3, 2: 4, 3: 1, 4: 2})
        o2 = outcome_of(modified, [(1, 4), (2, 3)], {1: 3, 2: 3, 3: 2, 4: 3})
        report = check_pair_tradeoff(modified, o1, o2)
        assert report.holds
        assert report.details["strict_holds"]

    def test_identical_outcomes_hold_vacuously(self, modified):
        o = outcome_of(modified, [(1, 3), (2, 4)], {1: 3, 2: 4, 3: 1, 4: 2})
        report = check_pair_tradeoff(modified, o, o)
        assert report.holds and report.witnesses == ()

    def test_strict_form_can_fail_while_weak_holds(self, illustration):
        # pair {1, 3}: agent 3 earns 3 versus 1, while agent 1 earns the
        # same 1 in both, so the partner is not strictly worse off
        o1 = outcome_of(illustration, [(1, 3), (2, 4)], {1: 1, 2: 4, 3: 3, 4: 2})
        o2 = outcome_of(illustration, [(1, 4), (2, 3)], {1: 1, 2: 3, 3: 2, 4: 4})
        report = check_pair_tradeoff(illustration, o1, o2)
        assert report.holds
        assert not report.details["strict_holds"]
        assert report.details["strict_witnesses"]

    def test_unstable_inputs_are_rejected(self, modified):
        stable = outcome_of(modified, [(1, 3), (2, 4)], {1: 3, 2: 4, 3: 1, 4: 2})
        unstable = outcome_of(modified, [], {})
        with pytest.raises(UnstableInputError):
            check_pair_tradeoff(modified, unstable, stable)
        with pytest.raises(UnstableInputError):
            check_pair_tradeoff(modified, stable, unstable)

    def test_weak_form_never_fails_on_sampled_stable_pairs(self):
        samples = 0
        seed = 0
        while samples < 500:
            inst = gen_random(
                GenParams(
                    n_firms=1 + seed % 3,
                    n_workers=1 + (seed // 3) % 3,
                    contracts_per_pair=(1, 2),
                    value_range=(0, 5),
                    menu_density=0.8,
                    seed=2000 + seed,
                )
            )
            seed += 1
            core = enumerate_core(inst)[:5]
            for o1 in core:
                for o2 in core:
                    report = check_pair_tradeoff(inst, o1, o2)
                    assert report.holds
                    samples += 1
        assert samples >= 500


class TestGroupTradeoff:
    def test_empty_group_is_vacuous(self, modified):
        o = outcome_of(modified, [], {})
        s = outcome_of(modified, [(1, 3), (2, 4)], {1: 3, 2: 4, 3: 1, 4: 2})
        assert check_group_tradeoff(modified, o, s, ()).holds

    def test_modified_group_of_agent_4(self, modified):
        o = outcome_of(modified, [(1, 3), (2, 4)], {1: 3, 2: 4, 3: 1, 4: 2})
        s = outcome_of(modified, [(1, 4), (2, 3)], {1: 3, 2: 3, 3: 2, 4: 3})
        # agent 4 earns 3 > 2 in the stable outcome; pair {1, 4} cannot
        # block the first outcome, so partner 1 must earn at least 3 there
        report = check_group_tradeoff(modified, o, s, {4})
        assert report.holds

    def test_identifies_violated_preconditions(self, modified):
        o = outcome_of(modified, [(1, 3), (2, 4)], {1: 3, 2: 4, 3: 1, 4: 2})
        s = outcome_of(modified, [(1, 4), (2, 3)], {1: 3, 2: 3, 3: 2, 4: 3})
        with pytest.raises(PreconditionViolatedError) as err:
            check_group_tradeoff(modified, o, s, {2})  # 2 earns less, not more
        assert err.value.precondition == "strict-gain"
        unstable = outcome_of(modified, [], {})
        with pytest.raises(PreconditionViolatedError) as err:
            check_group_tradeoff(modified, o, unstable, {4})
        assert err.value.precondition == "stable-outcome"
        with pytest.raises(PreconditionViolatedError) as err:
            check_group_tradeoff(modified, o, s, {99})
        assert err.value.precondition == "group"
        # Not agent ids at all, rather than agent 1.
        for member in (1.7, True):
            with pytest.raises(FormatError, match="agent id must be an integer"):
                check_group_tradeoff(modified, o, s, {member})

    def test_infeasible_first_outcome_is_detected(self, illustration):
        # No contract of the pair {1, 3} pays 9 and 9.
        o = outcome_of(illustration, [(1, 3)], {1: 9, 3: 9})
        s = enumerate_core(illustration)[0]
        with pytest.raises(PreconditionViolatedError) as err:
            check_group_tradeoff(illustration, o, s, [1])
        assert err.value.precondition == "outcome"

    def test_no_blocking_precondition_is_detected(self, modified):
        # all-singles is blocked by {2, 3} via (3, 2), and 3 gains in the
        # stable outcome, so the hypothesis fails for group {3}
        o = outcome_of(modified, [], {})
        s = outcome_of(modified, [(1, 4), (2, 3)], {1: 3, 2: 3, 3: 2, 4: 3})
        with pytest.raises(PreconditionViolatedError) as err:
            check_group_tradeoff(modified, o, s, {3})
        assert err.value.precondition == "no-blocking"

    def test_holds_on_sampled_draws(self):
        checked = 0
        seed = 0
        while checked < 500:
            inst = gen_random(
                GenParams(
                    n_firms=1 + seed % 3,
                    n_workers=1 + (seed // 3) % 3,
                    contracts_per_pair=(1, 2),
                    value_range=(0, 5),
                    menu_density=0.8,
                    seed=3000 + seed,
                )
            )
            seed += 1
            outcomes = enumerate_outcomes(inst)[:6]
            core = enumerate_core(inst)[:3]
            for o in outcomes:
                vo = o.payoff_map()
                for s in core:
                    vs = s.payoff_map()
                    group = [a for a in inst.agents if vs[a] > vo[a]]
                    if not group:
                        continue
                    try:
                        report = check_group_tradeoff(inst, o, s, group)
                    except PreconditionViolatedError:
                        continue
                    assert report.holds
                    checked += 1
        assert checked >= 500


class TestEmploymentInvariance:
    def test_trivial_on_singleton_core(self, tiny_singleton_core):
        assert check_employment_invariance(tiny_singleton_core).holds

    def test_modified_violates_the_hypotheses(self, modified):
        with pytest.raises(PreconditionViolatedError) as err:
            check_employment_invariance(modified)
        assert err.value.precondition == "disjoint-yields"

    def test_holds_on_forced_instances(self):
        for inst in forced_instances(60, 0):
            assert check_employment_invariance(inst).holds


class TestSidesOpposed:
    def test_trivial_when_outcomes_equal(self, tiny_singleton_core):
        o, _ = run_procedure(tiny_singleton_core)
        assert check_sides_opposed(tiny_singleton_core, o, o).holds

    def test_modified_violates_the_hypotheses(self, modified):
        o = outcome_of(modified, [(1, 3), (2, 4)], {1: 3, 2: 4, 3: 1, 4: 2})
        with pytest.raises(PreconditionViolatedError):
            check_sides_opposed(modified, o, o)

    def test_holds_on_forced_stable_pairs(self):
        for inst in forced_instances(40, 100):
            core = enumerate_core(inst)[:4]
            for o1 in core:
                for o2 in core:
                    assert check_sides_opposed(inst, o1, o2).holds


class TestFirmOptimalityRegime:
    def test_forced_instances_have_unique_run_dominating_core(self):
        # pairwise efficiency and two-sided disjoint amounts leave no payoff
        # ties anywhere, so the run is unique and firm-optimal
        for inst in forced_instances(60, 200):
            outs = enumerate_procedure_outcomes(inst)
            assert len(outs) == 1
            assert check_firm_optimality(inst, outs[0]).holds


class TestWitnessReplay:
    def test_false_reports_replay_to_violations(self, modified):
        o = outcome_of(modified, [(1, 4), (2, 3)], {1: 3, 2: 3, 3: 2, 4: 3})
        report = check_firm_optimality(modified, o)
        for firm, better in report.witnesses:
            assert outcome_is_feasible(modified, better)
            assert is_stable(modified, better)
            assert payoff(better, firm) > payoff(o, firm)

    def test_disjoint_yield_witnesses_replay(self, modified):
        firm_set = set(modified.firms)
        for f, w1, w2, value in has_disjoint_yields(modified).witnesses:
            m1 = menu_for(modified, f, w1)
            m2 = menu_for(modified, f, w2)
            assert value in {c[f] for c in m1.contracts}
            assert value in {c[f] for c in m2.contracts}

    def test_wpo_witnesses_replay(self):
        inst = two_sided(
            [menu((1, 2), [{1: 3, 2: 2}, {1: 1, 2: 1}])],
            firms=(1,),
            workers=(2,),
        )
        o = outcome_of(inst, [(1, 2)], {1: 1, 2: 1})
        report = is_weakly_pareto_optimal_for_firms(inst, o)
        witness = report.witnesses[0]
        assert outcome_is_feasible(inst, witness)
        assert all(payoff(witness, f) > payoff(o, f) for f in inst.firms)


def public_pair_loop(inst, name, checker):
    """A property over ordered pairs of the first six stable outcomes,
    each pair through the public checker."""
    core = enumerate_core(inst)[:6]
    witnesses = []
    for o1 in core:
        for o2 in core:
            if o1 != o2:
                report = checker(inst, o1, o2)
                if not report.holds:
                    witnesses.append((o1, o2) + report.witnesses)
    return PropertyReport(name, not witnesses, tuple(witnesses))


def public_group_loop(inst):
    """group-tradeoff over the first eight outcomes and first four stable
    ones, each sample through check_group_tradeoff."""
    core = enumerate_core(inst)[:4]
    witnesses = []
    checked = 0
    for o in enumerate_outcomes(inst)[:8]:
        vo = o.payoff_map()
        for s in core:
            vs = s.payoff_map()
            group = [a for a in inst.agents if vs[a] > vo[a]]
            if not group:
                continue
            try:
                report = check_group_tradeoff(inst, o, s, group)
            except PreconditionViolatedError:
                continue
            checked += 1
            if not report.holds:
                witnesses.append((o, s, tuple(group)) + report.witnesses)
    return PropertyReport(
        "group-tradeoff", not witnesses, tuple(witnesses), {"samples": checked}
    )


def verdict(fn, *args):
    try:
        return fn(*args)
    except PreconditionViolatedError as exc:
        return (type(exc), str(exc), exc.precondition)
    except NotTwoSidedError as exc:
        return (type(exc), str(exc))


class TestBatteryMatchesPublicCheckers:
    """The battery checks hypotheses once and trusts the core's stability;
    its reports and errors are those of the public checkers."""

    LOOPS = {
        "sides-opposed": lambda inst: public_pair_loop(
            inst, "sides-opposed", check_sides_opposed
        ),
        "pair-tradeoff": lambda inst: public_pair_loop(
            inst, "pair-tradeoff", check_pair_tradeoff
        ),
        "group-tradeoff": public_group_loop,
    }

    def markets(self):
        for seed in range(160):
            try:
                yield gen_random(
                    GenParams(
                        n_firms=1 + seed % 3,
                        n_workers=1 + (seed // 3) % 3,
                        contracts_per_pair=(1, 3),
                        value_range=(0, 4) if seed % 4 else (1, 12),
                        menu_density=0.8,
                        force_pairwise_efficient=seed % 4 == 0,
                        force_disjoint_yields=seed % 8 == 0,
                        seed=5000 + seed,
                    )
                )
            except InfeasibleParamsError:
                continue
        for seed in range(60):
            yield seeded_pool(seed)

    @pytest.mark.filterwarnings("ignore::contractmatch.NegativeContractWarning")
    def test_reports_and_errors_agree(self):
        seen = {"report": 0, "group samples": 0, "hypotheses fail": 0, "pool": 0}
        for inst in self.markets():
            battery = PropertyBattery(inst)
            several = len(battery.core()) >= 2
            for name, loop in self.LOOPS.items():
                got = verdict(battery.run, name)
                assert got == verdict(loop, inst), name
                if isinstance(got, PropertyReport):
                    seen["report"] += several
                    seen["group samples"] += got.details.get("samples", 0)
                elif several and got[0] is PreconditionViolatedError:
                    seen["hypotheses fail"] += 1
                elif several and got[0] is NotTwoSidedError:
                    seen["pool"] += 1
        assert all(seen.values()), seen


class TestBatteryMatchesFractionOracles:
    """The battery compares amount ranks, and the oracles the Fraction
    payoffs of outcomes over the ordered core. Their reports and errors
    agree, witnesses with their amounts and details included, on the
    markets above, their relabelled images, and markets with negative
    amounts."""

    ORACLES = {
        "employment-invariance": oracle_employment_invariance,
        "sides-opposed": oracle_sides_opposed,
        "pair-tradeoff": oracle_pair_tradeoff,
        "group-tradeoff": oracle_group_tradeoff,
    }

    def markets(self):
        for k, inst in enumerate(TestBatteryMatchesPublicCheckers().markets()):
            yield inst
            yield relabelled(inst, k)
        for seed in range(60):
            yield gen_random(
                GenParams(1 + seed % 3, 1 + (seed // 3) % 3, (1, 3), (-3, 4), 0.8, seed=7000 + seed)
            )

    @pytest.mark.filterwarnings("ignore::contractmatch.NegativeContractWarning")
    def test_reports_agree(self):
        seen = {"witnesses": 0, "strict witnesses": 0, "group samples": 0, "raised": 0}
        for inst in self.markets():
            battery = PropertyBattery(inst)
            for name, oracle in self.ORACLES.items():
                got, want = verdict(battery.run, name), verdict(oracle, inst)
                # repr tells a Fraction amount from an int rank of equal value.
                assert (got, repr(got)) == (want, repr(want)), name
                if not isinstance(got, PropertyReport):
                    seen["raised"] += 1
                else:
                    seen["witnesses"] += len(got.witnesses)
                    seen["group samples"] += got.details.get("samples", 0)
            # check_pair_tradeoff's own report carries the strict witnesses.
            core = battery.core()[:6]
            for o1 in core:
                for o2 in core:
                    got, want = check_pair_tradeoff(inst, o1, o2), oracle_pair_report(o1, o2)
                    assert (got, repr(got)) == (want, repr(want))
                    seen["strict witnesses"] += len(got.details["strict_witnesses"])
        assert all(seen.values()), seen

    @pytest.mark.filterwarnings("ignore::contractmatch.NegativeContractWarning")
    def test_report_helpers_on_unstable_pairs(self):
        # The weak pair-tradeoff witnesses and the group-tradeoff witnesses
        # need a blocked "stable" outcome, so no input to the battery or the
        # public checkers reaches them. The report helpers are called here
        # on pairs of feasible outcomes, most of them unstable.
        seen = {"unstable pairs": 0, "weak witnesses": 0, "group witnesses": 0}
        for inst in self.markets():
            outcomes = [
                Outcome.of(Matching(pairs), dict(items))
                for pairs, items in sorted(oracle_outcomes(inst))[:8]
            ]
            ranks = [inst.floor_ranks(o.payoff_map()) for o in outcomes]
            blocked = [bool(oracle_blocking(inst, o.payoff_map())) for o in outcomes]
            for o1, r1, b1 in zip(outcomes, ranks, blocked):
                v1 = o1.payoff_map()
                for o2, r2, b2 in zip(outcomes, ranks, blocked):
                    if o1 == o2:
                        continue
                    v2 = o2.payoff_map()
                    seen["unstable pairs"] += b1 or b2
                    got = verify._pair_tradeoff_report(inst, o1, r1, r2)
                    want = oracle_pair_report(o1, o2)
                    assert (got, repr(got)) == (want, repr(want))
                    seen["weak witnesses"] += len(got.witnesses)
                    # o2 as the "stable" outcome, its gainers as the group.
                    group = [a for a in inst.agents if v2[a] > v1[a]]
                    if not group:
                        continue
                    mate = o2.matching.mate
                    partner = {a: mate(a) for a in o2.matching.matched_agents()}
                    got = verify._group_tradeoff_report(inst, r1, r2, partner, group)
                    found = tuple(
                        (b, v1[b], v2[b]) for b in sorted({mate(a) for a in group}) if v1[b] < v2[b]
                    )
                    want = PropertyReport("group-tradeoff", not found, found)
                    assert (got, repr(got)) == (want, repr(want))
                    seen["group witnesses"] += len(found)
        assert all(seen.values()), seen


class TestOrdinalInvariance:
    """Every property compares amounts of one agent, or an amount with 0.
    So moving each agent's amounts by a strictly increasing map that fixes
    0 (tests/markets.py::ordinal_map) keeps every verdict, error, witness
    agent and sample count, and moves every witness amount by its agent's
    map."""

    @staticmethod
    def moved(value, maps):
        """`value` with the amounts of its outcomes and allocations moved."""
        if isinstance(value, Outcome):
            return Outcome(value.matching, tuple([(a, maps[a][v]) for a, v in value.payoffs]))
        if isinstance(value, Allocation):
            return Allocation(tuple([(a, maps[a][v]) for a, v in value.payments]))
        if isinstance(value, tuple):
            return tuple(TestOrdinalInvariance.moved(v, maps) for v in value)
        assert not isinstance(value, Fraction)
        return value

    def moved_witness(self, name, w, maps):
        """Witness `w` of property `name`, its amounts moved: those of its
        outcomes and allocations, and the bare ones, each by the map of
        the agent it pays."""
        if name == "disjoint-yields":
            f, w1, w2, x = w
            return (f, w1, w2, maps[f][x])
        if name == "sides-opposed":
            return self.moved(w[:2], maps) + tuple(
                (d, a, maps[a][x], maps[a][y]) for d, a, x, y in w[2:]
            )
        if name == "pair-tradeoff":
            return self.moved(w[:2], maps) + tuple(
                (a, b, maps[a][xa], maps[a][ya], maps[b][xb], maps[b][yb])
                for a, b, xa, ya, xb, yb in w[2:]
            )
        if name == "group-tradeoff":
            return self.moved(w[:3], maps) + tuple(
                (b, maps[b][x], maps[b][y]) for b, x, y in w[3:]
            )
        return self.moved(w, maps)

    def moved_report(self, report, maps):
        witnesses = tuple(self.moved_witness(report.name, w, maps) for w in report.witnesses)
        return PropertyReport(report.name, report.holds, witnesses, report.details)

    @staticmethod
    def reports(inst):
        battery = PropertyBattery(inst, EnumerationBudget(5000))
        for name in PROPERTY_NAMES:
            try:
                yield battery.run(name)
            except ContractMatchError as exc:
                yield (name, type(exc), str(exc))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        n_firms=st.integers(1, 4),
        n_workers=st.integers(1, 4),
        values=st.sampled_from([(0, 6), (-2, 6), (1, 60)]),
        forced=st.booleans(),
        seed=st.integers(0, 10**6),
    )
    def test_small_markets(self, n_firms, n_workers, values, forced, seed):
        forced = forced and values == (1, 60)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NegativeContractWarning)
            inst = gen_random(
                GenParams(n_firms, n_workers, (1, 3), values, 0.8, forced, forced, seed=seed)
            )
        self.assert_invariant(inst, seed)

    @pytest.mark.filterwarnings("ignore::contractmatch.NegativeContractWarning")
    def test_seeded_markets_with_witnesses(self):
        # The markets of the Fraction-oracle test and the builtins, among
        # which five properties fail; pair- and group-tradeoff, and
        # firm-pareto on the runs, are theorems.
        markets = list(TestBatteryMatchesFractionOracles().markets())
        markets += [builtin(name) for name in BUILTIN_NAMES]
        witnessed = set()
        for k, inst in enumerate(markets):
            for report in self.assert_invariant(inst, k):
                if isinstance(report, PropertyReport) and report.witnesses:
                    witnessed.add(report.name)
        assert witnessed == {
            "pairwise-efficiency",
            "disjoint-yields",
            "firm-optimality",
            "employment-invariance",
            "sides-opposed",
        }

    def assert_invariant(self, inst, seed):
        """Assert the relation on `inst` and the image ordinal_map makes of
        it under `seed`; return the reports on `inst`."""
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NegativeContractWarning)
            data, maps = ordinal_map(instance_to_dict(inst), random.Random(seed))
            image = instance_from_dict(data)
        reports = list(self.reports(inst))
        for report, mapped in zip(reports, self.reports(image), strict=True):
            if isinstance(report, PropertyReport):
                assert mapped == self.moved_report(report, maps)
            else:
                assert mapped == report
        return reports


def run_battery(battery):
    """Every property of the battery, in the `verify` command's order."""
    for prop in PROPERTY_NAMES:
        try:
            battery.run(prop)
        except ContractMatchError:
            pass


def count_hypothesis_calls(monkeypatch):
    """The calls made from here on to the two hypothesis checkers, by name."""
    calls = {"is_pairwise_efficient": 0, "has_disjoint_yields": 0}

    def counted(attr):
        checker = getattr(verify, attr)

        def wrapper(inst):
            calls[attr] += 1
            return checker(inst)

        return wrapper

    for attr in calls:
        monkeypatch.setattr(verify, attr, counted(attr))
    return calls


@pytest.mark.parametrize(
    "args, message",
    [
        (("pairwise-efficiency",), "precondition not met: pairwise-efficiency"),
        (("group", "group contains unknown agents"), "group contains unknown agents"),
    ],
    ids=["precondition-only", "with-message"],
)
def test_precondition_error_survives_copy_and_pickle(args, message):
    exc = PreconditionViolatedError(*args)
    for twin in (exc, copy.copy(exc), pickle.loads(pickle.dumps(exc))):
        assert type(twin) is PreconditionViolatedError
        assert (str(twin), twin.precondition) == (message, args[0])


class TestBatteryMemo:
    @pytest.mark.parametrize("name", ["illustration", "illustration-modified", "worker-tie"])
    def test_one_call_each_per_default_battery(self, monkeypatch, name):
        calls = count_hypothesis_calls(monkeypatch)
        run_battery(PropertyBattery(builtin(name)))
        assert calls == {"is_pairwise_efficient": 1, "has_disjoint_yields": 1}

    def test_failed_hypotheses_raise_the_same_error_twice(self, monkeypatch, illustration):
        # Firm 1 earns 1 with either worker, so disjoint yields fail. The
        # battery keeps the error as a copy and raises a copy of it again.
        calls = count_hypothesis_calls(monkeypatch)
        battery = PropertyBattery(illustration)
        for _ in range(2):
            with pytest.raises(PreconditionViolatedError) as err:
                battery.run("firm-optimality")
            assert str(err.value) == "precondition not met: disjoint-yields"
            assert err.value.precondition == "disjoint-yields"
        assert calls == {"is_pairwise_efficient": 1, "has_disjoint_yields": 1}

    def test_is_freed_without_a_collection_when_properties_raise(self, modified, illustration):
        # Three properties raise on the first market; on the second the core
        # search exceeds its budget, an error the battery keeps for the
        # properties that need the core. A battery that kept the errors
        # raised would sit in a reference cycle through their tracebacks.
        for inst, budget in ((modified, None), (illustration, EnumerationBudget(2))):
            battery = PropertyBattery(inst, budget)
            run_battery(battery)
            freed = weakref.ref(battery)
            gc.disable()
            try:
                del battery
                assert freed() is None
            finally:
                gc.enable()
