import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from contractmatch import (
    BUILTIN_NAMES,
    Allocation,
    BudgetExceededError,
    EnumerationBudget,
    GenParams,
    InfeasibleOutcomeError,
    InfeasibleParamsError,
    blocking_coalitions,
    builtin,
    enumerate_core,
    enumerate_outcomes,
    gen_random,
    instance_from_dict,
    instance_to_dict,
    is_stable,
    outcome_is_feasible,
    run_procedure,
)
from contractmatch.stability import payoffs_are_blocked
from markets import instance_of, menu, ordinal_map, outcome_of, renamed
from oracles import (
    oracle_blocking,
    oracle_core,
    oracle_core_examined,
    oracle_ordered_core,
    oracle_outcomes,
    relabelled,
    seeded_pool,
)


def payoff_tuple(outcome):
    return tuple(v for _, v in outcome.payoffs)


class TestBlocking:
    def test_gs4_pair_34_is_blocked_by_23(self, gs4):
        # 3 and 4 collaborate at (1, 1); 2 and 3 can instead take (3, 2)
        o = outcome_of(gs4, [(3, 4)], {3: 1, 4: 1})
        certs = blocking_coalitions(gs4, o)
        assert (
            (2, 3),
            Allocation(((2, 3), (3, 2))),
        ) in [(c.coalition, c.allocation) for c in certs]

    def test_illustration_stable_outcome_has_no_certificates(self, illustration):
        o = outcome_of(illustration, [(1, 3), (2, 4)], {1: 3, 2: 4, 3: 1, 4: 2})
        assert blocking_coalitions(illustration, o) == []

    def test_every_positive_menu_blocks_all_singles(self, illustration):
        o = outcome_of(illustration, [], {})
        certs = blocking_coalitions(illustration, o)
        # every contract of every menu pays both members more than zero
        assert len(certs) == 8
        # canonical order: pairs ascending, contracts in menu order
        assert [c.coalition for c in certs] == [
            (1, 3), (1, 3), (1, 4), (1, 4), (2, 3), (2, 3), (2, 4), (2, 4)
        ]

    def test_infeasible_outcome_raises(self, illustration):
        bad = outcome_of(illustration, [(1, 3)], {1: 99, 3: 1})
        with pytest.raises(InfeasibleOutcomeError):
            blocking_coalitions(illustration, bad)
        with pytest.raises(InfeasibleOutcomeError):
            is_stable(illustration, bad)

    def test_certificates_replay_as_strict_improvements(self, gs4):
        for o in enumerate_outcomes(gs4):
            v = o.payoff_map()
            for cert in blocking_coalitions(gs4, o):
                a, b = cert.coalition
                assert cert.allocation[a] > v[a] and cert.allocation[b] > v[b]

    # Each market is also checked relabelled, with firm ids above some
    # worker ids, and with amounts in halves and thirds (see `relabelled`).

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_agrees_with_naive_double_loop(self, seed):
        inst = gen_random(
            GenParams(
                n_firms=1 + seed % 3,
                n_workers=1 + (seed // 3) % 3,
                contracts_per_pair=(1, 3),
                value_range=(0, 5),
                menu_density=0.8,
                seed=seed,
            )
        )
        for market in (inst, relabelled(inst, seed)):
            for o in enumerate_outcomes(market)[:40]:
                got = [(c.coalition, c.allocation) for c in blocking_coalitions(market, o)]
                assert got == oracle_blocking(market, o.payoff_map())

    def test_agrees_with_naive_double_loop_across_200_instances(self):
        # Each outcome's payoffs are also moved by 1/1009 to 3/1009 either
        # way, some below zero: payoffs that are no level of the market,
        # which payoffs_are_blocked must round down, not toward zero.
        rng = random.Random(5)
        flipped = 0
        off_verdicts = {True: 0, False: 0}
        for seed in range(200):
            inst = gen_random(
                GenParams(
                    n_firms=1 + seed % 4,
                    n_workers=1 + (seed // 4) % 4,
                    contracts_per_pair=(1, 3),
                    value_range=(0, 5),
                    menu_density=0.8,
                    seed=8000 + seed,
                )
            )
            copy = relabelled(inst, seed)
            flipped += any(f > w for f in copy.firms for w in copy.workers)
            for market in (inst, copy):
                for o in enumerate_outcomes(market)[:10]:
                    got = [(c.coalition, c.allocation) for c in blocking_coalitions(market, o)]
                    assert got == oracle_blocking(market, o.payoff_map())
                    assert is_stable(market, o) == (got == [])
                    off = {
                        a: v + rng.choice([-1, 1]) * Fraction(rng.randint(1, 3), 1009)
                        for a, v in o.payoffs
                    }
                    verdict = payoffs_are_blocked(market, off)
                    assert verdict == bool(oracle_blocking(market, off))
                    off_verdicts[verdict] += 1
        assert flipped >= 100
        assert min(off_verdicts.values()) >= 200


class TestStability:
    def test_illustration_reference_outcome_is_stable(self, illustration):
        o = outcome_of(illustration, [(1, 3), (2, 4)], {1: 3, 2: 4, 3: 1, 4: 2})
        assert is_stable(illustration, o)

    def test_modified_second_outcome_is_stable(self, modified):
        o = outcome_of(modified, [(1, 4), (2, 3)], {1: 3, 2: 3, 3: 2, 4: 3})
        assert is_stable(modified, o)

    def test_gs4_has_no_stable_outcome_at_all(self, gs4):
        outs = enumerate_outcomes(gs4)
        assert outs and all(not is_stable(gs4, o) for o in outs)


class TestCore:
    def test_gs4_core_is_empty(self, gs4):
        assert enumerate_core(gs4) == []

    def test_illustration_core_has_five_outcomes(self, illustration):
        # Verified against the independent involution oracle: besides the
        # proposing-procedure outcome, the worker-favourable selections are
        # stable too, since blocking needs a strict gain on both sides.
        core = enumerate_core(illustration)
        assert [payoff_tuple(o) for o in core] == [
            (3, 4, 1, 2),
            (1, 4, 3, 2),
            (1, 2, 3, 4),
            (1, 3, 2, 4),
            (1, 2, 3, 4),
        ]
        assert core[0] == outcome_of(
            illustration, [(1, 3), (2, 4)], {1: 3, 2: 4, 3: 1, 4: 2}
        )

    def test_modified_core_has_four_outcomes_including_both_runs(self, modified):
        core = enumerate_core(modified)
        assert len(core) == 4
        assert outcome_of(modified, [(1, 3), (2, 4)], {1: 3, 2: 4, 3: 1, 4: 2}) in core
        assert outcome_of(modified, [(1, 4), (2, 3)], {1: 3, 2: 3, 3: 2, 4: 3}) in core

    @pytest.mark.parametrize("fixture", ["gs4", "illustration", "modified"])
    def test_core_matches_oracle(self, fixture, request):
        inst = request.getfixturevalue(fixture)
        got = {(o.matching.pairs, o.payoffs) for o in enumerate_core(inst)}
        assert got == oracle_core(inst)

    def test_core_elements_are_feasible_and_stable(self, modified):
        for o in enumerate_core(modified):
            assert outcome_is_feasible(modified, o)
            assert is_stable(modified, o)

    def test_two_sided_instances_always_have_stable_outcomes(self):
        for seed in range(150):
            inst = gen_random(
                GenParams(
                    n_firms=1 + seed % 3,
                    n_workers=1 + (seed // 3) % 3,
                    contracts_per_pair=(1, 2),
                    value_range=(0, 5),
                    menu_density=0.7,
                    seed=seed,
                )
            )
            core = enumerate_core(inst)
            assert core
            o, _ = run_procedure(inst)
            assert o in core

    def test_room_mates_core_can_be_empty_but_enumeration_still_works(self):
        # a one-pair partnership pool: matched at (1, 1) is the whole core
        inst = instance_of((1, 2), [menu((1, 2), [{1: 1, 2: 1}])])
        core = enumerate_core(inst)
        assert [payoff_tuple(o) for o in core] == [(1, 1)]


def assert_same_search(inst):
    """enumerate_core lists the core of the former search, oracle_core_examined,
    within a budget of exactly the outcomes that search examined, and one
    fewer is exceeded: the two walk the same tree. Returns that core and
    count."""
    core, examined = oracle_core_examined(inst)
    assert enumerate_core(inst, EnumerationBudget(examined)) == core
    if examined > 1:
        cap = examined - 1
        with pytest.raises(
            BudgetExceededError,
            match=f"^more than {cap} outcomes examined; raise the enumeration budget$",
        ):
            enumerate_core(inst, EnumerationBudget(cap))
    return core, examined


class TestCoreSearch:
    """The pruned core search against the outcome sweep it replaced, and
    against the former search, branch count included."""

    @pytest.mark.filterwarnings("ignore::contractmatch.NegativeContractWarning")
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        low=st.sampled_from([-3, 0]),
        high=st.sampled_from([5, 20]),
        efficient=st.booleans(),
        disjoint=st.booleans(),
        density=st.sampled_from([0.5, 0.75, 1.0]),
    )
    def test_equals_the_ordered_sweep_in_every_generator_mode(
        self, seed, low, high, efficient, disjoint, density
    ):
        try:
            inst = gen_random(
                GenParams(
                    n_firms=1 + seed % 4,
                    n_workers=1 + (seed // 4) % 4,
                    contracts_per_pair=(1, 3),
                    value_range=(low, high),
                    menu_density=density,
                    force_pairwise_efficient=efficient,
                    force_disjoint_yields=disjoint,
                    seed=seed,
                )
            )
        except InfeasibleParamsError:
            assume(False)
        for market in (inst, relabelled(inst, seed)):
            core = enumerate_core(market)
            assert core == oracle_ordered_core(market)
            assert_same_search(market)
            # Never more outcomes examined than a sweep of all of them.
            assert enumerate_core(market, EnumerationBudget(len(oracle_outcomes(market)))) == core

    @pytest.mark.filterwarnings("ignore::contractmatch.NegativeContractWarning")
    def test_equals_both_oracles_on_seeded_pools(self):
        for seed in range(300):
            inst = seeded_pool(seed)
            core = enumerate_core(inst)
            assert core == oracle_ordered_core(inst)
            assert {(o.matching.pairs, o.payoffs) for o in core} == oracle_core(inst)
            assert_same_search(inst)
            assert enumerate_core(inst, EnumerationBudget(len(oracle_outcomes(inst)))) == core

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_equals_the_former_search_on_the_builtins(self, name):
        inst = builtin(name)
        assert assert_same_search(inst)[0] == oracle_ordered_core(inst)

    def test_budget_counts_rejected_branches(self, gs4):
        # gs4 has no stable outcome, so every outcome examined is a
        # rejected branch: 7 of them, where the sweep examined all 25.
        with pytest.raises(BudgetExceededError, match="^more than 6 outcomes examined"):
            enumerate_core(gs4, EnumerationBudget(6))
        assert enumerate_core(gs4, EnumerationBudget(7)) == []
        assert len(oracle_outcomes(gs4)) == 25

    def test_depth_is_not_bounded_by_the_recursion_limit(self):
        n = 1200
        menus = [menu((a, a + n), [{a: 1, a + n: 1}]) for a in range(1, n + 1)]
        inst = instance_of(range(1, 2 * n + 1), menus)
        (outcome,) = enumerate_core(inst, EnumerationBudget(5000))
        assert len(outcome.matching.pairs) == n


class TestCoreSearchPastTheOracles:
    """Relations on a strict 12x12 market, far past the outcome sweep."""

    def test_strict_12_by_12_images(self):
        inst = gen_random(GenParams(12, 12, (1, 3), (1, 1000), 1.0, True, True, seed=5))
        core, examined = assert_same_search(inst)
        assert len(core) == 33
        data = instance_to_dict(inst)

        # Each agent's amounts moved by an increasing map that fixes 0: the
        # search compares only one agent's amounts with each other and
        # with 0, so it walks the same tree, to the same matchings.
        image_data, maps = ordinal_map(data, random.Random(5))
        image = instance_from_dict(image_data)
        image_core = enumerate_core(image, EnumerationBudget(examined))
        assert [o.matching for o in image_core] == [o.matching for o in core]
        for o, mapped in zip(core, image_core):
            assert mapped.payoffs == tuple((a, maps[a][v]) for a, v in o.payoffs)
        with pytest.raises(BudgetExceededError, match=f"^more than {examined - 1} outcomes"):
            enumerate_core(image, EnumerationBudget(examined - 1))

        # Each id a renamed 25 - a, so the workers come first: the search
        # assigns agents in another order, which needs more than the
        # default budget, and finds the same outcomes renamed.
        reversed_ = instance_from_dict(renamed(data, lambda a: 25 - a))
        assert reversed_.workers == tuple(range(1, 13))
        back = {
            (
                tuple(sorted(tuple(sorted((25 - a, 25 - b))) for a, b in o.matching.pairs)),
                tuple(sorted((25 - a, v) for a, v in o.payoffs)),
            )
            for o in enumerate_core(reversed_, EnumerationBudget(1_000_000))
        }
        assert back == {(o.matching.pairs, o.payoffs) for o in core}
