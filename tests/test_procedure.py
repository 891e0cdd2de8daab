import importlib.util
import random
import warnings
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from contractmatch import (
    POLICIES,
    Allocation,
    BudgetExceededError,
    EnumerationBudget,
    GenParams,
    NegativeContractWarning,
    NotTwoSidedError,
    Outcome,
    Proposal,
    TieBreakPolicy,
    build_proposal_space,
    enumerate_core,
    enumerate_procedure_outcomes,
    gen_random,
    instance_from_dict,
    instance_to_dict,
    is_stable,
    is_weakly_pareto_optimal_for_firms,
    outcome_is_feasible,
    outcome_to_dict,
    run_procedure,
    solve,
)
from markets import corpus_params, instance_of, menu, ordinal_map, outcome_of, two_sided
from oracles import (
    NotSingletonMenusError,
    classic_da,
    menus_of,
    oracle_run_procedure,
    oracle_tie_outcomes,
    relabelled,
)

# bench/reference.py, as the benchmark and CI use it: market checks written
# apart from the package, sharing no code with it.
_spec = importlib.util.spec_from_file_location(
    "reference", Path(__file__).resolve().parents[1] / "bench" / "reference.py"
)
reference = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reference)


def firm_payoff(proposal):
    """What the proposal's contract pays its firm."""
    return proposal.allocation[proposal.firm]


def singleton_instances(n, start_seed, value_range=(0, 5)):
    for seed in range(start_seed, start_seed + n):
        yield gen_random(
            GenParams(
                n_firms=1 + seed % 4,
                n_workers=1 + (seed // 4) % 4,
                contracts_per_pair=(1, 1),
                value_range=value_range,
                menu_density=0.8,
                seed=seed,
            )
        )


class TestProposalSpace:
    def test_firm_one_list_order(self, illustration):
        space = build_proposal_space(illustration)
        got = [
            (p.worker, firm_payoff(p), p.worker_payoff)
            for p in space[1]
        ]
        # best own payoff first; the payoff-1 tie goes to the lower worker id
        assert got == [(4, 4, 1), (3, 3, 1), (3, 1, 3), (4, 1, 4)]

    def test_high_worker_policy_flips_tie_order(self, illustration):
        space = build_proposal_space(illustration, POLICIES["high-worker"])
        got = [(p.worker, firm_payoff(p)) for p in space[1]]
        assert got == [(4, 4), (3, 3), (4, 1), (3, 1)]

    def test_zero_payoff_contracts_are_not_proposable(self):
        inst = two_sided(
            [menu((1, 2), [{1: 0, 2: 5}])], firms=(1,), workers=(2,)
        )
        space = build_proposal_space(inst)
        assert space[1] == ()

    def test_requires_partition(self, gs4):
        with pytest.raises(NotTwoSidedError):
            build_proposal_space(gs4)

    def test_integer_keys_give_the_fraction_key_order(self):
        # Amounts -1..2 in halves, thirds and sixths, 3 contracts per pair:
        # mixed denominators and many payoff ties.
        amounts = [Fraction(n, d) for n in range(-1, 13) for d in (1, 2, 3, 6) if n <= 2 * d]
        rng = random.Random(11)
        ties = 0
        for seed in range(120):
            n_firms, n_workers = 1 + seed % 4, 1 + (seed // 4) % 5
            ids = rng.sample(range(1, 40), n_firms + n_workers)
            firms, workers = ids[:n_firms], ids[n_firms:]
            menus = [
                menu(
                    (f, w), [{f: rng.choice(amounts), w: rng.choice(amounts)} for _ in range(3)]
                )
                for f in firms
                for w in workers
                if rng.random() < 0.8
            ]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", NegativeContractWarning)
                inst = two_sided(menus, firms=firms, workers=workers)
            for policy in POLICIES.values():
                side = 1 if policy.firm_prefers_low_worker else -1
                for f, got in build_proposal_space(inst, policy).items():
                    proposable = [
                        Proposal(f, sum(m.pair) - f, c)
                        for m in menus_of(inst)
                        if f in m.pair
                        for c in m.contracts
                        if c[f] > 0
                    ]
                    expected = sorted(
                        proposable, key=lambda p: (-firm_payoff(p), side * p.worker, p.allocation)
                    )
                    assert list(got) == expected, (seed, policy, f)
                    ties += len({firm_payoff(p) for p in got}) < len(got)
        assert ties >= 100


class TestRunProcedure:
    def test_illustration_run_matches_worked_example(self, illustration):
        outcome, trace = run_procedure(illustration)
        assert outcome == outcome_of(
            illustration, [(1, 3), (2, 4)], {1: 3, 2: 4, 3: 1, 4: 2}
        )
        s1 = trace.steps[0]
        # both firms court worker 4 first; worker 4 keeps firm 2
        assert s1.proposers == (1, 2)
        assert {f: p.worker for f, p in s1.proposals.items()} == {1: 4, 2: 4}
        assert [(p.firm, p.worker) for p in s1.rejected] == [(1, 4)]
        assert s1.held[4].firm == 2
        s2 = trace.steps[1]
        assert s2.proposers == (1,)
        assert s2.proposals[1].worker == 3
        assert firm_payoff(s2.proposals[1]) == 3
        assert trace.steps[-1].proposers == ()
        assert trace.steps[-1].stage == 3

    def test_no_menus_means_everyone_single(self):
        inst = two_sided([], firms=(1, 2), workers=(3,))
        outcome, trace = run_procedure(inst)
        assert outcome.matching.pairs == ()
        assert all(v == 0 for _, v in outcome.payoffs)
        assert trace.steps[-1].stage == 1
        assert trace.steps[0].proposers == ()

    def test_modified_run_depends_on_firm_tie_rule(self, modified):
        low, _ = run_procedure(modified, POLICIES["default"])
        assert low == outcome_of(modified, [(1, 3), (2, 4)], {1: 3, 2: 4, 3: 1, 4: 2})
        high, _ = run_procedure(modified, POLICIES["high-worker"])
        assert high == outcome_of(modified, [(1, 4), (2, 3)], {1: 3, 2: 3, 3: 2, 4: 3})

    def test_requires_partition(self, gs4):
        with pytest.raises(NotTwoSidedError):
            run_procedure(gs4)

    def test_deterministic_by_instance_and_policy(self):
        for inst in singleton_instances(5, 900):
            a = run_procedure(inst, POLICIES["default"])
            b = run_procedure(inst, POLICIES["default"])
            assert a == b

    @pytest.mark.parametrize("seed", range(3))
    def test_solve_is_the_run_without_its_trace(self, seed):
        # Amounts 0..5 over 10 x 10 markets tie often on both sides; the
        # gate-5 corpus is checked in TestEngineMatchesOracle.
        inst = gen_random(GenParams(10, 10, (1, 3), (0, 5), 1.0, seed=seed))
        for policy in POLICIES.values():
            assert solve(inst, policy) == run_procedure(inst, policy)[0]

    def test_workers_never_drop_a_held_proposal_for_nothing(self, modified):
        _, trace = run_procedure(modified, POLICIES["high-worker"])
        held_before: dict = {}
        for step in trace.steps:
            for w, p in held_before.items():
                assert w in step.held
                assert step.held[w].worker_payoff >= p.worker_payoff
            held_before = step.held


class TestProcedureProperties:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_outcome_is_always_stable(self, seed):
        inst = gen_random(
            GenParams(
                n_firms=1 + seed % 4,
                n_workers=1 + (seed // 4) % 4,
                contracts_per_pair=(1, 3),
                value_range=(0, 5),
                menu_density=0.8,
                seed=seed,
            )
        )
        for policy in POLICIES.values():
            outcome, _ = run_procedure(inst, policy)
            assert is_stable(inst, outcome)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        n_firms=st.integers(6, 12),
        n_workers=st.integers(6, 12),
        low=st.sampled_from([0, -3]),
        pairwise_efficient=st.booleans(),
        disjoint_yields=st.booleans(),
        density=st.sampled_from([0.5, 0.8, 1.0]),
        seed=st.integers(0, 10**6),
    )
    def test_outcome_is_stable_and_firm_pareto_above_corpus_sizes(
        self, n_firms, n_workers, low, pairwise_efficient, disjoint_yields, density, seed
    ):
        # Disjoint yields need up to 12 * 3 distinct amounts per agent.
        high = low + (40 if disjoint_yields else 5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NegativeContractWarning)
            inst = gen_random(
                GenParams(
                    n_firms=n_firms,
                    n_workers=n_workers,
                    contracts_per_pair=(1, 3),
                    value_range=(low, high),
                    menu_density=density,
                    force_pairwise_efficient=pairwise_efficient,
                    force_disjoint_yields=disjoint_yields,
                    seed=seed,
                )
            )
        for policy in POLICIES.values():
            outcome, _ = run_procedure(inst, policy)
            assert outcome_is_feasible(inst, outcome)
            assert is_stable(inst, outcome)
            assert is_weakly_pareto_optimal_for_firms(inst, outcome).holds

    def test_monotonicity_and_termination(self):
        for seed in range(40):
            inst = gen_random(
                GenParams(
                    n_firms=1 + seed % 4,
                    n_workers=1 + (seed // 4) % 4,
                    contracts_per_pair=(1, 3),
                    value_range=(0, 5),
                    menu_density=0.8,
                    seed=5000 + seed,
                )
            )
            space = build_proposal_space(inst)
            _, trace = run_procedure(inst)
            # each firm's proposed payoff never increases from stage to stage
            last_offer: dict = {}
            held_payoff: dict = {}
            for step in trace.steps:
                for f, p in step.proposals.items():
                    if f in last_offer:
                        assert firm_payoff(p) <= last_offer[f]
                    last_offer[f] = firm_payoff(p)
                for w, p in step.held.items():
                    if w in held_payoff:
                        assert p.worker_payoff >= held_payoff[w]
                    held_payoff[w] = p.worker_payoff
            assert trace.steps[-1].stage <= 1 + sum(
                len(ps) for ps in space.values()
            )

    def test_held_proposal_is_always_a_best_available(self):
        for seed in range(25):
            inst = gen_random(
                GenParams(
                    n_firms=1 + seed % 3,
                    n_workers=1 + (seed // 3) % 3,
                    contracts_per_pair=(1, 3),
                    value_range=(0, 5),
                    menu_density=0.9,
                    seed=6000 + seed,
                )
            )
            _, trace = run_procedure(inst)
            prev_held: dict = {}
            for step in trace.steps:
                for w, p in step.held.items():
                    candidates = list(step.acceptable.get(w, ()))
                    if w in prev_held:
                        candidates.append(prev_held[w])
                    if candidates:
                        assert p.worker_payoff == max(
                            c.worker_payoff for c in candidates
                        )
                prev_held = step.held


class TestEnumerateTieBreaks:
    def test_illustration_reaches_one_outcome(self, illustration):
        outs = enumerate_procedure_outcomes(illustration)
        assert outs == [
            outcome_of(illustration, [(1, 3), (2, 4)], {1: 3, 2: 4, 3: 1, 4: 2})
        ]

    def test_modified_reaches_exactly_both(self, modified):
        outs = enumerate_procedure_outcomes(modified)
        assert outs == sorted(
            [
                outcome_of(modified, [(1, 3), (2, 4)], {1: 3, 2: 4, 3: 1, 4: 2}),
                outcome_of(modified, [(1, 4), (2, 3)], {1: 3, 2: 3, 3: 2, 4: 3}),
            ],
            key=Outcome.sort_key,
        )

    def test_no_menus_reaches_only_all_singles(self):
        inst = two_sided([], firms=(1,), workers=(2,))
        outs = enumerate_procedure_outcomes(inst)
        assert len(outs) == 1 and outs[0].matching.pairs == ()

    def test_every_policy_outcome_is_reachable(self, modified):
        reachable = set(enumerate_procedure_outcomes(modified))
        for policy in POLICIES.values():
            outcome, _ = run_procedure(modified, policy)
            assert outcome in reachable

    def test_branch_budget(self, modified):
        with pytest.raises(BudgetExceededError):
            enumerate_procedure_outcomes(modified, EnumerationBudget(max_outcomes=1))


def assert_engine_matches_oracle(inst, cap=None):
    """Same tie outcomes, same run count and same traces as the Fraction engine."""
    budget = EnumerationBudget(cap) if cap else None
    try:
        expected, runs = oracle_tie_outcomes(inst, budget)
    except BudgetExceededError:
        with pytest.raises(BudgetExceededError):
            enumerate_procedure_outcomes(inst, budget)
        return 0
    assert enumerate_procedure_outcomes(inst, EnumerationBudget(runs)) == expected
    if runs > 1:
        with pytest.raises(BudgetExceededError):
            enumerate_procedure_outcomes(inst, EnumerationBudget(runs - 1))
    for policy in POLICIES.values():
        outcome, trace = run_procedure(inst, policy)
        assert (outcome, trace) == oracle_run_procedure(inst, policy)
        assert solve(inst, policy) == outcome
    return runs


class TestEngineMatchesOracle:
    """The int engine against the Fraction engine it replaced (tests/oracles.py)."""

    def test_gate5_corpus(self):
        runs = sum(assert_engine_matches_oracle(gen_random(corpus_params(s))) for s in range(500))
        assert runs == 20_329

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        n_firms=st.integers(1, 4),
        n_workers=st.integers(1, 4),
        low=st.sampled_from([0, -2]),
        density=st.sampled_from([0.5, 0.8, 1.0]),
        seed=st.integers(0, 10**6),
    )
    def test_ties_on_both_sides(self, n_firms, n_workers, low, density, seed):
        # Amounts 0..3 or -2..3 tie often for firms and for workers alike.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NegativeContractWarning)
            inst = gen_random(
                GenParams(n_firms, n_workers, (1, 3), (low, 3), density, seed=seed)
            )
        assert_engine_matches_oracle(inst, cap=20_000)

    def test_a_seeded_60_by_60_trace(self):
        # Ties on both sides and 110 to 136 stages, by policy.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NegativeContractWarning)
            inst = relabelled(gen_random(GenParams(60, 60, (1, 4), (0, 5), 0.8, seed=3)), 3)
        for policy in POLICIES.values():
            outcome, trace = run_procedure(inst, policy)
            assert 110 <= len(trace.steps) <= 136, policy
            assert (outcome, trace) == oracle_run_procedure(inst, policy), policy


class TestClassicDA:
    def test_single_pair_with_positive_payoffs_matches(self):
        inst = two_sided(
            [menu((1, 2), [{1: 2, 2: 3}])], firms=(1,), workers=(2,)
        )
        assert classic_da(inst) == outcome_of(inst, [(1, 2)], {1: 2, 2: 3})

    def test_worker_zero_payoff_means_unacceptable(self):
        # A worker accepts an offer paying exactly zero, as run_procedure
        # does, so the pair matches at (3, 0).
        inst = two_sided(
            [menu((1, 2), [{1: 3, 2: 0}])], firms=(1,), workers=(2,)
        )
        outcome = classic_da(inst)
        assert outcome == outcome_of(inst, [(1, 2)], {1: 3, 2: 0})

    def test_rejects_multi_contract_menus(self, illustration):
        with pytest.raises(NotSingletonMenusError):
            classic_da(illustration)

    def test_rejects_room_mates(self):
        inst = instance_of((1, 2), [menu((1, 2), [{1: 1, 2: 1}])])
        with pytest.raises(NotTwoSidedError):
            classic_da(inst)

    def test_agrees_with_singleton_projection_of_illustration(self, illustration):
        # keep each pair's firm-best contract only
        firm_best = two_sided(
            [
                menu((1, 3), [{1: 3, 3: 1}]),
                menu((1, 4), [{1: 4, 4: 1}]),
                menu((2, 3), [{2: 3, 3: 2}]),
                menu((2, 4), [{2: 4, 4: 2}]),
            ],
            firms=(1, 2),
            workers=(3, 4),
        )
        da = classic_da(firm_best)
        run, _ = run_procedure(firm_best, POLICIES["strict-list"])
        assert da == run
        assert da.matching == run_procedure(illustration)[0].matching

    def test_matches_generalized_run_on_random_singleton_menus(self):
        # "strict-list" resolves ties from the same fixed ranking classic_da
        # uses, so the two implementations must coincide exactly.
        for inst in singleton_instances(150, 0):
            da = classic_da(inst)
            run, _ = run_procedure(inst, POLICIES["strict-list"])
            assert da == run

    def test_all_policies_agree_when_payoffs_are_tie_free(self):
        # distinct amounts everywhere: tie-break policies cannot matter
        for seed in range(60):
            inst = gen_random(
                GenParams(
                    n_firms=2,
                    n_workers=2,
                    contracts_per_pair=(1, 1),
                    value_range=(1, 50),
                    menu_density=1.0,
                    force_disjoint_yields=True,
                    seed=7000 + seed,
                )
            )
            da = classic_da(inst)
            for policy in POLICIES.values():
                run, _ = run_procedure(inst, policy)
                assert run.matching == da.matching


def without_unproposed(inst, trace, rng):
    """The dict form of `inst` with each contract the traced run never
    proposed deleted with probability 1/2; a menu left with no contract
    goes too.

    A contract is matched to the trace's proposals by its Fraction
    amounts, read from the dict form, so no engine code is shared.
    """
    proposed = {
        p.allocation.payments for step in trace.steps for p in step.proposals.values()
    }
    data = instance_to_dict(inst)
    menus = []
    for m in data["menus"]:
        contracts = [
            c for c in m["contracts"]
            if tuple(sorted((int(a), Fraction(x)) for a, x in c.items())) in proposed
            or rng.random() < 0.5
        ]
        if contracts:
            menus.append({"pair": m["pair"], "contracts": contracts})
    return {**data, "menus": menus}


def assert_dead_contracts_change_nothing(inst, seed):
    """Under each policy, deleting contracts the run never proposed leaves
    its outcome and its trace as they were; returns how many were deleted."""
    deleted = 0
    for policy in POLICIES.values():
        run = run_procedure(inst, policy)
        data = without_unproposed(inst, run[1], random.Random(seed))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NegativeContractWarning)
            smaller = instance_from_dict(data)
        assert run_procedure(smaller, policy) == run, (seed, policy)
        deleted += len(inst.xs) - len(smaller.xs)
    return deleted


class TestDeadContracts:
    """A relation that holds at any size: the run never looks past the last
    contract it proposed, so deleting any it did not propose changes
    nothing."""

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(
        n_firms=st.integers(1, 6),
        n_workers=st.integers(1, 6),
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
        assert_dead_contracts_change_nothing(inst, seed)

    def test_a_seeded_60_by_60_market(self):
        inst = gen_random(GenParams(60, 60, (1, 3), (0, 6), 0.8, seed=60))
        assert assert_dead_contracts_change_nothing(inst, 60) > 1000


def moved(outcome, maps):
    """The payoffs of `outcome`, each moved by its agent's map."""
    return tuple([(a, maps[a][v]) for a, v in outcome.payoffs])


class TestOrdinalInvariance:
    """A relation that holds at any size: every rule compares amounts of
    one agent, or an amount with 0, so moving each agent's amounts by a
    strictly increasing map that fixes 0 keeps each run's matching and
    moves its payoffs by the maps; the core's outcomes and the tie list
    move the same way. The transform works on the dict form and shares no
    code with the engine."""

    @settings(max_examples=120, deadline=None, derandomize=True)
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
            data, maps = ordinal_map(instance_to_dict(inst), random.Random(seed))
            image = instance_from_dict(data)
        for policy in POLICIES.values():
            run, mapped = run_procedure(inst, policy)[0], run_procedure(image, policy)[0]
            assert mapped.matching == run.matching, policy
            assert mapped.payoffs == moved(run, maps), policy
        core = enumerate_core(inst)
        assert [(o.matching, o.payoffs) for o in enumerate_core(image)] == [
            (o.matching, moved(o, maps)) for o in core
        ]
        # The tie list keeps its order: outcomes sort by matching, then by
        # each agent's payoff in id order, and the maps keep every payoff
        # comparison of one agent.
        ties = enumerate_procedure_outcomes(inst)
        assert [(o.matching, o.payoffs) for o in enumerate_procedure_outcomes(image)] == [
            (o.matching, moved(o, maps)) for o in ties
        ]

    def test_a_seeded_50_by_50_market(self):
        inst = gen_random(GenParams(50, 50, (1, 3), (0, 6), 0.8, seed=50))
        data, maps = ordinal_map(instance_to_dict(inst), random.Random(50))
        run, mapped = solve(inst), solve(instance_from_dict(data))
        assert len(run.matching.pairs) > 40
        assert mapped.matching == run.matching
        assert mapped.payoffs == moved(run, maps)


def test_solve_passes_the_reference_checks_on_a_seeded_60_by_60_market():
    # bench/reference.py reads the market and the outcome from their JSON
    # forms: the outcome is feasible, no pair blocks it, and no feasible
    # outcome pays every firm more.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NegativeContractWarning)
        inst = relabelled(gen_random(GenParams(60, 60, (1, 3), (0, 6), 0.8, seed=61)), 61)
    record = outcome_to_dict(solve(inst))
    m = reference.Market(instance_to_dict(inst))
    pairs, v = m.outcome(record)
    assert len(pairs) > 50
    assert m.scale == 6  # halves and thirds
    assert reference.is_feasible(m, pairs, v)
    assert not reference.blocking(m, v)
    assert reference.firm_dominating_assignment(m, v) is None
