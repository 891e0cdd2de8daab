from fractions import Fraction

import pytest

from contractmatch import (
    Allocation,
    GenParams,
    InfeasibleParamsError,
    NegativeContractWarning,
    UnknownNameError,
    builtin,
    gen_random,
    has_disjoint_yields,
    is_pairwise_efficient,
    instance_from_dict,
    instance_to_dict,
)
from oracles import menu_for


class TestBuiltins:
    def test_gs4_contents(self, gs4):
        assert gs4.agents == (1, 2, 3, 4)
        assert not gs4.two_sided
        assert len(gs4.menus) == 6
        menu12 = menu_for(gs4, 1, 2)
        assert menu12.contracts == (
            Allocation(((1, 3), (2, 2))),
            Allocation(((1, 0), (2, 0))),
        )
        menu34 = menu_for(gs4, 3, 4)
        assert menu34.contracts[0] == Allocation(((3, 1), (4, 1)))

    def test_illustration_contents(self, illustration):
        assert illustration.firms == (1, 2)
        assert illustration.workers == (3, 4)
        assert menu_for(illustration, 2, 4).contracts == (
            Allocation(((2, 4), (4, 2))),
            Allocation(((2, 2), (4, 4))),
        )

    def test_modified_changes_only_pair_14(self, illustration, modified):
        assert menu_for(modified, 1, 4).contracts == (
            Allocation(((1, 4), (4, 1))),
            Allocation(((1, 3), (4, 3))),
        )
        for pair in ((1, 3), (2, 3), (2, 4)):
            assert menu_for(modified, *pair) == menu_for(illustration, *pair)

    def test_unknown_name(self):
        with pytest.raises(UnknownNameError):
            builtin("nope")


class TestGenRandom:
    def test_same_seed_same_instance(self):
        p = GenParams(n_firms=3, n_workers=2, seed=42)
        assert gen_random(p) == gen_random(p)

    def test_different_seeds_usually_differ(self):
        a = gen_random(GenParams(n_firms=3, n_workers=3, seed=1))
        b = gen_random(GenParams(n_firms=3, n_workers=3, seed=2))
        assert a != b

    def test_zero_density_means_no_menus(self):
        inst = gen_random(GenParams(n_firms=2, n_workers=2, menu_density=0.0, seed=7))
        assert inst.menus == ()

    def test_generated_instances_are_valid_and_canonical(self):
        for seed in range(50):
            inst = gen_random(
                GenParams(n_firms=1 + seed % 4, n_workers=1 + seed % 3, seed=seed)
            )
            assert instance_from_dict(instance_to_dict(inst)) == inst
            assert inst.two_sided

    def test_forced_flags_hold_on_100_samples(self):
        for seed in range(100):
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
            assert is_pairwise_efficient(inst).holds
            assert has_disjoint_yields(inst).holds

    def test_forced_disjoint_yields_alone(self):
        for seed in range(30):
            inst = gen_random(
                GenParams(
                    n_firms=2,
                    n_workers=3,
                    contracts_per_pair=(1, 2),
                    value_range=(0, 9),
                    force_disjoint_yields=True,
                    seed=seed,
                )
            )
            assert has_disjoint_yields(inst).holds

    def test_forced_pairwise_efficiency_alone(self):
        for seed in range(30):
            inst = gen_random(
                GenParams(
                    n_firms=2,
                    n_workers=2,
                    contracts_per_pair=(2, 3),
                    value_range=(0, 9),
                    force_pairwise_efficient=True,
                    seed=seed,
                )
            )
            assert is_pairwise_efficient(inst).holds

    def test_disjoint_pools_can_run_out(self):
        with pytest.raises(InfeasibleParamsError):
            gen_random(
                GenParams(
                    n_firms=1,
                    n_workers=4,
                    contracts_per_pair=(3, 3),
                    value_range=(1, 4),  # 12 distinct amounts needed, 4 available
                    force_disjoint_yields=True,
                    seed=0,
                )
            )

    def test_param_validation(self):
        with pytest.raises(InfeasibleParamsError):
            gen_random(GenParams(n_firms=0, n_workers=1))
        with pytest.raises(InfeasibleParamsError):
            gen_random(GenParams(n_firms=1, n_workers=1, contracts_per_pair=(2, 1)))
        with pytest.raises(InfeasibleParamsError):
            gen_random(GenParams(n_firms=1, n_workers=1, value_range=(5, 0)))
        with pytest.raises(InfeasibleParamsError):
            gen_random(GenParams(n_firms=1, n_workers=1, menu_density=1.5))

    @pytest.mark.parametrize(
        "params",
        [
            GenParams(n_firms=1001, n_workers=1),
            GenParams(n_firms=1, n_workers=10**12),
            GenParams(n_firms=1, n_workers=1, contracts_per_pair=(1, 101)),
            GenParams(n_firms=1, n_workers=1, contracts_per_pair=(1, 10**11)),
            GenParams(n_firms=500, n_workers=501, contracts_per_pair=(1, 1)),
            GenParams(n_firms=50, n_workers=50, contracts_per_pair=(1, 101)),
            GenParams(n_firms=1, n_workers=1, value_range=(0, 10**12)),
            GenParams(n_firms=1, n_workers=1, value_range=(-(10**9) - 1, 0)),
        ],
        ids=["firms", "huge-workers", "contracts", "huge-contracts", "total", "total-per-pair",
             "huge-amount", "negative-amount"],
    )
    def test_size_caps_refuse_before_building(self, params):
        with pytest.raises(InfeasibleParamsError):
            gen_random(params)

    def test_size_caps_admit_their_limits(self):
        # The widest amount range draws without listing its 2 * 10**9 values.
        with pytest.warns(NegativeContractWarning):
            inst = gen_random(
                GenParams(n_firms=1, n_workers=1, contracts_per_pair=(100, 100),
                          value_range=(-(10**9), 10**9), seed=3)
            )
        assert len(inst.menus[0].contracts) == 100
        wide = gen_random(GenParams(n_firms=1000, n_workers=250, contracts_per_pair=(1, 1),
                                    menu_density=0.0))
        assert len(wide.agents) == 1250 and not wide.menus

    def test_agent_ids_are_firms_then_workers(self):
        inst = gen_random(GenParams(n_firms=2, n_workers=3, seed=5))
        assert inst.firms == (1, 2)
        assert inst.workers == (3, 4, 5)
