import gc
import random
import re
import time
import tracemalloc
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from contractmatch import (
    BUILTIN_NAMES,
    BudgetExceededError,
    DuplicateMenuError,
    EmptyContractSetError,
    EnumerationBudget,
    FormatError,
    GenParams,
    Instance,
    InvalidPartitionError,
    MalformedMenuError,
    Matching,
    NegativeContractWarning,
    Outcome,
    SameSideMenuError,
    UnknownAgentError,
    builtin,
    enumerate_outcomes,
    gen_random,
    instance_from_dict,
    instance_to_dict,
    money_str,
    outcome_from_dict,
    outcome_is_feasible,
    outcome_to_dict,
    parse_money,
)
from contractmatch.model import MAX_MONEY_EXPONENT
from markets import instance_of, many_denominators, menu, outcome_of
from oracles import menus_of, oracle_instance_from_dict, oracle_outcomes, relabelled, seeded_pool


class TestMoney:
    def test_parses_ints_and_strings_exactly(self):
        assert parse_money(3) == Fraction(3)
        assert parse_money("3") == Fraction(3)
        assert parse_money("1.5") == Fraction(3, 2)
        assert parse_money("2/3") == Fraction(2, 3)
        assert parse_money("-4") == Fraction(-4)
        for text, value in [("007", 7), ("6/4", Fraction(3, 2)), ("0/7", 0),
                            ("٣/٢", Fraction(3, 2)), (" 3", 3), ("+3", 3)]:
            assert parse_money(text) == value

    def test_rejects_floats_and_garbage(self):
        with pytest.raises(FormatError):
            parse_money(1.5)
        with pytest.raises(FormatError):
            parse_money(True)
        for text in ("three", "1/0", "3/-2"):
            with pytest.raises(FormatError, match=f"^cannot parse money amount {re.escape(repr(text))}$"):
                parse_money(text)

    def test_exponent_beyond_the_cap_is_a_format_error(self):
        assert parse_money(f"1e{MAX_MONEY_EXPONENT}") == 10**MAX_MONEY_EXPONENT
        assert parse_money(f"1e-{MAX_MONEY_EXPONENT}") == Fraction(1, 10**MAX_MONEY_EXPONENT)
        for text in (f"1e{MAX_MONEY_EXPONENT + 1}", f"2.5E-{MAX_MONEY_EXPONENT + 1}",
                     f" 1e+{MAX_MONEY_EXPONENT + 1} "):
            with pytest.raises(FormatError, match="exponent"):
                parse_money(text)

    def test_underscores_are_rejected_on_every_python(self):
        # Fraction takes PEP 515 underscores from Python 3.11 on.
        for text in ("1_0", "1_000/3", "0.5_0", "1e1_0", "_1"):
            with pytest.raises(FormatError, match=f"^cannot parse money amount {re.escape(repr(text))}$"):
                parse_money(text)

    def test_long_literal_is_cut_in_the_message(self):
        # Digits past Python's limit on integer string conversion are
        # rejected as any unreadable literal is.
        for text in ("1" * 5000 + "x", "1" * 5000, "1" * 5000 + "/2"):
            with pytest.raises(FormatError) as info:
                parse_money(text)
            assert str(info.value) == (
                f"cannot parse money amount {'1' * 40!r}... ({len(text)} characters)"
            )

    def test_money_str_round_trips(self):
        for text in ("3", "-2", "3/2", "7/3"):
            assert money_str(parse_money(text)) == text


class TestValidation:
    def test_builtin_fixtures_are_valid_and_canonical(self, gs4, illustration):
        assert instance_from_dict(instance_to_dict(gs4)) == gs4
        assert instance_from_dict(instance_to_dict(illustration)) == illustration

    def test_contract_naming_one_agent_twice_is_a_format_error(self):
        message = "contract names agent 1 more than once"
        with pytest.raises(FormatError, match=f"^{message}$"):
            instance_of((1, 2), [menu((1, 2), [{"1": 1, "01": 2}])])
        data = {"agents": [1, 2], "menus": [
            {"pair": [1, 2], "contracts": [{"1": "1", "2": "2", "01": "3"}]}
        ]}
        with pytest.raises(FormatError, match=f"^{message}$"):
            instance_from_dict(data)

    def test_ids_past_the_digit_limit_of_str_load_from_ints(self):
        # No id string can name such an agent, so the contract is read entry by entry.
        big = 10**5000
        data = {"agents": [1, big], "firms": [big], "workers": [1],
                "menus": [menu((big, 1), [{big: 2, 1: 3}])]}
        inst = instance_from_dict(data)
        assert (inst.firsts, inst.seconds) == ((big,), (1,))
        assert inst == oracle_instance_from_dict(data)
        assert inst.allocation(big, *inst.xs, 1, *inst.ys).payments == ((1, 3), (big, 2))

    @pytest.mark.parametrize("other", [3, 10**5000 + 1], ids=["one-id-past", "both-ids-past"])
    def test_a_key_past_the_digit_limit_is_no_key_of_the_fast_path(self, other):
        # No key, None included, may stand for an id no string can name:
        # the contract is read entry by entry, and None is no agent id.
        big = 10**5000
        data = {"agents": [big, other], "firms": [big], "workers": [other],
                "menus": [{"pair": [big, other], "contracts": [{None: "1", "4": "2"}]}]}
        for load in (instance_from_dict, oracle_instance_from_dict):
            with pytest.raises(FormatError, match="^agent id must be an integer, got None$"):
                load(data)

    @pytest.mark.parametrize(
        "make, error, message",
        [
            (
                lambda a: instance_of((1, a), [menu((1, a), [{1: 1, a: 1}])], (1, a), ()),
                SameSideMenuError,
                "pair (1, ID) joins two agents on the same side",
            ),
            (
                lambda a: instance_of((1,), [menu((1, a), [{1: 1, a: 1}])]),
                UnknownAgentError,
                "menu references unknown agent ID",
            ),
            (
                lambda a: instance_of((1, 2), (), (1, a), (2,)),
                UnknownAgentError,
                "partition references unknown agent ID",
            ),
            (
                lambda a: instance_of((1, a), [{"pair": [a]}]),
                FormatError,
                "malformed menu entry {'pair': [ID]}",
            ),
            (
                lambda a: instance_of((1, a), [menu((1, a), [])]),
                EmptyContractSetError,
                "menu for pair (1, ID) has no contracts",
            ),
            (
                lambda a: instance_of((1, 2, a), [menu((1, 2), [{1: 1, a: 1}])]),
                MalformedMenuError,
                "contract Allocation({1: 1, ID: 1}) does not cover exactly the pair (1, 2)",
            ),
            (
                lambda a: instance_of((1, 2, 3), [menu((1, 2), [{1: a, 3: 1}])]),
                MalformedMenuError,
                "contract Allocation({1: ID, 3: 1}) does not cover exactly the pair (1, 2)",
            ),
            (
                lambda a: Matching.from_pairs([[1, a, 3]]),
                FormatError,
                "matched pair must list two agents, got [1, ID, 3]",
            ),
            (
                lambda a: outcome_from_dict({"matches": [[1, a]], "payoffs": {1: 0}}),
                FormatError,
                "matched agent ID has no payoff entry",
            ),
        ],
        ids=["same-side", "unknown-menu-agent", "unknown-partition-agent", "malformed-entry",
             "no-contracts", "stray-contract", "stray-contract-amount", "matched-pair",
             "matched-agent-unpaid"],
    )
    def test_an_id_past_the_digit_limit_is_shown_by_its_digit_count(self, make, error, message):
        # 10**5000 has 5001 digits, past the 4,300 Python converts to str by
        # default; an id or an amount within the limit is shown as before.
        for a, shown in ((10**5000, "<5001-digit int>"), (7, "7")):
            with pytest.raises(error) as err:
                make(a)
            assert type(err.value) is error
            assert str(err.value) == message.replace("ID", shown)

    def test_a_value_past_the_digit_limit_is_shown_by_its_type(self):
        # A Fraction's repr meets the limit through its numerator; a value
        # that is not an int, list, tuple or dict is shown by its type.
        data = {"agents": [1, 2], "menus": [{"v": Fraction(10**5000, 3)}]}
        with pytest.raises(FormatError) as err:
            instance_from_dict(data)
        assert type(err.value) is FormatError
        assert str(err.value) == "malformed menu entry {'v': <Fraction too long to show>}"

    def test_normalizes_pair_order(self):
        inst = instance_of((1, 2), [menu((2, 1), [{1: 1, 2: 1}])])
        assert menus_of(inst)[0].pair == (1, 2)
        assert instance_from_dict(instance_to_dict(inst)) == inst

    def test_same_side_menu_rejected(self):
        with pytest.raises(SameSideMenuError):
            instance_of(
                (1, 2, 3),
                [menu((1, 2), [{1: 1, 2: 1}])],
                firms=(1, 2),
                workers=(3,),
            )

    def test_duplicate_menu_rejected(self):
        menus = [
            menu((1, 2), [{1: 1, 2: 1}]),
            menu((2, 1), [{1: 2, 2: 2}]),
        ]
        with pytest.raises(DuplicateMenuError):
            instance_of((1, 2), menus)

    def test_unknown_agent_rejected(self):
        with pytest.raises(UnknownAgentError):
            instance_of((1, 2), [menu((1, 5), [{1: 1, 5: 1}])])

    def test_empty_contract_set_rejected(self):
        with pytest.raises(EmptyContractSetError):
            instance_of((1, 2), [menu((1, 2), [])])

    def test_contract_domain_must_match_pair(self):
        for pair, contract in [
            ((1, 2), {1: 1, 3: 1}),
            ((1, 2), {1: 1}),
            ((1, 3), {1: 1, 2: 1, 3: 1}),
            ((1, 2), {}),
        ]:
            with pytest.raises(MalformedMenuError):
                instance_of((1, 2, 3), [menu(pair, [contract])])

    def test_partition_must_cover_and_be_disjoint(self):
        with pytest.raises(InvalidPartitionError):
            instance_of((1, 2, 3), firms=(1,), workers=(2,))
        with pytest.raises(InvalidPartitionError):
            instance_of((1, 2), firms=(1, 2), workers=(2,))
        with pytest.raises(InvalidPartitionError):
            instance_of((1, 2), firms=(1,), workers=None)

    def test_negative_contracts_warn_but_pass(self):
        contracts = [{1: -1, 2: 5}, {1: 5, 2: "-1/2"}, {1: 0, 2: 0}, {1: -1, 2: -1}]
        with pytest.warns(NegativeContractWarning, match="^3 contract"):
            inst = instance_of((1, 2), [menu((1, 2), contracts)])
        assert len(menus_of(inst)[0].contracts) == 4

    def test_negative_contracts_are_counted_after_repeats_are_dropped(self):
        contracts = [{1: -1, 2: 5}, {1: -1, 2: 5}, {1: "-2/2", 2: 5}]
        with pytest.warns(NegativeContractWarning, match=r"^1 contract\(s\) "):
            inst = instance_of((1, 2), [menu((1, 2), contracts)])
        assert len(inst.xs) == 1

    def test_duplicate_contracts_are_dropped(self):
        inst = instance_of(
            (1, 2),
            [menu((1, 2), [{1: 1, 2: 2}, {1: 1, 2: 2}, {1: 2, 2: 1}])],
        )
        assert len(menus_of(inst)[0].contracts) == 2


class TestReadingOrder:
    """The loader raises the first fault in reading order: the agents, then
    the partition, then each menu entry, its pair before its contracts."""

    @pytest.mark.parametrize(
        "changes, error, message",
        [
            (
                {"menus": [{"pair": [1, 1], "contracts": [{"1": "1"}]},
                           {"pair": [1, 2], "contracts": [{"1": "x", "2": "1"}]}]},
                MalformedMenuError,
                "menu pair (1, 1) repeats an agent",
            ),
            (
                {"firms": "1", "menus": [{"pair": [1, 2], "contracts": [{"1": "1", "2": "1"}]}, 5]},
                FormatError,
                "instance 'firms' must be a list of agent ids",
            ),
            (
                {"menus": [{"pair": [1, "x"], "contracts": [{"1": "three", "2": "1"}]}]},
                FormatError,
                "agent id must be an integer, got 'x'",
            ),
        ],
        ids=["repeated-pair-before-a-later-bad-literal",
             "bad-partition-before-a-later-malformed-entry",
             "bad-pair-id-before-its-malformed-contract"],
    )
    def test_the_first_fault_in_reading_order_is_raised(self, changes, error, message):
        data = {"agents": [1, 2, 3], "firms": [1], "workers": [2, 3], "menus": []}
        data.update(changes)
        for load in (instance_from_dict, oracle_instance_from_dict):
            with pytest.raises(error) as err:
                load(data)
            assert type(err.value) is error and str(err.value) == message


class TestPairCheckOrder:
    """An entry's pair is checked for a repeated agent, then for each
    unknown agent in the order given, then for a pair given before, then
    for a pair on one side."""

    @pytest.mark.parametrize(
        "menus, error, message",
        [
            ([{"pair": [9, 9], "contracts": [{"9": "1"}]}],
             MalformedMenuError, "menu pair (9, 9) repeats an agent"),
            ([{"pair": [9, 8], "contracts": [{"9": "1", "8": "1"}]}],
             UnknownAgentError, "menu references unknown agent 9"),
            ([{"pair": [1, 2], "contracts": [{"1": "1", "2": "1"}]},
              {"pair": [2, 1], "contracts": [{"1": "2", "2": "2"}]},
              {"pair": [2, 3], "contracts": [{"2": "1", "3": "1"}]}],
             DuplicateMenuError, "more than one menu for pair (1, 2)"),
        ],
        ids=["repeated-agent-before-unknown", "first-unknown-before-second",
             "repeated-pair-before-same-side-pair"],
    )
    def test_the_first_fault_of_the_pair_checks_is_raised(self, menus, error, message):
        data = {"agents": [1, 2, 3], "firms": [1], "workers": [2, 3], "menus": menus}
        for load in (instance_from_dict, oracle_instance_from_dict):
            with pytest.raises(error) as err:
                load(data)
            assert type(err.value) is error and str(err.value) == message


class TestEnumeration:
    def test_two_singles_without_menus(self):
        inst = instance_of((1, 2))
        outs = enumerate_outcomes(inst)
        assert len(outs) == 1
        assert outs[0].matching.pairs == ()
        assert all(v == 0 for _, v in outs[0].payoffs)

    def test_illustration_count_and_order(self, illustration):
        outs = enumerate_outcomes(illustration)
        assert len(outs) == 17
        assert outs[0].matching.pairs == ()  # all-singles comes first
        # lexicographically, {1-3, 2-4} with both first contracts is fourth
        assert outs[3] == outcome_of(
            illustration, [(1, 3), (2, 4)], {1: 3, 2: 4, 3: 1, 4: 2}
        )

    def test_gs4_count(self, gs4):
        assert len(enumerate_outcomes(gs4)) == 25

    def test_budget_exceeded(self, gs4):
        with pytest.raises(BudgetExceededError):
            enumerate_outcomes(gs4, EnumerationBudget(max_outcomes=5))

    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError, match="^max_outcomes must be positive$"):
            EnumerationBudget(0)

    @pytest.mark.parametrize("fixture", ["gs4", "illustration", "modified"])
    def test_matches_involution_oracle(self, fixture, request):
        inst = request.getfixturevalue(fixture)
        outs = enumerate_outcomes(inst)
        got = {(o.matching.pairs, o.payoffs) for o in outs}
        assert len(got) == len(outs)  # duplicate-free
        assert got == oracle_outcomes(inst)

    def test_random_instances_match_oracle_and_are_feasible(self):
        for seed in range(100):
            inst = gen_random(
                GenParams(
                    n_firms=1 + seed % 3,
                    n_workers=1 + (seed // 3) % 3,
                    contracts_per_pair=(1, 2),
                    value_range=(0, 4),
                    menu_density=0.7,
                    seed=seed,
                )
            )
            outs = enumerate_outcomes(inst)
            keys = {(o.matching.pairs, o.payoffs) for o in outs}
            assert len(keys) == len(outs)
            assert keys == oracle_outcomes(inst)
            assert all(outcome_is_feasible(inst, o) for o in outs)
            # the all-singles zero outcome is always present
            assert any(not o.matching.pairs and set(dict(o.payoffs).values()) <= {Fraction(0)} for o in outs)


class TestFeasibility:
    def test_reference_outcome_is_feasible(self, illustration):
        o = outcome_of(illustration, [(1, 3), (2, 4)], {1: 3, 2: 4, 3: 1, 4: 2})
        assert outcome_is_feasible(illustration, o)

    def test_off_menu_payoff_is_infeasible(self, illustration):
        o = outcome_of(illustration, [(1, 3), (2, 4)], {1: 2, 2: 4, 3: 1, 4: 2})
        assert not outcome_is_feasible(illustration, o)

    def test_all_singles_zero_is_always_feasible(self, gs4, illustration, modified):
        for inst in (gs4, illustration, modified):
            o = outcome_of(inst, [], {})
            assert outcome_is_feasible(inst, o)

    def test_single_with_positive_payoff_is_infeasible(self, illustration):
        o = outcome_of(illustration, [], {1: 1})
        assert not outcome_is_feasible(illustration, o)

    def test_unmenued_pair_is_infeasible(self, illustration):
        o = outcome_of(illustration, [(1, 2)], {1: 1, 2: 1})
        assert not outcome_is_feasible(illustration, o)

    def test_negative_payoff_is_infeasible(self, illustration):
        o = Outcome.of(
            Matching.from_pairs([]), {1: -1, 2: 0, 3: 0, 4: 0}
        )
        assert not outcome_is_feasible(illustration, o)


def loader_market(seed, rng):
    """A gen_random market in dict form, relabelled and with mixed amount literals.

    Like the benchmark's copies, agents get fresh ids and every amount is
    scaled by one odd multiple of 1/2. Amounts are then written as ints,
    fraction strings or decimal strings at random, a few become one of
    "15/2", "1/3", "5/6", "1.5", and some menus repeat a contract under
    other literals.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NegativeContractWarning)
        inst = gen_random(
            GenParams(
                n_firms=1 + seed % 5,
                n_workers=1 + (seed // 5) % 5,
                contracts_per_pair=(1, 4),
                value_range=(-3, 5) if seed % 3 == 0 else (0, 5),
                menu_density=0.8,
                seed=seed,
            )
        )
    data = instance_to_dict(inst)
    new = dict(zip(inst.agents, rng.sample(range(1, 10 * len(inst.agents) + 1), len(inst.agents))))
    k = Fraction(2 * rng.randrange(50) + 1, 2)

    def literal(x):
        if rng.random() < 0.1:
            return rng.choice(["15/2", "1/3", "5/6", "1.5"])
        if x.denominator == 1 and rng.random() < 0.5:
            return int(x)
        if x.denominator == 2 and rng.random() < 0.5:
            return str(float(x))
        return money_str(x)

    menus = []
    for m in data["menus"]:
        contracts = [
            {str(new[int(a)]): literal(Fraction(x) * k) for a, x in c.items()}
            for c in m["contracts"]
        ]
        if rng.random() < 0.3:
            contracts.append({a: literal(parse_money(x)) for a, x in rng.choice(contracts).items()})
        menus.append({"pair": [new[a] for a in m["pair"]], "contracts": contracts})
    return {
        "agents": sorted(new.values()),
        "firms": [new[a] for a in data["firms"]],
        "workers": [new[a] for a in data["workers"]],
        "menus": menus,
    }


def load_both(data):
    """(instance or error class, warnings) from the loader and from the oracle."""
    results = []
    for load in (instance_from_dict, oracle_instance_from_dict):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                result = load(data)
            except Exception as exc:  # the class is compared
                result = type(exc)
        results.append((result, [str(w.message) for w in caught]))
    return results


class TestSingleParseLoader:
    def test_equals_the_construction_path_on_seeded_markets(self):
        rng = random.Random(7)
        negative = deduplicated = 0
        for seed in range(150):
            data = loader_market(seed, rng)
            (inst, warned), expected = load_both(data)
            assert isinstance(inst, Instance), (seed, inst)
            assert (inst, warned) == expected, seed
            negative += bool(warned)
            given = sum(len(m["contracts"]) for m in data["menus"])
            deduplicated += given > sum(len(m.contracts) for m in menus_of(inst))
        assert negative >= 20 and deduplicated >= 50

    def test_equal_literals_share_one_parsed_value(self):
        data = {
            "agents": [1, 2],
            "menus": [{"pair": [1, 2], "contracts": [{"1": "5/6", "2": "5/6"}]}],
        }
        inst = instance_from_dict(data)
        (first,), (second,), (i,), (j,) = inst.firsts, inst.seconds, inst.xs, inst.ys
        (a, x), (b, y) = inst.allocation(first, i, second, j).payments
        assert (a, b, x) == (1, 2, Fraction(5, 6)) and x is y

    @pytest.mark.parametrize(
        "changes",
        [
            {"menus": [{"pair": [1, 2, 3], "contracts": [{"1": 1, "2": 1}]}]},
            {"menus": [{"pair": [1, 2], "contracts": [[1, 1]]}]},
            {"menus": [{"pair": [1, 2], "contracts": [{"x": 1, "2": 1}]}]},
            {"menus": 5},
            {"menus": [5]},
            {"menus": [{"pair": [1, 2]}]},
            {"menus": [{"pair": [1, 2], "contracts": 5}]},
            {"agents": [1.7, 2, 3]},
            {"agents": [True, 2, 3]},
            {"agents": "123"},
            {"firms": [1.5]},
            {"workers": 5},
            {"menus": [{"pair": [1.5, 2], "contracts": [{"1": 1, "2": 1}]}]},
            {"menus": [{"pair": "12", "contracts": [{"1": 1, "2": 1}]}]},
            {"menus": [{"pair": [True, 2], "contracts": [{"1": 1, "2": 1}]}]},
            {"menus": [{"pair": [1, 2], "contracts": [{"1": True, "2": 1}]}]},
            {"menus": [{"pair": [1, 2], "contracts": [{"1": 1, "2": True}]}]},
            {"menus": [{"pair": [1, 2], "contracts": [{"1": 1.5, "2": 1}]}]},
            {"menus": [{"pair": [1, 2], "contracts": [{"1": "three", "2": 1}]}]},
            {"menus": [{"pair": [1, 2], "contracts": [{"1": [1], "2": 1}]}]},
            {"menus": [{"pair": [1, 2], "contracts": [{"1": "1e1001", "2": 1}]}]},
            {"menus": [{"pair": [1, 2], "contracts": [{"1": "1/0", "2": 1}]}]},
            {"menus": [{"pair": [1, 2], "contracts": [{"1": 1, "3": 1}]}]},
            {"menus": [{"pair": [1, 2], "contracts": [{"1": 1}]}]},
            {"menus": [{"pair": [1, 2], "contracts": [{}]}]},
            {"menus": [{"pair": [1, 2], "contracts": []}]},
            {"menus": [{"pair": [1, 1], "contracts": [{"1": 1}]}]},
            {"menus": [{"pair": [1, 9], "contracts": [{"1": 1, "9": 1}]}]},
            {"menus": [{"pair": [2, 3], "contracts": [{"2": 1, "3": 1}]}]},
            {"menus": [{"pair": [1, 2], "contracts": [{"1": 1, "2": 1}]},
                       {"pair": [2, 1], "contracts": [{"1": 2, "2": 2}]}]},
            {"firms": [1, 2]},
            {"firms": None},
            {"agents": []},
            {"agents": [0, 1, 2, 3]},
        ],
    )
    def test_malformed_shapes_raise_the_same_error_class(self, changes):
        data = {"agents": [1, 2, 3], "firms": [1], "workers": [2, 3], "menus": []}
        data.update(changes)
        (got, _), (expected, _) = load_both(data)
        assert isinstance(expected, type) and got is expected


#: Decimal digits of another script, which int() and Fraction() read too.
ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")


def value_equal_literals(x):
    """Ways to write the amount x: "1", "2/2", "1.0", "10e-1", 1 and "١"."""
    n, d = x.numerator, x.denominator
    literals = [money_str(x), f"{2 * n}/{2 * d}", f"{n}/{d}"]
    if d == 1:
        literals += [n, f"{n}.0", f"{10 * n}e-1"]
        if n >= 0:
            literals.append(str(n).translate(ARABIC_INDIC))
    return literals


def insert_entry(data, draw, entry):
    data["menus"].insert(draw(st.integers(0, len(data["menus"]))), entry)


def malformed_entry(data, market, draw):
    f, w = draw(st.sampled_from(market["firms"])), draw(st.sampled_from(market["workers"]))
    good = {str(f): "1", str(w): "2"}
    insert_entry(data, draw, draw(st.sampled_from([
        5,
        {"pair": [f, w, f], "contracts": [good]},
        {"pair": [f, "x"], "contracts": [good]},
        {"pair": [f, w]},
        {"pair": [f, w], "contracts": 5},
        {"pair": [f, w], "contracts": [[1, 2]]},
        {"pair": [f, w], "contracts": [{str(f): "three", str(w): "1"}]},
        {"pair": [f, w], "contracts": [{str(f): 1.5, str(w): "1"}]},
        {"pair": [f, w], "contracts": [{str(f): True, str(w): "1"}]},
        {"pair": [f, w], "contracts": [{str(f): "1/0", str(w): "1"}]},
        {"pair": [f, w], "contracts": [{str(f): "1" * 5000, str(w): "1"}]},
        {"pair": [f, w], "contracts": [good, {str(f): "1"}]},
        {"pair": [f, w], "contracts": [{str(f): "1", str(w): "2", "0" + str(f): "3"}]},
        {"pair": [f, w], "contracts": []},
    ])))


def unknown_agent_entry(data, market, draw):
    a = draw(st.sampled_from(market["agents"]))
    insert_entry(data, draw, {"pair": [a, 999], "contracts": [{str(a): "1", "999": "1"}]})


def duplicate_menu_entry(data, market, draw):
    if not market["menus"]:
        return malformed_entry(data, market, draw)
    m = draw(st.sampled_from(market["menus"]))
    insert_entry(data, draw, {"pair": m["pair"][::-1], "contracts": m["contracts"]})


def same_side_entry(data, market, draw):
    side = market["firms"] if len(market["firms"]) > 1 else market["workers"]
    a, b = side[0], side[-1]  # the same agent twice when the side has one
    insert_entry(data, draw, {"pair": [a, b], "contracts": [{str(a): "1", str(b): "1"}]})


def partition_fault(data, market, draw):
    firms, workers = market["firms"], market["workers"]
    data.update(draw(st.sampled_from([
        {"firms": firms + workers[:1]},
        {"workers": workers[1:]},
        {"firms": firms + [999]},
        {"workers": None},
        {"workers": workers + ["x"]},
        {"firms": "12"},
        {"firms": [], "workers": firms + workers},
        {"firms": firms + workers, "workers": []},
    ])))


def entry_faults(data, market, draw):
    """Up to two faults in one menu entry already given: one in its pair and
    one among its contracts. The entry may be one that another fault put
    in, so one entry may hold three."""
    if not any(type(m) is dict for m in data["menus"]):
        return malformed_entry(data, market, draw)
    i = draw(st.sampled_from([i for i, m in enumerate(data["menus"]) if type(m) is dict]))
    m = data["menus"][i] = dict(data["menus"][i])  # market keeps the entry as it was
    a = m["pair"][0]
    m["pair"] = draw(st.sampled_from([m["pair"], m["pair"] + [a], [a, "x"], [a, a], [a, 999]]))
    contract = draw(st.sampled_from([
        None, {"k": "1"}, [1, 2], {str(a): "three"}, {str(a): "1", "0" + str(a): "2"},
        {str(a): "1"},
    ]))
    contracts = m.get("contracts")
    if contract is not None and isinstance(contracts, list):
        m["contracts"] = contracts[:]
        m["contracts"].insert(draw(st.integers(0, len(contracts))), contract)


def agents_fault(data, market, draw):
    agents = market["agents"]
    data["agents"] = draw(st.sampled_from([[], [0] + agents, agents + [1.5]]))


FAULTS = [
    malformed_entry,
    unknown_agent_entry,
    duplicate_menu_entry,
    same_side_entry,
    entry_faults,
    partition_fault,
    agents_fault,
]


@st.composite
def loader_inputs(draw):
    """A relabelled fractional market in dict form, faulty in up to two places.

    Every amount is written as one of its value-equal literals, some menus
    repeat a contract under other literals, and amounts may be negative.
    A place is the agents list, the partition or a menu entry, and one
    entry may hold several faults, so the order of errors within an entry
    is compared too.
    """
    seed = draw(st.integers(0, 10**6))
    params = GenParams(
        draw(st.integers(1, 3)), draw(st.integers(1, 3)), (1, 3), (-3, 5), 0.8, seed=seed
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NegativeContractWarning)
        data = instance_to_dict(relabelled(gen_random(params), seed))
    for m in data["menus"]:
        m["contracts"] = [
            {a: draw(st.sampled_from(value_equal_literals(Fraction(x)))) for a, x in c.items()}
            for c in m["contracts"]
        ]
        if draw(st.booleans()):
            c = draw(st.sampled_from(m["contracts"]))
            m["contracts"].append(
                {a: draw(st.sampled_from(value_equal_literals(parse_money(x)))) for a, x in c.items()}
            )
    market = {key: list(value) for key, value in data.items()}
    for _ in range(draw(st.integers(0, 2))):
        draw(st.sampled_from(FAULTS))(data, market, draw)
    return data


def load_exactly(load, data):
    """(instance, or error type and message; NegativeContractWarning messages)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = load(data)
        except Exception as exc:  # the type and message are compared
            result = (type(exc), str(exc))
    return result, [str(w.message) for w in caught if w.category is NegativeContractWarning]


class TestLoaderAgainstOracle:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(data=loader_inputs())
    def test_same_instance_or_same_error(self, data):
        got, got_warned = load_exactly(instance_from_dict, data)
        want, want_warned = load_exactly(oracle_instance_from_dict, data)
        if isinstance(want, Instance):
            assert isinstance(got, Instance)
            assert (got.firsts, got.seconds, got.xs, got.ys, got.levels) == (
                want.firsts, want.seconds, want.xs, want.ys, want.levels
            )
            assert got == want
        else:
            assert got == want
        assert got_warned == want_warned

    def test_adds_fewer_tracked_objects_than_contracts(self):
        # The instance holds four tuples of ints and no object per contract.
        data = instance_to_dict(gen_random(GenParams(40, 40, seed=5)))
        contracts = sum(len(m["contracts"]) for m in data["menus"])
        gc.collect()
        before = len(gc.get_objects())
        inst = instance_from_dict(data)
        gc.collect()
        assert len(gc.get_objects()) - before < contracts
        assert inst.xs


def written_ways(data, rng):
    """(name, dict) for ways of writing the market `data`, in canonical form.

    The loader reads a contract of two string amounts keyed by the pair's
    canonical id strings by those keys. The first four ways keep the
    market; the others put a fault into one contract, which the loader
    must report as it would without that fast path.
    """

    def every(change):
        menus = [{"pair": m["pair"], "contracts": [change(c) for c in m["contracts"]]}
                 for m in data["menus"]]
        return {**data, "menus": menus}

    def one(change):
        menus = [{"pair": m["pair"], "contracts": list(m["contracts"])} for m in data["menus"]]
        contracts = rng.choice(menus)["contracts"]
        i = rng.randrange(len(contracts))
        contracts[i] = change(contracts[i])
        return {**data, "menus": menus}

    yield "canonical", data
    yield "zero-padded ids", every(lambda c: {"0" + a: x for a, x in c.items()})
    yield "int ids and amounts", every(
        lambda c: {int(a): x if "/" in x else int(x) for a, x in c.items()}
    )
    yield "keys swapped", every(lambda c: dict(reversed(c.items())))
    if not data["menus"]:
        return
    unknown = str(max(data["agents"]) + 1)
    if rng.random() < 0.5:  # an agent of the pair again, as "0" and its id
        yield "third key", one(lambda c: {**c, "0" + next(iter(c)): "1"})
    else:
        yield "third key", one(lambda c: {**c, unknown: "1"})
    yield "true after 1", one(lambda c: dict(zip(c, [1, True])))
    yield "bad first slot", one(lambda c: dict(zip(c, ["1/0", list(c.values())[1]])))
    yield "bad second slot", one(lambda c: dict(zip(c, [list(c.values())[0], "x"])))
    yield "both slots bad", one(lambda c: dict(zip(c, ["1/0", "x"])))


class TestFastPathAgainstOracle:
    @pytest.mark.filterwarnings("ignore::contractmatch.NegativeContractWarning")
    def test_every_way_of_writing_a_market_loads_as_the_oracle_does(self):
        faulty = 0
        for seed in range(80):
            rng = random.Random(seed)
            if seed % 4 == 3:
                inst = seeded_pool(seed)
            else:
                params = GenParams(1 + seed % 4, 1 + (seed // 4) % 4, (1, 3), (-3, 6), 0.8, seed=seed)
                inst = relabelled(gen_random(params), seed)
            for name, data in written_ways(instance_to_dict(inst), rng):
                got = load_exactly(instance_from_dict, data)
                assert got == load_exactly(oracle_instance_from_dict, data), (seed, name)
                if name in ("canonical", "zero-padded ids", "int ids and amounts", "keys swapped"):
                    assert got[0] == inst, (seed, name)
                else:
                    assert isinstance(got[0], tuple), (seed, name)
                    faulty += 1
        assert faulty >= 300


class TestBenchmarkShapedMarket:
    @pytest.mark.parametrize("values", [(0, 5), (0, 1000)], ids=["ties", "near-strict"])
    def test_loads_as_the_oracle_does(self, values):
        # As the solve-market workload writes its files: a 40x40 market
        # with every agent relabelled and every amount times k/2 for one
        # odd k, written "n" or "n/2", its menus in the order of the old ids.
        rng = random.Random(values[1])
        inst = gen_random(GenParams(40, 40, (1, 4), values, 0.75, seed=values[1]))
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
        data = {
            "agents": sorted(new.values()),
            "firms": [new[a] for a in data["firms"]],
            "workers": [new[a] for a in data["workers"]],
            "menus": menus,
        }
        pairs = [sorted(m["pair"]) for m in menus]
        assert pairs != sorted(pairs)
        got = load_exactly(instance_from_dict, data)
        assert isinstance(got[0], Instance)
        assert {d for _, d in got[0].levels} == {1, 2}
        assert got == load_exactly(oracle_instance_from_dict, data)


class TestLevels:
    def test_a_market_of_many_denominators_loads_in_little_time_and_memory(self):
        # 40x40 with 6,400 prime denominators: a common denominator of the
        # amounts would have about 27,600 digits. Ranks need none.
        data = many_denominators(40)
        tracemalloc.start()
        try:
            inst = instance_from_dict(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        seconds = []
        for _ in range(3):
            started = time.perf_counter()
            instance_from_dict(data)
            seconds.append(time.perf_counter() - started)
        assert min(seconds) < 0.25
        assert len(inst.levels) == 6401
        assert instance_to_dict(inst) == data

    @pytest.mark.parametrize(
        "big, small",
        [
            ("1/100000000000000000000", "1/100000000000000000001"),
            (f"{10**400 + 3}/2", f"{10**400 + 1}/2"),
        ],
        ids=["equal-as-floats", "past-float-range"],
    )
    def test_amounts_a_float_cannot_order_rank_in_exact_order(self, big, small):
        # The two amounts of a pair agree to 20 significant digits, or lie
        # past a float's range. Each amount met first is the one that ranks
        # later, so that only an exact sort puts them in order.
        data = {"agents": [1, 2, 3], "firms": [1], "workers": [2, 3], "menus": [
            menu((1, 2), [{"1": big, "2": small}]),
            menu((1, 3), [{"1": "-" + small, "3": "-" + big}]),
        ]}
        with pytest.warns(NegativeContractWarning):
            inst = instance_from_dict(data)
        assert (inst.xs, inst.ys) == ((2, -1), (1, -2))
        with pytest.warns(NegativeContractWarning):
            assert inst == oracle_instance_from_dict(data)
        assert instance_to_dict(inst) == data


class TestSerialization:
    def test_instance_round_trip(self):
        # instance_to_dict writes each menu from the columns; reading it back
        # must give the same instance, fractional and negative amounts too.
        markets = [builtin(name) for name in BUILTIN_NAMES]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NegativeContractWarning)
            for seed in range(40):
                forced = seed % 2 == 0
                params = GenParams(
                    1 + seed % 4, 1 + (seed // 4) % 4, (1, 3), (1, 40) if forced else (-3, 6),
                    0.8, forced, forced, seed=seed,
                )
                inst = gen_random(params)
                markets += [inst, relabelled(inst, seed)]
            markets += [seeded_pool(seed) for seed in range(40)]
            for inst in markets:
                data = instance_to_dict(inst)
                assert instance_from_dict(data) == inst == oracle_instance_from_dict(data)
        assert sum(any(d > 1 for _, d in inst.levels) for inst in markets) >= 20
        assert sum(x < 0 for inst in markets for x in inst.xs + inst.ys) >= 20

    def test_reads_documented_instance_shape(self):
        data = {
            "agents": [1, 2, 3, 4],
            "firms": [1, 2],
            "workers": [3, 4],
            "menus": [
                {"pair": [1, 3], "contracts": [{"1": "3", "3": "1"}, {"1": "1", "3": "3"}]},
                {"pair": [4, 2], "contracts": [{"2": 4, "4": "2"}]},
            ],
        }
        inst = instance_from_dict(data)
        assert inst.two_sided
        assert menus_of(inst)[1].pair == (2, 4)
        assert menus_of(inst)[1].contracts[0][2] == Fraction(4)

    def test_outcome_round_trip(self, illustration):
        o = outcome_of(illustration, [(1, 3), (2, 4)], {1: 3, 2: 4, 3: 1, 4: 2})
        d = outcome_to_dict(o)
        assert d == {
            "matches": [[1, 3], [2, 4]],
            "singles": [],
            "payoffs": {"1": "3", "2": "4", "3": "1", "4": "2"},
        }
        assert outcome_from_dict(d) == o

    def test_outcome_shape_errors(self):
        with pytest.raises(FormatError):
            outcome_from_dict({"matches": [[1, 2]], "payoffs": {"1": "1"}})
        with pytest.raises(FormatError):
            outcome_from_dict(
                {"matches": [[1, 2], [2, 3]], "payoffs": {"1": 0, "2": 0, "3": 0}}
            )
        with pytest.raises(FormatError):
            outcome_from_dict(
                {"matches": [], "singles": [1], "payoffs": {"1": 0, "2": 0}}
            )

    def test_fractional_amounts_survive_round_trip(self):
        inst = instance_from_dict(
            {
                "agents": [1, 2],
                "menus": [{"pair": [1, 2], "contracts": [{"1": "1.5", "2": "0.5"}]}],
            }
        )
        c = menus_of(inst)[0].contracts[0]
        assert c[1] == Fraction(3, 2) and c[2] == Fraction(1, 2)
        assert instance_from_dict(instance_to_dict(inst)) == inst
