import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from contractmatch import (
    BUILTIN_NAMES,
    ContractMatchError,
    GenParams,
    NegativeContractWarning,
    builtin,
    gen_random,
    instance_from_dict,
    instance_to_dict,
    outcome_from_dict,
    outcome_to_dict,
    procedure,
    stability,
)
from contractmatch.cli import main


def write_json(path, data):
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def json_lines(out):
    return [json.loads(line) for line in out.splitlines() if line.strip()]


@pytest.fixture()
def illustration_file(tmp_path, illustration):
    return write_json(tmp_path / "illustration.json", instance_to_dict(illustration))


@pytest.fixture()
def modified_file(tmp_path, modified):
    return write_json(tmp_path / "modified.json", instance_to_dict(modified))


@pytest.fixture()
def gs4_file(tmp_path, gs4):
    return write_json(tmp_path / "gs4.json", instance_to_dict(gs4))


class TestSolve:
    def test_illustration_payoffs(self, capsys, illustration_file):
        code, out, _ = run_cli(capsys, "solve", illustration_file)
        assert code == 0
        outcome = json_lines(out)[0]
        assert outcome["payoffs"] == {"1": "3", "2": "4", "3": "1", "4": "2"}
        assert outcome["matches"] == [[1, 3], [2, 4]]

    def test_room_mates_instance_exits_2(self, capsys, gs4_file):
        code, _, err = run_cli(capsys, "solve", gs4_file)
        assert code == 2
        assert "partition" in err

    def test_all_tiebreaks_prints_both_modified_outcomes(self, capsys, modified_file):
        code, out, _ = run_cli(capsys, "solve", modified_file, "--all-tiebreaks")
        assert code == 0
        payoffs = [rec["payoffs"] for rec in json_lines(out)]
        assert len(payoffs) == 2
        assert {"1": "3", "2": "4", "3": "1", "4": "2"} in payoffs
        assert {"1": "3", "2": "3", "3": "2", "4": "3"} in payoffs

    def test_trace_appends_stage_records(self, capsys, illustration_file):
        code, out, _ = run_cli(capsys, "solve", illustration_file, "--trace")
        assert code == 0
        records = json_lines(out)
        assert "payoffs" in records[0]
        stages = records[1:]
        assert [r["stage"] for r in stages] == [1, 2, 3]
        assert stages[0]["proposers"] == [1, 2]
        assert stages[-1]["proposers"] == []

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_trace_starts_with_the_untraced_output(self, capsys, tmp_path, name):
        # Only --trace runs the traced engine; the pool exits 2 under both.
        path = write_json(tmp_path / "market.json", instance_to_dict(builtin(name)))
        for policy in sorted(procedure.POLICIES):
            plain = run_cli(capsys, "solve", path, "--policy", policy)
            code, out, err = run_cli(capsys, "solve", path, "--policy", policy, "--trace")
            assert (code, "".join(out.splitlines(keepends=True)[:1]), err) == plain

    def test_policy_flag_changes_modified_run(self, capsys, modified_file):
        code, out, _ = run_cli(
            capsys, "solve", modified_file, "--policy", "high-worker"
        )
        assert code == 0
        assert json_lines(out)[0]["payoffs"] == {"1": "3", "2": "3", "3": "2", "4": "3"}

    def test_negative_amounts_warn_in_one_line(self, capsys, tmp_path):
        data = {
            "agents": [1, 2],
            "firms": [1],
            "workers": [2],
            "menus": [{"pair": [1, 2], "contracts": [{"1": "3", "2": "-1"}, {"1": 1, "2": 1}]}],
        }
        path = write_json(tmp_path / "negative.json", data)
        for argv in (["solve", path], ["core", path]):
            code, out, err = run_cli(capsys, *argv)
            assert code == 0 and out
            assert err == (
                "warning: 1 contract(s) contain negative amounts and can never "
                "appear in an outcome\n"
            )

    def test_money_exponent_beyond_the_cap_exits_2(self, capsys, tmp_path):
        data = {
            "agents": [1, 2],
            "firms": [1],
            "workers": [2],
            "menus": [{"pair": [1, 2], "contracts": [{"1": "1e1001", "2": "1"}]}],
        }
        code, out, err = run_cli(capsys, "solve", write_json(tmp_path / "big.json", data))
        assert code == 2 and not out
        assert err == (
            "error: money amount '1e1001' has a decimal exponent beyond 1000 in size\n"
        )

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "solve", "/nonexistent.json")
        assert code == 2 and err

    @pytest.mark.parametrize("command", ["solve", "check"])
    @pytest.mark.parametrize(
        "content",
        ['{"agents": [1]}'.encode("utf-16"), b"[" * 100_000, b"[" + b"1" * 5000 + b"]"],
        ids=["utf-16", "nested-too-deep", "integer-too-long"],
    )
    def test_unreadable_file_exits_2(self, capsys, tmp_path, illustration_file, command, content):
        # A file that is not UTF-8, that nests deeper than the decoder can
        # go, or whose integer literal passes Python's digit limit is bad
        # input like any other: solve reads it as the instance, check as
        # the outcome.
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        argv = ["solve", str(bad)] if command == "solve" else ["check", illustration_file, str(bad)]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and not out
        assert err.startswith(f"error: {bad}: invalid JSON: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "menus",
        [
            [{"pair": [1, 2, 3], "contracts": [{"1": 1, "2": 1}]}],
            [{"pair": [1, 2], "contracts": [[1, 1]]}],
            [{"pair": [1, 2], "contracts": [{"x": 1, "2": 1}]}],
            5,
            [{"pair": [1, 2], "contracts": [{"1": "1", "2": "2", "01": "3"}]}],
            # Fraction reads "1_0" as 10 from Python 3.11 on.
            [{"pair": [1, 2], "contracts": [{"1": "1_0", "2": "1"}]}],
        ],
        ids=["three-agent-pair", "contract-not-an-object", "non-integer-key", "not-a-list",
             "agent-named-twice", "underscore-in-money"],
    )
    def test_malformed_menus_exit_2(self, capsys, tmp_path, menus):
        data = {"agents": [1, 2, 3], "firms": [1], "workers": [2, 3], "menus": menus}
        code, out, err = run_cli(capsys, "solve", write_json(tmp_path / "bad.json", data))
        assert code == 2 and err.startswith("error:") and err.count("\n") == 1 and not out

    @pytest.mark.parametrize(
        "command, instance, outcome",
        [
            ("solve", '{"agents": [1, 2], "menus": [' + "[" * 900 + "]" * 900 + "]}", None),
            (
                "solve",
                json.dumps({"agents": [1, 2, 3], "menus": [
                    {"pair": [1, 2, 3], "contracts": [{"1": n, "2": n} for n in range(100)]}
                ]}),
                None,
            ),
            ("check", None, {"matches": [list(range(1, 301))], "payoffs": {"1": "0"}}),
            ("check", None, {"matches": [[list(range(1, 31)), 3]], "payoffs": {"1": "0"}}),
        ],
        ids=["menu-entry-nested-900-deep", "three-agent-pair-with-100-contracts",
             "300-agent-matched-pair", "list-as-agent-id"],
    )
    def test_long_offending_value_is_cut_in_one_error_line(
        self, capsys, tmp_path, illustration_file, command, instance, outcome
    ):
        # The error shows the first 40 characters of the value's repr and
        # the repr's length, as it does for a long money literal.
        argv = [command, illustration_file]
        if instance is not None:
            argv[1] = str(tmp_path / "bad.json")
            (tmp_path / "bad.json").write_text(instance, encoding="utf-8")
        if outcome is not None:
            argv.append(write_json(tmp_path / "outcome.json", outcome))
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and not out
        [line] = err.splitlines()
        assert line.startswith("error:") and line.endswith(" characters)") and len(line) <= 120

    @pytest.mark.parametrize(
        "changes",
        [
            {"agents": [1.7, 2, 3]},
            {"agents": [True, 2, 3]},
            {"agents": "123"},
            {"firms": [1.5]},
            {"workers": 5},
            {"menus": [{"pair": [1.5, 2], "contracts": [{"1": 1, "2": 1}]}]},
            {"menus": [{"pair": "12", "contracts": [{"1": 1, "2": 1}]}]},
        ],
        ids=["float-agent", "bool-agent", "agents-string", "float-firm",
             "workers-not-a-list", "float-pair", "pair-string"],
    )
    def test_non_integer_agent_ids_exit_2(self, capsys, tmp_path, changes):
        data = {"agents": [1, 2, 3], "firms": [1], "workers": [2, 3], "menus": []}
        data.update(changes)
        code, _, err = run_cli(capsys, "solve", write_json(tmp_path / "bad.json", data))
        assert code == 2 and err.startswith("error:")

    @pytest.mark.parametrize("command", ["solve", "verify", "core"])
    def test_menu_between_two_workers_of_an_empty_firms_list_exits_2(
        self, capsys, tmp_path, command
    ):
        # An empty list of firms is a partition in which every agent is a
        # worker, so no menu can join two of its agents.
        data = {"agents": [1, 2], "firms": [], "workers": [1, 2],
                "menus": [{"pair": [1, 2], "contracts": [{"1": "1", "2": "1"}]}]}
        code, out, err = run_cli(capsys, command, write_json(tmp_path / "m.json", data))
        assert (code, out) == (2, "")
        assert err == "error: pair (1, 2) joins two agents on the same side\n"

    def test_empty_firms_list_without_menus_solves_to_all_single(self, capsys, tmp_path):
        data = {"agents": [1, 2], "firms": [], "workers": [1, 2], "menus": []}
        code, out, err = run_cli(capsys, "solve", write_json(tmp_path / "m.json", data))
        assert (code, err) == (0, "")
        assert json_lines(out) == [{"matches": [], "payoffs": {"1": "0", "2": "0"}, "singles": [1, 2]}]


def proposal(text):
    """A trace proposal from "firm-worker:firm amount/worker amount"."""
    pair, amounts = text.split(":")
    firm, worker = pair.split("-")
    x, y = amounts.split("/")
    return {"contract": {firm: x, worker: y}, "firm": int(firm), "worker": int(worker)}


def stage(n, proposers, proposals, received, acceptable, held, rejected):
    def offers(by_worker):
        return {w: [proposal(t) for t in ts] for w, ts in by_worker.items()}

    return {
        "stage": n,
        "proposers": proposers,
        "proposals": [proposal(t) for t in proposals],
        "received": offers(received),
        "acceptable": offers(acceptable),
        "held": {w: proposal(t) for w, t in held.items()},
        "rejected": [proposal(t) for t in rejected],
    }


class TestPinnedRuns:
    """Every `solve --trace` record and the `--all-tiebreaks` output of two markets."""

    # Worker 2 rejects the only contract, which pays it -1, so the stage's
    # acceptable offers differ from the received ones.
    REJECTED = {
        "agents": [1, 2],
        "firms": [1],
        "workers": [2],
        "menus": [{"pair": [1, 2], "contracts": [{"1": 3, "2": -1}]}],
    }
    REJECTED_OUTCOME = {"matches": [], "payoffs": {"1": "0", "2": "0"}, "singles": [1, 2]}
    REJECTED_STAGES = [
        stage(1, [1], ["1-2:3/-1"], {"2": ["1-2:3/-1"]}, {"2": []}, {}, ["1-2:3/-1"]),
        stage(2, [], [], {}, {}, {}, []),
    ]

    # Multi-contract menus where the incumbency rule changes the outcome:
    # in stage 2 worker 3 holds firm 2's offer and firm 1 offers the same 3.
    KEPT = {"matches": [[1, 4], [2, 3]], "payoffs": {"1": "1", "2": "3", "3": "3", "4": "2"}, "singles": []}
    SWITCHED = {"matches": [[1, 3], [2, 4]], "payoffs": {"1": "1", "2": "1", "3": "3", "4": "4"}, "singles": []}
    FIRST_STAGE = stage(
        1, [1, 2], ["1-3:1/1", "2-3:3/3"],
        {"3": ["1-3:1/1", "2-3:3/3"]}, {"3": ["1-3:1/1", "2-3:3/3"]},
        {"3": "2-3:3/3"}, ["1-3:1/1"],
    )
    TIE_STAGES = {
        "default": [
            FIRST_STAGE,
            stage(2, [1], ["1-3:1/3"], {"3": ["1-3:1/3"]}, {"3": ["1-3:1/3"]},
                  {"3": "2-3:3/3"}, ["1-3:1/3"]),
            stage(3, [1], ["1-4:1/2"], {"4": ["1-4:1/2"]}, {"4": ["1-4:1/2"]},
                  {"3": "2-3:3/3", "4": "1-4:1/2"}, []),
            stage(4, [], [], {}, {}, {"3": "2-3:3/3", "4": "1-4:1/2"}, []),
        ],
        "high-worker": [
            stage(1, [1, 2], ["1-4:1/2", "2-3:3/3"],
                  {"3": ["2-3:3/3"], "4": ["1-4:1/2"]}, {"3": ["2-3:3/3"], "4": ["1-4:1/2"]},
                  {"3": "2-3:3/3", "4": "1-4:1/2"}, []),
            stage(2, [], [], {}, {}, {"3": "2-3:3/3", "4": "1-4:1/2"}, []),
        ],
        "strict-list": [
            FIRST_STAGE,
            stage(2, [1], ["1-3:1/3"], {"3": ["1-3:1/3"]}, {"3": ["1-3:1/3"]},
                  {"3": "1-3:1/3"}, ["2-3:3/3"]),
            stage(3, [2], ["2-4:1/4"], {"4": ["2-4:1/4"]}, {"4": ["2-4:1/4"]},
                  {"3": "1-3:1/3", "4": "2-4:1/4"}, []),
            stage(4, [], [], {}, {}, {"3": "1-3:1/3", "4": "2-4:1/4"}, []),
        ],
    }
    TIE_OUTCOMES = {"default": KEPT, "high-worker": KEPT, "strict-list": SWITCHED}

    def solve(self, capsys, path, *flags):
        code, out, _ = run_cli(capsys, "solve", path, *flags)
        assert code == 0
        return json_lines(out)

    @pytest.mark.filterwarnings("ignore::contractmatch.NegativeContractWarning")
    @pytest.mark.parametrize("policy", sorted(procedure.POLICIES))
    def test_worker_rejects_negative_offer(self, capsys, tmp_path, policy):
        path = write_json(tmp_path / "rejected.json", self.REJECTED)
        records = self.solve(capsys, path, "--policy", policy, "--trace")
        assert records == [self.REJECTED_OUTCOME] + self.REJECTED_STAGES
        assert self.solve(capsys, path, "--all-tiebreaks") == [self.REJECTED_OUTCOME]

    @pytest.mark.parametrize("policy", sorted(procedure.POLICIES))
    def test_incumbency_decides_multi_contract_tie(self, capsys, tmp_path, policy):
        inst = gen_random(GenParams(2, 2, (1, 2), (1, 4), 1.0, seed=46))
        path = write_json(tmp_path / "tie.json", instance_to_dict(inst))
        records = self.solve(capsys, path, "--policy", policy, "--trace")
        assert records == [self.TIE_OUTCOMES[policy]] + self.TIE_STAGES[policy]
        assert self.solve(capsys, path, "--all-tiebreaks") == [self.SWITCHED, self.KEPT]


class TestCheck:
    def test_stable_outcome_exits_0(self, capsys, tmp_path, illustration_file):
        outcome = {
            "matches": [[1, 3], [2, 4]],
            "singles": [],
            "payoffs": {"1": "3", "2": "4", "3": "1", "4": "2"},
        }
        path = write_json(tmp_path / "outcome.json", outcome)
        code, out, _ = run_cli(capsys, "check", illustration_file, path)
        assert code == 0
        assert json_lines(out)[0] == {"stable": True}

    def test_blocked_outcome_prints_certificates(self, capsys, tmp_path, gs4_file):
        # 3 and 4 collaborate at (1, 1); {2, 3} blocks via (3, 2)
        outcome = {
            "matches": [[3, 4]],
            "singles": [1, 2],
            "payoffs": {"1": "0", "2": "0", "3": "1", "4": "1"},
        }
        path = write_json(tmp_path / "outcome.json", outcome)
        code, out, _ = run_cli(capsys, "check", gs4_file, path)
        assert code == 1
        records = json_lines(out)
        assert records[0] == {"stable": False}
        assert {"coalition": [2, 3], "contract": {"2": "3", "3": "2"}} in records[1:]

    def test_infeasible_outcome_exits_2(self, capsys, tmp_path, illustration_file):
        outcome = {
            "matches": [[1, 3], [2, 4]],
            "singles": [],
            "payoffs": {"1": "2", "2": "4", "3": "1", "4": "2"},
        }
        path = write_json(tmp_path / "outcome.json", outcome)
        code, _, err = run_cli(capsys, "check", illustration_file, path)
        assert code == 2 and "feasible" in err

    @pytest.mark.parametrize(
        "changes",
        [
            {"matches": [["x", 3]]},
            {"singles": ["y"]},
            {"matches": [[1, 3, 4]]},
            {"matches": 5},
            {"matches": [[1.5, 3]]},
            {"singles": [2.0, 4]},
            {"matches": [[1, 1]]},
            {"singles": 5},
        ],
        ids=["string-agent", "string-single", "three-agent-match", "matches-not-a-list",
             "float-agent", "float-single", "repeated-agent-match", "singles-not-a-list"],
    )
    def test_malformed_outcome_exits_2(self, capsys, tmp_path, illustration_file, changes):
        outcome = {
            "matches": [[1, 3]],
            "singles": [2, 4],
            "payoffs": {"1": "3", "2": "0", "3": "1", "4": "0"},
        }
        outcome.update(changes)
        path = write_json(tmp_path / "outcome.json", outcome)
        code, _, err = run_cli(capsys, "check", illustration_file, path)
        assert code == 2 and err.startswith("error:") and err.count("\n") == 1

    def test_empty_outcome_file_exits_2(self, capsys, tmp_path, illustration_file):
        path = tmp_path / "outcome.json"
        path.write_text("\n  \n", encoding="utf-8")
        code, out, err = run_cli(capsys, "check", illustration_file, str(path))
        assert code == 2 and not out
        assert err == f"error: {path}: empty outcome file\n"

    @pytest.mark.parametrize(
        "payoffs",
        [
            {"01": "9", "1": "3", "2": "4", "3": "1", "4": "2"},
            {"1": "3", "01": "9", "2": "4", "3": "1", "4": "2"},
        ],
        ids=["padded-key-first", "padded-key-last"],
    )
    def test_payoff_keys_naming_one_agent_twice_exit_2(
        self, capsys, tmp_path, illustration_file, payoffs
    ):
        # Either order fails alike: no key may silently overwrite another.
        outcome = {"matches": [[1, 3], [2, 4]], "payoffs": payoffs}
        path = write_json(tmp_path / "outcome.json", outcome)
        code, out, err = run_cli(capsys, "check", illustration_file, path)
        assert code == 2 and not out
        assert err == "error: outcome 'payoffs' names agent 1 more than once\n"

    def test_round_trip_solve_then_check(self, capsys, tmp_path, modified_file):
        code, out, _ = run_cli(capsys, "solve", modified_file)
        assert code == 0
        path = tmp_path / "solved.json"
        path.write_text(out, encoding="utf-8")
        code, out, _ = run_cli(capsys, "check", modified_file, str(path))
        assert code == 0
        assert json_lines(out)[0] == {"stable": True}


# JSON-ish values for fuzzing the input boundary: scalars of every JSON
# type, near-miss ids and amounts, and lists and objects of them.
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 7),
    st.integers(),
    st.floats(),
    st.text(max_size=3),
    st.sampled_from(["1", "01", "3", " 4", "-1", "1/2", "0.5", "1e2", "1e1001", "2/0", "x"]),
)
_json = st.recursive(
    _scalars,
    lambda inner: (
        st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=4)
    ),
    max_leaves=12,
)
_PAIRS = [(1, 3), (1, 4), (2, 3), (2, 4)]


def _places(value, path=()):
    """Every path to a value inside nested lists and dicts, the root included."""
    yield path
    if isinstance(value, dict):
        items = value.items()
    else:
        items = enumerate(value) if isinstance(value, list) else ()
    for key, inner in items:
        yield from _places(inner, path + (key,))


@st.composite
def _mutated(draw, value):
    """value with up to three places replaced by junk, or a dict key renamed."""
    for _ in range(draw(st.integers(0, 3))):
        path = draw(st.sampled_from(list(_places(value))))
        if not path:
            return draw(_json)
        parent = value
        for key in path[:-1]:
            parent = parent[key]
        if isinstance(parent, dict) and draw(st.booleans()):
            new_key = draw(st.sampled_from(["01", "1", "3", " 2", "x", ""]))
            parent[new_key] = parent.pop(path[-1])
        else:
            parent[path[-1]] = draw(_json)
    return value


@st.composite
def _market_and_outcome(draw):
    """A 2x2 market and a feasible outcome of it, each then perhaps mutated."""
    divisions = st.tuples(st.integers(-1, 3), st.integers(-1, 3))
    menus = {
        pair: draw(st.lists(divisions, min_size=1, max_size=3))
        for pair in draw(st.lists(st.sampled_from(_PAIRS), unique=True, max_size=4))
    }
    instance = {
        "agents": [1, 2, 3, 4],
        "firms": [1, 2],
        "workers": [3, 4],
        "menus": [
            {"pair": list(pair), "contracts": [{str(pair[0]): x, str(pair[1]): y} for x, y in cs]}
            for pair, cs in menus.items()
        ],
    }
    payoffs = {str(a): 0 for a in (1, 2, 3, 4)}
    matches = []
    for pair in draw(st.sampled_from([[], [(1, 3)], [(1, 3), (2, 4)], [(1, 4), (2, 3)], [(2, 4)]])):
        usable = [(x, y) for x, y in menus.get(pair, []) if x >= 0 and y >= 0]
        if usable:
            matches.append(list(pair))
            payoffs[str(pair[0])], payoffs[str(pair[1])] = draw(st.sampled_from(usable))
    outcome = {"matches": matches, "payoffs": payoffs}
    if draw(st.booleans()):
        outcome["singles"] = [a for a in (1, 2, 3, 4) if not any(a in m for m in matches)]
    return draw(_mutated(instance)), draw(_mutated(outcome))


_inputs = st.one_of(_market_and_outcome(), _market_and_outcome(), st.tuples(_json, _json))


class TestFuzzedInput:
    """Any JSON-ish input gives a library error or an exit code of 0, 1 or 2."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(inputs=_inputs)
    def test_loaders(self, inputs):
        instance, outcome = inputs
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NegativeContractWarning)
            try:
                instance_from_dict(instance)
            except ContractMatchError:
                pass
        try:
            outcome_from_dict(outcome)
        except ContractMatchError:
            pass

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(inputs=_inputs)
    def test_check_command(self, inputs):
        instance, outcome = inputs
        with tempfile.TemporaryDirectory() as tmp:
            inst_path = os.path.join(tmp, "instance.json")
            outcome_path = os.path.join(tmp, "outcome.json")
            for path, data in ((inst_path, instance), (outcome_path, outcome)):
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(json.dumps(data))
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["check", inst_path, outcome_path])
        assert code in (0, 1, 2)
        lines = err.getvalue().splitlines()
        assert all(line.startswith(("error: ", "warning: ")) for line in lines)
        if code == 2:
            assert lines[-1].startswith("error: ")


class TestCore:
    def test_gs4_core_is_empty_and_exits_0(self, capsys, gs4_file):
        code, out, _ = run_cli(capsys, "core", gs4_file)
        assert code == 0
        assert json_lines(out) == [{"count": 0}]

    def test_illustration_core_count(self, capsys, illustration_file):
        code, out, _ = run_cli(capsys, "core", illustration_file)
        assert code == 0
        records = json_lines(out)
        assert records[-1] == {"count": 5}
        assert records[0]["payoffs"] == {"1": "3", "2": "4", "3": "1", "4": "2"}

    def test_modified_core_count(self, capsys, modified_file):
        code, out, _ = run_cli(capsys, "core", modified_file)
        assert code == 0
        assert json_lines(out)[-1] == {"count": 4}

    def test_budget_flag_exits_2(self, capsys, gs4_file):
        code, _, err = run_cli(capsys, "core", gs4_file, "--max", "5")
        assert code == 2 and "budget" in err

    def test_budget_env_var(self, capsys, gs4_file, monkeypatch):
        monkeypatch.setenv("CONTRACTMATCH_MAX_OUTCOMES", "5")
        code, _, err = run_cli(capsys, "core", gs4_file)
        assert code == 2 and "budget" in err

    def test_thousands_of_agents_never_give_a_traceback(self, tmp_path):
        # 1,200 disjoint one-contract pairs: the core search assigns 1,200
        # agents deep, past Python's default recursion limit.
        pairs = [[2 * a - 1, 2 * a] for a in range(1, 1201)]
        path = write_json(
            tmp_path / "pairs.json",
            {
                "agents": list(range(1, 2401)),
                "menus": [{"pair": p, "contracts": [{str(a): 1 for a in p}]} for p in pairs],
            },
        )
        proc = subprocess.run(
            [sys.executable, "-m", "contractmatch.cli", "core", path],
            capture_output=True,
            text=True,
        )
        assert "Traceback" not in proc.stderr
        if proc.returncode == 2:
            assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
        else:
            assert proc.returncode == 0 and proc.stderr == ""
            assert json_lines(proc.stdout)[0]["matches"] == pairs

    def test_zero_budget_flag_exits_2(self, capsys, illustration_file):
        code, out, err = run_cli(capsys, "core", illustration_file, "--max", "0")
        assert code == 2 and err.startswith("error:") and not out

    def test_non_integer_budget_env_var_exits_2(self, capsys, illustration_file, monkeypatch):
        monkeypatch.setenv("CONTRACTMATCH_MAX_OUTCOMES", "abc")
        code, out, err = run_cli(capsys, "core", illustration_file)
        assert code == 2 and err.startswith("error:") and not out

    @pytest.mark.parametrize("flags", [[], ["--all-tiebreaks"]], ids=["run", "all-tiebreaks"])
    @pytest.mark.parametrize(
        "argv, env",
        [(["--max", "0"], None), (["--max", "-3"], None), ([], "abc"), ([], "0")],
        ids=["zero-flag", "negative-flag", "non-integer-env-var", "zero-env-var"],
    )
    def test_solve_rejects_a_bad_budget_under_every_flag(
        self, capsys, illustration_file, monkeypatch, flags, argv, env
    ):
        if env is not None:
            monkeypatch.setenv("CONTRACTMATCH_MAX_OUTCOMES", env)
        code, out, err = run_cli(capsys, "solve", illustration_file, *flags, *argv)
        assert code == 2 and err.startswith("error:") and not out

    def test_solve_runs_under_a_good_budget(self, capsys, illustration_file, monkeypatch):
        monkeypatch.setenv("CONTRACTMATCH_MAX_OUTCOMES", "1")
        assert run_cli(capsys, "solve", illustration_file)[0] == 0
        assert run_cli(capsys, "solve", illustration_file, "--max", "1")[0] == 0


class TestVerify:
    def test_pairwise_efficiency_holds_on_modified(self, capsys, modified_file):
        code, out, _ = run_cli(
            capsys, "verify", modified_file, "--properties", "pairwise-efficiency"
        )
        assert code == 0
        assert json_lines(out) == [
            {"property": "pairwise-efficiency", "holds": True, "witnesses": []}
        ]

    def test_disjoint_yields_fails_on_modified_with_witness(self, capsys, modified_file):
        code, out, _ = run_cli(
            capsys, "verify", modified_file, "--properties", "disjoint-yields"
        )
        assert code == 1
        record = json_lines(out)[0]
        assert record["holds"] is False
        assert [1, 3, 4, "3"] in record["witnesses"]

    def test_firm_pareto_holds_on_illustration(self, capsys, illustration_file):
        code, out, _ = run_cli(
            capsys, "verify", illustration_file, "--properties", "firm-pareto"
        )
        assert code == 0
        assert json_lines(out)[0]["holds"] is True

    def test_requested_precondition_violation_exits_2(self, capsys, modified_file):
        code, _, err = run_cli(
            capsys, "verify", modified_file, "--properties", "employment-invariance"
        )
        assert code == 2 and "disjoint-yields" in err

    def test_default_battery_skips_unavailable_properties(self, capsys, modified_file):
        code, out, _ = run_cli(capsys, "verify", modified_file)
        records = json_lines(out)
        names = {r["property"] for r in records}
        assert "pairwise-efficiency" in names
        skipped = [r for r in records if "skipped" in r]
        assert {r["property"] for r in skipped} >= {
            "firm-optimality",
            "employment-invariance",
            "sides-opposed",
        }
        # disjoint-yields fails on this instance, so the battery reports 1
        assert code == 1

    @pytest.fixture()
    def enumeration_calls(self, monkeypatch):
        calls = {"core": 0, "runs": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(stability, "enumerate_core", counted("core", stability.enumerate_core))
        monkeypatch.setattr(
            procedure,
            "enumerate_procedure_outcomes",
            counted("runs", procedure.enumerate_procedure_outcomes),
        )
        return calls

    def test_full_battery_enumerates_core_and_ties_once(
        self, capsys, illustration_file, enumeration_calls
    ):
        code, out, _ = run_cli(capsys, "verify", illustration_file)
        assert len(json_lines(out)) == 8 and code == 1
        assert enumeration_calls == {"core": 1, "runs": 1}

    def test_menu_properties_enumerate_nothing(
        self, capsys, illustration_file, enumeration_calls
    ):
        run_cli(
            capsys,
            "verify",
            illustration_file,
            "--properties",
            "pairwise-efficiency,disjoint-yields",
        )
        assert enumeration_calls == {"core": 0, "runs": 0}

    def test_core_budget_error_has_one_wording(self, capsys, illustration_file):
        # Every property that needs the core is skipped with the core
        # search's own message; the two menu properties and firm-pareto
        # need no core, and the hypotheses fail before the core is asked for.
        message = "more than 2 outcomes examined; raise the enumeration budget"
        code, out, _ = run_cli(capsys, "verify", illustration_file, "--max", "2")
        skipped = {r["property"]: r["skipped"] for r in json_lines(out) if "skipped" in r}
        assert code == 1
        assert skipped == {
            "firm-optimality": "precondition not met: disjoint-yields",
            "employment-invariance": "precondition not met: disjoint-yields",
            "sides-opposed": message,
            "pair-tradeoff": message,
            "group-tradeoff": message,
        }
        code, out, err = run_cli(
            capsys, "verify", illustration_file, "--properties", "group-tradeoff", "--max", "2"
        )
        assert code == 2 and not out
        assert err == f"error: group-tradeoff: {message}\n"

    def test_unknown_property_exits_2(self, capsys, modified_file):
        code, _, err = run_cli(capsys, "verify", modified_file, "--properties", "bogus")
        assert code == 2 and "unknown property" in err


class TestRelabelledFractionalMarket:
    """Exact output on a market where firm 7 has a higher id than worker 5,
    amounts are in halves and thirds, and one contract is negative."""

    MARKET = {
        "agents": [2, 5, 7, 9],
        "firms": [7, 2],
        "workers": [5, 9],
        "menus": [
            {
                "pair": [7, 5],
                "contracts": [
                    {"7": "3/2", "5": "1/3"},
                    {"7": "1/2", "5": "4/3"},
                    {"7": "-1", "5": "5"},
                ],
            },
            {"pair": [7, 9], "contracts": [{"7": "1.5", "9": "1/2"}]},
            {"pair": [2, 5], "contracts": [{"2": "2", "5": "1/2"}, {"2": "5/2", "5": "1/2"}]},
            {"pair": [2, 9], "contracts": [{"2": "1", "9": "2/3"}]},
        ],
    }
    WARNING = (
        "warning: 1 contract(s) contain negative amounts and can never appear in an outcome\n"
    )

    @pytest.fixture()
    def market_file(self, tmp_path):
        return write_json(tmp_path / "market.json", self.MARKET)

    def test_check_prints_certificates_of_a_blocked_outcome(self, capsys, tmp_path, market_file):
        outcome = {"matches": [[5, 7]], "payoffs": {"2": "0", "5": "4/3", "7": "1/2", "9": "0"}}
        path = write_json(tmp_path / "outcome.json", outcome)
        assert run_cli(capsys, "check", market_file, path) == (
            1,
            '{"stable": false}\n'
            '{"coalition": [2, 9], "contract": {"2": "1", "9": "2/3"}}\n'
            '{"coalition": [7, 9], "contract": {"7": "3/2", "9": "1/2"}}\n',
            self.WARNING,
        )

    def test_verify_menu_properties_and_firm_pareto(self, capsys, market_file):
        properties = "pairwise-efficiency,disjoint-yields,firm-pareto"
        assert run_cli(capsys, "verify", market_file, "--properties", properties) == (
            1,
            '{"holds": false, "property": "pairwise-efficiency", "witnesses": '
            '[[[2, 5], {"2": "2", "5": "1/2"}, {"2": "5/2", "5": "1/2"}]]}\n'
            '{"holds": false, "property": "disjoint-yields", "witnesses": [[7, 5, 9, "3/2"]]}\n'
            '{"holds": true, "property": "firm-pareto", "witnesses": []}\n',
            self.WARNING,
        )

    def test_core(self, capsys, market_file):
        assert run_cli(capsys, "core", market_file) == (
            0,
            '{"matches": [[2, 5], [7, 9]], "payoffs": '
            '{"2": "2", "5": "1/2", "7": "3/2", "9": "1/2"}, "singles": []}\n'
            '{"matches": [[2, 5], [7, 9]], "payoffs": '
            '{"2": "5/2", "5": "1/2", "7": "3/2", "9": "1/2"}, "singles": []}\n'
            '{"matches": [[2, 9], [5, 7]], "payoffs": '
            '{"2": "1", "5": "4/3", "7": "1/2", "9": "2/3"}, "singles": []}\n'
            '{"count": 3}\n',
            self.WARNING,
        )


class TestGenAndExample:
    def test_gen_emits_valid_deterministic_instance(self, capsys):
        code, out1, _ = run_cli(
            capsys, "gen", "--firms", "2", "--workers", "3", "--seed", "11"
        )
        assert code == 0
        code, out2, _ = run_cli(
            capsys, "gen", "--firms", "2", "--workers", "3", "--seed", "11"
        )
        assert out1 == out2
        data = json.loads(out1)
        assert data["firms"] == [1, 2]
        assert data["workers"] == [3, 4, 5]

    def test_gen_with_force_flags(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "gen",
            "--firms", "2", "--workers", "2",
            "--min-value", "1", "--max-value", "8",
            "--pairwise-efficient", "--disjoint-yields",
            "--seed", "3",
        )
        assert code == 0
        json.loads(out)

    @pytest.mark.parametrize(
        "flag", [["--max-value", "1000000000000"], ["--max-contracts", "100000000000"]]
    )
    def test_gen_beyond_a_size_cap_exits_2(self, capsys, flag):
        # Without the caps these run out of memory or run for minutes.
        code, out, err = run_cli(capsys, "gen", "--firms", "1", "--workers", "1", *flag)
        assert code == 2 and not out
        assert err.startswith("error:") and err.count("\n") == 1

    def test_pairwise_efficient_menu_wider_than_the_value_range_exits_2(self, capsys):
        # Three distinct amounts cannot be drawn from the two values 1 and 2.
        code, out, err = run_cli(
            capsys, "gen", "--firms", "1", "--workers", "1", "--min-contracts", "3",
            "--max-contracts", "3", "--min-value", "1", "--max-value", "2",
            "--pairwise-efficient",
        )
        assert code == 2 and not out
        assert err == "error: value_range too small for distinct amounts within a menu\n"

    def test_example_prints_builtin(self, capsys, illustration):
        code, out, _ = run_cli(capsys, "example", "illustration")
        assert code == 0
        assert json.loads(out) == instance_to_dict(illustration)

    def test_example_round_trips_through_solve(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "example", "illustration-modified")
        path = tmp_path / "inst.json"
        path.write_text(out, encoding="utf-8")
        code, out, _ = run_cli(capsys, "solve", str(path))
        assert code == 0


def close_after_one_line(*argv):
    """Run the command, close its stdout after one line: (exit code, stderr)."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "contractmatch.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    return proc.wait(timeout=300), err


class TestConsoleEntry:
    def test_module_invocation(self, tmp_path, illustration):
        path = write_json(tmp_path / "i.json", instance_to_dict(illustration))
        proc = subprocess.run(
            [sys.executable, "-m", "contractmatch.cli", "solve", path],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout.splitlines()[0])["payoffs"]["2"] == "4"

    def test_calls_in_one_process_print_what_fresh_processes_print(
        self, capsys, tmp_path, modified
    ):
        # The parser is built once per process, so no option of one call
        # may carry over to the next: firm 1 of the modified market earns 3
        # with either worker, so the policy changes the outcome.
        path = write_json(tmp_path / "m.json", instance_to_dict(modified))
        calls = [
            ["solve", path, "--policy", "high-worker"],
            ["solve", path],
            ["check", path, str(tmp_path / "missing.json")],
            ["verify", path],
        ]
        for argv in calls:
            fresh = subprocess.run(
                [sys.executable, "-m", "contractmatch.cli", *argv],
                capture_output=True,
                text=True,
            )
            assert run_cli(capsys, *argv) == (fresh.returncode, fresh.stdout, fresh.stderr)

    # Each command prints more than a pipe holds, so it meets the closed
    # pipe with lines left to print; the command's own exit code stands.
    def test_solve_trace_into_a_closed_pipe_exits_0(self, tmp_path):
        inst = gen_random(GenParams(40, 40, seed=2))
        path = write_json(tmp_path / "mid.json", instance_to_dict(inst))
        assert close_after_one_line("solve", path, "--trace") == (0, b"")

    def test_gen_into_a_closed_pipe_exits_0(self):
        assert close_after_one_line("gen", "--firms", "200", "--workers", "200") == (0, b"")

    def test_failing_check_into_a_closed_pipe_exits_1(self, tmp_path):
        # Everyone single: thousands of pairs block, one certificate a line.
        inst = gen_random(GenParams(200, 200, seed=1))
        path = write_json(tmp_path / "big.json", instance_to_dict(inst))
        single = write_json(
            tmp_path / "single.json", {"matches": [], "payoffs": {str(a): "0" for a in inst.agents}}
        )
        assert close_after_one_line("check", path, single) == (1, b"")
