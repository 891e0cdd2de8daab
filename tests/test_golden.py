"""Byte-for-byte golden outputs of the command line.

Each line of golden/cli.jsonl holds one command: its argv, with instance
and outcome files named relative to the directory the command ran in, and
its exit code, stdout and stderr. The commands are `solve` under every
policy, `solve --all-tiebreaks`, `core`, `verify` and `check` of the
default run, on the builtins and on seeded markets of 2-4 agents per side;
the builtins and the first eight markets also run `solve --trace`. The
markets are generated here and are not committed. Last come `example` of
every builtin and a few `gen` commands, which pin the instance writer.

Regenerate the file, after a change that is meant to alter the output,
with

    PYTHONPATH=src python tests/test_golden.py

and say in CHANGES.md that it was regenerated and why.
"""
import contextlib
import io
import json
import os
import sys
from pathlib import Path

from contractmatch import BUILTIN_NAMES, GenParams, builtin, gen_random, instance_to_dict
from contractmatch.cli import main

GOLDEN = Path(__file__).parent / "golden" / "cli.jsonl"
N_MARKETS = 48
TRACED_MARKETS = 8
GEN_COMMANDS = [
    ["gen"],
    ["gen", "--pairwise-efficient", "--disjoint-yields", "--min-value", "1", "--max-value", "40"],
    ["gen", "--pairwise-efficient", "--min-value", "1", "--max-value", "40", "--seed", "4"],
    ["gen", "--disjoint-yields", "--firms", "4", "--workers", "2", "--max-value", "40"],
    ["gen", "--density", "0.5", "--firms", "5", "--workers", "4", "--seed", "2"],
    ["gen", "--min-value", "-3", "--seed", "1"],
]


def market_params(i: int) -> GenParams:
    # Even markets use both generator flags with amounts 1..40; odd ones
    # are unforced with amounts 0..6, so ties and zero payoffs occur.
    forced = i % 2 == 0
    return GenParams(
        n_firms=2 + i % 3,
        n_workers=2 + (i // 3) % 3,
        contracts_per_pair=(1, 3),
        value_range=(1, 40) if forced else (0, 6),
        menu_density=1.0 if i % 4 < 2 else 0.75,
        force_pairwise_efficient=forced,
        force_disjoint_yields=forced,
        seed=7000 + i,
    )


def markets():
    """(file name, instance) of every market, builtins first."""
    for name in BUILTIN_NAMES:
        yield f"{name}.json", builtin(name)
    for i in range(N_MARKETS):
        yield f"market-{i:02d}.json", gen_random(market_params(i))


def run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def records(directory: Path) -> list[dict]:
    """Run every command with `directory` as the working directory."""
    here = os.getcwd()
    os.chdir(directory)
    try:
        found = []
        for k, (path, inst) in enumerate(markets()):
            Path(path).write_text(json.dumps(instance_to_dict(inst)), encoding="utf-8")
            commands = [["solve", path, "--policy", p] for p in ("high-worker", "strict-list")]
            if k < len(BUILTIN_NAMES) + TRACED_MARKETS:
                commands.append(["solve", path, "--trace"])
            commands += [["solve", path, "--all-tiebreaks"], ["core", path], ["verify", path]]
            default = run(["solve", path])
            found.append(default)
            if default["code"] == 0:
                outcome = path.replace(".json", ".outcome")
                Path(outcome).write_text(default["stdout"], encoding="utf-8")
                commands.append(["check", path, outcome])
            found += [run(argv) for argv in commands]
        found += [run(["example", name]) for name in BUILTIN_NAMES]
        found += [run(argv) for argv in GEN_COMMANDS]
        return found
    finally:
        os.chdir(here)


def read_golden() -> list[dict]:
    with open(GOLDEN, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def test_cli_output_matches_golden_file(tmp_path):
    expected = read_golden()
    actual = records(tmp_path)
    assert [r["argv"] for r in actual] == [r["argv"] for r in expected]
    differing = [(a, e) for a, e in zip(actual, expected) if a != e]
    assert not differing, (
        f"{len(differing)} of {len(expected)} commands differ; the first: "
        f"{differing[0][0]!r} against the golden {differing[0][1]!r}"
    )


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        found = records(Path(scratch))
    GOLDEN.parent.mkdir(exist_ok=True)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        for record in found:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(f"wrote {len(found)} commands to {GOLDEN}", file=sys.stderr)
