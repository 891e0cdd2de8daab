"""Command-line interface.

Exit codes: 0 when the command succeeds (or the checked property holds),
1 when a checked property fails (witnesses are printed), 2 on malformed
input, violated preconditions of an explicitly requested property, or an
exceeded enumeration budget. Output is line-oriented JSON so runs can be
diffed in CI. A reader that closes stdout early, such as `head -1`, does
not change the exit code: the command runs on, writing nothing more, and
exits with its own code and no error line.
"""
from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import sys
import warnings
from fractions import Fraction

from . import generator, model, procedure, stability, verify
from .errors import ContractMatchError, FormatError
from .model import EnumerationBudget, Outcome, money_str
from .procedure import POLICIES

BUDGET_ENV_VAR = "CONTRACTMATCH_MAX_OUTCOMES"

_LEAVES = frozenset({str, int, bool, type(None)})

# One encoder for every record. _jsonable's output is a fresh tree of
# lists, dicts and leaves, so the circular-reference pass finds nothing.
_encode = json.JSONEncoder(sort_keys=True, check_circular=False).encode


def _jsonable(value):
    # Leaves and containers first, by exact type: Fraction's class is an
    # ABC, so an isinstance test against it costs several times more.
    kind = type(value)
    if kind in _LEAVES:
        return value
    if kind is tuple or kind is list:
        return [_jsonable(v) for v in value]
    if kind is dict:
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, Outcome):
        return model.outcome_to_dict(value)
    if isinstance(value, model.Allocation):
        return model.payments_to_dict(value.payments)
    if isinstance(value, Fraction):
        return money_str(value)
    if isinstance(value, (set, frozenset)):
        return sorted(_jsonable(v) for v in value)
    return value


def _print_json(data) -> None:
    """Print data as one JSON line, or an instance in its file form."""
    if isinstance(data, model.Instance):
        text = json.dumps(model.instance_to_dict(data), indent=2, sort_keys=True)
    else:
        text = _encode(_jsonable(data))
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # The reader closed stdout. As the Python docs' note on SIGPIPE
        # advises, the rest goes to os.devnull, so that the command ends
        # with its own exit code; each line is flushed as it is printed,
        # so none is left to fail at exit.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _read(read, path):
    """read(path) with the cyclic garbage collector paused, then restored
    to its prior state.

    A decoded JSON document and the loader's lists hold no reference
    cycles, so reference counting frees them; the collector would only
    scan them again and again as they grow.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return read(path)
    finally:
        if enabled:
            gc.enable()


def _budget(args) -> EnumerationBudget | None:
    if args.max is not None:
        cap, source = args.max, "--max"
    else:
        env = os.environ.get(BUDGET_ENV_VAR)
        if not env:
            return None
        try:
            cap = int(env)
        except ValueError:
            raise FormatError(f"{BUDGET_ENV_VAR} must be an integer, got {env!r}") from None
        source = BUDGET_ENV_VAR
    if cap < 1:
        raise FormatError(f"{source} must be a positive integer, got {cap}")
    return EnumerationBudget(cap)


def _cmd_solve(args) -> int:
    if args.trace and args.all_tiebreaks:
        raise FormatError("--trace does not apply with --all-tiebreaks")
    inst = _read(model.read_instance_file, args.instance)
    budget = _budget(args)
    if args.all_tiebreaks:
        for outcome in procedure.enumerate_procedure_outcomes(inst, budget):
            _print_json(outcome)
        return 0
    policy = POLICIES[args.policy]
    if not args.trace:
        _print_json(procedure.solve(inst, policy))
        return 0
    outcome, trace = procedure.run_procedure(inst, policy)
    _print_json(outcome)
    for step in trace.steps:
        _print_json(procedure.trace_step_to_dict(step))
    return 0


def _cmd_check(args) -> int:
    inst = _read(model.read_instance_file, args.instance)
    outcome = _read(model.read_outcome_file, args.outcome)
    certificates = stability.blocking_coalitions(inst, outcome)
    _print_json({"stable": not certificates})
    for cert in certificates:
        _print_json({"coalition": list(cert.coalition), "contract": cert.allocation})
    return 0 if not certificates else 1


def _cmd_core(args) -> int:
    inst = _read(model.read_instance_file, args.instance)
    core = stability.enumerate_core(inst, _budget(args))
    for outcome in core:
        _print_json(outcome)
    _print_json({"count": len(core)})
    return 0


def _cmd_verify(args) -> int:
    inst = _read(model.read_instance_file, args.instance)
    battery = verify.PropertyBattery(inst, _budget(args))
    explicit = args.properties is not None
    names = [n.strip() for n in args.properties.split(",")] if explicit else verify.PROPERTY_NAMES
    for name in names:
        if name not in verify.PROPERTY_NAMES:
            raise FormatError(f"unknown property {name!r}")
    exit_code = 0
    for name in names:
        try:
            report = battery.run(name)
        except ContractMatchError as exc:
            if explicit:
                raise ContractMatchError(f"{name}: {exc}") from exc
            _print_json({"property": name, "skipped": str(exc)})
            continue
        record = {"property": name, "holds": report.holds, "witnesses": report.witnesses}
        if report.details:
            record["details"] = report.details
        _print_json(record)
        if not report.holds:
            exit_code = 1
    return exit_code


def _cmd_gen(args) -> int:
    params = generator.GenParams(
        n_firms=args.firms,
        n_workers=args.workers,
        contracts_per_pair=(args.min_contracts, args.max_contracts),
        value_range=(args.min_value, args.max_value),
        menu_density=args.density,
        force_pairwise_efficient=args.pairwise_efficient,
        force_disjoint_yields=args.disjoint_yields,
        seed=args.seed,
    )
    _print_json(generator.gen_random(params))
    return 0


def _cmd_example(args) -> int:
    _print_json(generator.builtin(args.name))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line's parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="contractmatch",
        description="Solve and verify two-sided contract-menu matching problems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run the firm-proposing procedure")
    p.add_argument("instance")
    p.add_argument("--policy", choices=sorted(POLICIES), default="default")
    p.add_argument("--trace", action="store_true", help="append one record per stage")
    p.add_argument(
        "--all-tiebreaks",
        action="store_true",
        help="print every outcome reachable under some tie resolution",
    )
    p.add_argument("--max", type=int, help="enumeration budget")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("check", help="test an outcome for stability")
    p.add_argument("instance")
    p.add_argument("outcome")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("core", help="enumerate all stable outcomes")
    p.add_argument("instance")
    p.add_argument("--max", type=int, help="enumeration budget")
    p.set_defaults(func=_cmd_core)

    p = sub.add_parser("verify", help="run property checkers")
    p.add_argument("instance")
    p.add_argument(
        "--properties",
        help="comma-separated list; default runs all, skipping those whose "
        "preconditions fail (explicitly requested ones exit 2 instead)",
    )
    p.add_argument("--max", type=int, help="enumeration budget")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("gen", help="generate a seeded random instance")
    p.add_argument("--firms", type=int, default=3)
    p.add_argument("--workers", type=int, default=3)
    p.add_argument("--min-contracts", type=int, default=1)
    p.add_argument("--max-contracts", type=int, default=3)
    p.add_argument("--min-value", type=int, default=0)
    p.add_argument("--max-value", type=int, default=5)
    p.add_argument("--density", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--pairwise-efficient", action="store_true")
    p.add_argument("--disjoint-yields", action="store_true")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("example", help="print a builtin instance")
    p.add_argument("name", choices=generator.BUILTIN_NAMES)
    p.set_defaults(func=_cmd_example)

    return parser


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    print(f"warning: {message}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    with warnings.catch_warnings():
        # A warning is one "warning: ..." line, like an error, with no
        # source path or line of the library.
        warnings.showwarning = _show_warning
        try:
            return args.func(args)
        except (ContractMatchError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2


if __name__ == "__main__":
    raise SystemExit(main())
