"""Run one benchmark workload and print its metrics as one JSON line.

    python3 bench/run.py --workload solve-market --seed 1 --seconds 30 --trace 0

Runs from the root of a checkout and imports the package from its `src`
directory. The op loop is closed, from a single client, with no threads:
each op starts when the previous one has returned. A run is made of
whole rounds, each running the op once on every market of the workload;
another round starts while at least half a round's time is left. Whole
rounds keep the mix of markets the same in every run, which matters
where a few markets carry most of the time.

Times are scaled to a machine of fixed speed: a fixed calibration loop
runs between ops, and each op's latency is multiplied by the loop's
reference time over its median time nearby (see `Speed`). The line
before the result gives the unscaled figures.

With `--trace 0` the last line carries the end-to-end metrics. With
`--trace 1` it carries the per-layer metrics of a traced pass, whose
rounds alternate with those of an untraced pass and record spans around
each layer's public functions; `trace.slowdown` is the untraced ops per
second over the traced ones. Every op's output is checked after the
timing ends.
"""
from __future__ import annotations

import argparse
import bisect
import gc
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from fractions import Fraction

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")

# Set-up runs at least SETUP_REPEATS times and for at least SETUP_MIN_S
# seconds; setup_s takes the median.
SETUP_REPEATS = 3
SETUP_MIN_S = 2.0
# Tail percentiles to choose from: the highest with at least ten samples
# beyond it is reported.
TAIL_GRID = (75, 80, 90, 95, 98, 99, 99.5, 99.8, 99.9)
# Timed work is scaled to a machine on which calibrate() takes CAL_REF_S,
# by samples taken at least every CAL_EVERY_S seconds between ops. An op
# is scaled by the median of the samples from CAL_WINDOW_S seconds before
# it starts to CAL_WINDOW_S seconds after it ends, or of the CAL_NEAREST
# nearest if there are fewer; a set-up by the median of SETUP_CAL samples
# before and SETUP_CAL after it.
CAL_ITEMS = 1000
CAL_REF_S = 0.004
CAL_EVERY_S = 0.1
CAL_WINDOW_S = 2.5
CAL_NEAREST = 11
SETUP_CAL = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_unit(name: str) -> str:
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    if name == "stability.core_yield":
        return "ratio"
    if name == "trace.slowdown":
        return "x"
    return "count"


def calibrate() -> None:
    """A fixed piece of pure-Python work of the kind the program does.

    Fraction arithmetic and comparisons under tuple keys in a dict, then a
    sort; it shares no code with the program, so a change to the program
    cannot move it.
    """
    best: dict = {}
    total = Fraction(0)
    for i in range(CAL_ITEMS):
        x = Fraction(i % 7, 1 + i % 5)
        key = (i % 13, i % 11)
        if key not in best or x > best[key]:
            best[key] = x
        total += x
    sorted(best.items())


class Speed:
    """Calibration samples taken between ops, to scale times to CAL_REF_S.

    The machine's speed moves by a quarter from one ten-second window to
    the next, and a fixed loop run beside the ops moves with it. A time
    scaled by CAL_REF_S over the loop's median time nearby is the time the
    op would take where the loop takes CAL_REF_S.
    """

    def __init__(self):
        self.times: list[float] = []
        self.durations: list[float] = []
        self.last = -math.inf

    def sample(self) -> None:
        t = time.perf_counter()
        calibrate()
        end = time.perf_counter()
        self.times.append(t)
        self.durations.append(end - t)
        self.last = end

    def sample_if_due(self) -> None:
        if time.perf_counter() - self.last >= CAL_EVERY_S:
            self.sample()

    def sample_n(self, n: int) -> None:
        for _ in range(n):
            self.sample()

    def recent(self, n: int) -> float:
        """CAL_REF_S over the median of the last n samples."""
        return CAL_REF_S / statistics.median(self.durations[-n:])

    def factor(self, start: float, end: float) -> float:
        """CAL_REF_S over the median of the samples near [start, end]."""
        lo = bisect.bisect_left(self.times, start - CAL_WINDOW_S)
        hi = bisect.bisect_right(self.times, end + CAL_WINDOW_S)
        if hi - lo < CAL_NEAREST:
            k = bisect.bisect(self.times, start)
            lo = max(0, min(k - CAL_NEAREST // 2, len(self.times) - CAL_NEAREST))
            hi = lo + CAL_NEAREST
        return CAL_REF_S / statistics.median(self.durations[lo:hi])


class Pass:
    """Op latencies and distinct outputs of a pass of whole rounds."""

    def __init__(self, markets: int):
        self.markets = markets
        self.ops: list[tuple[int, int, float, float]] = []  # (round, market, start, latency)
        # Only distinct outputs are kept, so that the heap the program's
        # garbage collector walks does not grow with the rounds.
        self.results: list[list] = [[] for _ in range(markets)]
        self.failures: list[str] = []
        self.rounds = 0
        self.wall = 0.0

    @property
    def completed(self) -> int:
        return len(self.ops)

    def round(self, op, speed: Speed) -> None:
        """Run `op` once on every market, one after the other.

        Calibration samples are taken between ops and do not count in
        `wall`, which sums the ops' latencies.
        """
        for i in range(self.markets):
            speed.sample_if_due()
            t = time.perf_counter()
            try:
                result = op(i)
            except Exception as exc:  # counted as a failed op and reported
                self.failures.append(f"market {i}: {type(exc).__name__}: {exc}")
                continue
            latency = time.perf_counter() - t
            self.wall += latency
            self.ops.append((self.rounds, i, t, latency))
            if result not in self.results[i]:
                self.results[i].append(result)
        self.rounds += 1


def timings(p: Pass, speed: Speed) -> tuple[float, float, float, float]:
    """(ops per second, p50, tail percentile, tail), scaled by `speed`.

    Ops per second is taken from the median round. The percentiles are
    over markets, each timed by its median op; every market runs once per
    round, so each weighs the same. The tail is the highest grid
    percentile with at least ten markets beyond it.
    """
    per_market: list[list[float]] = [[] for _ in range(p.markets)]
    per_round: list[list[float]] = [[] for _ in range(p.rounds)]
    for r, i, start, latency in p.ops:
        scaled = latency * speed.factor(start, start + latency)
        per_market[i].append(scaled)
        per_round[r].append(scaled)
    ops_per_s = statistics.median(len(ts) / sum(ts) for ts in per_round if ts)
    ordered = sorted(statistics.median(ts) for ts in per_market if ts)
    n = len(ordered)
    pct = TAIL_GRID[0]
    for q in TAIL_GRID:
        if n - math.ceil(q * n / 100) >= 10:
            pct = q
    tail = ordered[max(0, math.ceil(pct * n / 100) - 1)]
    return ops_per_s, statistics.median(ordered), pct, tail


def check_all(work, results) -> list[str]:
    errors: list[str] = []
    for i, outputs in enumerate(results):
        for result in outputs:
            errors += work.check(i, result)
    return errors


def main(argv: list[str] | None = None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "contractmatch", "__init__.py")):
        print(f"error: no package source at {SRC}/contractmatch", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import contractmatch
    from contractmatch import cli, model, procedure, stability, verify

    if os.path.dirname(os.path.abspath(contractmatch.__file__)) != os.path.join(SRC, "contractmatch"):
        print(f"error: imported contractmatch from {contractmatch.__file__}", file=sys.stderr)
        return 2
    import workloads
    from tracing import Tracer

    import_s = time.perf_counter() - started
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        speed = Speed()
        setups: list[tuple[float, float]] = []  # (raw, scaled)
        repeats, min_s = (1, 0.0) if args.trace else (SETUP_REPEATS, SETUP_MIN_S)
        while len(setups) < repeats or sum(raw for raw, _ in setups) < min_s:
            work = None  # frees the previous set-up's markets
            speed.sample_n(SETUP_CAL)
            t = time.perf_counter()
            work = workloads.WORKLOADS[args.workload](args.seed, work_dir)
            work.build()
            work.op(0)  # warm-up
            raw = time.perf_counter() - t
            speed.sample_n(SETUP_CAL)
            setups.append((raw, raw * speed.recent(2 * SETUP_CAL)))
            if len(setups) == 1:
                import_scaled = import_s * speed.recent(2 * SETUP_CAL)

        gc.collect()
        plain = Pass(len(work.markets))
        traced = Pass(len(work.markets)) if args.trace else None
        tracer = Tracer()

        def traced_op(i):
            tracer.op += 1
            return work.op(i)

        while True:
            plain.round(work.op, speed)
            if traced is not None:
                # Traced rounds alternate with plain ones, so that both
                # passes see the machine at the same speed.
                tracer.install(model, procedure, stability, verify)
                tracer.wrap_span(cli, "main", "cli.main")
                try:
                    traced.round(traced_op, speed)
                finally:
                    tracer.restore()
            wall = plain.wall + (traced.wall if traced is not None else 0.0)
            if wall * (1 + 0.5 / plain.rounds) > args.seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        passes = [plain] if traced is None else [plain, traced]
        results = [
            list(dict.fromkeys(sum((p.results[i] for p in passes), [])))
            for i in range(len(work.markets))
        ]
        failures = sum((p.failures for p in passes), [])
        attempted = sum(p.completed + len(p.failures) for p in passes)
        if traced is not None:
            metrics = tracer.per_op(traced.completed)
            metrics["trace.slowdown"] = (plain.completed / plain.wall) / (
                traced.completed / traced.wall
            )
            tracer.dump(os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.jsonl"))
            units = {name: per_layer_unit(name) for name in metrics}
        else:
            ops_per_s, p50_s, pct, tail_s = timings(plain, speed)
            metrics = {
                "setup_s": import_scaled + statistics.median(x for _, x in setups),
                "ops_per_s": ops_per_s,
                "op_p50_s": p50_s,
                "op_tail_s": tail_s,
                "peak_rss_mb": peak_rss_mb,
            }
            units = END_TO_END_UNITS
            raw_setup = import_s + statistics.median(raw for raw, _ in setups)
            print(f"{args.workload}: {plain.rounds} rounds of {len(work.markets)} markets, "
                  f"{plain.completed} ops in {plain.wall:.2f} s unscaled; op_tail_s is p{pct} "
                  f"of {len(work.markets)} markets; {len(setups)} set-ups, median "
                  f"{raw_setup:.3f} s unscaled with imports; calibration median "
                  f"{statistics.median(speed.durations) * 1000:.2f} ms over "
                  f"{len(speed.durations)} samples, scaled to {CAL_REF_S * 1000:g} ms")
        errors = check_all(work, results)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    for line in (failures + errors)[:10]:
        print(line, file=sys.stderr)
    record = {
        "correct": not errors,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    suffix = "-trace" if args.trace else ""
    with open(os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}{suffix}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
