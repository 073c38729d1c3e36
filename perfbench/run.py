"""Benchmark of maxcurves: one run of one workload, ending in one JSON line.

Run from the repository root:

    python3 perfbench/run.py --workload checks --seed 1 --seconds 30 --trace 0

The workload's round, a fixed list of calls built from --seed, repeats
in this process (one thread) until the calls have taken --seconds; every
output is checked as it arrives, outside the timed calls.  Each call's
time is the least over its repetitions in the run: other tenants of the
machine slow it by up to 2x in spells, and interference only ever adds
time.  With --trace 0 the last line gives the end-to-end metrics of
BENCHMARK.json.  With --trace 1 it gives the per-layer ones per round,
from traced rounds for --seconds, followed by untraced rounds for as
long, whose throughput the traced one is compared with.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_STARTS = 7


@dataclass
class Rounds:
    times: dict[int, list[float]] = field(default_factory=dict)  # per operation of the round
    busy: float = 0.0
    failures: list[str] = field(default_factory=list)  # names of the failed operations
    changed: list[str] = field(default_factory=list)  # names of those whose output changed

    @property
    def attempted(self) -> int:
        return sum(len(t) for t in self.times.values())

    def op_ms(self) -> list[float]:
        """Each operation's least time over its repetitions, in ms."""
        return [1000 * min(t) for t in self.times.values()]

    def ops_per_s(self) -> float:
        """Completed operations per second of one round."""
        completed = len(self.times) * (1 - len(self.failures) / self.attempted)
        return 1000 * completed / sum(self.op_ms())


def run_rounds(ops, seconds: float, fingerprints: dict, call=lambda fn: fn(),
               between=lambda share: None) -> Rounds:
    """Repeat the round until the calls took `seconds`, at least once;
    after each round, between() gets the share of `seconds` done."""
    from workloads import CheckFailed

    rounds = Rounds({i: [] for i in range(len(ops))})
    while True:
        for i, op in enumerate(ops):
            start = perf_counter()
            try:
                result = call(op.call)
                error = None
            except Exception as exc:  # a call that raises is a failed operation
                error = f"raised {exc!r}"
            elapsed = perf_counter() - start
            rounds.times[i].append(elapsed)
            rounds.busy += elapsed
            if error is None:
                try:
                    fingerprint = op.check(result)
                except CheckFailed as exc:
                    error = str(exc)
                except (KeyError, TypeError, AttributeError, ValueError) as exc:
                    error = f"malformed output: {exc!r}"
            if error is not None:
                if op.name not in rounds.failures:
                    print(f"FAILED {op.name}: {error}", file=sys.stderr)
                rounds.failures.append(op.name)
            elif fingerprints.setdefault(i, fingerprint) != fingerprint:
                rounds.changed.append(op.name)
                print(f"CHANGED {op.name}: output differs from an earlier round", file=sys.stderr)
        if rounds.busy >= seconds:
            return rounds
        between(rounds.busy / seconds)


class SetupTimer:
    """Wall times of fresh interpreters that import maxcurves and build the
    workload's fields, taken spread over the run so that one slow spell of
    the machine cannot decide their median."""

    def __init__(self, field_list) -> None:
        self.cmd = [sys.executable, "-B", str(HERE / "setup_fields.py"), json.dumps(field_list)]
        self.samples: list[float] = []

    def sample(self) -> None:
        start = perf_counter()
        subprocess.run(self.cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        self.samples.append(perf_counter() - start)

    def keep_pace(self, share: float) -> None:
        """Take samples until they are the given share of SETUP_STARTS."""
        while len(self.samples) < min(SETUP_STARTS, 1 + share * SETUP_STARTS):
            self.sample()

    def median(self) -> float:
        while len(self.samples) < SETUP_STARTS:
            self.sample()
        return statistics.median(self.samples)


def timed_run(workload, ops, seconds: float):
    from setup_fields import set_up

    setup = SetupTimer(workload.fields)
    setup.sample()
    set_up(workload.fields)
    rounds = run_rounds(ops, seconds, {}, between=setup.keep_pace)
    ms = rounds.op_ms()
    values = {
        "ops_per_s": rounds.ops_per_s(),
        "op_p50_ms": statistics.median(ms),
        "op_p90_ms": statistics.quantiles(ms, n=10, method="inclusive")[8],
        "setup_s": setup.median(),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return values, [rounds]


def traced_run(workload, ops, seconds: float):
    from setup_fields import set_up
    from tracing import Tracer

    setup_tracer = Tracer()
    with setup_tracer.installed():
        set_up(workload.fields)
    tracer = Tracer()
    fingerprints: dict = {}
    with tracer.installed():
        traced = run_rounds(ops, seconds, fingerprints, call=tracer.root)
    untraced = run_rounds(ops, seconds, fingerprints)
    values = tracer.metrics(rounds=traced.attempted // len(ops))
    # the round runs on fields built above, so their first multiplications are there
    values["fields.table_build_s"] = setup_tracer.counts["fields.table_build_s"]
    values["trace.ops_per_s"] = traced.ops_per_s()
    values["trace.untraced_ops_per_s"] = untraced.ops_per_s()
    print(f"tracing overhead: {values['trace.ops_per_s']:.3f} ops/s traced against "
          f"{values['trace.untraced_ops_per_s']:.3f} untraced, "
          f"{values['trace.untraced_ops_per_s'] / values['trace.ops_per_s']:.2f}x slower")
    return values, [traced, untraced]


def main(argv=None) -> int:
    if not (SRC / "maxcurves" / "__init__.py").is_file():
        print(f"no maxcurves sources under {SRC}", file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    import oracle
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = workloads.WORKLOADS[args.workload]
    ops = workload.build(args.seed, oracle.load_moduli())
    run, names = (traced_run, "per_layer") if args.trace else (timed_run, "end_to_end")
    values, rounds = run(workload, ops, args.seconds)
    print(json.dumps({
        "correct": not any(r.changed for r in rounds),
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(len(r.failures) for r in rounds),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[names]},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
