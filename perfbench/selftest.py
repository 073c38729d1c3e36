"""Planted-defect self-test of the benchmark's checks.

Each case plants one defect in maxcurves, runs rounds of a workload
through the benchmark's own runner, and passes only if every operation
the defect reaches is counted as failed.  A clean round of each workload
must fail nothing, and output that changes between rounds must make the
run incorrect.  The oracle is tested on known answers first.

Run from the repository root (a few seconds):

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path
from unittest import mock

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import oracle  # noqa: E402
import workloads  # noqa: E402
from maxcurves import census, covering, curves, orders, semigroups, series  # noqa: E402
from run import run_rounds  # noqa: E402
from setup_fields import set_up  # noqa: E402

SEED = 7


def check_oracle(moduli) -> list[str]:
    problems = []
    aes = oracle.Field(8, moduli[8])  # GF(2^8) modulo x^8 + x^4 + x^3 + x + 1
    if aes.mul(0x53, 0xCA) != 1 or aes.mul(0x57, 0x83) != 0xC1:
        problems.append("GF(2^8) products differ from the AES reference values")
    known = {
        ("hermitian", 2, 1): 65, ("hermitian", 4, 1): 4097, ("trace", 2, 1): 33,
        ("trace", 4, 1): 2049, ("trace", 4, 2): 36865, ("trace", 5, 2): 557057,
    }
    for (family, t, k), expected in known.items():
        q = 1 << t
        if oracle.extension_count(q, oracle.genus(q, family), k) != expected:
            problems.append(f"N_{k} of the {family} curve at q = {q} is not {expected}")
    return problems


def shifted(fn, change):
    """fn with its result passed through change(result, args)."""
    return lambda *args, **kwargs: change(fn(*args, **kwargs), args)


def repeat_point(points, args):
    points = list(points)
    points[-2] = points[0]  # the last affine point becomes a copy of the first
    return points


def move_x(points, args):
    return [dataclasses.replace(p, x=p.x + p.x.field.one) if hasattr(p, "x") else p for p in points]


def fail_h2(report, args):
    tally = report["h2"]
    return {**report, "h2": {"pass": tally["pass"] - 1, "fail": tally["fail"] + 1}}


def move_y(points, args):
    return [dataclasses.replace(p, y=p.y.square()) for p in points]


def rational_orders(data, args):
    q = args[0].q
    return dataclasses.replace(data, orders=(0, 1, 2, q + 1))


# (workload, defect, patch target, attribute, replacement, predicate on the
# names of the operations that must fail)
CASES = [
    ("census", "count off by one", census, "count_rational",
     shifted(census.count_rational, lambda n, args: n + 1),
     lambda name: name.startswith(("census_report", "count_rational"))),
    ("census", "enumerated point repeated", census, "enumerate_points",
     shifted(census.enumerate_points, repeat_point), lambda name: name.startswith("enumerate_points")),
    ("census", "enumerated x moved off the curve", census, "enumerate_points",
     shifted(census.enumerate_points, move_x),
     lambda name: name.startswith(("enumerate_points", "sample_points"))),
    ("census", "report not maximal", census, "census_report",
     shifted(census.census_report, lambda r, args: dataclasses.replace(r, maximal=False)),
     lambda name: name.startswith("census_report")),
    ("quartic", "rational order sequence everywhere", orders, "dp_orders",
     shifted(orders.dp_orders, rational_orders), lambda name: "non-rational" in name),
    ("quartic", "nonzero Frobenius residual", orders, "frobenius_identity_check",
     shifted(orders.frobenius_identity_check, lambda r, args: {**r, "residual_zero": False}),
     lambda name: True),
    ("quartic", "middle derivative nonzero", series, "verify_derivative_facts",
     shifted(series.verify_derivative_facts,
             lambda r, args: dataclasses.replace(r, middle_vanish=False)),
     lambda name: True),
    ("checks", "count below the Hasse-Weil bound", census, "count_rational",
     shifted(census.count_rational, lambda n, args: n - 1), lambda name: name.startswith("is_maximal")),
    ("checks", "covering count off by one", covering, "count_rational",
     shifted(covering.count_rational, lambda n, args: n + 1),
     lambda name: name.startswith("covering_census_check")),
    ("checks", "dimension off by one", semigroups, "dim_from_semigroup",
     shifted(semigroups.dim_from_semigroup, lambda d, args: d + 1), lambda name: name.startswith("semigroup")),
    ("checks", "non-classical orders at a rational point", orders, "dp_orders",
     shifted(orders.dp_orders, lambda data, args: dataclasses.replace(data, orders=(0, 1, 3, args[0].q + 1))),
     lambda name: name.startswith("dp_orders")),
    ("checks", "nonzero Frobenius residual", orders, "frobenius_identity_check",
     shifted(orders.frobenius_identity_check, lambda r, args: {**r, "residual_zero": False}),
     lambda name: name.startswith(("Frobenius evidence", "frobenius_orders"))),
    ("checks", "a Hasse identity fails once", series, "check_h_identities",
     shifted(series.check_h_identities, fail_h2), lambda name: name.startswith("check_h_identities")),
    ("checks", "fiber coordinate squared", covering, "fiber",
     shifted(covering.fiber, move_y), lambda name: name.startswith("fiber")),
    ("checks", "normalization lands on another curve", curves, "normalize",
     shifted(curves.normalize, lambda out, args: (curves.hermitian(out[0].t), out[1])),
     lambda name: name.startswith("normalize")),
]


def build(name: str, moduli) -> list:
    workload = workloads.WORKLOADS[name]
    set_up(workload.fields)
    return workload.build(SEED, moduli)


def main() -> int:
    moduli = oracle.load_moduli()
    problems = check_oracle(moduli)
    ops = {name: build(name, moduli) for name in workloads.WORKLOADS}

    for name, round_ops in ops.items():
        clean = run_rounds(round_ops, 0, {})
        if clean.failures or clean.changed:
            problems.append(f"clean {name} round failed {clean.failures}")
        print(f"clean {name}: {clean.attempted} operations, {len(clean.failures)} failed")

    for name, defect, target, attr, replacement, must_fail in CASES:
        with mock.patch.object(target, attr, replacement):
            rounds = run_rounds(ops[name], 0, {})
        expected = {op.name for op in ops[name] if must_fail(op.name)}
        missed = sorted(expected - set(rounds.failures))
        verdict = "caught" if expected and not missed else "MISSED"
        print(f"{verdict} {name}: {defect}: {len(rounds.failures)} of {rounds.attempted} failed")
        if verdict != "caught":
            problems.append(f"{name}: {defect} not counted as failed by {missed or 'any operation'}")

    calls = iter(range(1 << 30))
    fingerprints: dict = {}
    with mock.patch.object(series, "check_h_identities",
                           shifted(series.check_h_identities, lambda r, args: {**r, "n": next(calls)})):
        run_rounds(ops["checks"], 0, fingerprints)
        rounds = run_rounds(ops["checks"], 0, fingerprints)
    print(f"{'caught' if rounds.changed else 'MISSED'} checks: output changing between rounds")
    if not rounds.changed:
        problems.append("output that changes between rounds went unnoticed")

    for problem in problems:
        print(f"PROBLEM {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
