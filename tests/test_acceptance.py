"""Acceptance criteria, one test per criterion, at their stated tolerances.

Each test prints a single PASS/FAIL line (visible with pytest -s and in the
CLI `check` suites, which run the same code).
"""

import os

import numpy as np
from bbext.checks import (
    CheckReport,
    check_accumulator,
    check_coding,
    check_oracles,
    check_star,
    linear_scaling_runs,
    model_slope,
    suite_protocols_async,
    suite_protocols_sync,
)

JOBS = min(os.cpu_count() or 1, 4)
SEEDS = int(os.environ.get("BBEXT_ACCEPT_SEEDS", "100"))


def _emit(criterion: str, report: CheckReport):
    status = "PASS" if report.passed else "FAIL"
    print(f"{status} criterion-{criterion}: {report.name} "
          f"trials={report.trials} failures={len(report.failures)} "
          f"elapsed={report.elapsed:.1f}s")
    for failure in report.failures[:10]:
        print(f"  - {failure}")
    assert report.passed, f"criterion {criterion} failed: {report.failures[:5]}"


def test_criterion_1_protocol_correctness_battery():
    sync = suite_protocols_sync(seeds=SEEDS, jobs=JOBS)
    _emit("1a(sync)", sync)
    asy = suite_protocols_async(seeds=SEEDS, jobs=JOBS)
    _emit("1b(async)", asy)


def test_criterion_2_linear_scaling_in_message_length():
    n, k = 10, 256
    t = (n - 1) // 2
    rows, failures = linear_scaling_runs(n=n, k=k)
    ls = np.array([r[0] for r in rows], dtype=float)
    bits = np.array([r[1] for r in rows], dtype=float)
    slope, intercept = np.polyfit(ls, bits, 1)
    pred = slope * ls + intercept
    r2 = 1 - float(np.sum((bits - pred) ** 2)) / float(np.sum((bits - bits.mean()) ** 2))
    m = model_slope(n, t)
    if r2 < 0.999:
        failures.append(f"r2={r2}")
    if not (0.9 * m <= slope <= 1.3 * m):
        failures.append(f"slope {slope} vs model {m}")
    report = CheckReport(
        name="linear-scaling", passed=not failures, trials=len(rows),
        failures=failures, details={"slope": float(slope), "model": m, "r2": r2},
    )
    _emit("2", report)
    # stash for criterion 3
    test_criterion_2_linear_scaling_in_message_length.rows = rows
    test_criterion_2_linear_scaling_in_message_length.slope = float(slope)


def test_criterion_3_extension_overhead_bound():
    rows = getattr(test_criterion_2_linear_scaling_in_message_length, "rows", None)
    slope = getattr(test_criterion_2_linear_scaling_in_message_length, "slope", None)
    failures = []
    if rows is None:
        rows, failures = linear_scaling_runs()
        ls = np.array([r[0] for r in rows], dtype=float)
        bits = np.array([r[1] for r in rows], dtype=float)
        slope = float(np.polyfit(ls, bits, 1)[0])
    n, k = 10, 256
    from bbext.accumulator import HASH_TREE, witness_nominal_bits

    k_wit = witness_nominal_bits(HASH_TREE, n, k)
    bound = 2 * ((k + k) * n * n + n**3 + 2 * k_wit * n * n)
    for l, total, _ in rows:
        residual = total - slope * l
        if residual > bound:
            failures.append(f"l={l}: residual {residual:.0f} > bound {bound}")
    report = CheckReport(name="extension-overhead", passed=not failures,
                         trials=len(rows), failures=failures,
                         details={"bound_bits": bound})
    _emit("3", report)


def test_criterion_4_high_threshold_share_blowup():
    from bbext.checks import build_inputs
    from bbext.protocols import SessionParams
    from bbext.runner import run

    failures = []
    details = {}
    l, n, k = 2**18, 12, 256
    for eps in (0.5, 0.25, 1.0 / 6.0):
        t = int(round((1 - eps) * n))
        params = SessionParams(n=n, t=t, l=l, k=k,
                               threshold_regime="one_minus_eps", epsilon=eps)
        inputs = build_inputs("bb", params, seed=2, unanimity="all")
        result = run("sync-bb-highthresh", params, inputs, seed=2)
        assert all(v == inputs[1] for v in result.outputs.values())
        share = result.metrics.extra["share_bits"]
        expected = -(-l // (n - t))
        details[f"eps={eps:.3f}"] = {"share_bits": share, "expected": expected}
        if not (0.9 * expected <= share <= 1.1 * expected):
            failures.append(f"eps={eps}: {share} vs {expected}")
    report = CheckReport(name="share-blowup", passed=not failures, trials=3,
                         failures=failures, details=details)
    _emit("4", report)


def test_criterion_5_codec_recovery():
    report = check_coding(max_exhaustive_n=8, random_trials=1000)
    _emit("5", report)


def test_criterion_6_star_and_matching():
    report = check_star(graphs=2000)
    _emit("6", report)


def test_criterion_7_oracle_black_box():
    report = check_oracles(seeds=200)
    _emit("7", report)


def test_criterion_8_accumulator_suites():
    report = check_accumulator(binding_pairs=10_000)
    _emit("8", report)
