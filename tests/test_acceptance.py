"""Acceptance criteria, one test per criterion, at their stated tolerances.

Each test prints a single PASS/FAIL line (visible with pytest -s). The
suites live in `bbext.checks`, and the CLI `check` subcommand runs the same
code; criterion 5 runs through it. Criteria 2-4 read one module-scoped run
of `checks.complexity_reports`, the sweeps `bbext check complexity` judges.
"""

import os

import pytest
from bbext.checks import (
    CheckReport,
    check_accumulator,
    check_oracles,
    check_star,
    complexity_reports,
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


@pytest.fixture(scope="module")
def complexity():
    return complexity_reports()


def test_criterion_2_linear_scaling_in_message_length(complexity):
    _emit("2", complexity[0])


def test_criterion_3_extension_overhead_bound(complexity):
    _emit("3", complexity[1])


def test_criterion_4_high_threshold_share_blowup(complexity):
    _emit("4", complexity[2])


def test_criterion_5_codec_recovery(coding_check_run):
    # through the CLI, as a fresh checkout runs it, within its time budget
    code, out = coding_check_run
    _emit("5", CheckReport(name=out["name"], passed=out["passed"], trials=out["trials"],
                           failures=out["failures"], elapsed=out["elapsed_s"]))
    assert code == 0 and out["elapsed_s"] < 60


def test_criterion_6_star_and_matching():
    report = check_star(graphs=2000)
    _emit("6", report)


def test_criterion_7_oracle_black_box():
    report = check_oracles(seeds=200)
    _emit("7", report)


def test_criterion_8_accumulator_suites():
    report = check_accumulator()
    _emit("8", report)
