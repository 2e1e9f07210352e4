import csv
import json

import pytest

from bbext.adversary import WithholdCertificate
from bbext.checks import build_inputs, message_for
from bbext.cli import CSV_COLUMNS, ConfigError, ExperimentConfig, main
from bbext.protocols import SessionParams
from bbext.runner import run


def run_cli(args):
    return main(args)


def test_unknown_suite_is_config_error(capsys):
    assert run_cli(["check", "nonsense"]) == 2


@pytest.mark.parametrize("args", [["complexity", "--seeds", "1"], ["coding", "--jobs", "4"],
                                  ["oracles", "--jobs", "2"]])
def test_check_rejects_options_the_suite_does_not_take(args, capsys):
    assert run_cli(["check", *args]) == 2
    err = capsys.readouterr().err
    assert args[0] in err and args[1] in err


def test_unknown_protocol_is_config_error(capsys):
    assert run_cli(["run", "--protocol", "nope", "--out", "/tmp/x"]) == 2


@pytest.mark.parametrize("command", ["run", "trace"])
def test_concrete_kbit_oracle_is_a_config_error(command, tmp_path, capsys):
    # exit 2 (bad configuration), not 1 (a property failed)
    assert run_cli([command, "--protocol", "async-ba-third", "--n", "4", "--l", "96",
                    "--oracle", "async_ba_kbit=concrete",
                    *(["--out", str(tmp_path)] if command == "run" else [])]) == 2
    assert "ideal-only" in capsys.readouterr().err


@pytest.mark.parametrize("protocol", ["ef-sync-ba-third", "ef-async-rb-third"])
@pytest.mark.parametrize("command", ["run", "trace"])
def test_error_free_protocol_below_max_t_is_a_config_error(command, protocol, tmp_path,
                                                           capsys):
    # the error-free protocols run only at t = floor((n-1)/3) = 3 for n = 10
    assert run_cli([command, "--protocol", protocol, "--n", "10", "--t", "2", "--l", "64",
                    *(["--out", str(tmp_path)] if command == "run" else [])]) == 2
    assert "floor((n-1)/3)" in capsys.readouterr().err


@pytest.mark.parametrize("setting,reason", [({"k": 64}, "k must be one of"),
                                           ({"accumulator": "nope"}, "unknown accumulator")])
def test_bad_accumulator_setting_is_a_config_error(setting, reason, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"protocol": "sync-ba-half", "n": [4], "l": [96], **setting}))
    assert run_cli(["trace", "--config", str(cfg)]) == 2
    assert reason in capsys.readouterr().err


def test_trace_runs_a_length_that_is_not_whole_bytes(capsys):
    assert run_cli(["trace", "--protocol", "sync-ba-half", "--n", "4", "--l", "100",
                    "--seed", "0"]) == 0
    # ceil(100/8) input bytes, the 4 bits past l cleared, output by every party
    m = message_for(0, 0, 100, "all")
    assert len(m) == 13 and m[-1] & 0x0F == 0
    summary = json.loads(capsys.readouterr().err)
    assert summary["outputs"] == {str(p): repr(m) for p in range(1, 5)}


def test_config_file_plus_overrides(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "protocol": "sync-ba-half",
        "n": [4],
        "l": [1024],
        "seeds": [0, 1],
        "adversaries": ["honest"],
        "out": str(tmp_path / "out"),
    }))
    code = run_cli(["run", "--config", str(cfg), "--l", "2048",
                    "--adversary", "honest,silent"])
    assert code == 0
    rows = list(csv.reader((tmp_path / "out" / "aggregate.csv").open()))
    assert rows[0] == CSV_COLUMNS
    assert len(rows) == 1 + 1 * 1 * 2 * 2  # n x l x adversaries x seeds
    assert {r[3] for r in rows[1:]} == {"2048"}


def test_cells_and_t_rules():
    cfg = ExperimentConfig.from_dict({
        "protocol": "async-ba-third",
        "n": [4, 7, 10],
        "l": [512],
    })
    assert [c["t"] for c in cfg.cells()] == [1, 2, 3]
    cfg2 = ExperimentConfig.from_dict({
        "protocol": "sync-bb-highthresh",
        "n": [12],
        "l": [512],
        "epsilon": 0.25,
    })
    assert cfg2.cells()[0]["t"] == 9
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"protocol": "sync-ba-half", "n": [4],
                                    "l": [64], "t_rule": "explicit"})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"protocol": "sync-ba-half",
                                    "adversaries": ["martian"]})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"protocol": "sync-ba-half",
                                    "oracles": {"sync_ba": "quantum"}})


def test_seed_env_default(monkeypatch):
    monkeypatch.setenv("BBEXT_SEED", "42")
    cfg = ExperimentConfig.from_dict({"protocol": "sync-ba-half"})
    assert cfg.seeds == [42]


def test_seed_range_form():
    cfg = ExperimentConfig.from_dict({"protocol": "sync-ba-half",
                                      "seeds": {"start": 5, "count": 3}})
    assert cfg.seeds == [5, 6, 7]


def test_run_writes_stable_csv_and_metrics(tmp_path):
    out = tmp_path / "results"
    args = ["run", "--protocol", "sync-ba-half", "--n", "4", "--l", "1024,4096",
            "--seed", "0", "--adversary", "honest", "--out", str(out)]
    assert run_cli(args) == 0
    first = (out / "aggregate.csv").read_bytes()
    assert run_cli(args) == 0
    assert (out / "aggregate.csv").read_bytes() == first
    cells = sorted(p.name for p in out.glob("*.json"))
    assert cells == [
        "sync-ba-half_n4_t1_l1024_honest_s0.json",
        "sync-ba-half_n4_t1_l4096_honest_s0.json",
    ]
    metrics = json.loads((out / cells[0]).read_text())
    assert "honest_bits_total" in metrics and "bits_by_step" in metrics


def test_linear_bits_growth_visible_in_csv(tmp_path):
    out = tmp_path / "results"
    run_cli(["run", "--protocol", "sync-ba-half", "--n", "4",
             "--l", "8192,16384,32768", "--seed", "0", "--out", str(out)])
    rows = list(csv.DictReader((out / "aggregate.csv").open()))
    bits = [int(r["honest_bits"]) for r in rows]
    ls = [int(r["l"]) for r in rows]
    assert sorted(zip(ls, bits)) == list(zip(ls, bits))
    # slope between consecutive points is the model's 2 n (n-1) / b = 8
    for (l1, b1), (l2, b2) in zip(zip(ls, bits), list(zip(ls, bits))[1:]):
        slope = (b2 - b1) / (l2 - l1)
        assert 7.0 <= slope <= 9.0


def test_check_command_reports_json(capsys):
    code = run_cli(["check", "protocols-sync", "--seeds", "2"])
    out = capsys.readouterr().out.strip()
    report = json.loads(out)
    assert report["name"].startswith("protocols:")
    assert report["passed"] is True
    assert code == 0


def test_invalid_cell_rejected(tmp_path):
    # t rule produces an invalid session (t = 0 is fine; force explicit bad t)
    code = run_cli(["run", "--protocol", "sync-ba-half", "--n", "4", "--t", "2",
                    "--l", "64", "--out", str(tmp_path)])
    assert code == 2


def test_coding_check_fits_the_fresh_checkout_budget(coding_check_run):
    code, report = coding_check_run
    assert code == 0
    assert report["elapsed_s"] < 60


def test_trace_prints_one_cell_as_json_lines(capsys):
    args = ["trace", "--protocol", "sync-bb-highthresh", "--n", "4", "--l", "96",
            "--epsilon", "0.5", "--adversary", "withhold_cert", "--seed", "3"]
    assert run_cli(args) == 0
    captured = capsys.readouterr()
    records = [json.loads(line) for line in captured.out.splitlines()]
    params = SessionParams(n=4, t=2, l=96, k=256, threshold_regime="one_minus_eps",
                           epsilon=0.5)
    inputs = build_inputs("bb", params, 3, "all")
    want = run("sync-bb-highthresh", params, inputs, adversary=WithholdCertificate(),
               seed=3, trace=True)
    assert records == want.trace
    summary = json.loads(captured.err)
    assert summary["honest_bits"] == want.metrics.honest_bits_total
    assert summary["outputs"] == {str(p): repr(v) for p, v in want.outputs.items()}


def test_trace_needs_exactly_one_cell(capsys):
    assert run_cli(["trace", "--protocol", "sync-ba-half", "--n", "4,7"]) == 2
    assert "the options give 2" in capsys.readouterr().err
    assert run_cli(["trace", "--protocol", "sync-ba-half", "--n", "4", "--seed", "0,1"]) == 2
    assert "the options give 2" in capsys.readouterr().err


def test_complexity_sweep_numbers_come_from_run_and_check(tmp_path, capsys):
    out = tmp_path / "linear"
    assert run_cli(["run", "--protocol", "sync-ba-half", "--n", "10", "--l", "16384,32768",
                    "--seed", "1", "--out", str(out)]) == 0
    rows = list(csv.DictReader((out / "aggregate.csv").open()))
    assert [int(r["l"]) for r in rows] == [16384, 32768]
    for row in rows:
        params = SessionParams(n=10, t=4, l=int(row["l"]), k=256, threshold_regime="half")
        want = run("sync-ba-half", params, build_inputs("ba", params, 1, "all"), seed=1)
        assert (int(row["honest_bits"]), int(row["oracle_bits"])) == (
            want.metrics.honest_bits_total, want.metrics.oracle_bits())
    out = tmp_path / "blowup"
    eps = 1.0 / 6.0
    assert run_cli(["run", "--protocol", "sync-bb-highthresh", "--n", "12", "--t", "10",
                    "--epsilon", repr(eps), "--l", "262144", "--seed", "2",
                    "--out", str(out)]) == 0
    [cell] = out.glob("*.json")
    share = json.loads(cell.read_text())["extra"]["share_bits"]
    params = SessionParams(n=12, t=10, l=2**18, k=256, threshold_regime="one_minus_eps",
                           epsilon=eps)
    want = run("sync-bb-highthresh", params, build_inputs("bb", params, 2, "all"), seed=2)
    assert share == want.metrics.extra["share_bits"]
    capsys.readouterr()
    assert run_cli(["check", "complexity"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["details"]["blowup"]["eps=0.167"][0] == share
