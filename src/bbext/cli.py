"""Experiment runner CLI: parameter sweeps, message traces and property suites.

``bbext run`` executes one metrics run per (protocol, n, t, l, adversary,
seed) cell, writing a JSON metrics file per cell and one aggregate CSV with
fixed column order. ``bbext trace`` takes the same options for a single
cell and prints its delivered messages as JSON lines. ``bbext check
<suite>`` runs a property suite and prints a machine-readable JSON report.

Exit codes: 0 ok, 1 property failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import csv
import inspect
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from .accumulator import acc_gen
from .adversary import adversary_battery
from .checks import SUITES, build_inputs
from .protocols import PROTOCOLS, SessionParams, max_t
from .runner import RunResult, _normalize_oracle_impl, run

CSV_COLUMNS = ["protocol", "n", "t", "l", "adversary", "seed",
               "honest_bits", "oracle_bits", "rounds"]

# each t rule but explicit takes its regime's largest t; with no rule a
# protocol runs at its own regime's largest t
T_RULES = {"max_half": "half", "max_third": "third_async", "max_eps": "one_minus_eps",
           "explicit": None}

# the fields of a run config (see ExperimentConfig.from_dict); any other key is an error
CONFIG_KEYS = ("protocol", "n", "l", "t_rule", "t", "k", "epsilon", "oracles", "accumulator",
               "adversaries", "seeds", "out")


class ConfigError(Exception):
    pass


@dataclass
class ExperimentConfig:
    protocol: str
    n_list: list[int]
    t_rule: str | None
    t_list: list[int] | None
    l_list: list[int]
    k: int
    epsilon: float | None
    oracles: dict[str, str]
    accumulator: str
    adversaries: list[str]
    seeds: list[int]
    out: Path
    jobs: int = 1

    @staticmethod
    def load(path: str | None, overrides: argparse.Namespace) -> "ExperimentConfig":
        raw: dict = {}
        if path:
            try:
                raw = json.loads(Path(path).read_text())
            except (OSError, json.JSONDecodeError) as exc:
                raise ConfigError(f"cannot read config {path}: {exc}")
            if not isinstance(raw, dict):
                raise ConfigError(f"config {path} must be a JSON object")
        if overrides.protocol:
            raw["protocol"] = overrides.protocol
        if overrides.n:
            raw["n"] = overrides.n
        if overrides.l:
            raw["l"] = overrides.l
        if overrides.t:
            raw["t_rule"] = "explicit"
            raw["t"] = overrides.t
        if overrides.seed:
            raw["seeds"] = overrides.seed
        if overrides.adversary:
            raw["adversaries"] = overrides.adversary.split(",")
        if overrides.acc:
            raw["accumulator"] = overrides.acc
        if overrides.out:
            raw["out"] = overrides.out
        if overrides.epsilon is not None:
            raw["epsilon"] = overrides.epsilon
        for spec in overrides.oracle or []:
            if "=" not in spec:
                raise ConfigError(f"--oracle expects kind=impl, got {spec!r}")
            kind, impl = spec.split("=", 1)
            raw.setdefault("oracles", {})[kind] = impl
        return ExperimentConfig.from_dict(raw, jobs=overrides.jobs)

    @staticmethod
    def from_dict(raw: dict, jobs: int = 1) -> "ExperimentConfig":
        for key in raw:
            if key not in CONFIG_KEYS:
                raise ConfigError(f"unknown config key {key!r}; choose from {list(CONFIG_KEYS)}")
        try:
            protocol = raw["protocol"]
        except KeyError:
            raise ConfigError("config needs a protocol name")
        if type(protocol) is not str or protocol not in PROTOCOLS:
            raise ConfigError(f"unknown protocol {protocol!r}; "
                              f"choose from {sorted(PROTOCOLS)}")
        n_list = _int_list("n", raw.get("n", [4]))
        l_list = _int_list("l", raw.get("l", [1024]))
        if not n_list or not l_list:
            raise ConfigError("n and l lists must be non-empty")
        t_rule = raw.get("t_rule")
        if not (t_rule is None or type(t_rule) is str and t_rule in T_RULES):
            raise ConfigError(f"unknown t rule {t_rule!r}")
        t_list = None if raw.get("t") is None else _int_list("t", raw["t"])
        if t_rule == "explicit":
            if not t_list or len(t_list) != len(n_list):
                raise ConfigError("explicit t rule needs one t per n")
        seeds_raw = raw.get("seeds")
        if seeds_raw is None:
            seeds = [0]
        elif isinstance(seeds_raw, dict):
            start, count = _int_list("seeds start and count",
                                     [seeds_raw.get("start", 0), seeds_raw.get("count")])
            seeds = list(range(start, start + count))
        else:
            seeds = _int_list("seeds", seeds_raw)
        if not seeds:
            raise ConfigError("seed list must be non-empty")
        if jobs < 1:
            raise ConfigError(f"--jobs must be at least 1, got {jobs}")
        try:
            oracles = dict(raw.get("oracles", {}))
            _normalize_oracle_impl(oracles)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad oracle setting: {exc}")
        accumulator = raw.get("accumulator", "hash_tree")
        try:
            k = int(raw.get("k", 256))
            acc_gen(accumulator, 1, k)  # the runner's key checks, on a one-element key
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad accumulator setting: {exc}")
        epsilon = raw.get("epsilon")
        if not (epsilon is None or type(epsilon) in (int, float)):
            raise ConfigError(f"epsilon must be a number, got {epsilon!r}")
        adversaries = list(raw.get("adversaries", ["honest"]))
        known = sorted(s.name for s in adversary_battery())
        for name in adversaries:
            if name not in known:
                raise ConfigError(f"unknown adversary {name!r}; choose from {known}")
        return ExperimentConfig(
            protocol=protocol,
            n_list=n_list,
            t_rule=t_rule,
            t_list=t_list or None,
            l_list=l_list,
            k=k,
            epsilon=epsilon,
            oracles=oracles,
            accumulator=accumulator,
            adversaries=adversaries,
            seeds=seeds,
            out=Path(raw.get("out", "results")),
            jobs=jobs,
        )

    def cells(self) -> list[dict]:
        out = []
        for idx, n in enumerate(self.n_list):
            t = self._t_for(n, idx)
            for l in self.l_list:
                for adv in self.adversaries:
                    for seed in self.seeds:
                        out.append({
                            "protocol": self.protocol, "n": n, "t": t, "l": l,
                            "adversary": adv, "seed": seed, "k": self.k,
                            "epsilon": self.epsilon, "oracles": self.oracles,
                            "accumulator": self.accumulator,
                        })
        return out

    def _t_for(self, n: int, idx: int) -> int:
        if self.t_rule == "explicit":
            return self.t_list[idx]
        regime = T_RULES[self.t_rule] if self.t_rule else PROTOCOLS[self.protocol].regime
        try:
            return max_t(regime, n, self.epsilon)
        except ValueError as exc:
            raise ConfigError(str(exc))


def _int_list(what: str, value) -> list[int]:
    """value as a list of ints: a comma-separated command-line option, or a
    config file's list of ints; anything else is a ConfigError."""
    if isinstance(value, str):
        try:
            return [int(x) for x in value.split(",")]
        except ValueError:
            raise ConfigError(f"{what} must be comma-separated integers, got {value!r}")
    if not isinstance(value, list) or not all(type(x) is int for x in value):
        raise ConfigError(f"{what} must be a list of integers, got {value!r}")
    return list(value)


def run_session(cell: dict, trace: bool = False) -> RunResult:
    spec = PROTOCOLS[cell["protocol"]]
    try:
        params = SessionParams(
            n=cell["n"], t=cell["t"], l=cell["l"], k=cell["k"],
            threshold_regime=spec.regime, epsilon=cell["epsilon"],
        )
        spec.check(params)
    except ValueError as exc:
        raise ConfigError(f"cell {cell['protocol']} n={cell['n']} t={cell['t']}: {exc}")
    scripts = {s.name: s for s in adversary_battery()}
    inputs = build_inputs(spec.kind, params, cell["seed"], unanimity="all")
    return run(cell["protocol"], params, inputs, adversary=scripts[cell["adversary"]],
               seed=cell["seed"], oracle_impl=cell["oracles"],
               acc_scheme=cell["accumulator"], trace=trace)


def run_cell(cell: dict) -> dict:
    metrics = run_session(cell).metrics
    return {
        "cell": {k: cell[k] for k in ("protocol", "n", "t", "l", "adversary", "seed")},
        "honest_bits": metrics.honest_bits_total,
        "oracle_bits": metrics.oracle_bits(),
        "rounds": metrics.rounds_or_events_elapsed,
        "metrics_json": metrics.to_json(),
    }


def _cell_filename(cell: dict) -> str:
    return (f"{cell['protocol']}_n{cell['n']}_t{cell['t']}_l{cell['l']}"
            f"_{cell['adversary']}_s{cell['seed']}.json")


def cmd_run(args: argparse.Namespace) -> int:
    config = ExperimentConfig.load(args.config, args)
    cells = config.cells()
    if config.jobs > 1:
        with ProcessPoolExecutor(max_workers=config.jobs) as pool:
            rows = list(pool.map(run_cell, cells))
    else:
        rows = [run_cell(c) for c in cells]
    config.out.mkdir(parents=True, exist_ok=True)
    for cell, row in zip(cells, rows):
        (config.out / _cell_filename(cell)).write_text(row["metrics_json"])
    rows.sort(key=lambda r: (r["cell"]["protocol"], r["cell"]["n"], r["cell"]["t"],
                             r["cell"]["l"], r["cell"]["adversary"], r["cell"]["seed"]))
    csv_path = config.out / "aggregate.csv"
    with csv_path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            cell = row["cell"]
            writer.writerow([
                cell["protocol"], cell["n"], cell["t"], cell["l"],
                cell["adversary"], cell["seed"],
                row["honest_bits"], row["oracle_bits"], row["rounds"],
            ])
    print(f"wrote {len(rows)} cells to {config.out} (aggregate.csv)")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    cells = ExperimentConfig.load(args.config, args).cells()
    if len(cells) != 1:
        raise ConfigError(f"trace runs one cell; the options give {len(cells)}")
    result = run_session(cells[0], trace=True)
    for rec in result.trace:
        print(json.dumps(rec))
    print(json.dumps({"outputs": {p: repr(v) for p, v in result.outputs.items()},
                      "honest_bits": result.metrics.honest_bits_total}),
          file=sys.stderr)
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    if args.suite not in SUITES:
        print(f"unknown suite {args.suite!r}; choose from {sorted(SUITES)}",
              file=sys.stderr)
        return 2
    suite = SUITES[args.suite]
    options = {name: value for name in ("seeds", "jobs")
               if (value := getattr(args, name)) is not None}
    below_one = [f"--{name}" for name, value in options.items() if value < 1]
    if below_one:
        print(f"{', '.join(below_one)} must be at least 1", file=sys.stderr)
        return 2
    unused = [f"--{name}" for name in options if name not in inspect.signature(suite).parameters]
    if unused:
        print(f"suite {args.suite!r} does not take {', '.join(unused)}", file=sys.stderr)
        return 2
    report = suite(**options)
    print(json.dumps(report.to_dict(), sort_keys=True))
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bbext",
                                     description="long-message agreement experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="execute a parameter sweep")
    p_trace = sub.add_parser("trace", help="print the message trace of one cell "
                                           "as JSON lines")
    for p in (p_run, p_trace):
        p.add_argument("--config", help="JSON experiment config")
        p.add_argument("--protocol")
        p.add_argument("--n", help="comma-separated party counts")
        p.add_argument("--l", help="comma-separated input lengths in bits")
        p.add_argument("--t", help="comma-separated explicit t per n")
        p.add_argument("--seed", help="comma-separated seeds")
        p.add_argument("--adversary", help="comma-separated script names")
        p.add_argument("--oracle", action="append", help="kind=ideal|concrete")
        p.add_argument("--acc", choices=["hash_tree", "bilinear_emulated"])
        p.add_argument("--epsilon", type=float)
    p_run.add_argument("--out")
    p_run.add_argument("--jobs", type=int, default=1)
    p_run.set_defaults(func=cmd_run)
    p_trace.set_defaults(func=cmd_trace, out=None, jobs=1)
    p_check = sub.add_parser("check", help="run a property suite")
    p_check.add_argument("suite")
    p_check.add_argument("--seeds", type=int,
                         help="seeds per cell (protocols-* and oracles suites)")
    p_check.add_argument("--jobs", type=int, help="worker processes (protocols-* suites)")
    p_check.set_defaults(func=cmd_check)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
