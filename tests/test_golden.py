"""Golden behaviour digests: the same runs must keep the same bytes.

Every run of the grid below stores two digests in ``tests/golden/digests.json``:
the sha256 of ``RunMetrics.to_json()`` and the run's ``outputs_digest``. A
refactor must leave both unchanged. A change that alters behaviour on purpose
regenerates the file and says why::

    PYTHONPATH=src python tests/test_golden.py

Grid: every protocol x five adversary scripts x the battery sizes
(``checks.battery_configs``, n in {4, 7, 10}) x three seeds, once with ideal
oracles and once with every oracle that has a concrete construction set to
concrete (the k-bit asynchronous agreement oracle stays ideal).
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from bbext.adversary import adversary_battery
from bbext.checks import battery_configs, build_inputs
from bbext.protocols import PROTOCOLS
from bbext.runner import run

GOLDEN = Path(__file__).resolve().parent / "golden" / "digests.json"
SCRIPTS = ("honest", "silent", "equivocator", "corrupt_share", "junk_injector")
SEEDS = (0, 1, 2)
UNANIMITY = ("all", "none", "majority")  # by seed
ORACLES = {
    "ideal": {},
    "concrete": {"sync_bb": "concrete", "sync_ba": "concrete",
                 "async_rb": "concrete", "async_ba_bit": "concrete"},
}


def protocol_digests(protocol: str) -> dict[str, list[str]]:
    """Digests of every grid run of one protocol, keyed by run."""
    spec = PROTOCOLS[protocol]
    scripts = {s.name: s for s in adversary_battery()}
    out = {}
    for params in battery_configs(protocol):
        for name in SCRIPTS:
            for impl, oracle_impl in ORACLES.items():
                for seed in SEEDS:
                    inputs = build_inputs(spec.kind, params, seed, UNANIMITY[seed])
                    res = run(protocol, params, inputs, adversary=scripts[name],
                              seed=seed, oracle_impl=oracle_impl)
                    key = (f"{protocol} n={params.n} t={params.t} eps={params.epsilon} "
                           f"{name} {impl} seed={seed}")
                    metrics = hashlib.sha256(res.metrics.to_json().encode()).hexdigest()
                    out[key] = [metrics, res.metrics.outputs_digest]
    return out


def _golden() -> dict[str, list[str]]:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
def test_golden_digests(protocol):
    want = {k: v for k, v in _golden().items() if k.startswith(protocol + " ")}
    got = protocol_digests(protocol)
    assert sorted(got) == sorted(want)
    changed = [k for k in sorted(got) if got[k] != want[k]]
    assert not changed, f"{len(changed)} of {len(got)} runs changed, e.g. {changed[:5]}"


def test_golden_covers_every_protocol():
    assert {k.split(" ", 1)[0] for k in _golden()} == set(PROTOCOLS)


def main() -> int:
    table: dict[str, list[str]] = {}
    for protocol in sorted(PROTOCOLS):
        table.update(protocol_digests(protocol))
    GOLDEN.parent.mkdir(exist_ok=True)
    lines = [f" {json.dumps(k)}: {json.dumps(table[k])}" for k in sorted(table)]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(table)} runs to {GOLDEN}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
