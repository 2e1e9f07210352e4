"""bbext benchmark: protocol sessions through ``bbext.run``, checked and timed.

Usage, from the root of a checkout:

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads are defined in ``workloads.py``. The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it spells out every metric, the failed share,
the tail's percentile and sample count, and the unscaled median.

With ``--trace 0`` the metrics are the end-to-end ones:

- ``sessions_per_s``: sessions over the summed session time (one client,
  closed loop, so this is one over the mean latency);
- ``session_p50_ms``: the median session latency;
- ``session_tail_ms``: the highest percentile of session latency with at
  least 10 sessions beyond it (nearest rank);
- ``setup_s``: from process start through imports and one warm-up session
  per (protocol, n, t) shape, the median of three fresh processes, one of
  which is the measuring one;
- ``peak_rss_mb``: ``ru_maxrss`` of the measuring process.

Times are wall-clock times scaled to a nominal CPU speed by a reference
loop timed beside them in the same process (``calibrate.py``), because the
host's speed drifts by more than the bounds these metrics are held to.

A run measures a fixed number of whole passes over the workload's cells,
round(seconds / nominal pass time), so runs of the parent and of a change
with the same arguments time the same sessions.

With ``--trace 1`` the metrics are the per-layer ones of ``tracing.py``.

Every session must pass ``checks.evaluate_run``; the first pass's behaviour
digest must match ``digests.json`` where that file pins one for the seed.
This process only imports the standard library; the program runs in the
children it starts (``harness.py``), one at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 150


class ChildFailed(RuntimeError):
    pass


def run_child(args: list[str], deadline: float) -> tuple[float, dict | None]:
    """Start harness.py; return (its set-up seconds, scaled like session
    times, and its result line parsed, or None for a set-up-only child).
    The child is killed at the deadline."""
    cmd = [sys.executable, str(HERE / "harness.py"), *args]
    start = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(1.0, deadline - start), proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        ready_s = perf_counter() - start
        rest = proc.stdout.read()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    word, *numbers = first.split() or [""]
    if word != "ready" or proc.returncode != 0:
        raise ChildFailed(f"harness exited with {proc.returncode} after {first!r}")
    scale, measuring_s = map(float, numbers)
    lines = rest.strip().splitlines()
    return (ready_s - measuring_s) * scale, json.loads(lines[-1]) if lines else None


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least 10 sessions beyond it, and its
    value (nearest rank)."""
    ordered = sorted(latencies)
    rank = max(1, len(ordered) - 10)
    return 100.0 * rank / len(ordered), ordered[rank - 1]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "bbext").is_dir():
        print(f"no bbext sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace)]
    deadline = perf_counter() + CHILD_TIMEOUT_S
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(run_child(common + ["--setup-only"], deadline)[0])
        ready_s, out = run_child(common, deadline)
        setups.append(ready_s)
    except (ChildFailed, json.JSONDecodeError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    notes = []
    if args.trace:
        metrics = out["metrics"]
    else:
        lat = out["latencies"]
        pct, tail_s = tail(lat)
        metrics = {
            "sessions_per_s": {"value": len(lat) / sum(lat), "unit": "1/s"},
            "session_p50_ms": {"value": statistics.median(lat) * 1000, "unit": "ms"},
            "session_tail_ms": {"value": tail_s * 1000, "unit": "ms"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": out["peak_rss_mb"], "unit": "MB"},
        }
        notes = [f"session_tail_ms=p{pct:.2f} of {len(lat)}",
                 f"unscaled session_p50_ms={out['raw_p50_ms']:.6g}"]
    summary = " ".join(f"{k}={v['value']:.6g}{v['unit']}" for k, v in metrics.items())
    notes.append(f"failed_share={out['failed'] / out['attempted']:.6g}")
    print(f"{args.workload} seed={args.seed}: {summary}; {'; '.join(notes)}; "
          f"digest={out['digest']} digest_ok={out['digest_ok']}")
    print(json.dumps({
        "correct": out["failed"] == 0 and out["digest_ok"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
