"""One benchmark process: import the program, warm up, run sessions, report.

Started by ``run.py``, never by hand. It prints ``ready`` once imports and
the warm-up sessions are done (the parent times set-up up to that line),
with the set-up's speed scale (see ``calibrate.py``) and the seconds spent
measuring it, then, unless ``--setup-only``, one JSON line with the run's
results.

Sessions run as a closed loop from one client: each ``bbext.run`` call is
timed on its own, with inputs made before the clock starts and outputs
checked after it stops. The session list, and so every session's work, is
a function of (workload, seed, seconds) alone: two processes with the same
arguments run the same sessions in the same cache states.

With ``--trace 1`` the process measures the same number of untraced and
traced passes, on different session seeds, and reports per-layer metrics
from the traced ones.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import calibrate

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DIGESTS = Path(__file__).with_name("digests.json")
SPAN_DIR = ROOT / ".bench_out"


def import_program():
    """Import bbext from this checkout's src/, never from elsewhere."""
    if not (SRC / "bbext" / "__init__.py").is_file():
        raise SystemExit(f"bbext sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import bbext

    if Path(bbext.__file__).resolve().parent != SRC / "bbext":
        raise SystemExit(f"imported bbext from {bbext.__file__}, not from {SRC}")
    return bbext


SETUP_REFERENCE = calibrate.reference_median()  # host speed before the program loads
bbext = import_program()
from bbext.checks import evaluate_run  # noqa: E402

import workloads  # noqa: E402
from tracing import LayerTracer, SpanRecorder, layer_metrics  # noqa: E402


def behaviour_record(result) -> bytes:
    """Honest bits, steps, oracle bits, elapsed rounds/events and outputs;
    ``RunMetrics.extra`` is left out."""
    m = result.metrics
    return json.dumps({
        "honest_bits_total": m.honest_bits_total,
        "bits_by_step": m.bits_by_step,
        "bits_by_oracle": m.bits_by_oracle,
        "rounds_or_events_elapsed": m.rounds_or_events_elapsed,
        "outputs_digest": m.outputs_digest,
    }, sort_keys=True).encode()


class SessionLoop:
    """Runs sessions, times each one, and applies the correctness gate."""

    def __init__(self, track_speed: bool = True):
        self.latencies: list[float] = []
        self.windows: list[tuple[float, float]] = []
        self.failed = 0
        self.digest = hashlib.sha256()
        self.pass0_digest = ""
        self.speed = calibrate.SpeedTrack() if track_speed else None

    def scaled(self, first: int = 0, last: int | None = None) -> list[float]:
        """Latencies scaled to the nominal CPU speed (see calibrate.py)."""
        self.speed.sample()
        return [t * self.speed.scale(*w)
                for t, w in zip(self.latencies[first:last], self.windows[first:last])]

    def run(self, spec: workloads.SessionSpec, record: bool = True) -> None:
        cell = spec.cell
        inputs = workloads.make_inputs(spec)
        sender = workloads.SENDER if cell.kind != "ba" else None
        impl = dict(cell.oracle_impl) or None
        if self.speed is not None:
            self.speed.maybe_sample()
        start = perf_counter()
        try:
            result = bbext.run(cell.protocol, cell.params, inputs, adversary=cell.adversary,
                               seed=spec.seed, oracle_impl=impl, sender=workloads.SENDER)
            elapsed = perf_counter() - start
            violations = evaluate_run(cell.kind, inputs, sender, result)
            behaviour = behaviour_record(result)
        except Exception as exc:  # the gate counts it; the run continues
            elapsed = perf_counter() - start
            traceback.print_exc(file=sys.stderr)
            violations = [f"exception: {exc!r}"]
            behaviour = f"exception {type(exc).__name__}".encode()
        if violations:
            print(f"FAILED {cell.label()} seed={spec.seed}: {violations}", file=sys.stderr)
        if record:
            self.latencies.append(elapsed)
            self.windows.append((start, start + elapsed))
            self.failed += bool(violations)
            self.digest.update(hashlib.sha256(behaviour).digest())
        elif violations:
            raise SystemExit("a warm-up session failed the correctness gate")


def run_passes(loop: SessionLoop, workload, seed: int, passes: range,
               rec: SpanRecorder | None = None) -> None:
    """Run whole passes of the workload."""
    for p in passes:
        for spec in workloads.pass_sessions(workload, seed, p):
            if rec is not None:
                rec.session = len(loop.latencies)
            loop.run(spec)
        if p == 0:
            loop.pass0_digest = loop.digest.hexdigest()


def digest_ok(workload: str, seed: int, digest: str) -> bool:
    pinned = json.loads(DIGESTS.read_text()).get(workload, {})
    want = pinned.get(str(seed))
    if want is not None and want != digest:
        print(f"behaviour digest {digest} != pinned {want} for {workload} seed {seed}",
              file=sys.stderr)
        return False
    return True


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    workload = workloads.build_workloads()[args.workload]

    warm = SessionLoop(track_speed=False)
    for spec in workloads.warmup_sessions(workload):
        warm.run(spec, record=False)
    start_ref, start_spent = SETUP_REFERENCE
    end_ref, end_spent = calibrate.reference_median()
    scale = 2 * calibrate.NOMINAL_S / (start_ref + end_ref)
    print(f"ready {scale!r} {start_spent + end_spent!r}", flush=True)
    if args.setup_only:
        return 0

    loop = SessionLoop()
    out = {}
    if args.trace:
        passes = workload.passes(args.seconds / 2)
        run_passes(loop, workload, args.seed, range(passes))
        split = len(loop.latencies)
        # fresh session seeds, same unanimity mix as the untraced passes
        offset = -(-passes // len(workloads.UNANIMITY)) * len(workloads.UNANIMITY)
        rec = SpanRecorder()
        with LayerTracer(rec):
            run_passes(loop, workload, args.seed, range(offset, offset + passes), rec)
        rec.write(SPAN_DIR / f"spans-{workload.name}-seed{args.seed}.npz")
        ratio = sum(loop.scaled(split)) / sum(loop.scaled(0, split))
        out["metrics"] = layer_metrics(rec, ratio)
    else:
        run_passes(loop, workload, args.seed, range(workload.passes(args.seconds)))
        out["latencies"] = loop.scaled()
        out["raw_p50_ms"] = statistics.median(loop.latencies) * 1000
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["attempted"] = len(loop.latencies)
    out["failed"] = loop.failed
    out["digest"] = loop.pass0_digest
    out["digest_ok"] = digest_ok(workload.name, args.seed, loop.pass0_digest)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
