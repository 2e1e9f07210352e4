"""Per-layer spans recorded from outside the program.

The tracer replaces each layer's public functions with timing wrappers,
patched at the name the caller looks up: a module-level function is
replaced at every binding of it in any ``bbext`` module (so ``blocks``'s
by-name import of ``acc_verify`` is covered as well as
``accumulator.acc_verify``), and a method on its class. Nothing in the
program changes; ``uninstall`` restores every original.

Each call is a span (name, start, end, parent, session id) kept in memory.
A generator function (a party's oracle sub-protocol) is traced per
resumption, so a span covers only the time its code runs. A span's self
time is its duration minus its child spans; a layer's self time is the sum
over the layer's spans.

The scalar ``gf.gf_mul`` and ``gf.gf_pow`` are too hot to wrap; their time
stays in the caller's self time (mostly ``rs``).
"""

from __future__ import annotations

import functools
import sys
from array import array
from pathlib import Path
from time import perf_counter

CALL, GEN = "call", "gen"


class SpanRecorder:
    """In-memory span store with running per-name aggregates."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_col = array("H")
        self.start_col = array("d")
        self.end_col = array("d")
        self.parent_col = array("i")
        self.session_col = array("i")
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.extra: list[dict[str, float]] = []
        self.session = -1
        self._stack: list[list] = []  # [span index, start, child seconds]

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
            self.extra.append({})
        return self._ids[name]

    def enter(self, nid: int) -> None:
        idx = len(self.start_col)
        now = perf_counter()
        self.name_col.append(nid)
        self.start_col.append(now)
        self.end_col.append(now)
        self.parent_col.append(self._stack[-1][0] if self._stack else -1)
        self.session_col.append(self.session)
        self._stack.append([idx, now, 0.0])

    def exit(self) -> None:
        now = perf_counter()
        idx, start, child = self._stack.pop()
        self.end_col[idx] = now
        dur = now - start
        nid = self.name_col[idx]
        self.calls[nid] += 1
        self.self_s[nid] += dur - child
        if self._stack:
            self._stack[-1][2] += dur

    def count(self, name: str, key: str) -> float:
        nid = self._ids.get(name)
        return 0 if nid is None else self.extra[nid].get(key, 0)

    def total_calls(self, name: str) -> int:
        nid = self._ids.get(name)
        return 0 if nid is None else self.calls[nid]

    def total_self(self, prefix: str) -> float:
        """Self seconds of one span name, or of every span under a layer prefix."""
        return sum(s for name, s in zip(self.names, self.self_s)
                   if name == prefix or name.startswith(prefix + "."))

    def write(self, path: Path) -> None:
        """Write every span as columns of a NumPy archive (times relative to
        the first span)."""
        import numpy as np

        origin = self.start_col[0] if self.start_col else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names),
                 name=np.frombuffer(self.name_col, dtype=np.uint16),
                 start=np.frombuffer(self.start_col, dtype=np.float64) - origin,
                 end=np.frombuffer(self.end_col, dtype=np.float64) - origin,
                 parent=np.frombuffer(self.parent_col, dtype=np.int32),
                 session=np.frombuffer(self.session_col, dtype=np.int32))


def _add(extra: dict, key: str, value: float) -> None:
    extra[key] = extra.get(key, 0) + value


# Hooks see (extra counters of the span name, call args, result).

def _vector_bytes(extra, args, result):
    _add(extra, "bytes", args[2].nbytes)


def _encode_bytes(extra, args, result):
    _add(extra, "bytes", sum(blk.size for blk in args[0].blocks) * 2)


def _decode_stats(extra, args, result):
    _add(extra, "bytes", sum(s.size for s in args[0].symbols if s is not None) * 2)
    _add(extra, "fails", result is None)


def _none_fails(extra, args, result):
    _add(extra, "fails", result is None)


def _false_rejects(extra, args, result):
    _add(extra, "rejects", not result)


def _inbox_stats(extra, args, result):
    _add(extra, "scanned", len(args[0].mailbox))
    _add(extra, "hits", len(result))


def _instance(extra, args, result):
    _add(extra, "instances", 1)


def targets():
    """(span name, owner, attribute, call|gen, hook) for every traced site."""
    from bbext import accumulator, blocks, gf, multisig, oracles, rs, runner, simnet, star

    return [
        ("gf.vmul_xor_into", gf, "vmul_xor_into", CALL, _vector_bytes),
        ("gf.solve_linear", gf, "solve_linear", CALL, None),
        ("gf.invert_matrix", gf, "invert_matrix", CALL, None),
        ("rs.rs_encode", rs, "rs_encode", CALL, _encode_bytes),
        ("rs.rs_decode", rs, "rs_decode", CALL, _decode_stats),
        ("accumulator.acc_eval", accumulator, "acc_eval", CALL, None),
        ("accumulator.acc_create_wit", accumulator, "acc_create_wit", CALL, None),
        ("accumulator.acc_verify", accumulator, "acc_verify", CALL, _false_rejects),
        ("multisig.sign", multisig.MsigAuthority, "sign", CALL, None),
        ("multisig.verify", multisig.MsigAuthority, "verify", CALL, None),
        ("multisig.msig_combine", multisig, "msig_combine", CALL, None),
        ("blocks.encode", blocks, "encode", CALL, None),
        ("blocks.distribute", blocks, "distribute", CALL, None),
        ("blocks.reconstruct", blocks, "reconstruct", CALL, _none_fails),
        ("star.star", star, "star", CALL, None),
        ("star.max_matching", star, "max_matching", CALL, None),
        ("star.derive_fe", star, "derive_fe", CALL, None),
        ("star.PartyGraph.from_edges", star.PartyGraph, "from_edges", CALL, None),
        ("star.PartyGraph.with_edge", star.PartyGraph, "with_edge", CALL, None),
        ("simnet.run", simnet.Engine, "run", CALL, None),
        ("simnet.submit_send", simnet.Engine, "submit_send", CALL, None),
        ("simnet.inbox", simnet.Ctx, "inbox", CALL, _inbox_stats),
        ("protocols.resume", simnet.Engine, "_resume", CALL, None),
        ("oracles.ba_oracle", oracles, "ba_oracle", GEN, None),
        ("oracles.bcast_oracle", oracles, "bcast_oracle", GEN, None),
        ("oracles.dolev_strong", oracles, "dolev_strong", GEN, _instance),
        ("oracles.parallel_chain_bcast", oracles, "parallel_chain_bcast", GEN, _instance),
        ("oracles.sync_ba_majority", oracles, "sync_ba_majority", GEN, None),
        ("oracles.bracha_rb", oracles, "bracha_rb", GEN, None),
        ("oracles.aba_binary", oracles, "aba_binary", GEN, _instance),
        ("oracles.BrachaMachine.init", oracles.BrachaMachine, "__init__", CALL, _instance),
        ("oracles.BrachaMachine.start", oracles.BrachaMachine, "start", CALL, None),
        ("oracles.BrachaMachine.feed", oracles.BrachaMachine, "feed", CALL, None),
        ("runner.run", runner, "run", CALL, None),
    ]


def _call_wrapper(rec: SpanRecorder, nid: int, fn, hook):
    enter, exit_, extra = rec.enter, rec.exit, rec.extra[nid]

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        enter(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            exit_()
        if hook is not None:
            hook(extra, args, result)
        return result

    return wrapper


def _gen_wrapper(rec: SpanRecorder, nid: int, fn, hook):
    enter, exit_, extra = rec.enter, rec.exit, rec.extra[nid]

    def drive(gen):
        sent = None
        while True:
            enter(nid)
            try:
                item = gen.send(sent)
            except StopIteration as stop:
                return stop.value
            finally:
                exit_()
            sent = yield item

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if hook is not None:
            hook(extra, args, None)
        return drive(fn(*args, **kwargs))

    return wrapper


class LayerTracer:
    """Installs and removes the span wrappers; usable as a context manager."""

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self._undo: list[tuple[object, str, object]] = []

    def install(self) -> "LayerTracer":
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "bbext" or name.startswith("bbext.")]
        try:
            for name, owner, attr, kind, hook in targets():
                original = vars(owner).get(attr)
                if original is None:
                    raise LookupError(f"{owner.__name__}.{attr} not found")
                nid = self.recorder.name_id(name)
                make = _gen_wrapper if kind == GEN else _call_wrapper
                if isinstance(original, staticmethod):
                    wrapper = staticmethod(make(self.recorder, nid, original.__func__, hook))
                else:
                    wrapper = make(self.recorder, nid, original, hook)
                for site in [owner] if isinstance(owner, type) else modules:
                    for key, value in list(vars(site).items()):
                        if value is original:
                            setattr(site, key, wrapper)
                            self._undo.append((site, key, original))
        except BaseException:
            self.uninstall()
            raise
        return self

    def uninstall(self) -> None:
        while self._undo:
            site, key, original = self._undo.pop()
            setattr(site, key, original)

    def __enter__(self) -> "LayerTracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()


# (metric name, unit) in output order; values come from layer_metrics.
PER_LAYER = [
    ("gf.vmul_xor_into.calls", "count"), ("gf.vmul_xor_into.self_s", "s"),
    ("gf.vmul_xor_into.mb", "MB"), ("gf.solve_linear.calls", "count"),
    ("gf.solve_linear.self_s", "s"), ("gf.invert_matrix.calls", "count"),
    ("rs.rs_encode.calls", "count"), ("rs.rs_encode.self_s", "s"), ("rs.rs_encode.mb", "MB"),
    ("rs.rs_decode.calls", "count"), ("rs.rs_decode.self_s", "s"), ("rs.rs_decode.mb", "MB"),
    ("rs.rs_decode.fail_ratio", "ratio"),
    ("accumulator.acc_eval.calls", "count"), ("accumulator.acc_eval.self_s", "s"),
    ("accumulator.acc_create_wit.calls", "count"), ("accumulator.acc_create_wit.self_s", "s"),
    ("accumulator.acc_verify.calls", "count"), ("accumulator.acc_verify.self_s", "s"),
    ("accumulator.acc_verify.reject_ratio", "ratio"),
    ("multisig.sign.calls", "count"), ("multisig.verify.calls", "count"),
    ("multisig.self_s", "s"),
    ("blocks.encode.self_s", "s"), ("blocks.distribute.self_s", "s"),
    ("blocks.reconstruct.calls", "count"), ("blocks.reconstruct.self_s", "s"),
    ("blocks.reconstruct.fail_ratio", "ratio"),
    ("star.star.calls", "count"), ("star.max_matching.calls", "count"),
    ("star.cache_hit_ratio", "ratio"), ("star.self_s", "s"),
    ("simnet.submit_send.calls", "count"), ("simnet.inbox.calls", "count"),
    ("simnet.inbox.scanned", "count"), ("simnet.inbox.hit_ratio", "ratio"),
    ("simnet.inbox.self_s", "s"), ("simnet.self_s", "s"),
    ("oracles.self_s", "s"), ("oracles.instances", "count"),
    ("protocols.self_s", "s"), ("runner.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(rec: SpanRecorder, overhead_ratio: float) -> dict[str, dict]:
    """Every PER_LAYER metric from the recorded spans."""
    calls, self_s, count = rec.total_calls, rec.total_self, rec.count
    values = {"trace.overhead_ratio": overhead_ratio}
    for name in ("gf.vmul_xor_into", "gf.solve_linear", "gf.invert_matrix", "rs.rs_encode",
                 "rs.rs_decode", "accumulator.acc_eval", "accumulator.acc_create_wit",
                 "accumulator.acc_verify", "multisig.sign", "multisig.verify",
                 "blocks.reconstruct", "star.star", "star.max_matching",
                 "simnet.submit_send", "simnet.inbox"):
        values[f"{name}.calls"] = calls(name)
        values[f"{name}.self_s"] = self_s(name)
    for name in ("gf.vmul_xor_into", "rs.rs_encode", "rs.rs_decode"):
        values[f"{name}.mb"] = count(name, "bytes") / 1e6
    values["blocks.encode.self_s"] = self_s("blocks.encode")
    values["blocks.distribute.self_s"] = self_s("blocks.distribute")
    values["rs.rs_decode.fail_ratio"] = _ratio(count("rs.rs_decode", "fails"),
                                               calls("rs.rs_decode"))
    values["blocks.reconstruct.fail_ratio"] = _ratio(count("blocks.reconstruct", "fails"),
                                                     calls("blocks.reconstruct"))
    values["accumulator.acc_verify.reject_ratio"] = _ratio(
        count("accumulator.acc_verify", "rejects"), calls("accumulator.acc_verify"))
    values["star.cache_hit_ratio"] = (1 - _ratio(calls("star.max_matching"), calls("star.star"))
                                      if calls("star.star") else 0.0)
    values["simnet.inbox.scanned"] = count("simnet.inbox", "scanned")
    values["simnet.inbox.hit_ratio"] = _ratio(count("simnet.inbox", "hits"),
                                              count("simnet.inbox", "scanned"))
    values["oracles.instances"] = sum(count(n, "instances") for n in rec.names
                                      if n.startswith("oracles."))
    for layer in ("multisig", "star", "simnet", "oracles", "protocols", "runner"):
        values[f"{layer}.self_s"] = self_s(layer)
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
