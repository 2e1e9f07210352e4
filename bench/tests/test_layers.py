"""Each workload, traced for one pass of the default seed: every span of
the per-layer table fires where the table says it does and stays at zero
where it says zero, and the pass matches its pinned behaviour digest.

A refactor that renames a traced function, or moves its callers to a
binding the tracer cannot see (say, a default argument bound at import),
fails here instead of leaving a layer at zero unnoticed.

Run from the repository root: ``python3 -m pytest bench/tests -q``.
"""

from __future__ import annotations

import pytest

import harness
import workloads
from tracing import LayerTracer, SpanRecorder, layer_metrics

ALL = ("battery", "long-message", "wide-committee", "error-free")
ACC = ("accumulator.acc_eval.calls", "accumulator.acc_create_wit.calls",
       "accumulator.acc_verify.calls")
STAR = ("star.star.calls", "star.max_matching.calls", "star.self_s")

# metric -> workloads on which one pass must make it non-zero
FIRES = {
    "gf.vmul_xor_into.calls": ALL,
    "gf.solve_linear.calls": ("error-free", "battery"),
    "rs.rs_encode.calls": ALL,
    "rs.rs_decode.calls": ("long-message", "error-free", "battery"),
    **{m: ("long-message", "wide-committee", "battery") for m in ACC},
    "multisig.sign.calls": ("wide-committee",),
    "multisig.verify.calls": ("wide-committee",),
    "blocks.encode.self_s": ("long-message",),
    "blocks.distribute.self_s": ("long-message",),
    "blocks.reconstruct.calls": ("long-message",),
    **{m: ("error-free", "battery") for m in STAR},
    "simnet.submit_send.calls": ALL,
    "simnet.inbox.calls": ALL,
    "simnet.self_s": ALL,
    "oracles.instances": ("wide-committee",),
    "oracles.self_s": ("wide-committee",),
    "protocols.self_s": ALL,
    "runner.self_s": ALL,
}

# metric -> workloads on which it must stay exactly zero
ZERO = {
    "gf.solve_linear.calls": ("long-message", "wide-committee"),
    **{m: ("error-free",) for m in ACC},
    **{m: ("long-message", "wide-committee") for m in STAR},
    "oracles.instances": ("long-message", "error-free"),
}


@pytest.fixture(scope="module")
def traced():
    cache = {}

    def run(name: str) -> dict[str, float]:
        if name not in cache:
            rec = SpanRecorder()
            loop = harness.SessionLoop()
            with LayerTracer(rec):
                harness.run_passes(loop, workloads.build_workloads()[name], 0, range(1), rec)
            assert loop.failed == 0
            assert harness.digest_ok(name, 0, loop.pass0_digest), "behaviour digest moved"
            cache[name] = {k: v["value"] for k, v in layer_metrics(rec, 1.0).items()}
        return cache[name]

    return run


@pytest.mark.parametrize("workload", ALL)
def test_spans_fire_where_the_table_says(traced, workload):
    values = traced(workload)
    silent = [m for m, where in FIRES.items() if workload in where and not values[m] > 0]
    assert not silent, f"{workload}: expected non-zero {silent}"
    busy = {m: values[m] for m, where in ZERO.items() if workload in where and values[m] != 0}
    assert not busy, f"{workload}: expected zero {busy}"


def test_tracer_restores_every_binding():
    import bbext
    from bbext import blocks, runner

    before = (bbext.run, runner.run, blocks.acc_verify, bbext.simnet.Ctx.inbox)
    with LayerTracer(SpanRecorder()):
        assert bbext.run is not before[0] and blocks.acc_verify is not before[2]
    assert (bbext.run, runner.run, blocks.acc_verify, bbext.simnet.Ctx.inbox) == before
