"""Synchronous authenticated extension protocols.

All three share the same skeleton: agree on a short commitment to the coded
share set, mark parties whose local message matches as happy, let happy
parties distribute witnessed shares, and let everyone else reconstruct.
"""

from __future__ import annotations

from .. import blocks
from ..accumulator import AccValue
from ..multisig import MultiSig
from ..oracles import ba_oracle, bcast_oracle
from ..simnet import BOT, Ctx, InvariantViolation, NEXT_ROUND, OracleInstance
from .base import (ForwardCollector, ProtocolSpec, encode_input, first_valid_own_package,
                   forward_own_package, payload_commitment, share_mail, shared_sync_tail)


def sync_ba_half(ctx: Ctx, my_input: bytes, sender: int | None = None):
    """Agreement for t < n/2: k-bit agreement on the commitment, one-bit
    agreement on the happy flags, then distribute / forward / reconstruct."""
    mail = share_mail(ctx)
    ctx.set_step("encode")
    shares, z_mine = encode_input(ctx, my_input)
    z = yield from ba_oracle(ctx, "ba_commit", z_mine.data)
    happy = z == z_mine.data
    ctx.set_happy(happy)
    vote = yield from ba_oracle(ctx, "ba_happy", int(happy))
    out = yield from shared_sync_tail(ctx, z, happy, my_input, (shares, z_mine), vote, mail)
    if happy and out is not BOT and out != my_input:
        raise InvariantViolation("happy party must output its own message")
    return out


def sync_bb_half(ctx: Ctx, my_input: bytes | None, sender: int):
    """Broadcast for t < n/2: the sender fans out the payload and broadcasts
    the commitment; the rest matches the agreement protocol."""
    payloads = ctx.reader("payload")
    mail = share_mail(ctx)
    ctx.set_step("payload")
    message = None
    z_bytes_own = None
    if ctx.pid == sender:
        message = my_input
        z_bytes_own = encode_input(ctx, message)[1].data
        ctx.broadcast("payload", message)
    z = yield from bcast_oracle(ctx, "bb_commit", z_bytes_own)
    if ctx.pid != sender:
        first = next((e for e in payloads.new() if e.src == sender), None)
        if first is not None:
            message = first.payload
    commit = payload_commitment(ctx, message, z)
    happy = commit is not None
    ctx.set_happy(happy)
    vote = yield from ba_oracle(ctx, "ba_happy", int(happy))
    return (yield from shared_sync_tail(ctx, z, happy, message, commit, vote, mail))


def _happy_tag(ctx: Ctx) -> bytes:
    return b"HAPPY/" + ctx.session.session_id.encode()


def _best_cert(ctx: Ctx, envs, exclude: int) -> tuple[int, MultiSig | None]:
    """Longest valid happy certificate among envelopes, counting signers
    other than the excluded party."""
    best_len, best = 0, None
    for env in envs:
        cert = env.payload
        if not ctx.session.msig.verify(cert, _happy_tag(ctx)):
            continue
        r = len(cert.signers - {exclude})
        if r > best_len:
            best_len, best = r, cert
    return best_len, best


def sync_bb_high_threshold(ctx: Ctx, my_input: bytes | None, sender: int):
    """Broadcast for t < (1-eps)n: t+1 iterations of distribute / forward /
    reconstruct, gated by a growing chain of signatures on a HAPPY marker so
    that a party only accepts in iteration r with r signers vouching."""
    params = ctx.params
    auth = ctx.session.msig
    cert_mail = ctx.reader("happy_cert")
    # z_acc is fixed once agreed, so a package rejected once is rejected
    # again: each iteration checks only the packages filed since the last
    pkg_mail, fwd_mail = share_mail(ctx)
    happy = False
    output = BOT
    my_shares = my_rich = None
    trigger_cert: MultiSig | None = None
    z_bytes_own = None
    ctx.set_step("commit")
    if ctx.pid == sender:
        happy = True
        output = my_input
        my_shares, my_rich = encode_input(ctx, my_input)
        z_bytes_own = my_rich.data
    ctx.set_happy(happy)
    z = yield from bcast_oracle(ctx, "bb_commit", z_bytes_own)
    z_acc = AccValue(z if isinstance(z, bytes) else b"")

    distributed = False
    mine = None
    reconstructed = False
    forwards = ForwardCollector(ctx, z_acc, fwd_mail)
    for r in range(1, params.t + 2):
        ctx.set_step("distribute")
        if happy and not distributed:
            distributed = True
            tag = _happy_tag(ctx)
            cert = (auth.cosign(trigger_cert, ctx.pid, tag) if trigger_cert
                    else auth.sign(ctx.pid, tag))
            ctx.broadcast("happy_cert", cert)
            if my_rich.data != z:
                raise InvariantViolation(
                    "distributing party's shares must match the agreed commitment")
            blocks.distribute(ctx, my_shares, my_rich)
        yield NEXT_ROUND
        cert_envs = cert_mail.new()
        ctx.set_step("share")
        if mine is None:
            mine = first_valid_own_package(ctx, z_acc, pkg_mail.new())
            if mine is not None:
                forward_own_package(ctx, mine)
        yield NEXT_ROUND
        # reconstruction: no communication
        if not reconstructed:
            chain_len, cert = _best_cert(ctx, cert_envs, exclude=ctx.pid)
            got = forwards.reconstruct() if chain_len >= r else None
            if got is not None:
                output, my_shares, my_rich = got
                reconstructed = happy = True
                ctx.set_happy(True)
                trigger_cert = cert
                ctx.engine.metrics.extra[f"happy_iter/{ctx.pid}"] = r
    return output


SYNC_PROTOCOLS = [
    ProtocolSpec(name="sync-ba-half", mode="rounds", kind="ba", regime="half",
                 party=sync_ba_half, oracles=lambda params, sender: {
                     "ba_commit": OracleInstance("sync_ba", None, params.k),
                     "ba_happy": OracleInstance("sync_ba", None, 1)}),
    ProtocolSpec(name="sync-bb-half", mode="rounds", kind="bb", regime="half",
                 party=sync_bb_half, oracles=lambda params, sender: {
                     "bb_commit": OracleInstance("sync_bb", sender, params.k),
                     "ba_happy": OracleInstance("sync_ba", None, 1)}),
    ProtocolSpec(name="sync-bb-highthresh", mode="rounds", kind="bb", regime="one_minus_eps",
                 party=sync_bb_high_threshold, oracles=lambda params, sender: {
                     "bb_commit": OracleInstance("sync_bb", sender, params.k)}),
]
