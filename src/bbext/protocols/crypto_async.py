"""Asynchronous authenticated extension protocols for t < n/3.

Same commitment-then-disseminate structure as the synchronous variants, but
steps fire as soon as enough messages arrive. The reliable-broadcast variant
additionally re-distributes after reconstructing, which is what carries a
single honest output to everyone when the sender is faulty.
"""

from __future__ import annotations

from .. import blocks
from ..accumulator import AccValue
from ..oracles import ba_oracle, bcast_oracle
from ..simnet import BOT, Ctx, InvariantViolation, OracleInstance
from .base import (ForwardCollector, ProtocolSpec, encode_input, first_valid_own_package,
                   forward_own_package, payload_commitment, share_mail)


def async_ba_third(ctx: Ctx, my_input: bytes, sender: int | None = None):
    """Agreement for t < n/3 with eventual delivery."""
    params = ctx.params
    packages, fwd_mail = share_mail(ctx)
    ctx.set_step("encode")
    shares, z_mine = encode_input(ctx, my_input)
    z = yield from ba_oracle(ctx, "ba_commit", z_mine.data)
    happy = z == z_mine.data
    ctx.set_happy(happy)
    vote = yield from ba_oracle(ctx, "ba_happy", int(happy))
    if vote != 1:
        return BOT
    z_acc = AccValue(z)
    ctx.set_step("distribute")
    if happy:
        blocks.distribute(ctx, shares, z_mine)
    ctx.set_step("share")
    mine = first_valid_own_package(ctx, z_acc, packages.new())
    while mine is None:
        yield packages
        mine = first_valid_own_package(ctx, z_acc, packages.new())
    forward_own_package(ctx, mine)
    if happy:
        if z_mine.data != z:
            raise InvariantViolation("happy party's commitment must match the agreed one")
        return my_input
    ctx.set_step("reconstruct")
    forwards = ForwardCollector(ctx, z_acc, fwd_mail)
    while forwards.update() < params.n - params.t:
        yield forwards.mail
    got = forwards.reconstruct()
    if got is None:
        raise InvariantViolation(
            f"party {ctx.pid}: reconstruction failed after a carried happy vote")
    return got[0]


def async_rb_third(ctx: Ctx, my_input: bytes | None, sender: int):
    """Reliable broadcast for t < n/3: all-or-none delivery under a faulty
    sender; every reconstructing party re-distributes its result."""
    params = ctx.params
    payloads = ctx.reader("payload")
    packages, fwd_mail = share_mail(ctx)
    ctx.set_step("payload")
    z_bytes_own = None
    if ctx.pid == sender:
        shares, z_mine = encode_input(ctx, my_input)
        z_bytes_own = z_mine.data
        ctx.broadcast("payload", my_input)
    z = yield from bcast_oracle(ctx, "rb_commit", z_bytes_own)
    if not isinstance(z, bytes):
        return None  # commitment never resolves to a usable value
    z_acc = AccValue(z)

    happy = False
    message = my_input if ctx.pid == sender else None
    happy_known = ctx.pid == sender
    if ctx.pid == sender:
        happy = z_mine.data == z
        ctx.set_happy(happy)
        if happy:
            ctx.set_step("distribute")
            blocks.distribute(ctx, shares, z_mine)
    forwarded = None
    forwards = ForwardCollector(ctx, z_acc, fwd_mail)
    mail = ctx.reader()
    while True:
        if not happy_known:
            first = next((e for e in payloads.new() if e.src == sender), None)
            if first is not None:
                happy_known = True
                commit = payload_commitment(ctx, first.payload, z)
                if commit is not None:
                    happy = True
                    ctx.set_happy(True)
                    message = first.payload
                    ctx.set_step("distribute")
                    blocks.distribute(ctx, *commit)
        if forwarded is None:
            forwarded = first_valid_own_package(ctx, z_acc, packages.new())
            if forwarded is not None:
                ctx.set_step("share")
                forward_own_package(ctx, forwarded)
        if happy and forwarded is not None:
            return message
        if not happy and forwarded is not None and forwards.update() >= params.n - params.t:
            ctx.set_step("reconstruct")
            # a set that decodes to no canonical encoding makes nobody happy
            # and nobody output - an allowed outcome under a faulty sender
            got = forwards.reconstruct()
            if got is not None:
                m, rebuilt, rich = got
                ctx.set_step("redistribute")
                blocks.distribute(ctx, rebuilt, rich)
                return m
        # any new mail, not only the kinds read above, wakes the loop again
        mail.new()
        yield mail


ASYNC_PROTOCOLS = [
    ProtocolSpec(name="async-ba-third", mode="events", kind="ba", regime="third_async",
                 party=async_ba_third, oracles=lambda params, sender: {
                     "ba_commit": OracleInstance("async_ba_kbit", None, params.k),
                     "ba_happy": OracleInstance("async_ba_bit", None, 1)}),
    ProtocolSpec(name="async-rb-third", mode="events", kind="rb", regime="third_async",
                 party=async_rb_third, oracles=lambda params, sender: {
                     "rb_commit": OracleInstance("async_rb", sender, params.k)}),
]
