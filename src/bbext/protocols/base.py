"""Session parameters and helpers shared by the extension protocols."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .. import blocks
from ..accumulator import AccValue
from ..simnet import BOT, Ctx, InvariantViolation, NEXT_ROUND

REGIMES = ("half", "one_minus_eps", "third_sync_ef", "third_async")


@dataclass(frozen=True)
class SessionParams:
    """Size and threshold configuration of one protocol session."""

    n: int
    t: int
    l: int  # input length in bits
    k: int = 256
    threshold_regime: str = "half"
    epsilon: float | None = None

    def __post_init__(self):
        if self.threshold_regime not in REGIMES:
            raise ValueError(f"unknown regime {self.threshold_regime!r}")
        if self.n < 1 or self.t < 0 or self.l < 0:
            raise ValueError("bad session sizes")
        if self.b < 1:
            raise ValueError("need at least one honest party (b >= 1)")
        reg = self.threshold_regime
        if reg == "half" and not self.t < self.n / 2:
            raise ValueError("half regime needs t < n/2")
        if reg == "one_minus_eps":
            eps = self.epsilon if self.epsilon is not None else 0.0
            if not (eps > 0 and self.t <= (1 - eps) * self.n):
                raise ValueError("one_minus_eps regime needs epsilon > 0 and t <= (1-eps)n")
        if reg in ("third_sync_ef", "third_async") and not self.t < self.n / 3:
            raise ValueError("third regime needs t < n/3")

    @property
    def b(self) -> int:
        return self.n - self.t


@dataclass(frozen=True)
class ProtocolSpec:
    """A runnable protocol: scheduler mode, problem kind, and party factory.

    ``party(ctx, my_input, sender)`` returns the party generator; for
    agreement protocols sender is None and every party holds an input, for
    broadcast protocols only the sender's input is non-None.
    """

    name: str
    mode: str  # rounds | events
    kind: str  # ba | bb | rb
    regime: str
    party: Callable


def encode_input(ctx: Ctx, message: bytes):
    """Shares of an l-bit message and their accumulator commitment."""
    params = ctx.params
    shares, z = ctx.session.codec.commit(message, params.b, params.l)
    ctx.engine.metrics.extra.setdefault("share_bits", 8 * len(shares[0].share))
    return shares, z


def bare_acc(z_bytes: bytes, k: int) -> AccValue:
    return AccValue(data=z_bytes, nominal_bits=k)


def first_valid_own_package(ctx: Ctx, z: AccValue, envs):
    """Earliest package among envs (share_pkg envelopes in arrival order)
    for our own index that verifies under z."""
    for env in envs:
        if ctx.session.codec.verify(z, env.payload, ctx.pid):
            return env.payload
    return None


def forwarded_packages(ctx: Ctx) -> dict[int, object]:
    """First package per forwarding party, keyed by the forwarder id."""
    table: dict[int, object] = {}
    for env in ctx.inbox(kind="share_fwd"):
        if env.src not in table:
            table[env.src] = env.payload
    return table


def shared_sync_tail(ctx: Ctx, z_bytes: bytes, happy: bool, my_message: bytes | None,
                     my_commit, happy_vote: int):
    """Distribution, one-shot forwarding, and reconstruction rounds common to
    the synchronous minority-fault protocols; my_commit is the (shares,
    accumulation value) pair of encode_input for my_message."""
    params = ctx.params
    if happy_vote != 1:
        return BOT
    z = bare_acc(z_bytes, params.k)
    ctx.set_step("distribute")
    if happy:
        my_shares, rich = my_commit
        if rich.data != z_bytes:
            raise InvariantViolation("happy party's shares must match the agreed commitment")
        blocks.distribute(ctx, my_shares, rich, step="distribute")
    yield NEXT_ROUND
    ctx.set_step("share")
    mine = first_valid_own_package(ctx, z, ctx.inbox("share_pkg"))
    if mine is not None:
        ctx.broadcast("share_fwd", mine, bits=mine.nominal_bits(), step="share")
        ctx.self_deliver("share_fwd", mine, step="share")
    yield NEXT_ROUND
    ctx.set_step("reconstruct")
    if happy:
        return my_message
    table = forwarded_packages(ctx)
    out = ctx.session.codec.reconstruct(table, z, d0=params.t, b=params.b)
    if out is None:
        raise AssertionError(
            f"party {ctx.pid}: reconstruction failed although the happy vote carried"
        )
    return out[0]
