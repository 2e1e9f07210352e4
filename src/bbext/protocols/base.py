"""Session parameters, and the share-dissemination steps that the four
authenticated protocols run after agreeing on a commitment z: a payload
that commits to z, the forward of one's own valid package, and the
collection and decoding of every party's first valid forward.

The lists the protocols read (``share_mail`` and the like) open at engine
start from ``wire``'s key rule, so delivery files all of their mail
whenever a protocol asks for them."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .. import blocks
from ..accumulator import AccValue
from ..simnet import BOT, Ctx, InvariantViolation, NEXT_ROUND, Reader

def max_t(regime: str, n: int, epsilon: float | None = None) -> int:
    """The largest t that the resilience regime allows among n parties:
    t < n/2 for ``half``, t <= (1-epsilon)n for ``one_minus_eps`` (which
    needs 0 < epsilon <= 1), and t < n/3 for ``third_sync_ef`` and
    ``third_async``. The one place that knows these bounds."""
    if regime == "half":
        return (n - 1) // 2
    if regime == "one_minus_eps":
        if epsilon is None or not 0 < epsilon <= 1:
            raise ValueError(f"one_minus_eps regime needs 0 < epsilon <= 1, got {epsilon!r}")
        return int((1 - epsilon) * n)
    if regime in ("third_sync_ef", "third_async"):
        return (n - 1) // 3
    raise ValueError(f"unknown regime {regime!r}")


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
        if self.n < 1 or self.t < 0 or self.l < 0:
            raise ValueError("bad session sizes")
        if self.b < 1:
            raise ValueError("need at least one honest party (b >= 1)")
        most = max_t(self.threshold_regime, self.n, self.epsilon)
        if self.t > most:
            raise ValueError(f"{self.threshold_regime} regime allows t <= {most} "
                             f"at n = {self.n}, got t = {self.t}")

    @property
    def b(self) -> int:
        return self.n - self.t


@dataclass(frozen=True)
class ProtocolSpec:
    """A runnable protocol: scheduler mode, problem kind, party factory, oracles.

    ``party(ctx, my_input, sender)`` returns the party generator; for
    agreement protocols sender is None and every party holds an input, for
    broadcast protocols only the sender's input is non-None.
    """

    name: str
    mode: str  # rounds | events
    kind: str  # ba | bb | rb
    regime: str
    party: Callable
    # runs only at the regime's largest t, floor((n-1)/3)
    max_third_only: bool = False
    oracles: Callable = lambda params, sender: {}  # -> {name: simnet.OracleInstance}

    def check(self, params: SessionParams) -> None:
        """Raise ValueError unless the protocol runs with these parameters."""
        if params.threshold_regime != self.regime:
            raise ValueError(
                f"protocol {self.name} needs regime {self.regime}, got {params.threshold_regime}"
            )
        if self.max_third_only:
            most = max_t(self.regime, params.n)
            if params.t != most:
                raise ValueError(f"protocol {self.name} fixes t = floor((n-1)/3) = "
                                 f"{most}, got t = {params.t}")


def encode_input(ctx: Ctx, message: bytes):
    """Shares of an l-bit message and their accumulator commitment."""
    params = ctx.params
    shares, z = ctx.session.codec.commit(message, params.b, params.l)
    ctx.engine.metrics.extra.setdefault("share_bits", 8 * len(shares[0].share))
    return shares, z


def payload_commitment(ctx: Ctx, message, z):
    """encode_input's (shares, accumulation value) for a received payload
    that commits to z; None when no payload arrived, it does not encode, or
    it commits to something else, and whenever z is BOT."""
    if message is None or z is BOT:
        return None
    try:
        commit = encode_input(ctx, message)
    except ValueError:
        return None
    return commit if commit[1].data == z else None


def share_mail(ctx: Ctx) -> tuple[Reader, Reader]:
    """Cursors over the party's share_pkg and share_fwd mail; a protocol
    opens them at its start."""
    return ctx.reader("share_pkg"), ctx.reader("share_fwd")


def first_valid_own_package(ctx: Ctx, z: AccValue, envs):
    """Earliest package among envs (share_pkg envelopes in arrival order)
    for our own index that verifies under z."""
    for env in envs:
        if ctx.session.codec.verify(z, env.payload, ctx.pid):
            return env.payload
    return None


def forward_own_package(ctx: Ctx, pkg) -> None:
    """Send our own verified package to every party, ourselves included."""
    ctx.broadcast("share_fwd", pkg)
    ctx.self_deliver("share_fwd", pkg)


class ForwardCollector:
    """Forwarded packages: the first one per forwarder that verifies under z
    for the forwarder's own index, read through mail, the share_fwd cursor
    of ``share_mail``."""

    def __init__(self, ctx: Ctx, z: AccValue, mail: Reader):
        self.ctx = ctx
        self.z = z
        self.table: dict[int, blocks.SharePackage] = {}
        self.mail = mail
        self._tried = 0  # table size at the last decode; the table only grows

    def update(self) -> int:
        """Take the forwards filed since the last call; the table's size."""
        codec = self.ctx.session.codec
        for env in self.mail.new():
            if env.src not in self.table and codec.verify(self.z, env.payload, env.src):
                self.table[env.src] = env.payload
        return len(self.table)

    def reconstruct(self):
        """(message, shares, accumulation value) when the table decodes to a
        message whose shares commit to z again; None otherwise, which
        includes a committed set that decodes but is not the canonical
        encoding of any message (e.g. padded with extra zero stripes). A
        table that has not grown since the last call decodes the same way,
        so it gives None without decoding again."""
        size = self.update()
        if size <= self._tried:
            return None
        self._tried = size
        codec, params = self.ctx.session.codec, self.ctx.params
        got = codec.reconstruct(self.table, self.z, d0=params.t, b=params.b)
        if got is None:
            return None
        shares, rich = codec.commit(got[0], params.b, got[1])
        return (got[0], shares, rich) if rich.data == self.z.data else None


def shared_sync_tail(ctx: Ctx, z, happy: bool, my_message: bytes | None, my_commit,
                     happy_vote, mail: tuple[Reader, Reader]):
    """Distribution, one-shot forwarding, and reconstruction rounds common to
    the synchronous minority-fault protocols, after the agreed commitment z
    and the agreed happy vote; my_commit is the (shares, accumulation value)
    pair of encode_input for my_message, and mail the cursors of
    ``share_mail``."""
    pkg_mail, fwd_mail = mail
    if happy_vote != 1:
        return BOT
    z_bytes = z if isinstance(z, bytes) else b""
    z = AccValue(z_bytes)
    ctx.set_step("distribute")
    if happy:
        my_shares, rich = my_commit
        if rich.data != z_bytes:
            raise InvariantViolation("happy party's shares must match the agreed commitment")
        blocks.distribute(ctx, my_shares, rich)
    yield NEXT_ROUND
    ctx.set_step("share")
    mine = first_valid_own_package(ctx, z, pkg_mail.new())
    if mine is not None:
        forward_own_package(ctx, mine)
    yield NEXT_ROUND
    ctx.set_step("reconstruct")
    if happy:
        return my_message
    out = ForwardCollector(ctx, z, fwd_mail).reconstruct()
    if out is None:
        raise InvariantViolation(
            f"party {ctx.pid}: reconstruction failed although the happy vote carried"
        )
    return out[0]
