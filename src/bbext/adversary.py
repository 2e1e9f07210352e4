"""Scripted Byzantine adversaries and the standard battery.

A script fixes the corrupt set at session start (static corruption), builds
the behavior of each corrupt party (silent, honest-with-hooks, or fully
custom), chooses ideal-oracle inputs/outputs where the definitions leave
slack, and picks the delivery policy in events mode.

Corrupt-party traffic is never metered; honest code is never altered.
"""

from __future__ import annotations

import random
from typing import Callable

from . import blocks
from .multisig import msig_combine
from .oracles import bcast_oracle
from .simnet import (
    BOT,
    Ctx,
    LifoPolicy,
    RandomPolicy,
    SchedulerPolicy,
    StarvePolicy,
    default_output,
    value_to_bytes,
)


PLACEMENTS = ("none", "tail", "tail_but_sender", "sender_and_tail")


class AdversaryScript:
    """Base script: no corruption at all."""

    name = "honest"
    # where corrupt_set puts the corrupt parties: "none"; "tail", the t
    # highest ids; "tail_but_sender", the t highest ids other than the
    # sender's; "sender_and_tail", the sender (when there is one) and the
    # highest other ids, t in all
    placement = "none"

    def corrupt_set(self, n: int, t: int, sender: int | None) -> frozenset[int]:
        if self.placement not in PLACEMENTS:
            raise ValueError(f"unknown placement {self.placement!r}")
        if self.placement == "none":
            return frozenset()
        # every rule but "tail" keeps the sender out of the tail
        not_tail = frozenset({sender} if sender and self.placement != "tail" else ())
        head = not_tail if self.placement == "sender_and_tail" else frozenset()
        return head | _tail_corrupt(n, t - len(head), exclude=not_tail)

    def make_party(self, pid: int, honest_factory: Callable, env) -> Callable | None:
        """Behavior of corrupt party pid; None means fully silent."""
        return None

    def oracle_submissions(self, inst, engine) -> dict[int, object]:
        """Ideal-oracle inputs on behalf of corrupt parties, asked at session start."""
        return {}

    def pick_oracle_output(self, inst, submitted: list, engine):
        """Output choice when the definition does not pin one."""
        return default_output(submitted)

    def scheduler_policy(self, corrupt: frozenset[int], seed: int) -> SchedulerPolicy:
        return SchedulerPolicy()

    def _rng(self, seed: int) -> random.Random:
        return random.Random((self.name, seed).__repr__())


class CorruptChoice(AdversaryScript):
    """Base for scripts that resolve ideal-oracle slack toward a corrupt
    submission."""

    def pick_oracle_output(self, inst, submitted, engine):
        """The first corrupt submission in pid order, otherwise the base choice."""
        for pid, value in sorted(inst.submissions.items()):
            if pid not in engine.honest:
                return value
        return super().pick_oracle_output(inst, submitted, engine)


# bytes.translate tables that XOR every byte with a fixed key
_FLIP_ALL = bytes(b ^ 0xFF for b in range(256))
_FLIP_A5 = bytes(b ^ 0xA5 for b in range(256))


def _tail_corrupt(n: int, t: int, exclude: frozenset[int] = frozenset()) -> frozenset[int]:
    picked: list[int] = []
    for pid in range(n, 0, -1):
        if len(picked) == t:
            break
        if pid not in exclude:
            picked.append(pid)
    return frozenset(picked)


def hooked(honest_factory, send_hook=None, oracle_hook=None, crash_after_steps=None):
    """Honest code on a corrupt party's context, with its rewrites set
    (see ``simnet.Ctx``)."""

    def factory(ctx: Ctx):
        ctx.send_hook = send_hook
        ctx.oracle_hook = oracle_hook
        ctx.crash_after_steps = crash_after_steps
        return honest_factory(ctx)

    return factory


class Silent(AdversaryScript):
    """Corrupt parties never speak; sender stays honest."""

    name = "silent"

    placement = "tail_but_sender"


class CrashAtStep(AdversaryScript):
    """Honest behavior until the s-th step marker, then nothing."""

    placement = "tail"

    def __init__(self, steps: int, name: str):
        self.steps = steps
        self.name = name

    def make_party(self, pid, honest_factory, env):
        return hooked(honest_factory, crash_after_steps=self.steps)


class Equivocator(AdversaryScript):
    """Different payload bytes to odd and even recipients."""

    name = "equivocator"

    _KINDS = ("payload", "sym_self", "v_vec", "e_vec", "maj_val")

    placement = "sender_and_tail"

    def make_party(self, pid, honest_factory, env):
        def send_hook(ctx, dst, kind, payload):
            if kind in self._KINDS and dst % 2 == 0:
                if isinstance(payload, bytes):
                    payload = payload.translate(_FLIP_ALL)
                elif isinstance(payload, int):
                    payload = payload ^ ((1 << ctx.params.n) - 1)
            return kind, payload

        return hooked(honest_factory, send_hook=send_hook)


class CorruptShareSender(AdversaryScript):
    """Wrong coded value under the original (now stale) witness."""

    name = "corrupt_share"

    placement = "sender_and_tail"

    def make_party(self, pid, honest_factory, env):
        def send_hook(ctx, dst, kind, payload):
            if kind in ("share_pkg", "share_fwd") and isinstance(payload, blocks.SharePackage):
                share = payload.indexed_share
                flipped = share.share.translate(_FLIP_A5)
                payload = blocks.SharePackage(
                    indexed_share=blocks.IndexedShare(index=share.index, share=flipped),
                    witness=payload.witness,
                )
            return kind, payload

        return hooked(honest_factory, send_hook=send_hook)


class ForgedWitness(AdversaryScript):
    """Keeps the coded value but attaches fabricated witness bytes."""

    name = "forge_witness"

    placement = "sender_and_tail"

    def make_party(self, pid, honest_factory, env):
        rng = self._rng(env.seed * 1000 + pid)

        def send_hook(ctx, dst, kind, payload):
            if kind in ("share_pkg", "share_fwd") and isinstance(payload, blocks.SharePackage):
                fake = bytes(rng.randrange(256) for _ in range(len(payload.witness.data)))
                payload = blocks.SharePackage(
                    indexed_share=payload.indexed_share,
                    witness=type(payload.witness)(data=fake),
                )
            return kind, payload

        return hooked(honest_factory, send_hook=send_hook)


class WrongHappy(CorruptChoice):
    """Claims readiness it does not have: flips agreement-oracle inputs."""

    name = "wrong_happy"

    placement = "tail"

    def make_party(self, pid, honest_factory, env):
        rng = self._rng(env.seed * 1000 + pid)

        def oracle_hook(ctx, instance, value):
            if instance.startswith("ba_happy"):
                return 1
            if instance.startswith("ba_commit") and isinstance(value, bytes):
                return bytes(rng.randrange(256) for _ in range(len(value)))
            return value

        return hooked(honest_factory, oracle_hook=oracle_hook)


class OracleLiar(CorruptChoice):
    """Silent on the wire, loud toward the ideal oracles."""

    name = "oracle_liar"

    placement = "tail_but_sender"

    def oracle_submissions(self, inst, engine):
        rng = random.Random((self.name, inst.instance).__repr__())
        subs = {}
        for pid in range(1, engine.params.n + 1):
            if pid not in engine.honest:
                if inst.value_bits == 1:
                    subs[pid] = rng.randrange(2)
                else:
                    width = max(inst.value_bits // 8, 1)
                    subs[pid] = bytes(rng.randrange(256) for _ in range(width))
        return subs


class PartialPayloadSender(AdversaryScript):
    """Sender reveals the payload to a single honest party; the commitment
    and the witnessed shares still flow, so reconstruction must carry."""

    name = "partial_payload"

    def corrupt_set(self, n, t, sender):
        return frozenset({sender}) if sender else _tail_corrupt(n, t)

    def make_party(self, pid, honest_factory, env):
        target = min(p for p in range(1, env.params.n + 1) if p not in env.corrupt)

        def send_hook(ctx, dst, kind, payload):
            if kind == "payload" and dst != target:
                return None
            return kind, payload

        return hooked(honest_factory, send_hook=send_hook)


class WithholdCertificate(AdversaryScript):
    """Iterated-broadcast attack: the corrupt coalition releases witnessed
    shares and a coalition-signed readiness chain to one honest party only,
    at iteration |coalition|, forcing last-iteration acceptance elsewhere."""

    name = "withhold_cert"

    placement = "sender_and_tail"

    def make_party(self, pid, honest_factory, env):
        if env.spec.name != "sync-bb-highthresh" or pid != env.sender:
            return None  # co-conspirators only lend their signatures

        def party(ctx: Ctx):
            params = ctx.params
            m = env.inputs.get(env.sender, b"")
            shares, rich = ctx.session.codec.commit(m, params.b, params.l)
            yield from bcast_oracle(ctx, "bb_commit", rich.data)
            target = min(p for p in range(1, params.n + 1) if p not in env.corrupt)
            release_iter = max(len(env.corrupt), 1)
            tag = b"HAPPY/" + ctx.session.session_id.encode()
            cert = None
            for signer in sorted(env.corrupt):
                sig = ctx.session.msig.sign(signer, tag)
                cert = sig if cert is None else msig_combine(cert, sig)
            packages = ctx.session.codec.packages(shares, rich)
            for r in range(1, params.t + 2):
                if r == release_iter:
                    ctx.send(target, "happy_cert", cert)
                    for j, pkg in sorted(packages.items()):
                        if j != ctx.pid:
                            ctx.send(j, "share_pkg", pkg)
                yield from ctx.wait_rounds(2)

        return party


class ConflictingViews(AdversaryScript):
    """Sends a different consistency vector / core set to every recipient."""

    name = "conflicting_views"

    placement = "tail"

    def make_party(self, pid, honest_factory, env):
        rng = self._rng(env.seed * 1000 + pid)

        def send_hook(ctx, dst, kind, payload):
            if kind in ("v_vec", "e_vec") and isinstance(payload, int):
                return kind, rng.getrandbits(ctx.params.n)
            if kind == "ok":
                # acknowledge toward half the recipients only
                if dst % 2 == 0:
                    return None
            return kind, payload

        return hooked(honest_factory, send_hook=send_hook)


def _junk_value(rng: random.Random, depth: int = 0):
    """A malformed payload. Module-level, not a closure that calls itself:
    such a closure is a reference cycle that keeps it and its ``Random``
    alive until the next collection."""
    draws = [
        lambda: rng.randrange(-5, 300),
        lambda: bytes(rng.randrange(256) for _ in range(rng.randrange(0, 8))),
        lambda: "text",
        lambda: None,
        lambda: (rng.randrange(5), rng.randrange(5)),
        lambda: ("est", rng.randrange(3), rng.randrange(4)),
        lambda: ("send", b"x"),
        lambda: [1, 2],
        lambda: 2**80,
    ]
    if depth == 0:
        draws.append(lambda: (_junk_value(rng, 1), _junk_value(rng, 1), _junk_value(rng, 1)))
    return rng.choice(draws)()


class JunkInjector(AdversaryScript):
    """Sprays structurally malformed payloads of every message kind; honest
    parties must ignore them without crashing or losing their guarantees."""

    name = "junk_injector"

    _KINDS = ("payload", "share_pkg", "share_fwd", "happy_cert", "sym_self",
              "sym_priv", "v_vec", "e_vec", "maj_val", "ok", "ds", "rb", "aba")
    _INSTANCES = (None, "ba_commit", "ba_happy", "bb_commit", "rb_commit",
                  "flag/1", "flag/abc", "flag/999", "bb0", "rb0", "aba0")

    placement = "tail_but_sender"

    def make_party(self, pid, honest_factory, env):
        rng = self._rng(env.seed * 991 + pid)

        def party(ctx):
            from .accumulator import Witness
            from .blocks import IndexedShare, SharePackage
            for _ in range(12 * ctx.params.n):
                dst = rng.randrange(1, ctx.params.n + 1)
                if dst == ctx.pid:
                    continue
                kind = rng.choice(self._KINDS)
                payload = _junk_value(rng)
                if kind in ("share_pkg", "share_fwd") and rng.random() < 0.5:
                    payload = SharePackage(
                        indexed_share=IndexedShare(
                            index=rng.choice([dst, 0, 70000, "x"]),
                            share=rng.choice([b"\x00\x01", "nope", b""]),
                        ),
                        witness=rng.choice([
                            Witness(data=b"\x00" * 8),
                            "bogus",
                            None,
                        ]),
                    )
                ctx.send(dst, kind, payload, instance=rng.choice(self._INSTANCES))
            return None
            yield  # pragma: no cover

        return party


class PushyChoice(AdversaryScript):
    """Silent corrupt set; ideal-oracle slack resolved toward the largest
    submitted value, which drives the reconstruction paths on split inputs."""

    name = "pushy_choice"

    placement = "tail_but_sender"

    def pick_oracle_output(self, inst, submitted, engine):
        return max(submitted, key=value_to_bytes, default=BOT)


class ScheduledHonest(AdversaryScript):
    """No corruption; the network itself misbehaves within fairness."""

    def __init__(self, policy_name: str):
        self.policy_name = policy_name
        self.name = f"sched_{policy_name}"

    def scheduler_policy(self, corrupt, seed):
        if self.policy_name == "lifo":
            return LifoPolicy()
        if self.policy_name == "random":
            return RandomPolicy()
        raise ValueError(self.policy_name)


class StarvingScheduler(AdversaryScript):
    """Silent corrupt set plus a policy that starves honest traffic."""

    name = "sched_starve"

    placement = "tail_but_sender"

    def scheduler_policy(self, corrupt, seed):
        return StarvePolicy(corrupt)


def adversary_battery() -> list[AdversaryScript]:
    """The standard scripts every protocol battery runs against."""
    return [
        AdversaryScript(),
        Silent(),
        CrashAtStep(2, "crash_early"),
        CrashAtStep(4, "crash_mid"),
        Equivocator(),
        CorruptShareSender(),
        ForgedWitness(),
        WrongHappy(),
        OracleLiar(),
        PushyChoice(),
        JunkInjector(),
        PartialPayloadSender(),
        WithholdCertificate(),
        ConflictingViews(),
        ScheduledHonest("lifo"),
        ScheduledHonest("random"),
        StarvingScheduler(),
    ]
