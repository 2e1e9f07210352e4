"""Deterministic network simulation: round and event schedulers, metering.

One engine executes one protocol session. Parties are generators that yield
a wait condition and return their output. The one condition on mail is a
``Reader``: a party yielding its reader resumes once mail past the reader's
cursor has arrived, which the engine checks as ``len(box) > pos``; in rounds
mode a party may also yield ``NEXT_ROUND``. The engine owns delivery,
ideal-oracle rendezvous, and honest-bit accounting.

Rounds mode: every message sent in round r reaches honest mailboxes at the
start of round r+1. Events mode: a scheduling policy picks the next pending
envelope; an envelope may be deferred at most 10*n^2 scheduling steps, which
makes eventual delivery hold on every finite trace while leaving reordering
fully adversarial inside that bound.

A send is one immutable ``Envelope``, built once however many parties it
goes to: a broadcast by a party without a send hook, or an ideal oracle's
output, is one record with its destination list, metered with one charge.

The filing rule: delivering a record appends it, for each destination in
destination order, to the destination's mailbox, then to its list of the
record's (kind, instance) if the destination has asked for that list; a
record ``wire`` refused (see below) is filed nowhere. ``Engine._deliver``
applies the rule to rounds-mode sends and self-deliveries; the events loop
applies it inline to the one destination of each tick.

Mail is filed only where it is read. A list of a party's mail of one
(kind, instance) exists only once the party has asked for it
(``Ctx.inbox``, ``Ctx.reader``, ``Ctx.wait_oracle``); a kind alone names
(kind, None), so no reader of a kind gets mail tagged with an instance.
Every first request builds the list by one scan of the mailbox, in arrival
order; from then on delivery appends to it, at one table lookup per
envelope, so mail nobody asked for grows no table. A party reads new mail
through a cursor (``Ctx.reader``) and waits for more by yielding that cursor.

Every request naming a mail key (a send, a self-delivery, a read) needs a
``str`` kind and a None or ``str`` instance, and a send or self-delivery
must not forge ``oracle_out``; a send also needs a destination in 1..n
other than the sender, and an ideal submission the name of an instance
the engine built. Anything else is refused: from a corrupt party a send,
self-delivery or submission is dropped (not filed, metered or traced) and
a read gets an empty list nothing files into; from an honest party it
raises ``ValueError``. Values from a corrupt party pass the one gate that
``wire`` states: the engine drops a corrupt ideal submission that is not
``wire.value_ok``, outputs BOT for an adversary-picked oracle output that
is not, and parses each envelope a corrupt party sends once, at send
(``wire.parse``). A refused envelope carries 0 bits but still travels: it
is delivered at its tick and traced, but filed into no list, not even the
mailbox. Honest envelopes are not parsed.

The protocol's spec fixes each ideal instance's kind, sender and width
(``session.oracles``); the engine builds the instances it runs as ideal,
with the adversary script's submissions, before any party runs. An ideal
oracle fires on two facts of its kind's ``ORACLE_KINDS`` entry. A sender
kind fires when its sender has submitted, and in rounds mode also once
every honest party has registered; an agreement kind fires when every
honest party has submitted. Its output goes to every party on the
(``oracle_out``, instance) list, which only the engine files; where the
definition leaves the output open, the adversary script picks (by default
``default_output``: the least submitted value in ``value_to_bytes`` order).

An envelope's bits are the size ``wire.SCHEMA`` gives its kind. Honest bits
are tallied once, in ``RunMetrics.bits_by_step`` (the total and the bits by
oracle kind are views of it): to ``oracle:<instance>`` if the mail names
one, else to the sender's step (an honest send of another kind or instance
raises ``KeyError``). Ideal-oracle invocations are charged their model cost
pro rata to the honest fraction, the same way.
"""

from __future__ import annotations

import hashlib
import json
import random
from itertools import repeat
from operator import attrgetter
from dataclasses import dataclass
from typing import Callable, Generator, NamedTuple

from . import wire


class Bot:
    """The distinguished non-message output."""

    _inst = None

    def __new__(cls):
        if cls._inst is None:
            cls._inst = super().__new__(cls)
        return cls._inst

    def __repr__(self):
        return "BOT"


BOT = Bot()


class StopProtocol(Exception):
    """Raised inside a party to stop it without producing an output."""


class InvariantViolation(AssertionError):
    """A protocol invariant failed. Raised explicitly, so the check still
    runs under ``python -O``; an AssertionError, so callers that treat a
    failed assertion as a violation catch it too."""


class Envelope(NamedTuple):
    """One sent message. Immutable, because one record is filed into every
    recipient's lists; who receives it is the engine's pending entry."""

    src: int
    kind: str
    payload: object
    bits: int
    instance: str | None = None
    sent_tick: int = 0


_tuple_new = tuple.__new__


class NextRound:
    pass


NEXT_ROUND = NextRound()


class RunMetrics:
    """Honest bits, tallied once in ``bits_by_step``. ``honest_bits_total``
    and ``bits_by_oracle`` (an ``oracle:<name>`` step under its instance's
    kind, any other under ``direct``) are read-only views of that tally."""

    def __init__(self, oracle_steps: dict[str, str] | None = None):
        self.bits_by_step: dict[str, int] = {}
        self._oracle_steps = oracle_steps or {}  # step oracle:<name> -> the instance's kind
        self.rounds_or_events_elapsed = 0
        self.outputs_digest = ""
        self.extra: dict[str, object] = {}

    @property
    def honest_bits_total(self) -> int:
        return sum(self.bits_by_step.values())

    @property
    def bits_by_oracle(self) -> dict[str, int]:
        by_oracle: dict[str, int] = {}
        for step, bits in self.bits_by_step.items():
            kind = self._oracle_steps.get(step, "direct")
            by_oracle[kind] = by_oracle.get(kind, 0) + bits
        return by_oracle

    def oracle_bits(self) -> int:
        return sum(bits for step, bits in self.bits_by_step.items() if step in self._oracle_steps)

    def to_json(self) -> str:
        return json.dumps(
            {
                "honest_bits_total": self.honest_bits_total,
                "bits_by_step": dict(sorted(self.bits_by_step.items())),
                "bits_by_oracle": dict(sorted(self.bits_by_oracle.items())),
                "rounds_or_events_elapsed": self.rounds_or_events_elapsed,
                "outputs_digest": self.outputs_digest,
                "extra": dict(sorted(self.extra.items())),
            },
            sort_keys=True,
        )


class OracleKind(NamedTuple):
    """What the engine, the runner and the checks know of one oracle kind."""

    mode: str  # the scheduler mode it runs under: rounds | events
    sender: bool  # broadcast from one designated sender, else agreement
    regime: str  # the SessionParams regime its construction tolerates
    cost: Callable[[int, int, int], int]  # model bits of one (value_bits, n, k) call


ORACLE_KINDS = {
    "sync_bb": OracleKind("rounds", True, "one_minus_eps", lambda v, n, k: (v + k) * n * n + n**3),
    "sync_ba": OracleKind("rounds", False, "half", lambda v, n, k: (v + k) * n * n + n**3),
    "async_rb": OracleKind("events", True, "third_async", lambda v, n, k: v * n * n),
    "async_ba_bit": OracleKind("events", False, "third_async", lambda v, n, k: (v + k) * n * n),
    "async_ba_kbit": OracleKind("events", False, "third_async", lambda v, n, k: (v + k) * n * n),
}


class OracleInstance(NamedTuple):
    """An oracle instance as a protocol declares it (sender None for agreement)."""

    kind: str
    sender: int | None
    width: int


def oracle_model_cost(kind: str, value_bits: int, n: int, k: int) -> int:
    """Model communication cost charged for one ideal invocation of kind."""
    if kind not in ORACLE_KINDS:
        raise ValueError(f"unknown oracle kind {kind!r}")
    return ORACLE_KINDS[kind].cost(value_bits, n, k)


class IdealOracle:
    def __init__(self, instance: str, decl: OracleInstance):
        self.instance = instance
        self.kind, self.sender, self.value_bits = decl
        self.submissions: dict[int, object] = {}
        self.registered: set[int] = set()
        self.fired = False


def value_to_bytes(v) -> bytes:
    """Injective encoding of an oracle value: a type tag, then the value.

    Signature-chain tags and vote tallies key on it, so values of different
    types must never share an encoding. It is also the one order over
    oracle values: within bytes it is lexicographic, within ints numeric."""
    if v is BOT:
        return b"N"
    if isinstance(v, bytes):
        return b"b" + v
    if isinstance(v, int) and -(2**63) <= int(v) < 2**63:
        return b"i" + int(v).to_bytes(9, "big", signed=True)
    raise TypeError(f"unsupported oracle value type {type(v)!r}")


def default_output(submitted: list):
    """An oracle's output where its definition leaves the choice open and the
    adversary script does not pick: the least submitted value, else BOT."""
    return min(submitted, key=value_to_bytes, default=BOT)


class SchedulerPolicy:
    """Chooses the index of the next pending (envelope, destination) entry
    (events mode). This base policy is FIFO; the engine serves it without
    calling ``pick``, and calls the ``pick`` of any policy that defines its
    own."""

    def pick(self, pending: list[tuple[Envelope, int]], rng: random.Random) -> int:
        return 0


class LifoPolicy(SchedulerPolicy):
    def pick(self, pending, rng):
        return len(pending) - 1


class RandomPolicy(SchedulerPolicy):
    def pick(self, pending, rng):
        """``rng.randrange(len(pending))``, drawn by the same ``getrandbits``
        calls (as many bits as the length has, redrawn while out of range)
        without randrange's argument handling; an empty list raises
        ValueError."""
        size = len(pending)
        if not size:
            raise ValueError("no pending envelope to pick")
        bits = size.bit_length()
        idx = rng.getrandbits(bits)
        while idx >= size:
            idx = rng.getrandbits(bits)
        return idx


class StarvePolicy(SchedulerPolicy):
    """Serve corrupt-endpoint traffic first, newest honest traffic last."""

    def __init__(self, corrupt: frozenset[int]):
        self.corrupt = corrupt

    def pick(self, pending, rng):
        for i, (env, dst) in enumerate(pending):
            if env.src in self.corrupt or dst in self.corrupt:
                return i
        return len(pending) - 1


class PrefixPolicy(SchedulerPolicy):
    """Follow an explicit decision prefix, then FIFO; used by schedule search."""

    def __init__(self, decisions: tuple[int, ...]):
        self.decisions = decisions
        self.depth = 0
        self.branch_log: list[int] = []

    def pick(self, pending, rng):
        self.branch_log.append(len(pending))
        if self.depth < len(self.decisions):
            idx = self.decisions[self.depth] % len(pending)
        else:
            idx = 0
        self.depth += 1
        return idx


class Reader:
    """A cursor over one of a party's inbox lists (see ``Ctx.reader``), and
    the wait condition on it.

    ``new()`` returns the envelopes filed since its last call, as a fresh
    list, so the caller may self-deliver while iterating. The reader holds
    the list it reads, which later mail extends, so ``new()`` does no lookup.
    A party that yields the reader resumes once mail past the cursor has
    arrived: the engine checks ``len(_box) > _pos``.
    """

    __slots__ = ("_box", "_pos")

    def __init__(self, box: list[Envelope]):
        self._box = box
        self._pos = 0  # how many envelopes of the list new() has returned

    def new(self) -> list[Envelope]:
        box = self._box
        fresh = box[self._pos:]
        self._pos = len(box)
        return fresh


class Ctx:
    """Per-party handle into the engine: sending, mailbox, oracles, flags.

    Every envelope reaching the party that ``wire`` did not refuse is
    appended to ``mailbox``. A list of its mail of one (kind, instance), a
    kind alone naming (kind, None), is built on its first request by one
    scan of the mailbox and kept in the engine's row for that key, which
    delivery extends from then on; mail of a key nobody asked for is filed
    in the mailbox alone. A broadcast's one record is
    filed into every recipient's lists, so an envelope is shared and
    immutable. ``inbox`` returns one of those lists as it stands, in arrival
    order; callers must not modify it. ``reader`` wraps one in a cursor for
    loops that consume mail as it arrives. ``broadcast`` from a party
    without a send hook goes to the engine in one call and is metered once,
    in the one tally ``metrics.bits_by_step``.

    A corrupt party that runs the honest code gets three rewrites here (see
    ``adversary.hooked``): ``send_hook(ctx, dst, kind, payload)`` returns the
    (kind, payload) actually sent or None to drop the message,
    ``oracle_hook(ctx, instance, value)`` returns the oracle input
    actually submitted, and after ``crash_after_steps`` step markers the
    party stops. Honest parties leave all three None. A broadcast with a send
    hook is sent one destination at a time, so the hook sees each one.
    """

    def __init__(self, engine: "Engine", pid: int):
        self.engine = engine
        self.pid = pid
        self.mailbox: list[Envelope] = []
        self.happy = False
        self.step = "init"
        self.send_hook: Callable | None = None
        self.oracle_hook: Callable | None = None
        self.crash_after_steps: int | None = None
        self._steps_seen = 0

    @property
    def params(self):
        return self.engine.params

    @property
    def session(self):
        return self.engine.session

    def set_step(self, label: str) -> None:
        self._steps_seen += 1
        if self.crash_after_steps is not None and self._steps_seen > self.crash_after_steps:
            raise StopProtocol()
        self.step = label

    def set_happy(self, value: bool) -> None:
        # corrupt parties may flap the flag
        if self.happy and not value and self.pid in self.engine.honest:
            raise InvariantViolation(f"party {self.pid}: happy flag must be monotone")
        self.happy = bool(value)

    def send(self, dst: int, kind: str, payload, instance: str | None = None) -> None:
        if self.send_hook is not None:
            out = self.send_hook(self, dst, kind, payload)
            if out is None:
                return
            kind, payload = out
        self.engine.submit_send(self.pid, dst, kind, payload, instance)

    def broadcast(self, kind: str, payload, instance: str | None = None) -> None:
        if self.send_hook is None:
            self.engine.submit_broadcast(self.pid, kind, payload, instance)
            return
        for dst in range(1, self.engine.params.n + 1):
            if dst != self.pid:
                self.send(dst, kind, payload, instance)

    def self_deliver(self, kind: str, payload, instance: str | None = None) -> None:
        """File mail to oneself at once, unmetered (0 bits) and untraced."""
        if self.engine._names_key(self.pid, kind, instance, write=True):
            self.engine._deliver(Envelope(self.pid, kind, payload, 0, instance, self.engine.tick),
                                 (self.pid,))

    def inbox(self, kind: str | None = None, instance: str | None = None) -> list[Envelope]:
        """Received envelopes in arrival order, all or of one (kind, instance)
        (a kind alone names (kind, None)): the filed list itself, which later
        mail extends. Read it, do not modify it. The first request for a key
        builds its list from the mailbox. A request naming no key gets a
        fresh empty list that nothing files into."""
        if kind is None and instance is None:
            return self.mailbox
        if not self.engine._names_key(self.pid, kind, instance, write=False):
            return []
        key = (kind, instance)
        row = self.engine._filing.get(key)
        if row is None or (box := row[self.pid]) is None:
            return self.engine._open(self.pid, key)
        return box

    def reader(self, kind: str | None = None, instance: str | None = None) -> Reader:
        """A cursor over ``inbox(kind, instance)``, starting at its first
        envelope: over one (kind, instance), or the whole mailbox."""
        return Reader(self.inbox(kind, instance))

    # --- ideal oracle access -------------------------------------------------

    def oracle_submit(self, instance: str, value) -> None:
        """Submit value (None to only register) to an ideal instance."""
        if self.oracle_hook is not None:
            value = self.oracle_hook(self, instance, value)
        self.engine.oracle_submit(self.pid, instance, value)

    def ideal_oracle(self, instance: str, value):
        """Submit and wait for an ideal oracle instance; yields until done."""
        self.oracle_submit(instance, value)
        [out] = yield from self.wait_oracle(instance)
        return out

    def wait_oracle(self, *instances: str):
        """Wait until every instance has fired, all their lists opened first;
        return their outputs in order. Only the engine files oracle_out, so
        each list holds its instance's output and nothing else."""
        boxes = [self.inbox("oracle_out", instance) for instance in instances]
        for box in boxes:
            if not box:
                yield Reader(box)
        return [box[0].payload for box in boxes]

    def wait_rounds(self, r: int = 1):
        for _ in range(r):
            yield NEXT_ROUND

    def coin(self, instance: str, rnd: int) -> int:
        return self.engine.session.coin.query(instance, rnd, honest=self.pid in self.engine.honest)


@dataclass
class PartyHandle:
    pid: int
    ctx: Ctx
    gen: Generator | None
    waiting: object = None
    done: bool = False
    output: object = None


MAX_ROUNDS = 10_000
MAX_EVENTS = 2_000_000
_FIFO_CUT = 1024  # served FIFO entries cut off pending at once (Engine._run_events)


class Engine:
    """Runs one session to quiescence under one scheduler mode.

    ``tick`` is the round number in rounds mode and the number of delivered
    envelopes in events mode; an envelope's age is ``tick - sent_tick``.

    Each send builds one ``Envelope``. ``pending`` holds, in send order, one
    ``(envelope, destinations)`` entry per send in rounds mode and one
    ``(envelope, destination)`` entry per destination in events mode.

    A rounds-mode tick files every entry sent in the round before, in send
    order, by the filing rule (module docstring: the mailbox, then the
    (kind, instance) list if asked for), so the delivery order is send
    order, then destination order; it then resumes once, in pid order, each
    party that waits on ``NEXT_ROUND`` or on a reader with mail past its
    cursor. An events-mode tick removes one entry, the oldest once it
    has waited 10*n^2 ticks and else the policy's pick (the base FIFO
    policy's pick, always 0, is served without a call; a policy that
    defines its own is asked), files it for its destination, and resumes
    that party while it waits on a reader with mail past its cursor; a
    party waits only on its own lists, so no other party can have become
    runnable. Each tick ends by checking the oracle
    instances submitted to since the last check, in name order: readiness
    depends on nothing else.
    Metering adds to one tally, ``metrics.bits_by_step``, whose total and
    bits by oracle kind are views.
    """

    def __init__(self, mode: str, params, session, factories: dict[int, Callable[[Ctx], Generator] | None],
                 honest: frozenset[int], adversary, policy: SchedulerPolicy | None = None,
                 seed: int = 0, trace: bool = False):
        if mode not in ("rounds", "events"):
            raise ValueError("mode must be rounds or events")
        self.mode = mode
        self.params = params
        self.session = session
        self.honest = honest
        self.adversary = adversary
        self.policy = policy or SchedulerPolicy()
        self.rng = random.Random(("sched", seed).__repr__())
        declared = wire.instances(session.oracles)
        self._scale = wire.scale(params, session.ak, declared)
        # the step an honest send naming an oracle instance, or its firing, is charged to
        self._charge = {name: f"oracle:{name}" for name in declared}
        self.metrics = RunMetrics({self._charge[name]: decl.kind for name, decl in declared.items()})
        self.trace: list[dict] | None = [] if trace else None
        self.tick = 0
        self.pending: list = []
        self._submitted: set[str] = set()  # instances submitted to since the last check
        n = params.n
        self._everyone = tuple(range(1, n + 1))
        self._broadcast_dsts = [()] + [(*range(1, src), *range(src + 1, n + 1))
                                       for src in self._everyone]
        # where delivery files: each party's mailbox by pid, and for each
        # (kind, instance) some party asked for (Ctx.inbox) a row of lists by pid
        self._mailboxes: list[list[Envelope]] = [[]]  # pid 0, the oracles, gets none
        self._filing: dict[tuple[str, str | None], list[list[Envelope] | None]] = {}
        self.parties: dict[int, PartyHandle] = {}
        for pid in self._everyone:
            ctx = Ctx(self, pid)
            self._mailboxes.append(ctx.mailbox)
            factory = factories.get(pid)
            gen = factory(ctx) if factory is not None else None
            self.parties[pid] = PartyHandle(pid=pid, ctx=ctx, gen=gen, done=gen is None)
        self.oracles: dict[str, IdealOracle] = {}
        for name, decl in sorted(session.oracles.items()):
            if session.oracle_impl[decl.kind] == "ideal":
                inst = self.oracles[name] = IdealOracle(name, decl)
                for pid, value in sorted(adversary.oracle_submissions(inst, self).items()):
                    if pid not in honest and wire.value_ok(value, inst.value_bits):
                        inst.submissions[pid] = value

    # --- sending and oracles -------------------------------------------------

    def submit_send(self, src, dst, kind, payload, instance) -> None:
        if type(dst) is not int or not 0 < dst <= self.params.n or dst == src:
            self._refuse(src, f"party {src} cannot send to {dst!r}; self_deliver is local")
            return
        self._enqueue(src, (dst,), kind, payload, instance)

    def submit_broadcast(self, src, kind, payload, instance) -> None:
        """``submit_send`` to every party but src, in destination order, as
        one record metered with one charge."""
        self._enqueue(src, self._broadcast_dsts[src], kind, payload, instance)

    def _refuse(self, pid: int, why: str) -> None:
        """Drop a corrupt party's malformed request; an honest party's is a bug."""
        if pid in self.honest:
            raise ValueError(why)

    def _names_key(self, pid: int, kind, instance, write: bool) -> bool:
        """Whether a request by pid names a mail key: a str kind, a None or
        str instance, and for a send or self-delivery not ``oracle_out``,
        which only the engine files, so the trusted-functionality channel is
        unforgeable. A request naming none is refused."""
        if type(kind) is not str or not (instance is None or type(instance) is str):
            why = (f"a mail key needs a kind of type str and a None or str instance, "
                   f"not {kind!r} and {instance!r}")
        elif write and kind == "oracle_out":
            why = "oracle outputs are delivered by the engine only"
        else:
            return True
        self._refuse(pid, why)
        return False

    def _enqueue(self, src, dsts, kind, payload, instance) -> None:
        if (src in self.honest and type(kind) is str and kind != "oracle_out"
                and (instance is None or type(instance) is str)):
            # an honest send naming a mail key (the test of _names_key), metered
            bits = wire.SCHEMA[kind].size(payload, instance, self._scale)
            if dsts:
                step = self.parties[src].ctx.step if instance is None else self._charge[instance]
                by_step = self.metrics.bits_by_step
                by_step[step] = by_step.get(step, 0) + bits * len(dsts)
        elif self._names_key(src, kind, instance, write=True):
            payload = wire.parse(kind, payload, self._scale.width.get(instance))
            bits = 0 if payload is wire.REFUSED else wire.SCHEMA[kind].size(
                payload, instance, self._scale)
        else:
            return
        # every field given, so the tuple is built without Envelope's Python-level __new__
        self._post(_tuple_new(Envelope, (src, kind, payload, bits, instance, self.tick)), dsts)

    def _post(self, env: Envelope, dsts: tuple[int, ...]) -> None:
        if self.mode == "rounds":
            self.pending.append((env, dsts))
        else:
            self.pending.extend(zip(repeat(env), dsts))

    def oracle_submit(self, pid, instance, value) -> None:
        inst = self.oracles.get(instance) if type(instance) is str else None
        if inst is None:
            self._refuse(pid, f"no ideal oracle instance {instance!r} in this session")
            return
        inst.registered.add(pid)
        self._submitted.add(instance)
        if value is not None and (pid in self.honest or wire.value_ok(value, inst.value_bits)):
            inst.submissions[pid] = value

    def _oracle_ready(self, inst: IdealOracle) -> bool:
        if ORACLE_KINDS[inst.kind].sender:
            # a synchronous sender kind terminates unconditionally: a silent
            # sender still yields an output once every honest party is in
            return inst.sender in inst.submissions or (
                self.mode == "rounds" and self.honest <= inst.registered)
        return self.honest <= inst.submissions.keys()

    def _fire_oracle(self, inst: IdealOracle) -> None:
        inst.fired = True
        n, k = self.params.n, self.params.k
        facts = ORACLE_KINDS[inst.kind]
        subs = inst.submissions
        # the definition pins the sender's value, and the honest parties'
        # value when they agree; anything else is open
        if facts.sender:
            pinned, first = inst.sender in subs, inst.sender
        else:
            pinned = len({value_to_bytes(subs[p]) for p in self.honest}) == 1
            first = min(self.honest)
        if pinned:
            out = subs[first]
        else:
            out = self.adversary.pick_oracle_output(inst, [subs[p] for p in sorted(subs)], self)
            if not wire.value_ok(out, inst.value_bits):
                out = BOT
        step, by_step = self._charge[inst.instance], self.metrics.bits_by_step
        by_step[step] = by_step.get(step, 0) + facts.cost(inst.value_bits, n, k) * len(self.honest) // n
        self._post(Envelope(0, "oracle_out", out, 0, inst.instance, self.tick), self._everyone)

    def _fire_ready_oracles(self) -> None:
        submitted, self._submitted = self._submitted, set()
        for name in sorted(submitted):
            inst = self.oracles[name]
            if not inst.fired and self._oracle_ready(inst):
                self._fire_oracle(inst)

    # --- party stepping ------------------------------------------------------

    def _resume(self, handle: PartyHandle) -> None:
        if handle.done:
            return
        try:
            handle.waiting = handle.gen.send(None)
        except StopIteration as stop:
            handle.output = stop.value
            handle.done, handle.waiting = True, None
        except StopProtocol:
            handle.done, handle.waiting = True, None

    def _open(self, pid: int, key) -> list[Envelope]:
        """pid's list of mail under key, a (kind, instance), built by one scan
        of its mailbox in arrival order, which delivery extends from now on."""
        kind, instance = key
        box = [e for e in self._mailboxes[pid] if e.kind == kind and e.instance == instance]
        row = self._filing.get(key)
        if row is None:
            row = self._filing[key] = [None] * (self.params.n + 1)
        row[pid] = box
        return box

    def _deliver(self, env: Envelope, dsts: tuple[int, ...]) -> None:
        """File one record for each destination, in order, by the filing
        rule (module docstring)."""
        if env.payload is wire.REFUSED:
            return
        mailboxes = self._mailboxes
        for dst in dsts:
            mailboxes[dst].append(env)
        if row := self._filing.get((env.kind, env.instance)):
            for dst in dsts:
                if (box := row[dst]) is not None:
                    box.append(env)

    # --- main loops ----------------------------------------------------------

    def run(self) -> None:
        if self.mode == "rounds":
            self._run_rounds()
        else:
            self._run_events()
        self.metrics.rounds_or_events_elapsed = self.tick
        # diagnostic only: the bits of all mail honest parties received,
        # Byzantine-sent traffic included, never claimed; self-delivered
        # envelopes carry 0 bits
        self.metrics.extra["received_bits_total"] = sum(
            sum(map(_BITS, self._mailboxes[pid])) for pid in self.honest)

    def _run_rounds(self) -> None:
        order = [self.parties[pid] for pid in sorted(self.parties)]  # pid order
        resume = self._resume
        for handle in order:
            resume(handle)
        self._fire_ready_oracles()
        while any(not handle.done for handle in order):
            self.tick += 1
            if self.tick > MAX_ROUNDS:
                raise RuntimeError("round limit exceeded; protocol did not terminate")
            # pending is in send order
            batch, self.pending = self.pending, []
            for env, dsts in batch:
                self._deliver(env, dsts)
                if self.trace is not None:
                    self.trace.extend({"tick": self.tick, "from": env.src, "to": dst,
                                       "msg_kind": env.kind, "bits": env.bits}
                                      for dst in dsts)
            for handle in order:
                w = handle.waiting
                if w is NEXT_ROUND or (type(w) is Reader and len(w._box) > w._pos):
                    resume(handle)
            self._fire_ready_oracles()

    def _run_events(self) -> None:
        """Serve one pending entry per tick (see the class docstring). The
        loop files each entry itself, by the filing rule for its one
        destination, rather than through ``_deliver``, whose call and
        destination tuple would cost more per tick than the filing does, and
        keeps the filing row of the last envelope it filed, so the ticks of
        one broadcast served in a row look its key up once. What a tick
        reads is bound once per run; ``self._resume`` is bound as the
        run starts, so a wrapper installed on ``Engine._resume`` before then
        sees every resume. Under a policy whose ``pick`` is the base
        ``SchedulerPolicy.pick`` every tick takes the oldest entry without
        calling it, by a cursor into ``pending`` whose served prefix is cut
        off every ``_FIFO_CUT`` ticks and when the loop ends, rather than by
        a ``pop(0)`` that moves the whole list; any other ``pick`` is called
        on every tick the 10*n^2 bound does not force."""
        parties, resume = self.parties, self._resume
        for pid in sorted(parties):
            resume(parties[pid])
        self._fire_ready_oracles()
        pending, pick, rng = self.pending, self.policy.pick, self.rng
        fifo = getattr(pick, "__func__", None) is SchedulerPolicy.pick  # the base policy's 0
        handles = [None, *(parties[pid] for pid in self._everyone)]
        mailboxes, filing, trace, refused = self._mailboxes, self._filing, self.trace, wire.REFUSED
        n_fair = 10 * self.params.n * self.params.n
        tick = self.tick
        head = 0  # entries below it are served; nonzero only under the base policy
        # the last envelope filed and its filing row, looked up again while
        # None: a row, once made, stays in _filing and is only filled in
        last = row = None
        try:
            while head < len(pending):
                tick += 1
                self.tick = tick
                if tick > MAX_EVENTS:
                    raise RuntimeError("event limit exceeded")
                if fifo:
                    env, dst = pending[head]
                    head += 1
                    if head == _FIFO_CUT:
                        del pending[:head]
                        head = 0
                else:
                    # pending stays in send order, so the oldest envelope sits at 0
                    env, dst = pending.pop(0 if tick - pending[0][0].sent_tick >= n_fair
                                           else pick(pending, rng))
                if env.payload is not refused:
                    mailboxes[dst].append(env)
                    if env is not last or row is None:
                        last, row = env, filing.get((env.kind, env.instance))
                    if row is not None and (box := row[dst]) is not None:
                        box.append(env)
                if trace is not None:
                    trace.append({"tick": tick, "from": env.src, "to": dst,
                                  "msg_kind": env.kind, "bits": env.bits})
                handle = handles[dst]
                w = handle.waiting
                while type(w) is Reader and len(w._box) > w._pos:
                    resume(handle)
                    w = handle.waiting
                if self._submitted:
                    self._fire_ready_oracles()
        finally:
            del pending[:head]

    def outputs(self) -> dict[int, object]:
        return {pid: h.output for pid, h in self.parties.items() if h.output is not None}


_BITS = attrgetter("bits")


def outputs_digest(outputs: dict[int, object]) -> str:
    h = hashlib.sha256()
    for pid in sorted(outputs):
        v = outputs[pid]
        if v is BOT:
            enc = b"<bot>"
        elif isinstance(v, bytes):
            enc = v
        else:
            enc = repr(v).encode()
        h.update(pid.to_bytes(4, "big"))
        h.update(len(enc).to_bytes(8, "big"))
        h.update(enc)
    return h.hexdigest()
