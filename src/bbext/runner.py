"""Session construction and one-call protocol execution."""

from __future__ import annotations

from dataclasses import dataclass, field

from .accumulator import AccKey, acc_gen
from .blocks import CodecMemo
from .multisig import MsigAuthority
from .oracles import CONCRETE, ChainTags, CoinOracle
from .protocols import PROTOCOLS, ProtocolSpec, SessionParams
from .simnet import (ORACLE_KINDS, Engine, OracleInstance, RunMetrics, SchedulerPolicy,
                     outputs_digest)

SENDER = 1  # the sender of a broadcast session unless the caller names another


@dataclass
class Session:
    """Shared trusted setup of one run: keys, coin, oracle choices, the
    declared oracle instances, and the run's codec memo and chain tags."""

    session_id: str
    params: SessionParams
    ak: AccKey
    msig: MsigAuthority
    coin: CoinOracle
    codec: CodecMemo
    chain_tags: ChainTags
    oracle_impl: dict[str, str] = field(default_factory=dict)
    oracles: dict[str, OracleInstance] = field(default_factory=dict)


@dataclass
class RunResult:
    outputs: dict[int, object]
    metrics: RunMetrics
    honest: frozenset[int]
    corrupt: frozenset[int]
    trace: list | None = None


def _normalize_oracle_impl(oracle_impl: dict[str, str] | None) -> dict[str, str]:
    impl = {k: "ideal" for k in ORACLE_KINDS}
    for kind, choice in (oracle_impl or {}).items():
        if kind not in ORACLE_KINDS:
            raise ValueError(f"unknown oracle kind {kind!r}")
        if choice not in ("ideal", "concrete"):
            raise ValueError(f"oracle impl must be ideal or concrete, got {choice!r}")
        if choice == "concrete" and kind not in CONCRETE:
            raise ValueError(f"the {kind} oracle is ideal-only")
        impl[kind] = choice
    return impl


def run(protocol: str | ProtocolSpec, params: SessionParams, inputs: dict[int, bytes],
        adversary=None, seed: int = 0, oracle_impl: dict[str, str] | None = None,
        acc_scheme: str = "hash_tree", sender: int = SENDER, trace: bool = False,
        policy: SchedulerPolicy | None = None) -> RunResult:
    """Execute one protocol session deterministically.

    inputs maps party id to its message; broadcast protocols read only the
    sender's entry. The adversary fixes the corrupt set up front and may
    script corrupt behavior, ideal-oracle choices, and (events mode) the
    delivery order.
    """
    spec = PROTOCOLS[protocol] if isinstance(protocol, str) else protocol
    spec.check(params)
    from .adversary import AdversaryScript  # runner and adversary are peers

    adversary = adversary or AdversaryScript()
    sender_arg = sender if spec.kind in ("bb", "rb") else None
    corrupt = frozenset(adversary.corrupt_set(params.n, params.t, sender_arg))
    if len(corrupt) > params.t:
        raise ValueError(f"adversary corrupts {len(corrupt)} > t = {params.t}")
    if not corrupt <= set(range(1, params.n + 1)):
        raise ValueError("corrupt set out of range")
    honest = frozenset(range(1, params.n + 1)) - corrupt
    oracles = spec.oracles(params, sender_arg)
    for name, (kind, who, width) in oracles.items():
        facts = ORACLE_KINDS.get(kind)
        if not (facts and facts.mode == spec.mode and type(width) is int and width > 0 and (
                type(who) is int and 0 < who <= params.n if facts.sender else who is None)):
            raise ValueError(f"protocol {spec.name}: oracle instance {name!r} = "
                             f"{oracles[name]!r} cannot run under the {spec.mode} scheduler")

    session_id = f"{spec.name}/{seed}"
    impl = _normalize_oracle_impl(oracle_impl)
    ak = acc_gen(acc_scheme, params.n, params.k, rng_seed=seed)
    session = Session(
        session_id=session_id,
        params=params,
        ak=ak,
        msig=MsigAuthority(session_id, params.n, params.k, seed=seed),
        coin=CoinOracle(seed),
        codec=CodecMemo(ak),
        chain_tags=ChainTags(),
        oracle_impl=impl,
        oracles=oracles,
    )

    def honest_factory(pid: int):
        return lambda ctx: spec.party(ctx, inputs.get(pid), sender_arg)

    adv_env = AdversaryEnv(spec=spec, params=params, inputs=dict(inputs), sender=sender_arg,
                           session=session, corrupt=corrupt, seed=seed)
    factories = {}
    for pid in range(1, params.n + 1):
        if pid in honest:
            factories[pid] = honest_factory(pid)
        else:
            factories[pid] = adversary.make_party(pid, honest_factory(pid), adv_env)

    if policy is None and spec.mode == "events":
        policy = adversary.scheduler_policy(corrupt, seed)
    engine = Engine(
        mode=spec.mode, params=params, session=session, factories=factories,
        honest=honest, adversary=adversary, policy=policy, seed=seed, trace=trace,
    )
    engine.run()
    outputs = engine.outputs()
    # parties and engine refer to each other; dropping the parties frees the
    # session's messages and memo on return, not at the next full collection
    engine.parties.clear()
    engine.metrics.outputs_digest = outputs_digest(outputs)
    return RunResult(outputs=outputs, metrics=engine.metrics, honest=honest,
                     corrupt=corrupt, trace=engine.trace)


@dataclass
class AdversaryEnv:
    """What a script may inspect when building corrupt-party behavior."""

    spec: ProtocolSpec
    params: SessionParams
    inputs: dict[int, bytes]
    sender: int | None
    session: Session
    corrupt: frozenset[int]
    seed: int
