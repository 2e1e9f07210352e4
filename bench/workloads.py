"""The benchmark's workloads: which sessions one pass runs, and their inputs.

A workload is a fixed, ordered list of cells (protocol, parameters,
adversary, oracle choice). One pass runs every cell once. Everything a pass
needs beyond the cells comes from the benchmark seed: each session's seed
(and so the random scheduler's delivery order, keys and coin) and its
message bytes. Unless a cell fixes it, the unanimity of agreement inputs
cycles all/none/majority over the cells, shifted by one each pass.

Measured session seeds lie in [0, 2^31); warm-up sessions use seeds from
2^31 up, so no measured session repeats a warm-up one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from bbext import PROTOCOLS, SessionParams
from bbext.adversary import AdversaryScript, Equivocator, adversary_battery
from bbext.checks import battery_configs

SENDER = 1
UNANIMITY = ("all", "none", "majority")
WARMUP_SEED_BASE = 2**31
CONCRETE = {"sync_bb": "concrete", "sync_ba": "concrete",
            "async_rb": "concrete", "async_ba_bit": "concrete"}


class HeadEquivocator(Equivocator):
    """The battery's equivocator with the corrupt set on ids 1..t.

    With corrupt shares at the head, the codec's base positions are corrupt,
    so every stripe falls back to per-stripe Berlekamp-Welch decoding.
    """

    name = "equivocator_head"

    def corrupt_set(self, n, t, sender):
        return frozenset(range(1, t + 1))


@dataclass(frozen=True)
class Cell:
    protocol: str
    params: SessionParams
    adversary: AdversaryScript = field(compare=False)
    oracle_impl: tuple[tuple[str, str], ...] = ()
    unanimity: str | None = None  # None: cycle over UNANIMITY

    @property
    def kind(self) -> str:
        return PROTOCOLS[self.protocol].kind

    @property
    def shape(self) -> tuple[str, int, int]:
        return (self.protocol, self.params.n, self.params.t)

    def label(self) -> str:
        impl = "concrete" if self.oracle_impl else "ideal"
        return (f"{self.protocol} n={self.params.n} t={self.params.t} l={self.params.l} "
                f"{self.adversary.name} {impl}")


@dataclass(frozen=True)
class Workload:
    name: str
    cells: tuple[Cell, ...]
    # Seconds one pass took when the benchmark was defined (2-core x86
    # VM). A run measures round(seconds / pass_s) whole passes, so every
    # run with the same --seconds times the same sessions.
    pass_s: float

    def passes(self, seconds: float) -> int:
        return max(1, round(seconds / self.pass_s))


@dataclass(frozen=True)
class SessionSpec:
    cell: Cell
    seed: int
    unanimity: str


def _scripts() -> dict[str, AdversaryScript]:
    scripts = {s.name: s for s in adversary_battery()}
    scripts["equivocator_head"] = HeadEquivocator()
    return scripts


def _battery(scripts) -> list[Cell]:
    """Every cell of ``checks.battery_configs`` x ``adversary_battery()``:
    the traffic of tier-1 and ``bbext check``. Sessions of a few ms, so fixed
    per-session cost dominates."""
    battery = [s for s in scripts.values() if s.name != "equivocator_head"]
    return [Cell(protocol, params, script)
            for protocol in PROTOCOLS
            for params in battery_configs(protocol)
            for script in battery]


def _long_message(scripts) -> list[Cell]:
    """The five crypto protocols at l = 2^20, ideal oracles. The adversaries
    make unhappy parties reconstruct; coding and share hashing dominate."""
    l = 2**20
    half = SessionParams(n=10, t=4, l=l, threshold_regime="half")
    high = SessionParams(n=12, t=9, l=l, threshold_regime="one_minus_eps", epsilon=0.25)
    third = SessionParams(n=10, t=3, l=l, threshold_regime="third_async")
    shapes = [("sync-ba-half", half), ("sync-bb-half", half), ("sync-bb-highthresh", high),
              ("async-ba-third", third), ("async-rb-third", third)]
    return [Cell(protocol, params, scripts[adv])
            for adv in ("honest", "wrong_happy", "corrupt_share", "pushy_choice")
            for protocol, params in shapes]


def _wide_committee(scripts) -> list[Cell]:
    """The minority-fault crypto protocols at n = 31 with every concrete
    oracle (``async_ba_kbit`` has none), plus sync-ba-half at n = 64 with
    ideal oracles: mailbox scans, oracle code, multisig and n^2 witness
    builds dominate, and coding runs on short vectors."""
    l = 2**16
    half = SessionParams(n=31, t=15, l=l, threshold_regime="half")
    third = SessionParams(n=31, t=10, l=l, threshold_regime="third_async")
    impl = tuple(sorted(CONCRETE.items()))
    cells = []
    # silent first: the warm-up runs the first cell of each shape
    for adv in ("silent", "honest", "wrong_happy", "sched_random"):
        if adv != "sched_random":
            cells += [Cell("sync-ba-half", half, scripts[adv], impl),
                      Cell("sync-bb-half", half, scripts[adv], impl)]
        cells += [Cell("async-ba-third", third, scripts[adv], impl),
                  Cell("async-rb-third", third, scripts[adv], impl)]
    cells.append(Cell("sync-ba-half", SessionParams(n=64, t=31, l=l, threshold_regime="half"),
                      scripts["honest"]))
    return cells


def _error_free(scripts) -> list[Cell]:
    """The error-free pair: star extraction under random delivery (each seed
    gives its own graph sequence; DP matching at n = 10, networkx at n = 16)
    and Berlekamp-Welch decoding under the head-placed equivocator, beside
    the tail-placed one that bypasses it. No accumulator code runs."""
    rb10 = SessionParams(n=10, t=3, l=2**13, threshold_regime="third_async")
    rb16 = SessionParams(n=16, t=5, l=2**13, threshold_regime="third_async")
    ba10 = SessionParams(n=10, t=3, l=2**14, threshold_regime="third_sync_ef")
    rand = scripts["sched_random"]
    # Unanimous inputs: only then do the honest parties reach the decode
    # step, where head placement forces per-stripe Berlekamp-Welch and tail
    # placement bypasses it.
    head = Cell("ef-sync-ba-third", ba10, scripts["equivocator_head"], unanimity="all")
    tail = Cell("ef-sync-ba-third", ba10, scripts["equivocator"], unanimity="all")
    rb = Cell("ef-async-rb-third", rb10, rand)
    # Five head-placed cells a pass put session_tail_ms inside their cluster.
    return [Cell("ef-async-rb-third", rb16, rand), tail, rb, head, tail, rb, head, tail, rb,
            head, tail, rb, head, rb, tail, head]


def build_workloads() -> dict[str, Workload]:
    """The workloads by name; BENCHMARK.json says why each was chosen."""
    scripts = _scripts()
    workloads = [
        Workload("battery", tuple(_battery(scripts)), pass_s=1.6),
        Workload("long-message", tuple(_long_message(scripts)), pass_s=1.6),
        Workload("wide-committee", tuple(_wide_committee(scripts)), pass_s=4.8),
        Workload("error-free", tuple(_error_free(scripts)), pass_s=7.6),
    ]
    return {w.name: w for w in workloads}


def warmup_sessions(workload: Workload) -> list[SessionSpec]:
    """One session per distinct (protocol, n, t) shape, on warm-up seeds."""
    firsts: dict[tuple, Cell] = {}
    for cell in workload.cells:
        firsts.setdefault(cell.shape, cell)
    return [SessionSpec(cell, WARMUP_SEED_BASE + i, cell.unanimity or "all")
            for i, cell in enumerate(firsts.values())]


def pass_sessions(workload: Workload, seed: int, pass_index: int) -> list[SessionSpec]:
    rng = random.Random(f"bbext-bench/{workload.name}/{seed}/{pass_index}")
    return [SessionSpec(cell, rng.randrange(WARMUP_SEED_BASE),
                        cell.unanimity or UNANIMITY[(i + pass_index) % len(UNANIMITY)])
            for i, cell in enumerate(workload.cells)]


def make_inputs(spec: SessionSpec) -> dict[int, bytes]:
    """Messages for one session, drawn from its seed."""
    cell = spec.cell
    nbytes = (cell.params.l + 7) // 8
    rng = random.Random(f"bbext-bench/msg/{spec.seed}")
    if cell.kind in ("bb", "rb"):
        return {SENDER: rng.randbytes(nbytes)}
    common = rng.randbytes(nbytes)
    parties = range(1, cell.params.n + 1)
    if spec.unanimity == "all":
        return {p: common for p in parties}
    if spec.unanimity == "none":
        return {p: rng.randbytes(nbytes) for p in parties}
    return {p: common if p % 4 else rng.randbytes(nbytes) for p in parties}
