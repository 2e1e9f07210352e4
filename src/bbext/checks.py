"""Property suites behind the acceptance criteria and the check CLI.

Each suite returns a CheckReport; the pytest acceptance module and the
``check`` subcommand both consume these. Protocol batteries can fan out over
a process pool since every run is independent and deterministic.
"""

from __future__ import annotations

import itertools
import random
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import blocks, gf, rs
from .accumulator import BILINEAR, HASH_TREE, Witness, acc_create_wit, acc_eval, acc_gen, acc_verify, witness_nominal_bits
from .adversary import AdversaryScript, adversary_battery
from .multisig import MultiSig
from .protocols import PROTOCOLS, ProtocolSpec, SessionParams
from .runner import RunResult, run
from .simnet import BOT, PrefixPolicy, oracle_model_cost
from .star import NOSTAR, GrowingStar, PartyGraph, _matching_cached, max_matching, star


@dataclass
class CheckReport:
    name: str
    passed: bool
    trials: int
    failures: list[str] = field(default_factory=list)
    details: dict = field(default_factory=dict)
    elapsed: float = 0.0

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "trials": self.trials,
            "failures": self.failures[:25],
            "failure_count": len(self.failures),
            "details": self.details,
            "elapsed_s": round(self.elapsed, 3),
        }


# --- run evaluation -------------------------------------------------------------


def message_for(seed: int, pid: int, l_bits: int, unanimity: str) -> bytes:
    """Deterministic per-party input of l_bits bits, the bits past l_bits of
    its last byte cleared; unanimity in {all, none, majority}."""
    if unanimity == "all":
        tag = 0
    elif unanimity == "none":
        tag = pid
    else:
        tag = 0 if pid % 4 else pid
    rng = random.Random(("msg", seed, tag).__repr__())
    m = bytearray(rng.randrange(256) for _ in range((l_bits + 7) // 8))
    if l_bits % 8:
        m[-1] &= (0xFF << (8 - l_bits % 8)) & 0xFF
    return bytes(m)


def build_inputs(kind: str, params: SessionParams, seed: int, unanimity: str,
                 sender: int = 1) -> dict[int, bytes]:
    if kind in ("bb", "rb"):
        return {sender: message_for(seed, 0, params.l, "all")}
    return {
        pid: message_for(seed, pid, params.l, unanimity) for pid in range(1, params.n + 1)
    }


_EXACT_OUTPUTS = (bytes, int, type(BOT))


def _output_key(v) -> object:
    """What the agreement check compares: bytes, int and BOT outputs by their
    exact type and value, which spares a repr of every long output; anything
    else by its repr. Outputs whose reprs differ get different keys."""
    if type(v) in _EXACT_OUTPUTS:
        return type(v), v
    return repr(v)


def evaluate_run(kind: str, inputs: dict[int, bytes], sender: int | None,
                 result: RunResult) -> list[str]:
    """Termination / Agreement / Validity violations for one finished run."""
    violations = []
    honest = result.honest
    outs = {p: result.outputs[p] for p in honest if p in result.outputs}
    if kind in ("ba", "bb"):
        if set(outs) != set(honest):
            violations.append(f"termination: {sorted(set(honest) - set(outs))} silent")
    else:  # rb: all-or-none, unconditional only for an honest sender
        if sender in honest and set(outs) != set(honest):
            violations.append(f"termination: honest sender but {sorted(set(honest) - set(outs))} silent")
        if outs and set(outs) != set(honest):
            violations.append(f"termination: partial output {sorted(outs)}")
    if len({_output_key(v) for v in outs.values()}) > 1:
        violations.append(f"agreement: {outs}")
    if kind == "ba":
        honest_inputs = {inputs[p] for p in honest}
        if len(honest_inputs) == 1:
            want = next(iter(honest_inputs))
            if any(v != want for v in outs.values()):
                violations.append("validity: unanimous input not adopted")
    else:
        if sender in honest:
            want = inputs[sender]
            if any(v != want for v in outs.values()):
                violations.append("validity: honest sender's message not adopted")
    return violations


def judged_run(protocol: str | ProtocolSpec, params: SessionParams, inputs: dict,
               **run_kw) -> tuple[RunResult | None, list[str]]:
    """Run one session and judge it with ``evaluate_run``; party 1 is the
    sender unless the problem is agreement. An ``AssertionError`` or
    ``RuntimeError`` from the session becomes the one violation, and the
    result is then None."""
    kind = (PROTOCOLS[protocol] if isinstance(protocol, str) else protocol).kind
    try:
        result = run(protocol, params, inputs, **run_kw)
    except (AssertionError, RuntimeError) as exc:
        return None, [f"invariant violation: {exc}"]
    return result, evaluate_run(kind, inputs, 1 if kind != "ba" else None, result)


# --- protocol battery (criterion 1) ---------------------------------------------

BATTERY_L = 96
BATTERY_K = 128


def battery_configs(protocol: str, sizes=(4, 7, 10)) -> list[SessionParams]:
    spec = PROTOCOLS[protocol]
    configs = []
    for n in sizes:
        if spec.regime == "half":
            configs.append(SessionParams(n=n, t=(n - 1) // 2, l=BATTERY_L, k=BATTERY_K,
                                         threshold_regime="half"))
        elif spec.regime == "one_minus_eps":
            for eps in (0.25, 0.5):
                t = int((1 - eps) * n)
                configs.append(SessionParams(n=n, t=t, l=BATTERY_L, k=BATTERY_K,
                                             threshold_regime="one_minus_eps", epsilon=eps))
        else:
            configs.append(SessionParams(n=n, t=(n - 1) // 3, l=BATTERY_L, k=BATTERY_K,
                                         threshold_regime=spec.regime))
    return configs


def _unanimity_for_seed(seed: int) -> str:
    if seed % 100 < 50:
        return "all"
    if seed % 100 < 75:
        return "none"
    return "majority"


def battery_cell(protocol: str, params: SessionParams, script: AdversaryScript,
                 seeds: range) -> list[str]:
    spec = PROTOCOLS[protocol]
    failures = []
    for seed in seeds:
        unanimity = _unanimity_for_seed(seed)
        inputs = build_inputs(spec.kind, params, seed, unanimity)
        _, violations = judged_run(protocol, params, inputs, adversary=script, seed=seed)
        for v in violations:
            failures.append(
                f"{protocol} n={params.n} t={params.t} eps={params.epsilon} "
                f"script={script.name} seed={seed}: {v}"
            )
    return failures


def _battery_worker(args) -> tuple[str, list[str]]:
    protocol, cfg_idx, script_idx, start, stop = args
    params = battery_configs(protocol)[cfg_idx]
    script = adversary_battery()[script_idx]
    key = f"{protocol}/{cfg_idx}/{script.name}"
    return key, battery_cell(protocol, params, script, range(start, stop))


def check_protocols(protocols: list[str], seeds: int = 100,
                    jobs: int | None = None) -> CheckReport:
    t0 = time.time()
    scripts = adversary_battery()
    cells = []
    for protocol in protocols:
        for cfg_idx in range(len(battery_configs(protocol))):
            for script_idx in range(len(scripts)):
                cells.append((protocol, cfg_idx, script_idx, 0, seeds))
    failures: list[str] = []
    if jobs and jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for _, cell_failures in sorted(pool.map(_battery_worker, cells)):
                failures.extend(cell_failures)
    else:
        for cell in cells:
            failures.extend(_battery_worker(cell)[1])
    explored = _explore_async_protocols(protocols, failures)
    trials = len(cells) * seeds + explored
    return CheckReport(
        name="protocols:" + ",".join(protocols),
        passed=not failures,
        trials=trials,
        failures=failures,
        details={"cells": len(cells), "seeds": seeds, "scripts": len(scripts),
                 "explored_schedules": explored},
        elapsed=time.time() - t0,
    )


def explore_schedules(run_with_policy, max_depth: int = 5, branch_cap: int = 3,
                      max_traces: int = 150) -> list:
    """DFS over delivery-order prefixes; beyond the prefix the schedule is
    FIFO. run_with_policy(policy) must be deterministic given the policy."""
    results = []
    stack: list[tuple[int, ...]] = [()]
    while stack and len(results) < max_traces:
        prefix = stack.pop()
        policy = PrefixPolicy(prefix)
        results.append((prefix, run_with_policy(policy)))
        if len(prefix) < max_depth and len(policy.branch_log) > len(prefix):
            width = min(policy.branch_log[len(prefix)], branch_cap)
            for choice in range(width - 1, 0, -1):  # choice 0 equals the parent
                stack.append(prefix + (choice,))
    return results


def _explore_async_protocols(protocols: list[str], failures: list[str]) -> int:
    explored = 0
    async_protocols = [p for p in protocols if PROTOCOLS[p].mode == "events"]
    scripts = {s.name: s for s in adversary_battery()}
    chosen = [scripts["honest"], scripts["silent"], scripts["partial_payload"],
              scripts["equivocator"]]
    for protocol in async_protocols:
        spec = PROTOCOLS[protocol]
        params = battery_configs(protocol, sizes=(4,))[0]
        for script in chosen:
            for unanimity in ("all", "none"):
                inputs = build_inputs(spec.kind, params, 11, unanimity)

                def run_one(policy):
                    return judged_run(protocol, params, inputs, adversary=script,
                                      seed=11, policy=policy)[1]

                for prefix, violations in explore_schedules(run_one):
                    explored += 1
                    for v in violations:
                        failures.append(
                            f"{protocol} n=4 script={script.name} schedule={prefix}: {v}"
                        )
    return explored


# --- codec suite (criterion 5) ---------------------------------------------------


def _corrupt_codeword(cw: rs.Codeword, errors, erasures, rng) -> rs.Codeword:
    symbols = [None if (j + 1) in erasures else s.copy() for j, s in enumerate(cw.symbols)]
    for j in errors:
        block = symbols[j - 1]
        block[rng.randrange(len(block))] ^= rng.randrange(1, 65536)
    return rs.Codeword(symbols=symbols, n=cw.n, b=cw.b)


def rs_decode_reference(cw: rs.Codeword, c: int, d: int) -> rs.DataBlocks | None:
    """Brute-force decoder: tries every b-subset of present positions.

    A candidate is accepted when at most c whole symbol-blocks disagree with
    its encoding, and the result is the unique accepted candidate. This is
    exponential, an independent oracle for ``rs.rs_decode`` at n <= 10 whose
    errors stay within c positions.
    """
    n, b = cw.n, cw.b
    rs._check_nb(n, b)
    if 2 * c + d > n - b:
        raise ValueError("decoding radius exceeded")
    present = [j for j in range(1, n + 1) if cw.symbols[j - 1] is not None]
    if len(present) < n - d:
        raise ValueError("erasures exceed budget")
    enc = rs._encode_matrix(n, b)
    seen: dict[bytes, np.ndarray] = {}
    for subset in itertools.combinations(present, b):
        # by elimination, to cross-check the codec's closed-form recovery
        rec = gf.product_tables(gf.invert_matrix([list(enc[p - 1]) for p in subset]))
        cand = rs._apply_matrix(rec, np.stack([cw.symbols[p - 1] for p in subset]))
        full = rs.rs_encode(rs.DataBlocks(blocks=tuple(cand), original_bit_length=0), n)
        bad_blocks = sum(not np.array_equal(full.symbols[p - 1], cw.symbols[p - 1])
                         for p in present)
        if bad_blocks <= c:
            seen[b"".join(v.tobytes() for v in cand)] = cand
    if len(seen) != 1:
        return None
    cand = next(iter(seen.values()))
    bit_len = rs._parse_bit_length(cand)
    if bit_len is None:
        return None
    return rs.DataBlocks(blocks=tuple(cand), original_bit_length=bit_len)


def check_coding(max_exhaustive_n: int = 8, random_trials: int = 1000,
                 seed: int = 0) -> CheckReport:
    t0 = time.time()
    rng = random.Random(seed)
    failures = []
    trials = 0
    # exhaustive positions for small n: every (n, b, c, d) inside the radius
    for n in range(2, max_exhaustive_n + 1):
        for b in range(1, n + 1):
            payload = bytes(rng.randrange(256) for _ in range(4))
            data = rs.data_from_bits(payload, 32, b)
            cw = rs.rs_encode(data, n)
            for c in range((n - b) // 2 + 1):
                for d in range(n - b - 2 * c + 1):
                    for err_pos in itertools.combinations(range(1, n + 1), c):
                        rest = [p for p in range(1, n + 1) if p not in err_pos]
                        for era_pos in itertools.combinations(rest, d):
                            trials += 1
                            bad = _corrupt_codeword(cw, err_pos, era_pos, rng)
                            got = rs.rs_decode(bad, c, d)
                            if got is None or rs.bits_from_data(got)[0] != payload:
                                failures.append(f"exhaustive n={n} b={b} c={c} d={d} "
                                                f"errs={err_pos} eras={era_pos}")
    # randomized up to n=12, cross-checked against the brute-force decoder
    memo_keys = {n: acc_gen(HASH_TREE, n, 128, rng_seed=0) for n in range(2, 13)}
    for trial in range(random_trials):
        n = rng.randint(2, 12)
        b = rng.randint(1, n)
        budget = n - b
        c = rng.randint(0, budget // 2)
        d = rng.randint(0, budget - 2 * c)
        payload = bytes(rng.randrange(256) for _ in range(rng.randint(0, 6)))
        data = rs.data_from_bits(payload, 8 * len(payload), b)
        cw = rs.rs_encode(data, n)
        positions = list(range(1, n + 1))
        rng.shuffle(positions)
        bad = _corrupt_codeword(cw, positions[d:d + c], positions[:d], rng)
        got = rs.rs_decode(bad, c, d)
        trials += 1
        if got is None or rs.bits_from_data(got)[0] != payload:
            failures.append(f"random n={n} b={b} c={c} d={d} trial={trial}")
            continue
        if n <= 9 and rs_decode_reference(bad, c, d) != got:
            failures.append(f"reference mismatch n={n} b={b} c={c} d={d} trial={trial}")
        # the trial's committed packages with its erasures, then the same
        # tables through the codec memo that holds the codeword: the corrupted
        # one and the one with the erasures alone, at the trial's error budget
        # and one past the radius; both routes share one decode table and
        # answer as the pure decoder does
        memo = blocks.CodecMemo(memo_keys[n])
        shares, z = memo.commit(payload, b, 8 * len(payload))
        kept = {j: pkg for j, pkg in memo.packages(shares, z).items() if j not in positions[:d]}
        trials += 1
        if memo.reconstruct(kept, z, d, b) != blocks.reconstruct(kept, memo.ak, z, d, b):
            failures.append(f"memo reconstruct n={n} b={b} d={d} trial={trial}")
        share_len = len(shares[0].share)
        tables = [tuple(None if s is None else rs.pack_symbols(s) for s in bad.symbols),
                  tuple(None if s is None else rs.pack_symbols(k)
                        for s, k in zip(bad.symbols, cw.symbols))]
        for table in tables:
            for max_errors in (c, (budget - d) // 2 + 1):
                trials += 1
                want = blocks.decode_symbols(table, b, max_errors)
                if memo.decode_symbols(table, b, share_len, max_errors) != want:
                    failures.append(f"memo n={n} b={b} c={c} d={d} max_errors={max_errors} "
                                    f"trial={trial}")
    return CheckReport(name="coding", passed=not failures, trials=trials,
                       failures=failures, elapsed=time.time() - t0)


# --- star suite (criterion 6) -----------------------------------------------------


def _brute_force_matching_size(g: PartyGraph) -> int:
    edges = g.edges()

    def rec(idx, used):
        best = 0
        for i in range(idx, len(edges)):
            u, v = edges[i]
            if u not in used and v not in used:
                best = max(best, 1 + rec(i + 1, used | {u, v}))
        return best

    return rec(0, frozenset())


@contextmanager
def _failure_on_raise(failures: list[str], where: str):
    """Record an exception of the checked code as one failure line of the
    trial ``where``, naming the line that raised it, and go on to the next
    trial: the report lists every failing trial instead of a traceback."""
    try:
        yield
    except Exception as exc:
        frame = traceback.extract_tb(exc.__traceback__)[-1]
        failures.append(f"{where}: raised {type(exc).__name__}: {exc} "
                        f"({Path(frame.filename).name}:{frame.lineno})")


def check_star(graphs: int = 2000, seed: int = 0) -> CheckReport:
    t0 = time.time()
    rng = random.Random(seed)
    failures = []
    trials = 0
    for trial in range(graphs):
        n = rng.randint(1, 10)
        p = rng.choice([0.1, 0.25, 0.5, 0.75, 0.9])
        edges = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)
                 if rng.random() < p]
        g = PartyGraph.from_edges(n, edges)
        trials += 1
        with _failure_on_raise(failures, f"trial={trial} n={n}"):
            m = max_matching(g)
            if len(m) != _brute_force_matching_size(g):
                failures.append(f"matching size mismatch trial={trial} n={n}")
            t = (n - 1) // 3
            result = star(g, n, t)
            if result is not NOSTAR:
                ok = (result.C <= result.D and len(result.C) >= n - 2 * t
                      and len(result.D) >= n - t
                      and all(g.has_edge(c, d) for c in result.C for d in result.D if c != d))
                if not ok:
                    failures.append(f"invalid star trial={trial} n={n}")
    # honest-clique guarantee
    for t in (1, 2, 3):
        n = 3 * t + 1
        for trial in range(60):
            honest = set(range(1, 2 * t + 2))
            edges = list(itertools.combinations(sorted(honest), 2))
            for u in range(1, n + 1):
                for v in range(u + 1, n + 1):
                    if (u not in honest or v not in honest) and rng.random() < 0.5:
                        edges.append((u, v))
            g = PartyGraph.from_edges(n, edges)
            trials += 1
            with _failure_on_raise(failures, f"t={t} trial={trial}"):
                result = star(g, n, t)
                if result is NOSTAR:
                    failures.append(f"clique yielded noSTAR t={t} trial={trial}")
                elif len(honest - result.C) > t:
                    failures.append(f"more than t honest excluded t={t} trial={trial}")
    # the carried path of ef_async_rb: edges inserted one at a time into a
    # GrowingStar must give the complement, matching and star computed from
    # scratch; the wide orders pass through long stretches where the size
    # bound rules the star out
    sizes = [rng.randint(2, 10) for _ in range(200)] + [16] * 4 + [31] * 4
    for trial, n in enumerate(sizes):
        t = (n - 1) // 3
        edges = list(itertools.combinations(range(1, n + 1), 2))
        rng.shuffle(edges)
        trials += 1
        with _failure_on_raise(failures, f"carried trial={trial} n={n}"):
            growing = GrowingStar(n, t)
            for step, (u, v) in enumerate(edges):
                result = growing.add_edge(u, v)
                h = growing.graph.complement()
                if growing.complement != h:
                    failures.append(f"carried complement mismatch trial={trial} n={n} step={step}")
                    break
                if growing.matching != _matching_cached.__wrapped__(n, h.rows):
                    failures.append(f"carried matching mismatch trial={trial} n={n} step={step}")
                    break
                if result != star(growing.graph, n, t):
                    failures.append(f"carried star mismatch trial={trial} n={n} step={step}")
                    break
    return CheckReport(name="star", passed=not failures, trials=trials,
                       failures=failures, elapsed=time.time() - t0)


# --- accumulator suite (criterion 8) -----------------------------------------------


def check_accumulator(binding_pairs: int = 10_000, seed: int = 0) -> CheckReport:
    t0 = time.time()
    rng = random.Random(seed)
    failures = []
    trials = 0
    for scheme in (HASH_TREE, BILINEAR):
        for n in (1, 2, 4, 7, 10):
            for k in (128, 256):
                ak = acc_gen(scheme, n, k, rng_seed=rng.randrange(2**31))
                vals = []
                while len(vals) < n:
                    v = bytes(rng.randrange(256) for _ in range(8))
                    if v not in vals:
                        vals.append(v)
                z = acc_eval(ak, vals)
                for v in vals:
                    trials += 1
                    w = acc_create_wit(ak, z, v)
                    if w is None or not acc_verify(ak, z, w, v):
                        failures.append(f"completeness {scheme} n={n} k={k}")
                # forgery battery: reuse, splice, truncate, random
                w0 = acc_create_wit(ak, z, vals[0])
                outsider = b"\xff" * 9
                forgeries = [
                    (w0, outsider),
                    (Witness(w0.data[:-1], w0.nominal_bits), vals[0]),
                    (Witness(bytes(rng.randrange(256) for _ in range(len(w0.data))),
                             w0.nominal_bits), outsider),
                ]
                if n > 1:
                    forgeries.append((acc_create_wit(ak, z, vals[1]), vals[0]))
                for w, v in forgeries:
                    trials += 1
                    if acc_verify(ak, z, w, v):
                        failures.append(f"forgery accepted {scheme} n={n} k={k}")
    # message binding through the encode pipeline
    n, b = 4, 2
    for scheme in (HASH_TREE, BILINEAR):
        ak = acc_gen(scheme, n, 256, rng_seed=1)
        for trial in range(binding_pairs // 2):
            m1 = bytes(rng.randrange(256) for _ in range(6))
            m2 = bytes(rng.randrange(256) for _ in range(6))
            if m1 == m2:
                continue
            trials += 1
            z1 = acc_eval(ak, [s.canonical() for s in blocks.encode(m1, b, n)])
            z2 = acc_eval(ak, [s.canonical() for s in blocks.encode(m2, b, n)])
            if z1.data == z2.data:
                failures.append(f"binding collision {scheme} trial={trial}")
    return CheckReport(name="accumulator", passed=not failures, trials=trials,
                       failures=failures, elapsed=time.time() - t0)


# --- oracle black-box suite (criterion 7) ------------------------------------------


def _oracle_harness_spec(kind: str, impl: str):
    """A one-shot protocol that just runs the oracle and returns its output."""
    def ba_party(ctx, my_input, sender):
        from .oracles import ba_oracle
        width = 1 if kind == "async_ba_bit" else ctx.params.k
        out = yield from ba_oracle(ctx, kind, "bb0", my_input, value_bits=width)
        return out

    def bcast_party(ctx, my_input, sender):
        from .oracles import bcast_oracle
        out = yield from bcast_oracle(ctx, kind, "bb0", sender, my_input,
                                      value_bits=ctx.params.k)
        return out

    mode = "rounds" if kind.startswith("sync") else "events"
    if kind in ("sync_bb", "async_rb"):
        problem = "bb" if kind == "sync_bb" else "rb"
        party = bcast_party
    else:
        problem = "ba"
        party = ba_party
    regime = {"sync_bb": "one_minus_eps", "sync_ba": "half",
              "async_rb": "third_async", "async_ba_bit": "third_async"}[kind]
    return ProtocolSpec(name=f"oracle-{kind}-{impl}", mode=mode, kind=problem,
                        regime=regime, party=party)


def _oracle_params(kind: str, n: int) -> SessionParams:
    if kind == "sync_bb":
        # chains tolerate any t < n; stress the maximum
        return SessionParams(n=n, t=n - 1, l=BATTERY_K, k=BATTERY_K,
                             threshold_regime="one_minus_eps", epsilon=1.0 / n)
    if kind == "sync_ba":
        return SessionParams(n=n, t=(n - 1) // 2, l=BATTERY_K, k=BATTERY_K,
                             threshold_regime="half")
    return SessionParams(n=n, t=(n - 1) // 3, l=BATTERY_K, k=BATTERY_K,
                         threshold_regime="third_async")


def _oracle_value(seed: int, pid: int, k: int, unanimity: str, bit: bool) -> object:
    if bit:
        if unanimity == "all":
            return 1
        return random.Random(("bit", seed, pid).__repr__()).randrange(2)
    return message_for(seed, 0 if unanimity == "all" else pid, k, unanimity)


def check_oracles(seeds: int = 200) -> CheckReport:
    t0 = time.time()
    failures: list[str] = []
    trials = 0
    scripts = [s for s in adversary_battery()
               if s.name in ("honest", "silent", "crash_early", "oracle_liar",
                             "sched_lifo", "sched_random", "sched_starve")]
    for kind in ("sync_bb", "sync_ba", "async_rb", "async_ba_bit"):
        bit = kind == "async_ba_bit"
        for impl in ("ideal", "concrete"):
            spec = _oracle_harness_spec(kind, impl)
            for n in (4, 7):
                params = _oracle_params(kind, n)
                for script in scripts:
                    for seed in range(seeds):
                        unanimity = "all" if seed % 2 == 0 else "none"
                        if spec.kind in ("bb", "rb"):
                            inputs = {1: _oracle_value(seed, 0, params.k, "all", bit)}
                        else:
                            inputs = {p: _oracle_value(seed, p, params.k, unanimity, bit)
                                      for p in range(1, n + 1)}
                        result, violations = judged_run(spec, params, inputs, adversary=script,
                                                        seed=seed, oracle_impl={kind: impl})
                        trials += 1
                        # binary agreement decides some honest party's proposal
                        outs = [result.outputs[p] for p in result.honest
                                if p in result.outputs] if bit and result is not None else []
                        if outs and outs[0] not in {inputs[p] for p in result.honest}:
                            violations.append("binary validity: decided a value nobody "
                                              "honest held")
                        for v in violations:
                            failures.append(f"{kind}/{impl} n={n} script={script.name} "
                                            f"seed={seed}: {v}")
    details = _dolev_strong_cost_check(failures)
    details["aba_expected_rounds"] = _aba_round_measurement(failures)
    return CheckReport(name="oracles", passed=not failures, trials=trials,
                       failures=failures, details=details, elapsed=time.time() - t0)


def _dolev_strong_cost_check(failures: list[str]) -> dict:
    n, k = 7, 256
    params = SessionParams(n=n, t=n - 1, l=k, k=k, threshold_regime="one_minus_eps",
                           epsilon=1.0 / n)
    spec = _oracle_harness_spec("sync_bb", "concrete")
    inputs = {1: message_for(0, 0, k, "all")}
    result, violations = judged_run(spec, params, inputs, seed=0,
                                    oracle_impl={"sync_bb": "concrete"})
    failures.extend(f"chain-broadcast: {v}" for v in violations)
    measured = result.metrics.honest_bits_total if result is not None else None
    model = MultiSig.nominal_bits(n, k) * n * n + n**3
    if measured is not None and measured > 2 * model:
        failures.append(f"chain-broadcast bits {measured} exceed 2x model {model}")
    return {"ds_measured_bits": measured, "ds_model_bits": model}


def _aba_round_measurement(failures: list[str], seeds: int = 1000) -> float:
    params = _oracle_params("async_ba_bit", 4)
    spec = _oracle_harness_spec("async_ba_bit", "concrete")
    scripts = {s.name: s for s in adversary_battery()}
    total_rounds = 0
    samples = 0
    for seed in range(seeds):
        script = [scripts["sched_lifo"], scripts["sched_random"],
                  scripts["sched_starve"]][seed % 3]
        inputs = {p: _oracle_value(seed, p, 1, "none", True) for p in range(1, 5)}
        result, violations = judged_run(spec, params, inputs, adversary=script, seed=seed,
                                        oracle_impl={"async_ba_bit": "concrete"})
        failures.extend(f"binary agreement seed={seed}: {v}" for v in violations)
        rounds = [v for key, v in result.metrics.extra.items()
                  if key.startswith("aba_round/")] if result is not None else []
        if rounds:
            total_rounds += max(rounds)
            samples += 1
    mean = total_rounds / max(samples, 1)
    if mean > 4.0:
        failures.append(f"expected binary-agreement rounds {mean:.2f} > 4")
    return round(mean, 3)


# --- complexity suites (criteria 2-4) ------------------------------------------------

SWEEP_LS = tuple(2**e for e in range(14, 21))
BLOWUP_EPSILONS = (0.5, 0.25, 1.0 / 6.0)


def model_slope(n: int, t: int) -> float:
    """Accounting-model bits per input bit for the unanimous half-BA run:
    every party distributes and forwards one share to n-1 peers."""
    b = n - t
    return 2 * n * (n - 1) / b


def complexity_reports() -> tuple[CheckReport, CheckReport, CheckReport]:
    """Criteria 2, 3 and 4, one report each.

    2: honest bits of unanimous ``sync-ba-half`` runs (seed 1) over l in
    ``SWEEP_LS`` fit a line with R^2 >= 0.999 and a slope within [0.9, 1.3]
    of ``model_slope``. 3: no run's bits above that line exceed twice the
    agreement-oracle model cost plus the witness traffic. 4: the share of
    ``sync-bb-highthresh`` at n=12, l=2^18 (seed 2) is within 10% of
    ceil(l / (eps n)). Every run is judged by ``evaluate_run`` as well; a
    sweep run's violations count against criteria 2 and 3.
    """
    t0 = time.time()
    n, k = 10, 256
    t = (n - 1) // 2
    sweep, run_failures = [], []
    for l in SWEEP_LS:
        params = SessionParams(n=n, t=t, l=l, k=k, threshold_regime="half")
        inputs = build_inputs("ba", params, seed=1, unanimity="all")
        result, violations = judged_run("sync-ba-half", params, inputs, seed=1)
        run_failures.extend(f"l={l}: {v}" for v in violations)
        if result is not None:
            sweep.append((l, result.metrics.honest_bits_total))
    ls = np.array([r[0] for r in sweep], dtype=float)
    bits = np.array([r[1] for r in sweep], dtype=float)
    slope, intercept = np.polyfit(ls, bits, 1)
    pred = slope * ls + intercept
    ss_res = float(np.sum((bits - pred) ** 2))
    ss_tot = float(np.sum((bits - bits.mean()) ** 2))
    r2 = 1 - ss_res / ss_tot
    m_slope = model_slope(n, t)
    b = n - t
    fit_failures = list(run_failures)
    if r2 < 0.999:
        fit_failures.append(f"R^2 {r2:.6f} < 0.999")
    if not (0.9 * m_slope <= slope <= 1.3 * m_slope):
        fit_failures.append(f"slope {slope:.3f} outside [0.9, 1.3] x model {m_slope:.3f}")
    fit = CheckReport(
        name="linear-scaling", passed=not fit_failures, trials=len(SWEEP_LS),
        failures=fit_failures,
        details={"slope": round(float(slope), 3), "model_slope": round(m_slope, 3),
                 "delta_bits": round(b * m_slope / n - b, 3), "r2": round(r2, 6)},
        elapsed=time.time() - t0,
    )
    # extension overhead: what lies above the linear term stays within the
    # agreement oracle's model cost plus the witness traffic
    k_wit = witness_nominal_bits(HASH_TREE, n, k)
    bound = 2 * (oracle_model_cost("sync_ba", k, n, k) + 2 * k_wit * n * n)
    resids = [(l, total - slope * l) for l, total in sweep]
    overhead_failures = list(run_failures) + [
        f"l={l}: residual {resid:.0f} exceeds bound {bound}"
        for l, resid in resids if resid > bound]
    overhead = CheckReport(
        name="extension-overhead", passed=not overhead_failures, trials=len(SWEEP_LS),
        failures=overhead_failures,
        details={"residual_bound": bound,
                 "worst_residual": round(max([0.0] + [r for _, r in resids]), 1)},
        elapsed=fit.elapsed,
    )
    # share-size blowup of the high-threshold broadcast
    t1 = time.time()
    n12, l = 12, 2**18
    blowup_failures, blowup = [], {}
    for eps in BLOWUP_EPSILONS:
        t12 = int(round((1 - eps) * n12))
        params = SessionParams(n=n12, t=t12, l=l, k=k,
                               threshold_regime="one_minus_eps", epsilon=eps)
        inputs = build_inputs("bb", params, seed=2, unanimity="all")
        result, violations = judged_run("sync-bb-highthresh", params, inputs, seed=2)
        blowup_failures.extend(f"eps={eps}: {v}" for v in violations)
        if result is None:
            continue
        share = result.metrics.extra["share_bits"]
        expected = -(-l // (n12 - t12))  # ceil(l / (eps*n))
        blowup[f"eps={eps:.3f}"] = [share, expected]
        if not (0.9 * expected <= share <= 1.1 * expected):
            blowup_failures.append(f"eps={eps}: share bits {share} not within 10% of {expected}")
    shares = CheckReport(name="share-blowup", passed=not blowup_failures,
                         trials=len(BLOWUP_EPSILONS), failures=blowup_failures,
                         details={"blowup": blowup}, elapsed=time.time() - t1)
    return fit, overhead, shares


def check_complexity() -> CheckReport:
    """Criteria 2-4 as one report; a sweep run's violations count once."""
    t0 = time.time()
    fit, overhead, shares = complexity_reports()
    failures = list(dict.fromkeys(fit.failures + overhead.failures + shares.failures))
    return CheckReport(
        name="complexity", passed=fit.passed and overhead.passed and shares.passed,
        trials=fit.trials + shares.trials, failures=failures,
        details={**fit.details, **overhead.details, **shares.details},
        elapsed=time.time() - t0,
    )


# --- suite registry ------------------------------------------------------------------


def suite_protocols_sync(seeds: int = 100, jobs: int | None = None) -> CheckReport:
    return check_protocols(["sync-ba-half", "sync-bb-half", "sync-bb-highthresh",
                            "ef-sync-ba-third"], seeds=seeds, jobs=jobs)


def suite_protocols_async(seeds: int = 100, jobs: int | None = None) -> CheckReport:
    return check_protocols(["async-ba-third", "async-rb-third", "ef-async-rb-third"],
                           seeds=seeds, jobs=jobs)


# The CLI passes a suite only the options its function's signature names.
SUITES = {
    "coding": check_coding,
    "accumulator": check_accumulator,
    "star": check_star,
    "oracles": check_oracles,
    "protocols-sync": suite_protocols_sync,
    "protocols-async": suite_protocols_async,
    "complexity": check_complexity,
}
