import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import bbext.star as star_module
from bbext.checks import _brute_force_matching_size
from bbext.star import (NOSTAR, GrowingStar, PartyGraph, StarResult, derive_fe, max_matching,
                        star)


def to_text(g: PartyGraph) -> str:
    """Adjacency matrix as 0/1 rows, one line per vertex."""
    return "\n".join(
        "".join("1" if r & (1 << j) else "0" for j in range(g.n)) for r in g.rows
    )


def validated(n: int, rows: tuple[int, ...]) -> PartyGraph:
    """PartyGraph(n, rows) after an O(n^2) check that the rows describe an
    undirected graph on 1..n: n rows, no bit past n, no self-loop, symmetric.
    The library builds every graph valid by construction and checks none."""
    if len(rows) != n:
        raise ValueError("row count must equal n")
    for i, r in enumerate(rows):
        if r >> n:
            raise ValueError("adjacency bits out of range")
        if r & (1 << i):
            raise ValueError("self-loops not allowed")
    for i in range(n):
        for j in range(i + 1, n):
            if bool(rows[i] & (1 << j)) != bool(rows[j] & (1 << i)):
                raise ValueError("adjacency must be symmetric")
    return PartyGraph(n=n, rows=rows)


def from_text(text: str) -> PartyGraph:
    lines = [ln.strip() for ln in text.strip().splitlines()]
    n = len(lines)
    rows = []
    for ln in lines:
        if len(ln) != n or set(ln) - {"0", "1"}:
            raise ValueError("debug format rows must be 0/1 strings of length n")
        rows.append(sum(1 << j for j, ch in enumerate(ln) if ch == "1"))
    return validated(n, tuple(rows))


def dp_canonical_matching(g: PartyGraph) -> frozenset[tuple[int, int]]:
    """Exponential subset DP: best[mask] is the maximum matching size of the
    subgraph induced by mask; a lex-order greedy pass keeps each edge whose
    removal lowers that size by exactly one. Test oracle only."""
    n, rows = g.n, g.rows
    best = [0] * (1 << n)
    for mask in range(1, 1 << n):
        low = mask & -mask
        v = low.bit_length() - 1
        rest = mask ^ low
        b = best[rest]
        m = rows[v] & rest
        while m:
            u = m & -m
            b = max(b, best[rest ^ u] + 1)
            m ^= u
        best[mask] = b
    mask = (1 << n) - 1
    chosen = []
    for i, j in g.edges():
        bi, bj = 1 << (i - 1), 1 << (j - 1)
        if mask & bi and mask & bj and best[mask ^ bi ^ bj] + 1 == best[mask]:
            chosen.append((i, j))
            mask ^= bi | bj
    return frozenset(chosen)


def assert_valid_matching(g: PartyGraph, m) -> None:
    used = [v for e in m for v in e]
    assert len(set(used)) == len(used), "matching edges must be disjoint"
    for u, v in m:
        assert u < v and g.has_edge(u, v)


def random_graph(n: int, p: float, rng: random.Random) -> PartyGraph:
    edges = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)
             if rng.random() < p]
    return PartyGraph.from_edges(n, edges)


def test_graph_validation():
    with pytest.raises(ValueError):
        validated(2, (1, 0))  # self loop on vertex 1
    with pytest.raises(ValueError):
        validated(2, (2, 0))  # asymmetric
    with pytest.raises(ValueError):
        PartyGraph.from_edges(2, [(1, 1)])
    with pytest.raises(ValueError):
        from_text("01\n00")  # asymmetric
    with pytest.raises(ValueError):
        PartyGraph.from_edges(3, []).with_edge(2, 2)


def test_derived_graphs_equal_validated_ones():
    # the library checks no graph it builds; what with_edge and complement
    # build must pass the check
    rng = random.Random(4)
    for _ in range(20):
        n = rng.randint(2, 9)
        g = random_graph(n, 0.4, rng)
        u, v = rng.sample(range(1, n + 1), 2)
        for h in (g.with_edge(u, v), g.complement()):
            assert h == validated(h.n, h.rows)


def test_star_invariant_is_checked_under_optimize():
    # C not inside D: the check must raise even where -O strips asserts
    code = (
        "from bbext.simnet import InvariantViolation\n"
        "from bbext.star import PartyGraph, _assert_star\n"
        "g = PartyGraph.from_edges(4, [])\n"
        "try:\n"
        "    _assert_star(g, frozenset({1}), frozenset({2, 3, 4}), 4, 1)\n"
        "except InvariantViolation as exc:\n"
        "    print(isinstance(exc, AssertionError), __debug__)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["True", "False"]


def test_assert_star_names_a_missing_cross_edge():
    g = PartyGraph.from_edges(4, [(1, 2), (1, 3), (1, 4), (2, 4), (3, 4)])
    star_module._assert_star(g, frozenset({1, 4}), frozenset({1, 2, 3, 4}), 4, 1)
    with pytest.raises(star_module.InvariantViolation, match=r"missing edge \(2,3\)"):
        star_module._assert_star(g, frozenset({1, 2}), frozenset({1, 2, 3, 4}), 4, 1)


def test_empty_graph_empty_matching():
    g = PartyGraph.from_edges(4, [])
    assert max_matching(g) == frozenset()


def test_odd_cycle_matching_size_two():
    c5 = PartyGraph.from_edges(5, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)])
    assert len(max_matching(c5)) == 2


def test_matching_cardinality_vs_brute_force():
    rng = random.Random(0)
    for trial in range(300):
        n = rng.randint(1, 10)
        g = random_graph(n, rng.choice([0.15, 0.3, 0.5, 0.8]), rng)
        m = max_matching(g)
        assert_valid_matching(g, m)
        assert len(m) == _brute_force_matching_size(g)


def test_matching_is_lexicographically_canonical():
    rng = random.Random(5)
    for trial in range(60):
        n = rng.randint(2, 7)
        g = random_graph(n, 0.5, rng)
        got = tuple(sorted(max_matching(g)))
        best = len(got)
        candidates = []
        edges = g.edges()
        for subset in itertools.combinations(edges, best):
            used = [v for e in subset for v in e]
            if len(set(used)) == len(used):
                candidates.append(tuple(sorted(subset)))
        if candidates:
            assert got == min(candidates)
        else:
            assert best == 0


def test_star_on_complete_graph_returns_everyone():
    n, t = 6, 1
    g = PartyGraph.from_edges(n, [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)])
    result = star(g, n, t)
    assert isinstance(result, StarResult)
    assert result.C == frozenset(range(1, n + 1))
    assert result.D == frozenset(range(1, n + 1))


def brute_force_star_exists(g: PartyGraph, n: int, t: int) -> bool:
    vertices = list(range(1, n + 1))
    for c_size in range(n - 2 * t, n + 1):
        for c_set in itertools.combinations(vertices, c_size):
            rest = [v for v in vertices]
            for d_size in range(max(n - t, c_size), n + 1):
                for d_set in itertools.combinations(rest, d_size):
                    if not set(c_set) <= set(d_set):
                        continue
                    if all(g.has_edge(ci, dj) for ci in c_set for dj in d_set if ci != dj):
                        return True
    return False


def test_empty_graph_has_no_star():
    g = PartyGraph.from_edges(4, [])
    assert star(g, 4, 1) == NOSTAR
    assert not brute_force_star_exists(g, 4, 1)


def test_star_validity_on_random_graphs():
    rng = random.Random(3)
    found = 0
    for trial in range(400):
        n = rng.randint(4, 10)
        t = (n - 1) // 3
        g = random_graph(n, rng.choice([0.2, 0.5, 0.8, 0.95]), rng)
        result = star(g, n, t)
        if result is not NOSTAR:
            found += 1
            assert result.C <= result.D
            assert len(result.C) >= n - 2 * t
            assert len(result.D) >= n - t
            for c in result.C:
                for d in result.D:
                    if c != d:
                        assert g.has_edge(c, d)
        else:
            if n <= 7:
                # the procedure may miss stars, but never invents one;
                # confirm emptiness only on graphs where none exists
                if not brute_force_star_exists(g, n, t):
                    assert result == NOSTAR
    assert found > 50


def test_honest_clique_never_nostar():
    # any graph whose honest 2t+1 parties form a clique yields a star with at
    # most t honest parties excluded from C
    rng = random.Random(9)
    for t in (1, 2, 3):
        n = 3 * t + 1
        honest = set(range(1, 2 * t + 2))
        for trial in range(40):
            edges = [(u, v) for u, v in itertools.combinations(sorted(honest), 2)]
            for u in range(1, n + 1):
                for v in range(u + 1, n + 1):
                    if (u not in honest or v not in honest) and rng.random() < 0.4:
                        edges.append((u, v))
            g = PartyGraph.from_edges(n, edges)
            result = star(g, n, t)
            assert result is not NOSTAR
            assert len(honest - result.C) <= t


def derive_fe_reference(g: PartyGraph, c, n: int, t: int):
    """derive_fe over vertex sets, one closed neighborhood at a time."""
    def closed(v):
        return {j for j in range(1, n + 1) if j == v or g.has_edge(v, j)}

    f = frozenset(v for v in range(1, n + 1) if len(closed(v) & c) >= t + 1)
    if len(f) < 2 * t + 1:
        return None
    e = frozenset(v for v in range(1, n + 1) if len(closed(v) & f) >= 2 * t + 1)
    if len(e) < 2 * t + 1:
        return None
    return f, e


def test_derive_fe_equals_set_reference():
    rng = random.Random(12)
    outcomes = set()
    for trial in range(400):
        n = rng.randint(4, 16)
        t = (n - 1) // 3
        g = random_graph(n, rng.choice([0.3, 0.6, 0.85, 0.95]), rng)
        result = star(g, n, t)
        if result is NOSTAR:
            c = frozenset(rng.sample(range(1, n + 1), n - 2 * t))
            result = StarResult(C=c, D=c)
        got = derive_fe(g, result.C, n, t)
        assert got == derive_fe_reference(g, result.C, n, t), to_text(g)
        outcomes.add(got is None)
    assert outcomes == {True, False}


def test_derive_fe_on_complete_graph():
    n, t = 4, 1
    g = PartyGraph.from_edges(n, [(u, v) for u in range(1, 5) for v in range(u + 1, 5)])
    result = star(g, n, t)
    fe = derive_fe(g, result.C, n, t)
    assert fe is not None
    f, e = fe
    assert f == frozenset(range(1, 5))
    assert e == frozenset(range(1, 5))


def test_derive_fe_clique_contains_honest():
    t = 2
    n = 3 * t + 1
    honest = list(range(1, 2 * t + 2))
    edges = list(itertools.combinations(honest, 2))
    g = PartyGraph.from_edges(n, edges)
    result = star(g, n, t)
    assert result is not NOSTAR
    fe = derive_fe(g, result.C, n, t)
    assert fe is not None
    assert set(honest) <= fe[1]
    assert len(fe[1]) >= 2 * t + 1


def test_derive_fe_sparse_star_yields_none():
    # a thin but valid star: C x D edges only, nothing else; every D member
    # reaches F, but outside C nobody has 2t+1 self-inclusive F-neighbors,
    # so the extended set stays below 2t+1 and the derivation reports none
    n, t = 7, 2
    c = frozenset({1, 2, 3})
    d = frozenset({1, 2, 3, 4, 5})
    edges = [(ci, dj) for ci in sorted(c) for dj in sorted(d) if ci < dj]
    g = PartyGraph.from_edges(n, edges)
    for ci in c:
        for dj in d:
            if ci != dj:
                assert g.has_edge(ci, dj)
    assert derive_fe(g, c, n, t) is None


def test_self_neighbor_rule_keeps_clique_in_core_sets():
    # star over a 5-clique inside n=7: vertices outside the clique have no
    # neighbors at all and stay out of F; clique members count themselves
    n, t = 7, 2
    clique = [1, 2, 3, 4, 5]
    g = PartyGraph.from_edges(n, list(itertools.combinations(clique, 2)))
    result = star(g, n, t)
    fe = derive_fe(g, result.C, n, t)
    assert fe is not None
    f, e = fe
    assert f == frozenset(clique)
    # each clique member has 4 neighbors in F plus itself = 5 >= 2t+1
    assert e == frozenset(clique)


def test_debug_format_roundtrip():
    g = PartyGraph.from_edges(4, [(1, 2), (3, 4)])
    text = to_text(g)
    assert text.splitlines()[0] == "0100"
    assert from_text(text) == g
    with pytest.raises(ValueError):
        from_text("01\n10\n00")


def test_star_deterministic():
    rng = random.Random(11)
    g = random_graph(8, 0.5, rng)
    assert star(g, 8, 2) == star(g, 8, 2)
    assert max_matching(g) == max_matching(g)


def test_matching_equals_subset_dp():
    # n = 13..16 straddles the size where an earlier version switched
    # algorithms, and picked a different maximum matching above it
    rng = random.Random(7)
    densities = (0.05, 0.15, 0.3, 0.5, 0.7, 0.85, 0.95)
    sizes = [rng.randint(1, 12) for _ in range(300)] + [13, 14, 15, 16] * 7
    for k, n in enumerate(sizes):
        g = random_graph(n, densities[k % len(densities)], rng)
        assert max_matching(g) == dp_canonical_matching(g), to_text(g)


def _odd_cycles(n: int, lengths) -> PartyGraph:
    """Disjoint cycles of the given lengths; leftover vertices stay isolated."""
    edges, start = [], 1
    for length in lengths:
        ring = list(range(start, start + length))
        edges += [(ring[k], ring[(k + 1) % length]) for k in range(length)]
        start += length
    assert start <= n + 1
    return PartyGraph.from_edges(n, edges)


@pytest.mark.parametrize("n", [31, 64])
def test_matching_size_on_known_large_graphs(n):
    rng = random.Random(n)
    complete = PartyGraph.from_edges(n, list(itertools.combinations(range(1, n + 1), 2)))
    pairs = [(v, v + 1) for v in range(1, n, 2)]
    assert max_matching(complete) == frozenset(pairs)
    assert max_matching(PartyGraph.from_edges(n, [])) == frozenset()
    hub = PartyGraph.from_edges(n, [(1, v) for v in range(2, n + 1)])
    assert max_matching(hub) == frozenset({(1, 2)})
    lengths = [3, 5, 7, 9, 7] if n == 31 else [3, 5, 7, 9, 11, 13, 15]
    cycles = _odd_cycles(n, lengths)
    m = max_matching(cycles)
    assert_valid_matching(cycles, m)
    assert len(m) == sum(length // 2 for length in lengths)
    for p in (0.05, 0.3):
        extra = [(u, v) for u, v in itertools.combinations(range(1, n + 1), 2)
                 if rng.random() < p]
        g = PartyGraph.from_edges(n, pairs + extra)
        m = max_matching(g)
        assert_valid_matching(g, m)
        assert len(m) == n // 2


def test_no_networkx_needed():
    # the matching and an n=16 error-free session run with networkx unimportable
    code = (
        "import sys\n"
        "sys.modules['networkx'] = None\n"
        "import random\n"
        "from bbext.checks import evaluate_run\n"
        "from bbext.protocols import SessionParams\n"
        "from bbext.runner import run\n"
        "from bbext.star import PartyGraph, max_matching\n"
        "rng = random.Random(0)\n"
        "g = PartyGraph.from_edges(16, [(u, v) for u in range(1, 17)\n"
        "                               for v in range(u + 1, 17) if rng.random() < 0.3])\n"
        "max_matching(g)\n"
        "params = SessionParams(n=16, t=5, l=2 ** 10, threshold_regime='third_async')\n"
        "inputs = {1: bytes(range(128))}\n"
        "res = run('ef-async-rb-third', params, inputs, seed=0)\n"
        "print(evaluate_run('rb', inputs, 1, res))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def fresh_matching(h: PartyGraph) -> frozenset[tuple[int, int]]:
    """The canonical matching of h computed now, past the matching cache."""
    return star_module._matching_cached.__wrapped__(h.n, h.rows)


@given(st.data())
def test_growing_star_equals_star_from_scratch(data):
    n = data.draw(st.integers(min_value=2, max_value=16), label="n")
    t = (n - 1) // 3
    growing = GrowingStar(n, t)
    for _ in range(data.draw(st.integers(min_value=1, max_value=n * (n - 1) // 2))):
        complement = growing.graph.complement().edges()
        if not complement:
            break
        # half the insertions delete a matched complement edge, which forces
        # a new matching; the others must keep the carried one
        pool = sorted(growing.matching) if data.draw(st.booleans()) else complement
        u, v = data.draw(st.sampled_from(pool))
        result = growing.add_edge(u, v)
        g = growing.graph
        assert g.has_edge(u, v)
        assert growing.complement == g.complement()
        assert growing.matching == fresh_matching(g.complement())
        if n <= 10:
            assert growing.matching == dp_canonical_matching(g.complement())
        assert result == star(g, n, t)


@given(st.data())
def test_growing_star_results_equal_star_from_scratch(data):
    # only add_edge's result is read, never the carried matching, so a
    # matching left stale by the size bound is checked where it is used
    n = data.draw(st.integers(min_value=2, max_value=16), label="n")
    t = (n - 1) // 3
    growing = GrowingStar(n, t)
    g = PartyGraph.from_edges(n, [])
    for _ in range(data.draw(st.integers(min_value=1, max_value=n * (n - 1) // 2))):
        h = g.complement()
        complement = h.edges()
        if not complement:
            break
        # half the insertions delete an edge of the complement's canonical
        # matching, the others any complement edge
        pool = sorted(fresh_matching(h)) if data.draw(st.booleans()) else complement
        u, v = data.draw(st.sampled_from(pool))
        g = g.with_edge(u, v)
        assert growing.add_edge(u, v) == star(g, n, t)


def test_growing_star_counts_follow_the_size_bound(monkeypatch):
    # star() runs exactly on the insertions whose complement has a maximum
    # matching of at most t edges; max_matching runs once at the start and
    # then on such an insertion only when the canonical matching it had
    # before is not carried: it had more than t edges, or lost the new edge
    calls = {"star": 0, "max_matching": 0}
    for name in calls:
        def counted(*args, _fn=getattr(star_module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(star_module, name, counted)
    rng = random.Random(2)
    n, t = 13, 4
    growing = GrowingStar(n, t)
    g = PartyGraph.from_edges(n, [])
    edges = list(itertools.combinations(range(1, n + 1), 2))
    rng.shuffle(edges)
    small = recomputed = 0
    before = fresh_matching(g.complement())
    for u, v in edges:
        g = g.with_edge(u, v)
        after = fresh_matching(g.complement())
        if len(after) <= t:
            small += 1
            recomputed += len(before) > t or (u, v) in before
        before = after
        growing.add_edge(u, v)
    assert calls == {"star": small, "max_matching": 1 + recomputed}
    # the old mechanism ran star() on all 78 insertions and max_matching
    # after each of the 21 matched deletions
    assert (small, recomputed) == (7, 5)


def test_growing_star_builds_no_complement(monkeypatch):
    # the carried complement loses the new edge's two bits; nothing rebuilds it
    growing = GrowingStar(9, 2)
    built = []
    complement = PartyGraph.complement
    monkeypatch.setattr(PartyGraph, "complement", lambda g: built.append(g) or complement(g))
    for u, v in itertools.combinations(range(1, 10), 2):
        growing.add_edge(u, v)
    assert built == []
    assert growing.complement == complement(growing.graph)


def _growing_has_edge(growing: GrowingStar, u: int, v: int) -> bool:
    """Whether the rows a GrowingStar edits in place hold the edge (u, v)."""
    return bool(growing._rows[u - 1] >> (v - 1) & 1)


def test_growing_star_has_edge_agrees_with_its_graph():
    rng = random.Random(5)
    for n in (2, 5, 10, 16):
        growing = GrowingStar(n, (n - 1) // 3)
        edges = list(itertools.combinations(range(1, n + 1), 2))
        rng.shuffle(edges)
        for u, v in edges:
            growing.add_edge(u, v)
            g = growing.graph
            assert all(_growing_has_edge(growing, x, y) == g.has_edge(x, y)
                       for x in range(1, n + 1) for y in range(1, n + 1))


def test_growing_star_builds_no_graph_while_the_size_bound_rules_a_star_out(monkeypatch):
    # an insertion that leaves more than t carried matching edges edits the
    # rows in place and returns NOSTAR without building a PartyGraph view
    n, t = 13, 4
    growing = GrowingStar(n, t)
    built = [0]
    init = PartyGraph.__init__

    def counted_init(self, *args, **kwargs):
        built[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(PartyGraph, "__init__", counted_init)
    edges = list(itertools.combinations(range(1, n + 1), 2))
    random.Random(2).shuffle(edges)
    ruled_out = 0
    for u, v in edges:
        survivors = growing._matched - {(u, v)}
        before = built[0]
        result = growing.add_edge(u, v)
        if len(survivors) > t:
            ruled_out += 1
            assert result is NOSTAR and built[0] == before
    assert ruled_out > len(edges) // 2 and built[0] > 0


@pytest.mark.parametrize("edge", [(3, 3), (0, 2), (2, 6), (-1, 1)])
def test_growing_star_rejects_bad_edges(edge):
    growing = GrowingStar(5, 1)
    growing.add_edge(1, 2)
    before = (growing.graph, growing.complement, growing.matching)
    with pytest.raises(ValueError):
        growing.add_edge(*edge)
    with pytest.raises(ValueError):
        PartyGraph.from_edges(5, []).with_edge(*edge)
    assert (growing.graph, growing.complement, growing.matching) == before


def test_star_module_caches_are_bounded():
    # corrupt acknowledgements shape the graphs these caches are keyed by
    caches = [obj for obj in vars(star_module).values() if hasattr(obj, "cache_info")]
    assert caches
    for cache in caches:
        assert cache.cache_info().maxsize is not None, cache.__name__


# --- the blossom search against its reference ----------------------------------


def reference_augment(adj: list[list[int]], alive: int, match: list[int], root: int) -> bool:
    """Reference for ``star._augment``, the same Edmonds search walking
    ascending neighbour lists and skipping the vertices outside alive."""
    n = len(match)
    base = list(range(n))
    parent = [-1] * n
    outer = 1 << root
    queue = [root]

    def lca(a: int, b: int) -> int:
        seen = 0
        while True:
            a = base[a]
            seen |= 1 << a
            if match[a] < 0:
                break
            a = parent[match[a]]
        while True:
            b = base[b]
            if seen >> b & 1:
                return b
            b = parent[match[b]]

    def mark(v: int, b: int, child: int, blossom: set[int]) -> None:
        while base[v] != b:
            blossom.add(base[v])
            blossom.add(base[match[v]])
            parent[v] = child
            child = match[v]
            v = parent[match[v]]

    head = 0
    while head < len(queue):
        v = queue[head]
        head += 1
        for u in adj[v]:
            if not alive >> u & 1 or base[v] == base[u] or match[v] == u:
                continue
            if u == root or (match[u] >= 0 and parent[match[u]] >= 0):
                b = lca(v, u)
                blossom: set[int] = set()
                mark(v, b, u, blossom)
                mark(u, b, v, blossom)
                for w in range(n):
                    if base[w] in blossom:
                        base[w] = b
                        if not outer >> w & 1:
                            outer |= 1 << w
                            queue.append(w)
            elif parent[u] < 0:
                parent[u] = v
                if match[u] < 0:
                    while u >= 0:
                        v = parent[u]
                        nxt = match[v]
                        match[u], match[v] = v, u
                        u = nxt
                    return True
                outer |= 1 << match[u]
                queue.append(match[u])
    return False


def reference_outgrow(h: PartyGraph, matching: frozenset[tuple[int, int]], t: int):
    """Reference for ``star._outgrow``: one reference search per free vertex
    over h's neighbour lists."""
    n = h.n
    adj = [[j for j in range(n) if r >> j & 1] for r in h.rows]
    match = [-1] * n
    for u, v in matching:
        match[u - 1], match[v - 1] = v - 1, u - 1
    size = len(matching)
    for v in range(n):
        if match[v] < 0 and reference_augment(adj, (1 << n) - 1, match, v):
            size += 1
            if size > t:
                return frozenset((u + 1, w + 1) for u, w in enumerate(match) if u < w)
    return None


@st.composite
def _searches(draw):
    """(graph, alive mask, mates, root): a graph at n <= 31, a matching of
    its alive part, and a free alive root."""
    n = draw(st.integers(min_value=1, max_value=31), label="n")
    p = draw(st.sampled_from([0.1, 0.3, 0.6, 0.9]), label="p")
    rng = random.Random(draw(st.integers(min_value=0, max_value=2 ** 32), label="seed"))
    g = random_graph(n, p, rng)
    alive = draw(st.integers(min_value=1, max_value=(1 << n) - 1), label="alive")
    match = [-1] * n
    for u, v in g.edges():
        u, v = u - 1, v - 1
        if (alive >> u & alive >> v & 1 and match[u] < 0 and match[v] < 0
                and draw(st.booleans())):
            match[u], match[v] = v, u
    free = [v for v in range(n) if alive >> v & 1 and match[v] < 0]
    root = draw(st.sampled_from(free)) if free else None
    return g, alive, match, root


@given(_searches(), st.integers(min_value=0, max_value=15))
def test_search_on_rows_equals_the_adjacency_list_search(search, t):
    # the same neighbours in the same order: the same result, the same
    # match left behind, and the same grown matching
    g, alive, match, root = search
    if root is not None:
        got, ref = list(match), list(match)
        adj = [[j for j in range(g.n) if r >> j & 1] for r in g.rows]
        assert (star_module._augment(g.rows, alive, got, root)
                == reference_augment(adj, alive, ref, root))
        assert got == ref, to_text(g)
    mates = frozenset((u + 1, w + 1) for u, w in enumerate(match) if u < w)
    assert star_module._outgrow(g, mates, t) == reference_outgrow(g, mates, t), to_text(g)


def test_growing_star_search_count_is_pinned(monkeypatch):
    # an honest session's insertions: every edge, shuffled; 179 is what the
    # adjacency-list search (reference_augment) ran, so the search on the
    # rows runs exactly its searches
    calls = [0]

    def counted(*args, _fn=star_module._augment):
        calls[0] += 1
        return _fn(*args)

    monkeypatch.setattr(star_module, "_augment", counted)
    star_module._matching_cached.cache_clear()
    n = 16
    growing = GrowingStar(n, (n - 1) // 3)
    edges = list(itertools.combinations(range(1, n + 1), 2))
    random.Random(0).shuffle(edges)
    stars = sum(growing.add_edge(u, v) is not NOSTAR for u, v in edges)
    assert (calls[0], stars) == (179, 9)


class _StaleMatchingStar(GrowingStar):
    """GrowingStar with a planted bug: deleting a matched complement edge
    drops it from the carried matching without marking the rest stale, so
    star() is handed a matching that may not be maximum."""

    def add_edge(self, u, v):
        self._rows[u - 1] |= 1 << (v - 1)
        self._rows[v - 1] |= 1 << (u - 1)
        self._co_rows[u - 1] &= ~(1 << (v - 1))
        self._co_rows[v - 1] &= ~(1 << (u - 1))
        self._matched = self._matched - {(min(u, v), max(u, v))}
        if len(self._matched) > self.t:
            return NOSTAR
        return star(self.graph, self.n, self.t, _carried=(self.complement, self._matched))


def test_check_star_reports_an_exception_as_a_failure(monkeypatch):
    from bbext import checks

    monkeypatch.setattr(checks, "GrowingStar", _StaleMatchingStar)
    report = checks.check_star(graphs=20)
    assert not report.passed
    # star() raises in some carried trials; each becomes a line naming the
    # trial and the raising line, and the other trials still run
    raised = [f for f in report.failures if ": raised InvariantViolation: " in f]
    assert raised and all(f.startswith("carried trial=") and "(star.py:" in f for f in raised)
    assert len(report.failures) > len(raised)
    monkeypatch.undo()
    assert checks.check_star(graphs=20).passed
