"""Maximum matching and star extraction on party graphs.

Vertices are party ids 1..n. The star procedure finds vertex sets (C, D)
with C subseteq D, |C| >= n-2t, |D| >= n-t, and every C x D pair adjacent,
by taking a maximum matching of the complement graph and pruning.

Matching is exact and canonical for every n: Edmonds' blossom algorithm
("Paths, Trees, and Flowers", 1965) finds a maximum matching, then one pass
over the edges in lex order keeps each edge whose endpoints can be removed
at the cost of exactly one matched edge, with a blossom search as that size
test. The result is the lexicographically smallest maximum matching as
sorted edge lists compare. Brute-force and subset-DP oracles for tests live
in the test suite, not here.

Deletion lemma. A graph that gains an edge loses one edge e from its
complement h. Let M be the canonical matching of h. If e is not in M, M is
also the canonical matching of h - e: the maximum size cannot grow, M is
still a matching of that size, and every maximum matching of h - e is one
of h, so none of them is lex-smaller than M. `GrowingStar` carries h and M
across insertions, clears e's two bits in h's rows in place, and runs the
blossom again only when e is in M.

Size lemma. C is taken from the vertices M leaves unmatched, so
|C| <= n - 2|M|, and star() returns NOSTAR whenever the complement's maximum
matching has more than t edges. h only loses edges, so the edges of any
matching of an earlier h that are still in h form a matching of the current
h, and their count is a lower bound on its maximum. `GrowingStar` carries
such a matching: the canonical one until a matched edge goes, then what
survives of it. While more than t edges survive it returns NOSTAR without a
blossom, a lex pass or the pruning. When t or fewer survive it first grows
them along augmenting paths; a matching past t edges is again NOSTAR and is
carried on. Only when none exists does it compute the canonical matching
and prune.

There is no star cache: within a session the graph only grows, so a star
keyed by the whole graph is almost never asked for twice (a cache keyed
that way missed on 95% of the error-free benchmark's calls), while the
pruning is a few bitmask operations over the complement's rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .simnet import InvariantViolation


@dataclass(frozen=True)
class PartyGraph:
    """Undirected graph on parties 1..n; rows[i] is a bitmask over 0-based ids."""

    n: int
    rows: tuple[int, ...]

    def __post_init__(self):
        # Graphs built here whose rows are valid by construction (from_edges,
        # with_edge, complement, GrowingStar's views) skip this O(n^2) check
        # through _trusted.
        if len(self.rows) != self.n:
            raise ValueError("row count must equal n")
        for i, r in enumerate(self.rows):
            if r >> self.n:
                raise ValueError("adjacency bits out of range")
            if r & (1 << i):
                raise ValueError("self-loops not allowed")
        for i in range(self.n):
            for j in range(i + 1, self.n):
                if bool(self.rows[i] & (1 << j)) != bool(self.rows[j] & (1 << i)):
                    raise ValueError("adjacency must be symmetric")

    @classmethod
    def _trusted(cls, n: int, rows: tuple[int, ...]) -> "PartyGraph":
        """A graph whose rows are symmetric and loop-free by construction."""
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "rows", rows)
        return g

    @staticmethod
    def from_edges(n: int, edges) -> "PartyGraph":
        rows = [0] * n
        for u, v in edges:
            if u == v or not (1 <= u <= n and 1 <= v <= n):
                raise ValueError(f"bad edge ({u},{v})")
            rows[u - 1] |= 1 << (v - 1)
            rows[v - 1] |= 1 << (u - 1)
        return PartyGraph._trusted(n, tuple(rows))

    def with_edge(self, u: int, v: int) -> "PartyGraph":
        if u == v or not (1 <= u <= self.n and 1 <= v <= self.n):
            raise ValueError(f"bad edge ({u},{v})")
        rows = list(self.rows)
        rows[u - 1] |= 1 << (v - 1)
        rows[v - 1] |= 1 << (u - 1)
        return PartyGraph._trusted(self.n, tuple(rows))

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.rows[u - 1] & (1 << (v - 1)))

    def edges(self) -> list[tuple[int, int]]:
        return [
            (i + 1, j + 1)
            for i in range(self.n)
            for j in range(i + 1, self.n)
            if self.rows[i] & (1 << j)
        ]

    def complement(self) -> "PartyGraph":
        full = (1 << self.n) - 1
        return PartyGraph._trusted(
            self.n, tuple((full ^ r ^ (1 << i)) for i, r in enumerate(self.rows))
        )


NOSTAR = "noSTAR"


@dataclass(frozen=True)
class StarResult:
    C: frozenset[int]
    D: frozenset[int]


def _augment(adj: list[list[int]] | dict[int, list[int]], alive: int, match: list[int],
             root: int) -> bool:
    """Edmonds search from the free vertex root within the alive vertices.

    Grows an alternating tree, contracting each odd cycle (blossom) into its
    base. Flips the augmenting path into match and returns True when one is
    found; otherwise leaves match untouched and returns False.
    """
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


@lru_cache(maxsize=4096)
def _matching_cached(n: int, rows: tuple[int, ...]) -> frozenset[tuple[int, int]]:
    adj = [[j for j in range(n) if r >> j & 1] for r in rows]
    alive = (1 << n) - 1
    match = [-1] * n
    for v in range(n):
        if match[v] < 0:
            for u in adj[v]:
                if match[u] < 0:
                    match[u], match[v] = v, u
                    break
    for v in range(n):
        if match[v] < 0:
            _augment(adj, alive, match, v)
    # Greedy pass in lex order: keep (i, j) when the alive vertices without
    # i and j still have a matching one smaller than the current maximum.
    # match is kept maximum on the alive vertices throughout.
    chosen = []
    for i in range(n):
        if not alive >> i & 1:
            continue
        for j in adj[i]:
            if j < i or not alive >> j & 1:
                continue
            mi, mj = match[i], match[j]
            if mi != j and mi >= 0 and mj >= 0:
                # An augmenting path of the rest must end at a freed mate.
                rest = alive ^ (1 << i) ^ (1 << j)
                match[i] = match[j] = match[mi] = match[mj] = -1
                if not (_augment(adj, rest, match, mi) or _augment(adj, rest, match, mj)):
                    match[i], match[j], match[mi], match[mj] = mi, mj, i, j
                    continue
            else:
                for v in (mi, mj, i, j):
                    if v >= 0:
                        match[v] = -1
            alive ^= (1 << i) | (1 << j)
            chosen.append((i + 1, j + 1))
            break
    return frozenset(chosen)


class _LazyAdjacency(dict):
    """Ascending 0-based neighbor lists of a graph's rows, each built when a
    search first reaches its vertex."""

    def __init__(self, rows: tuple[int, ...]):
        super().__init__()
        self.rows = rows

    def __missing__(self, v: int) -> list[int]:
        out = []
        mask = self.rows[v]
        while mask:
            low = mask & -mask
            out.append(low.bit_length() - 1)
            mask ^= low
        self[v] = out
        return out


def _outgrow(h: PartyGraph, matching: frozenset[tuple[int, int]], t: int):
    """A matching of h with more than t edges, grown from `matching` (a
    matching of h) along augmenting paths, or None when h has none. One
    search per free vertex suffices: a vertex without an augmenting path
    never gains one by later augmentations."""
    n = h.n
    adj = _LazyAdjacency(h.rows)
    match = [-1] * n
    for u, v in matching:
        match[u - 1], match[v - 1] = v - 1, u - 1
    size = len(matching)
    alive = (1 << n) - 1
    for v in range(n):
        if match[v] < 0 and _augment(adj, alive, match, v):
            size += 1
            if size > t:
                return frozenset((u + 1, w + 1) for u, w in enumerate(match) if u < w)
    return None


def max_matching(g: PartyGraph) -> frozenset[tuple[int, int]]:
    """Maximum-cardinality matching; deterministic for a fixed graph."""
    return _matching_cached(g.n, g.rows)


def star(g: PartyGraph, n: int, t: int, *,
         _carried: tuple[PartyGraph, frozenset[tuple[int, int]]] | None = None):
    """Extract a star (C, D) from g, or NOSTAR when the pruning falls short.

    With h the complement of g and M its canonical maximum matching
    (computed here, or carried in as (h, M) by `GrowingStar` only, which
    alone may pass `_carried`): T holds the unmatched vertices adjacent in h
    to both ends of one edge of M, C the other unmatched ones, B the matched
    vertices adjacent in h to C, and D everyone outside B.
    """
    if g.n != n:
        raise ValueError("graph size mismatch")
    if _carried is None:
        h = g.complement()
        matching = max_matching(h)
    else:
        h, matching = _carried
    hr = h.rows
    matched = common = 0
    for u, v in matching:
        matched |= (1 << (u - 1)) | (1 << (v - 1))
        common |= hr[u - 1] & hr[v - 1]
    full = (1 << n) - 1
    c_mask = full & ~matched & ~common
    b_mask = 0
    m = c_mask
    while m:
        low = m & -m
        b_mask |= hr[low.bit_length() - 1]
        m ^= low
    d_mask = full & ~(b_mask & matched)
    if c_mask.bit_count() < n - 2 * t or d_mask.bit_count() < n - t:
        return NOSTAR
    c, d = _members(c_mask, n), _members(d_mask, n)
    _assert_star(g, c, d, n, t)
    return StarResult(C=c, D=d)


class GrowingStar:
    """A party graph that only gains edges, with its complement and a
    matching of the complement carried from one insertion to the next: the
    canonical matching, or one of more than t edges that rules every star
    out (see the size lemma above).

    The graph's and the complement's rows are lists edited in place, so an
    insertion sets two bits and clears two. `PartyGraph` views of them are
    built only when the size bound no longer rules a star out, and when
    ``graph`` or ``complement`` is read."""

    def __init__(self, n: int, t: int):
        self.n, self.t = n, t
        self._rows = [0] * n
        full = (1 << n) - 1
        self._co_rows = [full ^ (1 << i) for i in range(n)]
        self._matched = max_matching(self.complement)
        self._lex_matched = True  # _matched is the canonical matching of complement

    @property
    def graph(self) -> PartyGraph:
        return PartyGraph._trusted(self.n, tuple(self._rows))

    @property
    def complement(self) -> PartyGraph:
        return PartyGraph._trusted(self.n, tuple(self._co_rows))

    @property
    def matching(self) -> frozenset[tuple[int, int]]:
        """The canonical matching of the complement."""
        return self._matched if self._lex_matched else max_matching(self.complement)

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self._rows[u - 1] >> (v - 1) & 1)

    def add_edge(self, u: int, v: int):
        """Insert the edge (u, v) and return the star of the new graph, or
        NOSTAR; raises ValueError for a self-loop or an id outside 1..n."""
        if u == v or not (1 <= u <= self.n and 1 <= v <= self.n):
            raise ValueError(f"bad edge ({u},{v})")
        bu, bv = 1 << (u - 1), 1 << (v - 1)
        self._rows[u - 1] |= bv
        self._rows[v - 1] |= bu
        self._co_rows[u - 1] &= ~bv
        self._co_rows[v - 1] &= ~bu
        edge = (u, v) if u < v else (v, u)
        if edge in self._matched:
            self._matched = self._matched - {edge}
            self._lex_matched = False
        if len(self._matched) > self.t:
            return NOSTAR
        complement = self.complement
        if not self._lex_matched:
            grown = _outgrow(complement, self._matched, self.t)
            if grown is not None:
                self._matched = grown
                return NOSTAR
            self._matched = max_matching(complement)
            self._lex_matched = True
        return star(self.graph, self.n, self.t, _carried=(complement, self._matched))


def _mask(vertices) -> int:
    return sum(1 << (v - 1) for v in vertices)


def _members(mask: int, n: int) -> frozenset[int]:
    return frozenset(j + 1 for j in range(n) if mask >> j & 1)


def _assert_star(g: PartyGraph, c: frozenset[int], d: frozenset[int], n: int, t: int) -> None:
    if not c <= d:
        raise InvariantViolation("C must be contained in D")
    if not (len(c) >= n - 2 * t and len(d) >= n - t):
        raise InvariantViolation(f"star too small: |C|={len(c)} |D|={len(d)}")
    d_mask = _mask(d)
    for ci in sorted(c):
        missing = d_mask & ~g.rows[ci - 1] & ~(1 << (ci - 1))
        if missing:
            dj = (missing & -missing).bit_length()
            raise InvariantViolation(f"missing edge ({ci},{dj}) across C x D")


def derive_fe(g: PartyGraph, c: frozenset[int], n: int, t: int):
    """Core/extended sets: F has >= t+1 neighbors in C; E has >= 2t+1 in F.

    A vertex counts as its own neighbor in both tallies. (With strict
    neighbors a C of size exactly t+1 strands its own members at t neighbors
    and the all-honest-clique guarantee fails, e.g. a 5-clique in n=7, t=2.)
    Returns (F, E) or None when either set is smaller than 2t+1.
    """
    closed = [g.rows[i] | (1 << i) for i in range(n)]
    c_mask = _mask(c)
    f_mask = _mask(i + 1 for i, r in enumerate(closed) if (r & c_mask).bit_count() >= t + 1)
    if f_mask.bit_count() < 2 * t + 1:
        return None
    e_mask = _mask(i + 1 for i, r in enumerate(closed) if (r & f_mask).bit_count() >= 2 * t + 1)
    if e_mask.bit_count() < 2 * t + 1:
        return None
    return _members(f_mask, n), _members(e_mask, n)
