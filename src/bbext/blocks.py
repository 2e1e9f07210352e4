"""Dissemination building blocks: encode, distribute, reconstruct.

A message is RS-encoded into n indexed symbol-blocks; the accumulator binds
the indexed set to a short commitment z. Distribution sends each party its
own share with a membership witness; reconstruction erases shares whose
witness fails and erasure-decodes the rest.

The canonical share encoding fed to the accumulator is normative for every
scheme and protocol: 16-bit big-endian index followed by the symbol-block
bytes.

Honest parties of one session encode the same message and decode the same
forwarded shares, so each session holds one `CodecMemo` (``session.codec``,
made by ``runner.run``). Its ``commit`` keys on (message bytes, b, bit
length) and returns the shares, as a tuple, with their accumulation value;
its ``reconstruct`` verifies every package's witness on every call, then
decodes each distinct verified share set, keyed by its sorted (index, share
bytes) items, once. Each of the two holds at most `MEMO_ENTRIES` entries,
dropping the least recently used; a call that raises stores nothing, and
nothing outlives the session. On a miss the memo calls the pure `encode`,
`eval_shares` and `reconstruct` below by their module names.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from . import rs
from .accumulator import AccKey, AccValue, Witness, acc_create_wit, acc_eval, acc_verify


@dataclass(frozen=True)
class IndexedShare:
    index: int
    share: bytes

    def canonical(self) -> bytes:
        return struct.pack(">H", self.index) + self.share


@dataclass(frozen=True)
class SharePackage:
    indexed_share: IndexedShare
    witness: Witness

    def nominal_bits(self) -> int:
        return 16 + 8 * len(self.indexed_share.share) + self.witness.nominal_bits


def encode(m: bytes, b: int, n: int, bit_len: int | None = None) -> list[IndexedShare]:
    """Split and RS-encode a message into n indexed shares."""
    if bit_len is None:
        bit_len = 8 * len(m)
    data = rs.data_from_bits(m, bit_len, b)
    cw = rs.rs_encode(data, n)
    return [IndexedShare(index=j, share=rs.pack_symbols(cw.symbols[j - 1])) for j in range(1, n + 1)]


def eval_shares(ak: AccKey, shares: list[IndexedShare]) -> AccValue:
    """Accumulate the canonical encodings of a full share set."""
    return acc_eval(ak, [s.canonical() for s in shares])


def make_packages(shares: list[IndexedShare], ak: AccKey, z: AccValue) -> dict[int, SharePackage]:
    """Witnessed packages for every index; z must commit to exactly these shares."""
    out = {}
    for s in shares:
        w = acc_create_wit(ak, z, s.canonical())
        if w is None:
            raise ValueError(f"share {s.index} is not in the accumulated set")
        out[s.index] = SharePackage(indexed_share=s, witness=w)
    return out


def distribute(ctx, shares: list[IndexedShare], ak: AccKey, z: AccValue, step: str) -> None:
    """Send package j to party j for every j; own package delivers locally."""
    packages = make_packages(shares, ak, z)
    for j in sorted(packages):
        pkg = packages[j]
        if j == ctx.pid:
            ctx.self_deliver("share_pkg", pkg, step=step)
        else:
            ctx.send(j, "share_pkg", pkg, bits=pkg.nominal_bits(), step=step)


def verify_package(ak: AccKey, z: AccValue, pkg: SharePackage, expect_index: int | None = None) -> bool:
    if not isinstance(pkg, SharePackage) or not isinstance(pkg.indexed_share, IndexedShare):
        return False
    share = pkg.indexed_share
    if not isinstance(share.index, int) or not isinstance(share.share, bytes):
        return False
    if not 0 <= share.index < 2**16:
        return False
    if expect_index is not None and share.index != expect_index:
        return False
    return acc_verify(ak, z, pkg.witness, share.canonical())


def _verified(packages: dict[int, SharePackage | None], ak: AccKey,
              z: AccValue) -> dict[int, SharePackage]:
    """The packages whose witness verifies under z for their own slot, by
    ascending index."""
    valid = {}
    for j in range(1, ak.capacity + 1):
        pkg = packages.get(j)
        if pkg is not None and verify_package(ak, z, pkg, expect_index=j):
            valid[j] = pkg
    return valid


def reconstruct(packages: dict[int, SharePackage | None], ak: AccKey, z: AccValue,
                d0: int, b: int) -> tuple[bytes, int] | None:
    """Recover the committed (message, bit length), or None on failure.

    Invalid and absent packages become erasures; decoding runs with zero
    error budget and up to d0 erasures.
    """
    n = ak.capacity
    valid = {j: pkg.indexed_share.share for j, pkg in _verified(packages, ak, z).items()}
    if len(valid) < n - d0 or not valid:
        return None
    lengths = {len(s) for s in valid.values()}
    if len(lengths) != 1:
        return None
    symbols: list = [None] * n
    for j, raw in valid.items():
        symbols[j - 1] = rs.unpack_symbols(raw)
    cw = rs.Codeword(symbols=symbols, n=n, b=b)
    try:
        data = rs.rs_decode(cw, 0, d0)
    except ValueError:
        return None
    if data is None:
        return None
    try:
        payload, bit_len = rs.bits_from_data(data)
    except ValueError:
        return None
    return payload, bit_len


MEMO_ENTRIES = 16


def _remember(table: dict, key, value) -> None:
    """Store value as the most recent entry, dropping the least recently
    used one beyond MEMO_ENTRIES."""
    table[key] = value
    if len(table) > MEMO_ENTRIES:
        del table[next(iter(table))]


class CodecMemo:
    """One session's encodings, commitments and decodings, each computed once
    (see the module docstring); bound to the session's accumulator key."""

    def __init__(self, ak: AccKey):
        self.ak = ak
        self.commits: dict[tuple, tuple[tuple[IndexedShare, ...], AccValue]] = {}
        self.decoded: dict[tuple, tuple[bytes, int] | None] = {}

    def commit(self, m: bytes, b: int, bit_len: int) -> tuple[tuple[IndexedShare, ...], AccValue]:
        """The n shares of the bit_len-bit message m and their accumulation value."""
        key = (m, b, bit_len)
        hit = self.commits.pop(key, None)
        if hit is None:
            shares = tuple(encode(m, b, self.ak.capacity, bit_len=bit_len))
            hit = (shares, eval_shares(self.ak, shares))
        _remember(self.commits, key, hit)
        return hit

    def reconstruct(self, packages: dict[int, SharePackage | None], z: AccValue,
                    d0: int, b: int) -> tuple[bytes, int] | None:
        """`reconstruct` over the packages that verify under z. A miss hands
        `reconstruct` only those packages, and it verifies them once more."""
        valid = _verified(packages, self.ak, z)
        key = (d0, b, tuple((j, pkg.indexed_share.share) for j, pkg in valid.items()))
        if key in self.decoded:
            out = self.decoded.pop(key)
        else:
            out = reconstruct(valid, self.ak, z, d0, b)
        _remember(self.decoded, key, out)
        return out
