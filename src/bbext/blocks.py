"""Dissemination building blocks: encode, distribute, reconstruct.

A message is RS-encoded into n indexed symbol-blocks; the accumulator binds
the indexed set to a short commitment z. Distribution sends each party its
own share with a membership witness; reconstruction erases shares whose
witness fails and erasure-decodes the rest.

The canonical share encoding fed to the accumulator is normative for every
scheme and protocol: 16-bit big-endian index followed by the symbol-block
bytes.

Honest parties of one session encode the same message, distribute the same
packages and check the same forwarded shares, so each session holds one
`CodecMemo` (``session.codec``, made by ``runner.run``) that does each of
these once:

- ``encode`` and ``commit`` key on (message bytes, b, bit length): the first
  returns the shares, as a tuple, the second adds their accumulation value,
  and ``packages`` builds a commitment's n witnessed packages on first use
  and keeps them with it;
- ``verify`` takes, as `verify_package` does, a package of the shape
  ``wire`` admits (the engine refuses a corrupt party's package of any
  other); it remembers the one package it accepted for each (commitment
  bytes, index) and answers a package with the same share and witness
  bytes without hashing again; any other package gets the full
  `verify_package`;
- ``reconstruct`` (the packages ``verify`` accepts) and ``decode_symbols``
  (the error-free protocols' tables of majority votes) share one decode
  table, keyed by (b, error budget, erasure budget, the table of n share
  bytes or None the decoder sees), so each distinct table is decoded once;
  a malformed table (an entry of odd length, budgets past the decoder's
  radius) decodes to None in both, never to an exception;
- a vote table it has not decoded before that equals, at every present
  position, the shares of a message the memo holds (same b and share
  length), and lies inside the decoder's radius (2 * error budget +
  erasures <= n - b), is answered with that message as ``bits_from_data``
  reads it, without decoding: a decoder inside its radius returns the one
  codeword that agrees with every present symbol. The agreement is exact;
  a table within the error budget of a held codeword still goes to the
  decoder.

The message table, the table of accepted packages and the decode table
each hold at most `MEMO_ENTRIES` entries (messages, commitments of at most
n packages each, or decodes), dropping the least recently used; a call
that raises stores nothing, and nothing outlives the session. On a miss
the memo calls the pure `encode`, `eval_shares`, `make_packages` and
`reconstruct` below by their module names.
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


def distribute(ctx, shares: tuple[IndexedShare, ...], z: AccValue) -> None:
    """Send package j to party j for every j, taken from the session's memo;
    own package delivers locally."""
    packages = ctx.session.codec.packages(shares, z)
    for j in sorted(packages):
        pkg = packages[j]
        if j == ctx.pid:
            ctx.self_deliver("share_pkg", pkg)
        else:
            ctx.send(j, "share_pkg", pkg)


def _checked_share(pkg: SharePackage, expect_index: int | None) -> IndexedShare | None:
    """pkg's share if it encodes canonically and, when an index is expected,
    carries that index; None otherwise."""
    share = pkg.indexed_share
    if not 0 <= share.index < 2**16:
        return None
    if expect_index is not None and share.index != expect_index:
        return None
    return share


def verify_package(ak: AccKey, z: AccValue, pkg: SharePackage, expect_index: int | None = None) -> bool:
    share = _checked_share(pkg, expect_index)
    return share is not None and acc_verify(ak, z, pkg.witness, share.canonical())


def reconstruct(packages: dict[int, SharePackage | None], ak: AccKey, z: AccValue,
                d0: int, b: int) -> tuple[bytes, int] | None:
    """Recover the committed (message, bit length), or None on failure.

    Invalid and absent packages become erasures; decoding runs with zero
    error budget and up to d0 erasures.
    """
    n = ak.capacity
    valid = {j: pkg.indexed_share.share for j in range(1, n + 1)
             if (pkg := packages.get(j)) is not None and verify_package(ak, z, pkg, expect_index=j)}
    if len(valid) < n - d0 or not valid or len({len(s) for s in valid.values()}) != 1:
        return None
    return _decode(tuple(valid.get(j) for j in range(1, n + 1)), b, 0, d0)


def decode_symbols(table: tuple[bytes | None, ...], b: int, max_errors: int) -> bytes | None:
    """Decode a table of n symbol-blocks, entry j - 1 being position j's
    share bytes or None for an erasure, tolerating up to max_errors wrong
    entries; the message, or None on failure."""
    out = _decode(table, b, max_errors, table.count(None))
    return None if out is None else out[0]


def _decode(table: tuple[bytes | None, ...], b: int, max_errors: int,
            max_erasures: int) -> tuple[bytes, int] | None:
    """(message, bit length) of a table of n symbol-blocks (None for an
    erasure) decoded within the given budgets; None when the table is
    malformed (an entry of odd length), outside the decoder's radius, or
    decodes to no message."""
    try:
        symbols = [None if raw is None else rs.unpack_symbols(raw) for raw in table]
        data = rs.rs_decode(rs.Codeword(symbols=symbols, n=len(table), b=b),
                            max_errors, max_erasures)
        return None if data is None else rs.bits_from_data(data)
    except ValueError:
        return None


MEMO_ENTRIES = 16


def _remember(table: dict, key, value) -> None:
    """Store value as the most recent entry, dropping the least recently
    used one beyond MEMO_ENTRIES."""
    table[key] = value
    if len(table) > MEMO_ENTRIES:
        del table[next(iter(table))]


@dataclass(eq=False)
class _Message:
    """One message's shares and, once asked for, their accumulation value and
    witnessed packages."""

    shares: tuple[IndexedShare, ...]
    z: AccValue | None = None
    packages: dict[int, SharePackage] | None = None
    decoded: tuple[bytes, int] | None = None  # (message, bit length) as a decode reads it


class CodecMemo:
    """One session's encodings, commitments, packages, verifications and
    decodings, each computed once (see the module docstring); bound to the
    session's accumulator key."""

    def __init__(self, ak: AccKey):
        self.ak = ak
        self.commits: dict[tuple, _Message] = {}
        # commitment bytes -> index -> fields of the package accepted
        self.accepted: dict[bytes, dict[int, tuple[int, bytes, bytes]]] = {}
        # (b, error budget, erasure budget, table) -> (message, bit length) or None
        self.decoded: dict[tuple, tuple[bytes, int] | None] = {}

    def _message(self, m: bytes, b: int, bit_len: int) -> _Message:
        key = (m, b, bit_len)
        entry = self.commits.pop(key, None)
        if entry is None:
            entry = _Message(tuple(encode(m, b, self.ak.capacity, bit_len=bit_len)))
        _remember(self.commits, key, entry)
        return entry

    def encode(self, m: bytes, b: int, bit_len: int) -> tuple[IndexedShare, ...]:
        """The n shares of the bit_len-bit message m."""
        return self._message(m, b, bit_len).shares

    def commit(self, m: bytes, b: int, bit_len: int) -> tuple[tuple[IndexedShare, ...], AccValue]:
        """The n shares of the bit_len-bit message m and their accumulation value."""
        entry = self._message(m, b, bit_len)
        if entry.z is None:
            entry.z = eval_shares(self.ak, entry.shares)
        return entry.shares, entry.z

    def packages(self, shares: tuple[IndexedShare, ...], z: AccValue) -> dict[int, SharePackage]:
        """The witnessed packages of a (shares, z) pair that `commit` returned,
        built on first use and kept with the message; built afresh if the
        message has left the table. Callers only read the dict."""
        for entry in self.commits.values():
            if entry.z is z:
                if entry.packages is None:
                    entry.packages = make_packages(entry.shares, self.ak, z)
                return entry.packages
        return make_packages(shares, self.ak, z)

    def verify(self, z: AccValue, pkg, index: int) -> bool:
        """`verify_package(ak, z, pkg, expect_index=index)`. A package whose
        share and witness bytes equal those of the package already accepted
        for (z, index) is accepted without hashing; any other runs the full
        check, and only an accepted one is remembered."""
        share = _checked_share(pkg, index)
        if share is None:
            return False
        fields = (share.index, share.share, pkg.witness.data)
        accepted = self.accepted.pop(z.data, {})
        ok = accepted.get(index) == fields
        if not ok:
            ok = acc_verify(self.ak, z, pkg.witness, share.canonical())
            if ok and index not in accepted:
                accepted[index] = fields
        if accepted:
            _remember(self.accepted, z.data, accepted)
        return ok

    def reconstruct(self, packages: dict[int, SharePackage | None], z: AccValue,
                    d0: int, b: int) -> tuple[bytes, int] | None:
        """`reconstruct` over the packages that `verify` accepts for their own
        slot. A miss hands `reconstruct` only those packages, and it verifies
        them once more: once per distinct share set."""
        n = self.ak.capacity
        valid = {j: pkg for j in range(1, n + 1)
                 if (pkg := packages.get(j)) is not None and self.verify(z, pkg, j)}
        key = (b, 0, d0, tuple(valid[j].indexed_share.share if j in valid else None
                               for j in range(1, n + 1)))
        if key in self.decoded:
            out = self.decoded.pop(key)
        else:
            out = reconstruct(valid, self.ak, z, d0, b)
        _remember(self.decoded, key, out)
        return out

    def decode_symbols(self, table: tuple[bytes | None, ...], b: int, share_len: int,
                       max_errors: int) -> bytes | None:
        """`decode_symbols` of a table whose entries are share_len bytes or
        None, once per distinct (b, max_errors, table). A table equal at
        every present position to the shares of a held message with the
        same b and share length, with 2 * max_errors + erasures <= n - b, is
        that message without decoding."""
        erasures = table.count(None)
        key = (b, max_errors, erasures, table)
        if key in self.decoded:
            out = self.decoded.pop(key)
        else:
            out = self._held(table, b, share_len, max_errors)
            if out is None:
                out = _decode(table, b, max_errors, erasures)
        _remember(self.decoded, key, out)
        return None if out is None else out[0]

    def _held(self, table: tuple[bytes | None, ...], b: int, share_len: int,
              max_errors: int) -> tuple[bytes, int] | None:
        """(message, bit length) of a held message whose shares agree with
        every present entry of table, when the decoder's precondition holds;
        None otherwise."""
        n = len(table)
        if max_errors < 0 or 2 * max_errors + table.count(None) > n - b:
            return None
        for (m, mb, bit_len), entry in self.commits.items():
            shares = entry.shares
            if mb != b or len(shares) != n or len(shares[0].share) != share_len:
                continue
            if all(raw is None or raw == s.share for raw, s in zip(table, shares)):
                if entry.decoded is None:
                    entry.decoded = rs.bits_from_data(rs.data_from_bits(m, bit_len, b))
                return entry.decoded
        return None
