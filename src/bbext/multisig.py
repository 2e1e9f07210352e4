"""Aggregate signatures over a fixed party set, in the keyed-hash model.

Each party i holds a MAC key derived from the session seed; a signature on a
tag is the truncated HMAC-SHA256 under that key. An aggregate, a
``MultiSig`` named tuple, carries the signer set and the per-signer MACs
concatenated in ascending signer order, which lets aggregates with
overlapping signer sets merge consistently (`msig_combine`) and lets a
party splice its own MAC in at its rank (`MsigAuthority.cosign`).

The authority is session-trusted: it knows every key. It hashes a party's
inner and outer HMAC pads on that party's first MAC and keeps the two hash
states (RFC 2104, section 4), so each later MAC copies them and hashes only
the tag and the inner digest; a session that never signs hashes no pad.
``verify`` keeps its verdict on each (signers, aggregate, tag) among the
`VERDICT_ENTRIES` most recent, so an aggregate that every receiver of one
broadcast checks is checked once. A signer set outside the session or an
aggregate of the wrong length is refused before any MAC is computed.
``verify`` takes an aggregate of the shape ``wire`` admits: the engine
refuses a corrupt party's signature of any other shape, as a subclass could
report more signers than its MACs carry, or find a verdict kept for a signer
set or aggregate it only compares equal to.

Accounting uses the model sizes of the aggregate scheme: k bits for the
aggregate plus an n-bit signer list, independent of signer count.
"""

from __future__ import annotations

import hashlib
import hmac
from typing import NamedTuple

VERDICT_ENTRIES = 1024

_BLOCK = 64  # SHA-256's block size in bytes; every key is shorter
_IPAD = bytes(x ^ 0x36 for x in range(256))
_OPAD = bytes(x ^ 0x5C for x in range(256))
_tuple_new = tuple.__new__


class MultiSig(NamedTuple):
    """An aggregate: its signer set and their MACs in ascending signer
    order. A named tuple, the cheapest immutable record to build, as a
    chain relay builds one per accepted triple; ``wire`` admits only this
    exact type from a corrupt party, so no plain tuple stands in for it."""

    signers: frozenset[int]
    aggregate: bytes

    @staticmethod
    def nominal_bits(n: int, k: int) -> int:
        """Model size of any aggregate: k bits plus an n-bit signer list."""
        return k + n


class MsigAuthority:
    """Per-session key store: signs for any party and verifies aggregates."""

    def __init__(self, session_id: str, n: int, k: int, seed: int = 0):
        self.n = n
        self.k = k
        self._step = k // 8  # bytes of one MAC
        self._keys = {
            i: hashlib.sha256(f"msig/{session_id}/{seed}/{i}".encode()).digest()
            for i in range(1, n + 1)
        }
        self._parties = frozenset(self._keys)
        self._pads: dict[int, tuple] = {}
        self._verdicts: dict[tuple[frozenset[int], bytes, bytes], bool] = {}

    def _mac(self, i: int, tag: bytes) -> bytes:
        """Party i's MAC on tag: ``hmac.new(key, tag, sha256)`` truncated to
        k bits, from i's pad states, hashed on i's first MAC."""
        pads = self._pads.get(i)
        if pads is None:
            key = self._keys[i].ljust(_BLOCK, b"\0")
            pads = self._pads[i] = (hashlib.sha256(key.translate(_IPAD)),
                                    hashlib.sha256(key.translate(_OPAD)))
        inner = pads[0].copy()
        inner.update(tag)
        outer = pads[1].copy()
        outer.update(inner.digest())
        return outer.digest()[: self._step]

    def sign(self, party: int, tag: bytes) -> MultiSig:
        if party not in self._keys:
            raise ValueError(f"party {party} not in session")
        return MultiSig(frozenset((party,)), self._mac(party, tag))

    def cosign(self, sig: MultiSig, party: int, tag: bytes) -> MultiSig:
        """``msig_combine(sig, self.sign(party, tag))`` for a party of the
        session not yet among sig's signers: party's MAC spliced into the
        aggregate at party's rank."""
        signers, agg = sig
        if party in signers or party not in self._keys:
            raise ValueError(f"party {party} cannot cosign for signers {sorted(signers)}")
        step = self._step
        if len(agg) != step * len(signers):
            raise ValueError("malformed aggregate")
        at = step * sum(map(party.__gt__, signers))  # signers below party
        # two fields, as MultiSig(...) would build, without its Python-level __new__
        agg = agg[:at] + self._mac(party, tag) + agg[at:]
        return _tuple_new(MultiSig, (signers | {party}, agg))

    def verify(self, sig: MultiSig, tag: bytes) -> bool:
        key = (sig.signers, sig.aggregate, tag)
        verdict = self._verdicts.get(key)
        if verdict is None:
            verdict = self._verdicts[key] = self._check(sig.signers, sig.aggregate, tag)
            if len(self._verdicts) > VERDICT_ENTRIES:
                del self._verdicts[next(iter(self._verdicts))]
        return verdict

    def _check(self, signers: frozenset[int], agg: bytes, tag: bytes) -> bool:
        if not signers or not signers <= self._parties:
            return False
        step = self._step
        if len(agg) != step * len(signers):
            return False
        # the j-th smallest signer's MAC is the j-th slice
        return all(hmac.compare_digest(agg[j * step:(j + 1) * step], self._mac(i, tag))
                   for j, i in enumerate(sorted(signers)))


def msig_combine(a: MultiSig, b: MultiSig) -> MultiSig:
    """Merge two aggregates over the same tag; signer sets may overlap."""
    step = len(a.aggregate) // max(len(a.signers), 1)
    if (len(a.aggregate) != step * len(a.signers)
            or len(b.aggregate) != step * len(b.signers)):
        raise ValueError("malformed aggregate")
    # the running counts of a's and b's signers seen so far index their slices
    macs, ia, ib = [], 0, 0
    for s in sorted(a.signers | b.signers):
        in_a, in_b = s in a.signers, s in b.signers
        mac_b = b.aggregate[ib * step:(ib + 1) * step]
        mac = a.aggregate[ia * step:(ia + 1) * step] if in_a else mac_b
        if in_b and mac != mac_b:
            raise ValueError("conflicting signature shares for one signer")
        macs.append(mac)
        ia += in_a
        ib += in_b
    return MultiSig(signers=a.signers | b.signers, aggregate=b"".join(macs))
