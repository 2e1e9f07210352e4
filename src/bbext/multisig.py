"""Aggregate signatures over a fixed party set, in the keyed-hash model.

Each party i holds a MAC key derived from the session seed; a signature on a
tag is the truncated HMAC under that key. An aggregate carries the signer
set and the per-signer MACs concatenated in ascending signer order, which
lets aggregates with overlapping signer sets merge consistently. The
verifier is session-trusted: it knows every key and recomputes each MAC,
once per (signer, tag) while that pair stays among the authority's
`MAC_ENTRIES` most recently used. It takes an aggregate of the shape
``wire`` admits: the engine refuses a corrupt party's signature of any
other shape, as a subclass could report more signers than its MACs carry.

Accounting uses the model sizes of the aggregate scheme: k bits for the
aggregate plus an n-bit signer list, independent of signer count.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass

MAC_ENTRIES = 1024


@dataclass(frozen=True)
class MultiSig:
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
        self._keys = {
            i: hashlib.sha256(f"msig/{session_id}/{seed}/{i}".encode()).digest()
            for i in range(1, n + 1)
        }
        self._parties = frozenset(self._keys)
        self._macs: dict[tuple[int, bytes], bytes] = {}

    def _mac(self, i: int, tag: bytes) -> bytes:
        """Party i's MAC on tag, computed once while the pair stays among the
        MAC_ENTRIES most recently used; the least recently used drops first."""
        key = (i, tag)
        mac = self._macs.pop(key, None)
        if mac is None:
            mac = hmac.new(self._keys[i], tag, hashlib.sha256).digest()[: self.k // 8]
        self._macs[key] = mac
        if len(self._macs) > MAC_ENTRIES:
            del self._macs[next(iter(self._macs))]
        return mac

    def sign(self, party: int, tag: bytes) -> MultiSig:
        if party not in self._keys:
            raise ValueError(f"party {party} not in session")
        return MultiSig(signers=frozenset([party]), aggregate=self._mac(party, tag))

    def verify(self, sig: MultiSig, tag: bytes) -> bool:
        if not sig.signers or not sig.signers <= self._parties:
            return False
        step = self.k // 8
        agg = sig.aggregate
        if len(agg) != step * len(sig.signers):
            return False
        # the j-th smallest signer's MAC is the j-th slice
        return all(hmac.compare_digest(agg[j * step:(j + 1) * step], self._mac(i, tag))
                   for j, i in enumerate(sorted(sig.signers)))


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
