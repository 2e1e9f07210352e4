"""Aggregate signatures over a fixed party set, in the keyed-hash model.

Each party i holds a MAC key derived from the session seed; a signature on a
tag is the truncated HMAC under that key. An aggregate carries the signer
set and the per-signer MACs concatenated in ascending signer order, which
lets aggregates with overlapping signer sets merge consistently. The
verifier is session-trusted: it knows every key and recomputes each MAC.

Accounting uses the model sizes of the aggregate scheme: k bits for the
aggregate plus an n-bit signer list, independent of signer count.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass


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

    def _mac(self, i: int, tag: bytes) -> bytes:
        return hmac.new(self._keys[i], tag, hashlib.sha256).digest()[: self.k // 8]

    def sign(self, party: int, tag: bytes) -> MultiSig:
        if party not in self._keys:
            raise ValueError(f"party {party} not in session")
        return MultiSig(signers=frozenset([party]), aggregate=self._mac(party, tag))

    def verify(self, sig: MultiSig, tag: bytes) -> bool:
        if not isinstance(sig, MultiSig) or not isinstance(sig.signers, frozenset):
            return False
        if not isinstance(sig.aggregate, bytes):
            return False
        if not sig.signers or not sig.signers <= set(self._keys):
            return False
        parts = _split(sig, self.k)
        if parts is None:
            return False
        return all(hmac.compare_digest(parts[i], self._mac(i, tag)) for i in sig.signers)


def _split(sig: MultiSig, k: int) -> dict[int, bytes] | None:
    step = k // 8
    order = sorted(sig.signers)
    if len(sig.aggregate) != step * len(order):
        return None
    return {i: sig.aggregate[j * step : (j + 1) * step] for j, i in enumerate(order)}


def msig_combine(a: MultiSig, b: MultiSig) -> MultiSig:
    """Merge two aggregates over the same tag; signer sets may overlap."""
    ka = len(a.aggregate) // max(len(a.signers), 1) * 8
    parts_a = _split(a, ka)
    parts_b = _split(b, ka)
    if parts_a is None or parts_b is None:
        raise ValueError("malformed aggregate")
    merged = dict(parts_a)
    for i, mac in parts_b.items():
        if i in merged and merged[i] != mac:
            raise ValueError("conflicting signature shares for one signer")
        merged[i] = mac
    signers = frozenset(merged)
    return MultiSig(signers=signers, aggregate=b"".join(merged[i] for i in sorted(signers)))
