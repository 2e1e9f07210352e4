"""Cryptographic set accumulators with membership witnesses.

Two interchangeable schemes:

- ``hash_tree``: a binary hash tree over the ordered value encodings. Real
  collision resistance from SHA-256 (truncated to k bits); witnesses are
  sibling paths of nominal size k*ceil(log2 n) bits.
- ``bilinear_emulated``: the characteristic-polynomial accumulator evaluated
  in a 2k-bit prime field at a trapdoor scalar s held by the trusted setup.
  Verification checks (H(d) + s) * w == z (mod p) through the setup oracle,
  so no pairing arithmetic is needed; adversaries in this harness are
  scripted, not algebraic. Nominal sizes match the constant-size scheme:
  k bits for the accumulation value and each witness.

Commitment bytes are what travels on the wire; accumulation values produced
locally also retain the accumulated set so witnesses can be created for it.
A hash-tree value produced by acc_eval also keeps the tree levels it
computed (leaf hashes up to the root), so each witness is a read of the
sibling path instead of a rebuild of the tree: one distribution hashes the
n shares once, not n times. An emulated bilinear value keeps the prefix and
suffix products of its (s + H(d_j)) factors instead, so each witness, the
product of all factors but one, is one multiplication: n witnesses cost
about 3n multiplications, not n^2. Like the value set, the levels and
products are local state: they take no part in equality or hashing, and a
value rebuilt from its commitment bytes alone, as a received one is, has
none of them.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, field

HASH_TREE = "hash_tree"
BILINEAR = "bilinear_emulated"

# Largest primes below 2^256 and 2^512; the emulated scheme works in a
# 2k-bit field so k-bit hashed values sit well inside it.
_PRIMES = {
    128: (1 << 256) - 189,
    256: (1 << 512) - 569,
}


def _hash_k(data: bytes, k: int) -> bytes:
    return hashlib.sha256(data).digest()[: k // 8]


@dataclass(frozen=True)
class AccKey:
    """Public accumulator parameters; the trapdoor never leaves the dealer.

    ``setup_secret`` models the trusted-setup oracle of the emulated scheme:
    party code must only touch it through acc_verify.
    """

    scheme: str
    capacity: int
    k: int
    setup_secret: int | None = field(default=None, repr=False)

    @property
    def prime(self) -> int:
        return _PRIMES[self.k]


@dataclass(frozen=True)
class AccValue:
    data: bytes
    source_values: tuple[bytes, ...] | None = field(default=None, repr=False, compare=False)
    levels: tuple[tuple[bytes, ...], ...] | None = field(default=None, repr=False, compare=False)
    products: tuple[tuple[int, ...], tuple[int, ...]] | None = field(
        default=None, repr=False, compare=False)


@dataclass(frozen=True)
class Witness:
    data: bytes


def witness_nominal_bits(scheme: str, n: int, k: int) -> int:
    if scheme == HASH_TREE:
        return k * math.ceil(math.log2(n)) if n > 1 else 0
    return k


def acc_gen(scheme: str, n: int, k: int, rng_seed: int = 0) -> AccKey:
    """Create a key for exactly-n-element sets; deterministic in the seed."""
    if scheme not in (HASH_TREE, BILINEAR):
        raise ValueError(f"unknown accumulator scheme {scheme!r}")
    if n < 1:
        raise ValueError("capacity must be at least 1")
    if k not in _PRIMES:
        raise ValueError(f"k must be one of {sorted(_PRIMES)}")
    secret = None
    if scheme == BILINEAR:
        rng = random.Random(("acc-setup", rng_seed, n, k).__repr__())
        secret = rng.randrange(1, _PRIMES[k])
    return AccKey(scheme=scheme, capacity=n, k=k, setup_secret=secret)


def _tree_levels(values: tuple[bytes, ...], k: int) -> tuple[tuple[bytes, ...], ...]:
    """Every level of the hash tree over the values, leaf hashes first."""
    leaves = [_hash_k(v, k) for v in values]
    width = 1 if len(leaves) <= 1 else 1 << math.ceil(math.log2(len(leaves)))
    level = tuple(leaves + [bytes(k // 8)] * (width - len(leaves)))
    levels = [level]
    while len(level) > 1:
        level = tuple(_hash_k(level[i] + level[i + 1], k) for i in range(0, len(level), 2))
        levels.append(level)
    return tuple(levels)


def _factor_products(ak: AccKey, values: tuple[bytes, ...]
                     ) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(prefix, suffix) with prefix[i] the product of the first i factors
    (s + H(d_j)) mod p and suffix[i] that of the factors from i on."""
    p = ak.prime
    factors = [(ak.setup_secret + _int_digest(v, ak.k)) % p for v in values]
    prefix, suffix = [1], [1]
    for f in factors:
        prefix.append(prefix[-1] * f % p)
    for f in reversed(factors):
        suffix.append(suffix[-1] * f % p)
    return tuple(prefix), tuple(reversed(suffix))


def acc_eval(ak: AccKey, values: list[bytes] | tuple[bytes, ...]) -> AccValue:
    """Accumulate exactly-capacity distinct values into a short commitment."""
    values = tuple(values)
    if len(values) != ak.capacity:
        raise ValueError(f"expected {ak.capacity} values, got {len(values)}")
    if len(set(values)) != len(values):
        raise ValueError("duplicate values rejected")
    if ak.scheme == HASH_TREE:
        levels = _tree_levels(values, ak.k)
        return AccValue(data=levels[-1][0], source_values=values, levels=levels)
    products = _factor_products(ak, values)
    z = products[0][-1]  # the product of every factor
    return AccValue(data=z.to_bytes(2 * ak.k // 8, "big"), source_values=values,
                    products=products)


def _int_digest(v: bytes, k: int) -> int:
    return int.from_bytes(_hash_k(v, k), "big")


def acc_create_wit(ak: AccKey, z: AccValue, d: bytes) -> Witness | None:
    """Witness for d under z, or None when d was not accumulated.

    Requires z to have been produced locally by acc_eval (the accumulated
    set is needed to build the witness). A hash-tree witness reads the
    sibling path from the levels acc_eval kept on z, and a bilinear one
    multiplies the prefix and suffix products around d kept on z; each is
    rebuilt only when z carries none.
    """
    if z.source_values is None:
        raise ValueError("witness creation needs the locally evaluated accumulation value")
    values = z.source_values
    if d not in values:
        return None
    idx = values.index(d)
    if ak.scheme == HASH_TREE:
        levels = z.levels if z.levels is not None else _tree_levels(values, ak.k)
        path = []
        pos = idx
        for level in levels[:-1]:
            path.append(level[pos ^ 1])
            pos >>= 1
        raw = idx.to_bytes(2, "big") + b"".join(path)
        return Witness(data=raw)
    prefix, suffix = z.products if z.products is not None else _factor_products(ak, values)
    w = prefix[idx] * suffix[idx + 1] % ak.prime
    return Witness(data=w.to_bytes(2 * ak.k // 8, "big"))


def acc_verify(ak: AccKey, z: AccValue, w: Witness | None, d: bytes) -> bool:
    """True iff w proves membership of d under z; False on malformed input."""
    if not isinstance(w, Witness) or not isinstance(z, AccValue):
        return False
    if not isinstance(w.data, bytes) or not isinstance(z.data, bytes) or not isinstance(d, bytes):
        return False
    if ak.scheme == HASH_TREE:
        depth = math.ceil(math.log2(ak.capacity)) if ak.capacity > 1 else 0
        step = ak.k // 8
        if len(w.data) != 2 + depth * step or len(z.data) != step:
            return False
        pos = int.from_bytes(w.data[:2], "big")
        if pos >= ak.capacity:
            return False
        node = _hash_k(d, ak.k)
        for lvl in range(depth):
            sib = w.data[2 + lvl * step : 2 + (lvl + 1) * step]
            node = _hash_k(sib + node, ak.k) if pos & 1 else _hash_k(node + sib, ak.k)
            pos >>= 1
        return node == z.data
    size = 2 * ak.k // 8
    if len(w.data) != size or len(z.data) != size:
        return False
    p = ak.prime
    wi = int.from_bytes(w.data, "big")
    zi = int.from_bytes(z.data, "big")
    if wi >= p or zi >= p:
        return False
    return (_int_digest(d, ak.k) + ak.setup_secret) % p * wi % p == zi
