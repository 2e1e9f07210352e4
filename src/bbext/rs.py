"""Striped Reed-Solomon codec over GF(2^16) with error-and-erasure decoding.

A message of l bits is padded to a multiple of 16*b bits and cut into b
contiguous blocks; each block holds one 16-bit symbol per stripe, and every
stripe is an independent (n, b) RS codeword. The code is systematic:
codeword symbol j is p(x_j) for the degree-<b polynomial p interpolating the
data at the first b evaluation points, with x_j = j for j in 1..n.

Layout of the padded bit buffer: message bits, then zero padding, then the
original bit length as a 64-bit big-endian trailer occupying the final 64
bits. The fixed trailer position makes length recovery unambiguous.

Decoding with c errors and d erasures requires n - b >= 2c + d. On inputs
outside the unique-decoding radius the decoder returns None (decode
failure) rather than raising; callers that retry rely on this.

A wrong share is usually wrong in every stripe, since a Byzantine party
sends whole symbol-blocks. The decoder therefore locates errors once rather
than per stripe: Berlekamp-Welch on one stripe that the first candidate
does not fit names the positions where the received symbol differs from the
codeword it decodes to, those positions are erased, and the other such
stripes are recovered together with one matrix apply from b positions not
in error. Berlekamp-Welch runs stripe by stripe only where the errors move
from stripe to stripe.

Every matrix the codec applies interpolates between two sets of evaluation
points, and all are built by one closed form, ``_interpolation``: parity is
1..b -> b+1..n, recovery is base -> 1..b for b present positions, and the
re-encode check is 1..b -> the other present positions. Each apply is one
call of the ``gf.vmul_xor_into`` kernel over all stripes at once, and one
bounded cache, ``_tables``, holds the split tables by (sources, targets).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import gf

MAX_N = gf.FIELD_SIZE - 1
_TRAILER_BITS = 64


@dataclass
class DataBlocks:
    """b symbol-blocks of uniform stripe count plus the pre-padding bit length."""

    blocks: tuple[np.ndarray, ...]
    original_bit_length: int

    @property
    def b(self) -> int:
        return len(self.blocks)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DataBlocks):
            return NotImplemented
        return (
            self.original_bit_length == other.original_bit_length
            and len(self.blocks) == len(other.blocks)
            and all(np.array_equal(a, b) for a, b in zip(self.blocks, other.blocks))
        )


@dataclass
class Codeword:
    """n optional symbol-blocks; a None entry is an erasure."""

    symbols: list[np.ndarray | None]
    n: int
    b: int

    @property
    def stripes(self) -> int:
        for s in self.symbols:
            if s is not None:
                return len(s)
        return 0


def _check_nb(n: int, b: int) -> None:
    if not (1 <= b <= n <= MAX_N):
        raise ValueError(f"require 1 <= b <= n <= {MAX_N}, got n={n} b={b}")


def _interpolation(sources, targets) -> np.ndarray:
    """len(targets) x len(sources) matrix taking the values of a degree <
    len(sources) polynomial at the sources to its values at the targets.

    Entry [j][i] is the Lagrange basis polynomial of source i at target j:
    prod over m != i of (y_j + x_m) / (x_i + x_m), summed in logarithms. A
    target that is itself a source gets the identity row.
    """
    x = np.array(sources, dtype=np.int64)
    y = np.array(targets, dtype=np.int64)
    num = gf._LOG_Z[y[:, None] ^ x]  # log(y_j + x_m); log 0 where y_j is a source
    den = gf._LOG_Z[x[:, None] ^ x]  # log(x_i + x_m); log 0 on the diagonal
    np.fill_diagonal(den, 0)
    out = gf._EXP_Z[(num.sum(axis=1, keepdims=True) - num - den.sum(axis=1)) % gf.ORDER]
    hit = y[:, None] == x
    rows = hit.any(axis=1)
    out[rows] = hit[rows]
    return out


def _encode_matrix(n: int, b: int) -> tuple[tuple[int, ...], ...]:
    """n x b matrix taking data values to codeword symbols (top b rows = I)."""
    return tuple(map(tuple, _interpolation(range(1, b + 1), range(1, n + 1)).tolist()))


# Bounded: the keys follow the erasure pattern, which Byzantine parties
# choose, and tables take 1 KiB per matrix entry (1 MiB at n = 64).
@lru_cache(maxsize=128)
def _tables(sources: tuple[int, ...], targets: tuple[int, ...]) -> np.ndarray:
    """Split tables of the interpolation matrix from sources to targets."""
    return gf.product_tables(_interpolation(sources, targets))


def _apply_matrix(tables: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """M . V, as an (r, S) array, for the r x b matrix M with the given split
    tables and V the (b, S) stack of vectors."""
    out = np.zeros((tables.shape[1], vectors.shape[1]), dtype=np.uint16)
    gf.vmul_xor_into(out, tables, vectors)
    return out


def rs_encode(data: DataBlocks, n: int) -> Codeword:
    """Encode b data blocks into n codeword symbol-blocks (systematic)."""
    b = data.b
    _check_nb(n, b)
    blocks = np.stack(data.blocks).astype(np.uint16, copy=False)
    parity = _apply_matrix(_tables(tuple(range(1, b + 1)), tuple(range(b + 1, n + 1))), blocks)
    return Codeword(symbols=[*blocks, *parity], n=n, b=b)


def _poly_divmod(num: list[int], den: list[int]) -> tuple[list[int], list[int]]:
    # low-to-high coefficients
    num = list(num)
    dd = len(den) - 1
    while len(den) > 1 and den[-1] == 0:
        den = den[:-1]
        dd -= 1
    lead_inv = gf.gf_inv(den[-1])
    quot = [0] * max(len(num) - dd, 0)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c == 0:
            continue
        q = gf.gf_mul(c, lead_inv)
        quot[i - dd] = q
        for k, dc in enumerate(den):
            num[i - dd + k] ^= gf.gf_mul(q, dc)
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    return quot, num


def _bw_decode_stripe(received: dict[int, int], n: int, b: int,
                      c: int) -> tuple[list[int], set[int]] | None:
    """Berlekamp-Welch on one stripe: positions -> symbol, up to c errors.

    Returns the data and the positions whose received symbol differs from
    the decoded codeword's."""
    pts = sorted(received)
    rows = []
    rhs = []
    for p in pts:
        r = received[p]
        xp = [1]  # p^0 .. p^(b+c-1)
        for _ in range(b + c - 1):
            xp.append(gf.gf_mul(xp[-1], p))
        row = xp + [gf.gf_mul(r, xp[i]) for i in range(c)]
        rows.append(row)
        rhs.append(gf.gf_mul(r, xp[c]))
    sol = gf.solve_linear(rows, rhs)
    if sol is None:
        return None
    ncoef = sol[: b + c]
    ecoef = sol[b + c :] + [1]  # monic error locator of degree c
    quot, rem = _poly_divmod(ncoef, ecoef)
    if any(rem):
        return None
    if len(quot) > b and any(quot[b:]):
        return None
    quot = (quot + [0] * b)[:b]
    data = [gf.poly_eval(quot, x) for x in range(1, b + 1)]
    errors = {p for p in pts if gf.poly_eval(quot, p) != received[p]}
    if len(errors) > c:
        return None
    return data, errors


def _recover_stripes(cw: Codeword, present: list[int], base: tuple[int, ...],
                     sel: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """Data recovered from the base positions at the selected stripes (all
    when sel is None), as a (b, stripes) array, and per stripe the number of
    present positions whose received symbol differs from the re-encoded one."""
    n, b = cw.n, cw.b
    # the base positions re-encode to what was received, by construction
    others = tuple(p for p in present if p not in base)
    received = np.stack([cw.symbols[p - 1] for p in base + others])
    if sel is not None:
        received = received[:, sel]
    data_points = tuple(range(1, b + 1))
    data = _apply_matrix(_tables(base, data_points), received[:b])
    reencoded = _apply_matrix(_tables(data_points, others), data)
    return data, (reencoded != received[b:]).sum(axis=0)


def rs_decode(cw: Codeword, c: int, d: int) -> DataBlocks | None:
    """Decode tolerating up to c errors and d erasures; None on failure.

    Each stripe decodes to the unique codeword within c errors of what it
    received, or the whole decode fails. The candidate recovered from the
    first b present positions is kept for every stripe it fits within c
    mismatches. For the rest, Berlekamp-Welch decodes one bad stripe, whose
    error positions become suspects; the remaining bad stripes are recovered
    together from b unsuspected positions, and each that now fits within c
    mismatches is final. This repeats while it finds new suspects and b
    positions stay unsuspected, so a party that corrupts its whole share is
    located once, not once per stripe. Stripes still unresolved are decoded
    one by one with Berlekamp-Welch.
    """
    n, b = cw.n, cw.b
    _check_nb(n, b)
    if c < 0 or d < 0 or 2 * c + d > n - b:
        raise ValueError(f"decoding radius exceeded: 2*{c}+{d} > {n}-{b}")
    erased = [j for j in range(1, n + 1) if cw.symbols[j - 1] is None]
    if len(erased) > d:
        raise ValueError(f"{len(erased)} erasures exceed budget d={d}")
    present = [j for j in range(1, n + 1) if cw.symbols[j - 1] is not None]
    blocks, mismatch = _recover_stripes(cw, present, tuple(present[:b]), None)
    bad = np.nonzero(mismatch > c)[0]
    if bad.size and c == 0:
        return None

    def decode_stripe(s: int) -> set[int] | None:
        """Decode stripe s in place; its error positions, or None on failure."""
        fixed = _bw_decode_stripe({p: int(cw.symbols[p - 1][s]) for p in present}, n, b, c)
        if fixed is None:
            return None
        for i in range(b):
            blocks[i][s] = fixed[0][i]
        return fixed[1]

    suspects: set[int] = set()
    while bad.size:
        s, bad = int(bad[0]), bad[1:]
        errors = decode_stripe(s)
        if errors is None:
            return None
        new = errors - suspects
        clean = [p for p in present if p not in suspects and p not in new]
        if not bad.size or not new or len(clean) < b:
            break
        suspects |= new
        data, mismatch = _recover_stripes(cw, present, tuple(clean[:b]), bad)
        done = mismatch <= c
        for i in range(b):
            blocks[i][bad[done]] = data[i][done]
        bad = bad[~done]
    for s in map(int, bad):
        if decode_stripe(s) is None:
            return None
    bit_len = _parse_bit_length(blocks)
    if bit_len is None:
        return None
    return DataBlocks(blocks=tuple(blocks), original_bit_length=bit_len)


def padded_bits(bit_len: int, b: int) -> int:
    """Total buffer size for a bit_len-bit message split into b blocks."""
    unit = 16 * b
    total = bit_len + _TRAILER_BITS
    return ((total + unit - 1) // unit) * unit


def share_bits(bit_len: int, b: int) -> int:
    """Size in bits of one symbol-block for a bit_len-bit message."""
    return padded_bits(bit_len, b) // b


def data_from_bits(payload: bytes, bit_len: int, b: int) -> DataBlocks:
    """Pad and split a message into b symbol-blocks with a length trailer."""
    if b < 1:
        raise ValueError("b must be positive")
    if bit_len < 0 or bit_len > 8 * len(payload):
        raise ValueError("bit length inconsistent with payload")
    nbytes = (bit_len + 7) // 8
    total = padded_bits(bit_len, b)
    buf = bytearray(total // 8)
    buf[:nbytes] = payload[:nbytes]
    if bit_len % 8:
        buf[nbytes - 1] &= (0xFF << (8 - bit_len % 8)) & 0xFF
    buf[-8:] = bit_len.to_bytes(8, "big")
    arr = np.frombuffer(bytes(buf), dtype=">u2").astype(np.uint16)
    stripes = total // (16 * b)
    blocks = tuple(arr[i * stripes : (i + 1) * stripes].copy() for i in range(b))
    return DataBlocks(blocks=blocks, original_bit_length=bit_len)


def _parse_bit_length(blocks: list[np.ndarray] | tuple[np.ndarray, ...]) -> int | None:
    buf = _blocks_to_bytes(blocks)
    if len(buf) < 8:
        return None
    bit_len = int.from_bytes(buf[-8:], "big")
    if bit_len > 8 * len(buf) - _TRAILER_BITS:
        return None
    return bit_len


def _blocks_to_bytes(blocks) -> bytes:
    return b"".join(blk.astype(">u2").tobytes() for blk in blocks)


def bits_from_data(data: DataBlocks) -> tuple[bytes, int]:
    """Recover (payload bytes, bit length) from decoded blocks.

    Raises ValueError when the trailer or zero padding is inconsistent.
    """
    buf = _blocks_to_bytes(data.blocks)
    bit_len = int.from_bytes(buf[-8:], "big")
    if bit_len > 8 * len(buf) - _TRAILER_BITS:
        raise ValueError("length trailer out of range")
    nbytes = (bit_len + 7) // 8
    payload = bytearray(buf[:nbytes])
    if bit_len % 8:
        mask = (0xFF << (8 - bit_len % 8)) & 0xFF
        if payload[-1] & ~mask & 0xFF:
            raise ValueError("nonzero bits beyond message length")
    if any(buf[nbytes:-8]):
        raise ValueError("nonzero padding")
    return bytes(payload), bit_len


def pack_symbols(block: np.ndarray) -> bytes:
    """Serialize a symbol-block as fixed-width 16-bit big-endian elements."""
    return block.astype(">u2").tobytes()


def unpack_symbols(raw: bytes) -> np.ndarray:
    if len(raw) % 2:
        raise ValueError("symbol-block bytes must be 16-bit aligned")
    return np.frombuffer(raw, dtype=">u2").astype(np.uint16)
