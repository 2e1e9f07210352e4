"""Arithmetic in GF(2^16).

Field elements are ints in [0, 2^16). Addition is XOR. Scalar
multiplication goes through log/antilog tables built once at import for the
fixed irreducible polynomial x^16 + x^12 + x^3 + x + 1 (0x1100B).

Vector multiplication by a scalar c, elementwise on numpy uint16 arrays, uses
split 8-bit product tables (Plank, Greenan and Miller, "Screaming Fast Galois
Field Arithmetic Using Intel SIMD Instructions", FAST 2013): since
multiplication distributes over XOR, c*v = LO[v & 0xFF] ^ HI[v >> 8] with
LO[x] = c*x and HI[x] = c*(x << 8), two 256-entry lookups per element. The
tables of the most recently used scalars are kept in a bounded cache.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

FIELD_BITS = 16
FIELD_SIZE = 1 << FIELD_BITS
ORDER = FIELD_SIZE - 1  # multiplicative group order
_PRIM_POLY = 0x1100B


def _build_tables() -> tuple[np.ndarray, np.ndarray]:
    exp = np.zeros(2 * ORDER, dtype=np.int64)
    log = np.zeros(FIELD_SIZE, dtype=np.int64)
    x = 1
    for i in range(ORDER):
        exp[i] = x
        log[x] = i
        x <<= 1
        if x & FIELD_SIZE:
            x ^= _PRIM_POLY
    if x != 1:
        raise AssertionError("generator 2 is not primitive for 0x1100B")
    exp[ORDER:] = exp[:ORDER]
    log[0] = -1  # sentinel, never a valid exponent
    return exp, log

_EXP, _LOG = _build_tables()


def gf_mul(a: int, b: int) -> int:
    if a == 0 or b == 0:
        return 0
    return int(_EXP[_LOG[a] + _LOG[b]])


def gf_inv(a: int) -> int:
    if a == 0:
        raise ZeroDivisionError("0 has no inverse in GF(2^16)")
    return int(_EXP[ORDER - _LOG[a]])


def gf_pow(a: int, e: int) -> int:
    if a == 0:
        return 0 if e else 1
    return int(_EXP[(_LOG[a] * e) % ORDER])


_BYTES = np.arange(1, 256)


# Bounded (about 1 KiB of tables per scalar, so about 5 MB at most) however
# many distinct coefficients the decoder's erasure patterns produce.
@lru_cache(maxsize=4096)
def _product_tables(scalar: int) -> tuple[np.ndarray, np.ndarray]:
    """(LO, HI) with LO[x] = scalar*x and HI[x] = scalar*(x << 8), read-only;
    scalar must be nonzero."""
    tables = np.zeros((2, 256), dtype=np.uint16)
    log_c = _LOG[scalar]
    tables[0, 1:] = _EXP[log_c + _LOG[_BYTES]]
    tables[1, 1:] = _EXP[log_c + _LOG[_BYTES << 8]]
    tables.setflags(write=False)
    return tables[0], tables[1]


def vmul_xor_into(acc: np.ndarray, scalar: int, v: np.ndarray) -> None:
    """acc ^= scalar * v, elementwise, in place."""
    if scalar == 0:
        return
    lo, hi = _product_tables(scalar)
    acc ^= lo.take(v & 0xFF)
    acc ^= hi.take(v >> 8)


def poly_eval(coeffs: list[int], x: int) -> int:
    """Evaluate a polynomial given low-to-high coefficients."""
    acc = 0
    for c in reversed(coeffs):
        acc = gf_mul(acc, x) ^ c
    return acc


def solve_linear(a: list[list[int]], b: list[int]) -> list[int] | None:
    """Solve A*x = b over GF(2^16) by Gaussian elimination.

    A is m x k (rows may exceed unknowns). Returns one solution with free
    variables set to zero, or None when the system is inconsistent.
    """
    m = len(a)
    k = len(a[0]) if m else 0
    rows = [list(row) + [rhs] for row, rhs in zip(a, b)]
    pivot_cols: list[int] = []
    r = 0
    for col in range(k):
        piv = next((i for i in range(r, m) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = gf_inv(rows[r][col])
        rows[r] = [gf_mul(inv, v) for v in rows[r]]
        for i in range(m):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [vi ^ gf_mul(f, vr) for vi, vr in zip(rows[i], rows[r])]
        pivot_cols.append(col)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if rows[i][k] != 0:
            return None
    x = [0] * k
    for i, col in enumerate(pivot_cols):
        x[col] = rows[i][k]
    return x


def invert_matrix(a: list[list[int]]) -> list[list[int]]:
    """Invert a square matrix over GF(2^16). Raises on singular input."""
    k = len(a)
    aug = [list(row) + [1 if i == j else 0 for j in range(k)] for i, row in enumerate(a)]
    for col in range(k):
        piv = next((i for i in range(col, k) if aug[i][col] != 0), None)
        if piv is None:
            raise ValueError("singular matrix")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = gf_inv(aug[col][col])
        aug[col] = [gf_mul(inv, v) for v in aug[col]]
        for i in range(k):
            if i != col and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [vi ^ gf_mul(f, vc) for vi, vc in zip(aug[i], aug[col])]
    return [row[k:] for row in aug]
