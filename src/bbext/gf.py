"""Arithmetic in GF(2^16).

Field elements are ints in [0, 2^16). Addition is XOR. Scalar
multiplication goes through log/antilog tables built once at import, as
stdlib arrays, for the fixed irreducible polynomial x^16 + x^12 + x^3 + x + 1
(0x1100B). Gaussian elimination (``solve_linear``, ``invert_matrix``) takes
each pivot row's logarithms once and runs its row operations on them.
``solve_linear`` serves Berlekamp-Welch; ``invert_matrix`` serves only the
brute-force reference decoder in ``checks``, since the codec builds its
matrices in closed form.

Matrix products over numpy uint16 arrays use split 8-bit product tables
(Plank, Greenan and Miller, "Screaming Fast Galois Field Arithmetic Using
Intel SIMD Instructions", FAST 2013): since multiplication distributes over
XOR, c*v = LO[v & 0xFF] ^ HI[v >> 8] with LO[x] = c*x and HI[x] = c*(x << 8),
two 256-entry lookups per element. ``product_tables`` builds the tables of
every entry of an r x b matrix M at once, stacked by column; the kernel
``vmul_xor_into`` then computes acc ^= M . V for a (b, S) stack of vectors V
with two gathers per column, each reading the tables of all r rows, so one
matrix apply costs 2b gathers whatever r is.
"""

from __future__ import annotations

from array import array

import numpy as np

FIELD_BITS = 16
FIELD_SIZE = 1 << FIELD_BITS
ORDER = FIELD_SIZE - 1  # multiplicative group order
_PRIM_POLY = 0x1100B


def _build_tables() -> tuple[array, array]:
    """Antilog table of length 2 * ORDER (so a sum of two logs needs no
    reduction) and log table with log 0 = -1, never a valid exponent."""
    exp = array("H")
    log = array("i", [-1]) * FIELD_SIZE
    x = 1
    for i in range(ORDER):
        exp.append(x)
        log[x] = i
        x <<= 1
        if x & FIELD_SIZE:
            x ^= _PRIM_POLY
    if x != 1:
        raise AssertionError("generator 2 is not primitive for 0x1100B")
    exp.extend(exp)
    return exp, log

# Scalar code indexes these stdlib arrays, which return Python ints.
_EXP, _LOG = _build_tables()


def gf_mul(a: int, b: int) -> int:
    if a == 0 or b == 0:
        return 0
    return _EXP[_LOG[a] + _LOG[b]]


def gf_inv(a: int) -> int:
    if a == 0:
        raise ZeroDivisionError("0 has no inverse in GF(2^16)")
    return _EXP[ORDER - _LOG[a]]


def gf_pow(a: int, e: int) -> int:
    if a == 0:
        return 0 if e else 1
    return _EXP[(_LOG[a] * e) % ORDER]


# The 512 field elements a column's split tables multiply: x, then x << 8,
# for every byte x.
_SPLIT = np.concatenate([np.arange(256), np.arange(256) << 8])
# For building tables: log 0 is placed past every sum of two valid logs, and
# the antilog table reads 0 from there on, so a product with 0 needs no mask.
# Both are built from the scalar arrays' buffers.
_LOG_Z = np.frombuffer(_LOG, dtype=np.int32).copy()
_LOG_Z[0] = 2 * ORDER
_EXP_Z = np.zeros(4 * ORDER + 1, dtype=np.uint16)
_EXP_Z[:2 * ORDER] = np.frombuffer(_EXP, dtype=np.uint16)


def product_tables(matrix) -> np.ndarray:
    """Split product tables of an r x b matrix M, as a read-only uint16
    array of shape (b, r, 512): tables[j, i, x] = M[i][j] * x and
    tables[j, i, 256 + x] = M[i][j] * (x << 8) for every byte x."""
    m = np.asarray(matrix, dtype=np.int64).T[..., None]
    tables = _EXP_Z[_LOG_Z[m] + _LOG_Z[_SPLIT]]
    tables.setflags(write=False)
    return tables


def vmul_xor_into(acc: np.ndarray, tables: np.ndarray, vectors: np.ndarray) -> None:
    """acc ^= M . V over GF(2^16), in place.

    acc is (r, S), V = vectors is (b, S), and M (r x b) is given by its
    ``product_tables``, shape (b, r, 512). All three are uint16 arrays.
    """
    for name, arr in (("acc", acc), ("tables", tables), ("vectors", vectors)):
        if not isinstance(arr, np.ndarray) or arr.dtype != np.uint16:
            raise ValueError(f"{name} must be a uint16 numpy array")
    if tables.ndim != 3 or tables.shape[2] != 512:
        raise ValueError(f"tables must have shape (b, r, 512), got {tables.shape}")
    b, r = tables.shape[:2]
    if acc.ndim != 2 or acc.shape[0] != r or vectors.shape != (b, acc.shape[1]):
        raise ValueError(f"shapes do not chain: acc {acc.shape}, tables {tables.shape}, "
                         f"vectors {vectors.shape}")
    lo = vectors & 0xFF
    hi = (vectors >> 8) | 256
    for column, lo_j, hi_j in zip(tables, lo, hi):
        acc ^= column.take(lo_j, axis=1)
        acc ^= column.take(hi_j, axis=1)


def poly_eval(coeffs: list[int], x: int) -> int:
    """Evaluate a polynomial given low-to-high coefficients."""
    acc = 0
    for c in reversed(coeffs):
        acc = gf_mul(acc, x) ^ c
    return acc


def _eliminate(rows: list[list[int]], r: int, col: int) -> None:
    """Scale rows[r] so its entry at col is 1, then clear col from every
    other row. The pivot row's nonzero entries are turned into logarithms
    once, and each row operation adds them to the factor's logarithm."""
    pivot = rows[r]
    shift = ORDER - _LOG[pivot[col]]  # log of the pivot's inverse
    logs = [(j, (_LOG[v] + shift) % ORDER) for j, v in enumerate(pivot) if v]
    for j, lv in logs:
        pivot[j] = _EXP[lv]
    for i, row in enumerate(rows):
        f = row[col]
        if i != r and f:
            lf = _LOG[f]
            for j, lv in logs:
                row[j] ^= _EXP[lf + lv]


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
        _eliminate(rows, r, col)
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
        _eliminate(aug, col, col)
    return [row[k:] for row in aug]
