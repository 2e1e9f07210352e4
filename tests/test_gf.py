import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from bbext import gf

elems = st.integers(min_value=0, max_value=gf.FIELD_SIZE - 1)
nonzero = st.integers(min_value=1, max_value=gf.FIELD_SIZE - 1)


def slow_mul(a: int, b: int) -> int:
    # carry-less multiply mod x^16+x^12+x^3+x+1, independent of the tables
    r = 0
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        if a & 0x10000:
            a ^= 0x1100B
        b >>= 1
    return r


def gf_pow(a: int, e: int) -> int:
    """a^e through the field's log tables."""
    if a == 0:
        return 0 if e else 1
    return gf._EXP[(gf._LOG[a] * e) % gf.ORDER]


@given(elems, elems)
def test_mul_matches_slow_reference(a, b):
    assert gf.gf_mul(a, b) == slow_mul(a, b)


@given(elems, elems, elems)
def test_mul_associative_distributive(a, b, c):
    assert gf.gf_mul(gf.gf_mul(a, b), c) == gf.gf_mul(a, gf.gf_mul(b, c))
    assert gf.gf_mul(a, b ^ c) == gf.gf_mul(a, b) ^ gf.gf_mul(a, c)


@given(nonzero)
def test_every_nonzero_element_has_inverse(a):
    assert gf.gf_mul(a, gf.gf_inv(a)) == 1


def test_inverse_of_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        gf.gf_inv(0)


@given(elems, st.integers(min_value=0, max_value=10))
def test_pow_is_repeated_mul(a, e):
    acc = 1
    for _ in range(e):
        acc = gf.gf_mul(acc, a)
    assert gf_pow(a, e) == acc


@given(st.lists(elems, min_size=1, max_size=6), elems)
def test_poly_eval_horner(coeffs, x):
    expected = 0
    for i, c in enumerate(coeffs):
        expected ^= gf.gf_mul(c, gf_pow(x, i))
    assert gf.poly_eval(coeffs, x) == expected


def matmul_reference(matrix: list[list[int]], vectors: list[list[int]]) -> list[list[int]]:
    """M . V over GF(2^16) with scalar gf_mul, one entry at a time."""
    width = len(vectors[0]) if vectors else 0
    out = []
    for row in matrix:
        entries = []
        for s in range(width):
            acc = 0
            for coeff, vec in zip(row, vectors):
                acc ^= gf.gf_mul(coeff, vec[s])
            entries.append(acc)
        out.append(entries)
    return out


def test_vmul_matches_scalar():
    # a 4 x 1 matrix of scalars times one vector
    scalars = [0, 1, 3, 65535]
    v = [0, 1, 2, 777, 65535]
    out = np.zeros((4, 5), dtype=np.uint16)
    gf.vmul_xor_into(out, gf.product_tables([[s] for s in scalars]),
                     np.array([v], dtype=np.uint16))
    assert out.tolist() == [[gf.gf_mul(s, e) for e in v] for s in scalars]


# zeros drawn often: zero has no logarithm, so the tables special-case it
vector_elems = st.one_of(st.just(0), st.sampled_from([1, 65535]), elems)


def field_rows(draw, rows: int, cols: int) -> list[list[int]]:
    """A rows x cols list of field elements from one draw of bytes, a third
    of them 0, 1 or 65535 like ``vector_elems`` (one draw per element is
    slow at 33 x 34)."""
    raw = np.frombuffer(draw(st.binary(min_size=2 * rows * cols, max_size=2 * rows * cols)),
                        dtype=np.uint16).astype(np.int64)
    values = np.where(raw % 9 < 3, np.array([0, 1, 65535])[raw % 9 % 3], raw)
    return values.reshape(rows, cols).tolist()


@st.composite
def matrix_applies(draw):
    # up to 33 rows: nine uint64 lanes
    r, b, width = draw(st.integers(0, 33)), draw(st.integers(1, 34)), draw(st.integers(0, 6))
    matrix, vectors = field_rows(draw, r, b), field_rows(draw, b, width)
    return matrix, vectors, b, width, draw(st.integers(1, 3)), draw(st.integers(0, 2**32))


def apply_case(r: int, b: int, width: int, step: int = 1):
    """A fixed matrix_applies case: an r x b matrix whose first entry is 0
    and whose others run through the field, times b vectors of the given
    width."""
    matrix = [[(i * b + j) * 0x9E37 % gf.FIELD_SIZE for j in range(b)] for i in range(r)]
    vectors = [[(j * width + s) * 0x51ED % gf.FIELD_SIZE for s in range(width)]
               for j in range(b)]
    return matrix, vectors, b, width, step, r


@given(matrix_applies())
@example(([], [[]], 1, 0, 1, 0))  # r = 0, S = 0
@example(([[0, 0]], [[5], [6]], 2, 1, 2, 0))  # zero coefficients, S = 1
@example(([[65535]], [[0x1234, 0, 1]], 1, 3, 3, 0))  # b = 1
# one, two, four and eight full lanes, and one row past each
@example(apply_case(4, 3, 0))
@example(apply_case(5, 2, 1, 2))
@example(apply_case(8, 34, 1))
@example(apply_case(9, 3, 0, 3))
@example(apply_case(16, 1, 1))
@example(apply_case(17, 5, 0, 2))
@example(apply_case(32, 7, 1, 3))
@example(apply_case(33, 34, 1))
def test_vmul_xor_into_matches_scalar_mul(case):
    matrix, vectors, b, width, step, seed = case
    r = len(matrix)
    rng = np.random.default_rng(seed)
    # acc and V are strided views into larger buffers (non-contiguous for
    # step > 1), so an in-place update must land in acc's view alone
    v_buf = rng.integers(0, gf.FIELD_SIZE, (b * step, width * step), dtype=np.uint16)
    v = v_buf[::step, ::step]
    v[:] = np.array(vectors, dtype=np.uint16).reshape(b, width)
    v_before = v_buf.copy()
    acc_buf = rng.integers(0, gf.FIELD_SIZE, (r * step, width * step), dtype=np.uint16)
    acc = acc_buf[::step, ::step]
    acc_before = acc_buf.copy()
    tables = gf.product_tables(np.array(matrix, dtype=np.int64).reshape(r, b))
    lanes_before = tables.lanes.copy()
    assert gf.vmul_xor_into(acc, tables, v) is None
    assert np.array_equal(v_buf, v_before)
    assert np.array_equal(tables.lanes, lanes_before)
    expected = acc_before.copy()
    if r:
        expected[::step, ::step] ^= np.array(matmul_reference(matrix, vectors),
                                             dtype=np.uint16).reshape(r, width)
    assert np.array_equal(acc_buf, expected)


@pytest.mark.parametrize("r,lanes", [(0, 0), (1, 1), (4, 1), (5, 2), (8, 2), (9, 4), (12, 4),
                                     (13, 4), (16, 4), (17, 5), (32, 8), (33, 9)])
def test_product_tables_pack_four_rows_per_lane_and_pad_three_lanes_to_four(r, lanes):
    matrix = np.arange(1, 2 * r + 1, dtype=np.int64).reshape(r, 2)
    tables = gf.product_tables(matrix)
    assert tables.rows == r
    assert tables.lanes.shape == (2, 512, lanes) and tables.lanes.dtype == np.uint64
    assert not tables.lanes.flags.writeable
    slots = tables.lanes.view(np.uint16)
    assert not slots[:, :, r:].any()
    x = np.arange(256)
    for i in range(r):
        for j in range(2):
            assert slots[j, :256, i].tolist() == [gf.gf_mul(int(matrix[i, j]), v) for v in x]
            assert slots[j, 256:, i].tolist() == [gf.gf_mul(int(matrix[i, j]), v << 8)
                                                  for v in x]


def test_vmul_xor_into_rejects_mismatched_inputs():
    tables = gf.product_tables([[1, 2], [3, 4], [5, 6]])  # r = 3, b = 2: one lane
    acc = np.zeros((3, 4), dtype=np.uint16)
    good = np.zeros((2, 4), dtype=np.uint16)
    bad_calls = [
        (np.zeros((2, 4), dtype=np.uint16), tables, good),  # acc rows != r
        (np.zeros((4, 4), dtype=np.uint16), tables, good),  # ... in the same lane count
        (acc, tables, np.zeros((3, 4), dtype=np.uint16)),  # vectors rows != b
        (acc, tables, np.zeros((2, 5), dtype=np.uint16)),  # widths differ
        (acc, tables, good.astype(np.int64)),
        (acc.astype(np.int64), tables, good),
        (acc, gf.ProductTables(3, tables.lanes[:, :256]), good),  # half the entries
        (acc, gf.ProductTables(5, tables.lanes), good),  # 5 rows need 2 lanes
        (acc, gf.ProductTables(3, tables.lanes.view(np.uint16)), good),
        (acc, tables.lanes, good),  # lanes without their row count
        (acc, tables, [[0] * 4] * 2),
    ]
    for args in bad_calls:
        with pytest.raises(ValueError):
            gf.vmul_xor_into(*args)
    assert not acc.any()


def test_solve_linear_and_invert():
    a = [[1, 2], [3, 4]]
    inv = gf.invert_matrix(a)
    for i in range(2):
        for j in range(2):
            acc = 0
            for m in range(2):
                acc ^= gf.gf_mul(a[i][m], inv[m][j])
            assert acc == (1 if i == j else 0)
    x = gf.solve_linear(a, [5, 6])
    assert x is not None
    for i, rhs in enumerate([5, 6]):
        acc = 0
        for j in range(2):
            acc ^= gf.gf_mul(a[i][j], x[j])
        assert acc == rhs


def test_solve_linear_inconsistent_returns_none():
    # [1 1; 1 1] x = [1, 0] has no solution in characteristic 2
    assert gf.solve_linear([[1, 1], [1, 1]], [1, 0]) is None


def test_inverse_matches_numpy_tables_for_every_nonzero_element():
    a = np.arange(1, gf.FIELD_SIZE)
    want = gf._EXP_Z[gf.ORDER - gf._LOG_Z[a]].tolist()
    got = [gf.gf_inv(x) for x in range(1, gf.FIELD_SIZE)]
    assert all(type(x) is int for x in got)
    assert got == want


def test_mul_and_pow_match_numpy_tables():
    rng = np.random.default_rng(0)
    size = 5000
    a = np.concatenate([[0, 0, 1, 65535, 7], rng.integers(0, gf.FIELD_SIZE, size)])
    b = np.concatenate([[0, 9, 0, 0, 65535], rng.integers(0, gf.FIELD_SIZE, size)])
    a[5::7] = 0  # zero on either side, among the random pairs too
    b[8::11] = 0
    products = gf._EXP_Z[gf._LOG_Z[a] + gf._LOG_Z[b]].tolist()
    assert [gf.gf_mul(x, y) for x, y in zip(a.tolist(), b.tolist())] == products
    e = np.concatenate([[0, 1, 0, 3, gf.ORDER], rng.integers(0, 3 * gf.ORDER, size)])
    powers = np.where(a == 0, (e == 0).astype(np.int64),
                      gf._EXP_Z[(gf._LOG_Z[a].astype(np.int64) * e) % gf.ORDER]).tolist()
    assert [gf_pow(x, y) for x, y in zip(a.tolist(), e.tolist())] == powers


def solve_linear_reference(a: list[list[int]], b: list[int]) -> list[int] | None:
    """The elementwise Gaussian elimination that ``solve_linear`` replaced:
    every entry through scalar ``gf_mul``."""
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
        inv = gf.gf_inv(rows[r][col])
        rows[r] = [gf.gf_mul(inv, v) for v in rows[r]]
        for i in range(m):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [vi ^ gf.gf_mul(f, vr) for vi, vr in zip(rows[i], rows[r])]
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


def invert_matrix_reference(a: list[list[int]]) -> list[list[int]]:
    """The elementwise inversion that ``invert_matrix`` replaced."""
    k = len(a)
    aug = [list(row) + [1 if i == j else 0 for j in range(k)] for i, row in enumerate(a)]
    for col in range(k):
        piv = next((i for i in range(col, k) if aug[i][col] != 0), None)
        if piv is None:
            raise ValueError("singular matrix")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = gf.gf_inv(aug[col][col])
        aug[col] = [gf.gf_mul(inv, v) for v in aug[col]]
        for i in range(k):
            if i != col and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [vi ^ gf.gf_mul(f, vc) for vi, vc in zip(aug[i], aug[col])]
    return [row[k:] for row in aug]


@st.composite
def linear_systems(draw):
    m, k = draw(st.integers(1, 7)), draw(st.integers(1, 6))
    a = draw(st.lists(st.lists(vector_elems, min_size=k, max_size=k), min_size=m, max_size=m))
    b = draw(st.lists(vector_elems, min_size=m, max_size=m))
    return a, b


@given(linear_systems())
@example(([[1, 1], [1, 1]], [1, 0]))  # inconsistent
@example(([[1, 1], [1, 1], [2, 3]], [1, 1, 5]))  # more rows than unknowns, consistent
@example(([[0, 0, 0]], [0]))  # no pivot at all
def test_solve_linear_matches_elementwise_reference(system):
    a, b = system
    a_before, b_before = [list(row) for row in a], list(b)
    assert gf.solve_linear(a, b) == solve_linear_reference(a, b)
    assert (a, b) == (a_before, b_before)


@given(st.integers(1, 6).flatmap(
    lambda k: st.lists(st.lists(vector_elems, min_size=k, max_size=k), min_size=k, max_size=k)))
@example([[0, 1], [1, 0]])  # pivot swap
@example([[1, 2], [2, 4]])  # singular: the second row is twice the first
def test_invert_matrix_matches_elementwise_reference(a):
    a_before = [list(row) for row in a]
    try:
        want = invert_matrix_reference(a)
    except ValueError:
        with pytest.raises(ValueError, match="singular"):
            gf.invert_matrix(a)
    else:
        assert gf.invert_matrix(a) == want
    assert a == a_before


def test_invert_matrix_matches_reference_on_vandermonde_matrices():
    # the recovery matrices of rs are inverses of Vandermonde-like rows
    for k in (1, 4, 11, 24):
        rng = np.random.default_rng(k)
        xs = rng.choice(np.arange(1, gf.FIELD_SIZE), size=k, replace=False).tolist()
        a = [[gf_pow(x, i) for i in range(k)] for x in xs]
        assert gf.invert_matrix(a) == invert_matrix_reference(a)
