import numpy as np
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
    import pytest

    with pytest.raises(ZeroDivisionError):
        gf.gf_inv(0)


@given(elems, st.integers(min_value=0, max_value=10))
def test_pow_is_repeated_mul(a, e):
    acc = 1
    for _ in range(e):
        acc = gf.gf_mul(acc, a)
    assert gf.gf_pow(a, e) == acc


@given(st.lists(elems, min_size=1, max_size=6), elems)
def test_poly_eval_horner(coeffs, x):
    expected = 0
    for i, c in enumerate(coeffs):
        expected ^= gf.gf_mul(c, gf.gf_pow(x, i))
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


@st.composite
def matrix_applies(draw):
    r, b, width = draw(st.integers(0, 5)), draw(st.integers(1, 5)), draw(st.integers(0, 6))
    matrix = draw(st.lists(st.lists(vector_elems, min_size=b, max_size=b),
                           min_size=r, max_size=r))
    vectors = draw(st.lists(st.lists(vector_elems, min_size=width, max_size=width),
                            min_size=b, max_size=b))
    return matrix, vectors, b, width, draw(st.integers(1, 3)), draw(st.integers(0, 2**32))


@given(matrix_applies())
@example(([], [[]], 1, 0, 1, 0))  # r = 0, S = 0
@example(([[0, 0]], [[5], [6]], 2, 1, 2, 0))  # zero coefficients, S = 1
@example(([[65535]], [[0x1234, 0, 1]], 1, 3, 3, 0))  # b = 1
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
    tables_before = tables.copy()
    assert gf.vmul_xor_into(acc, tables, v) is None
    assert np.array_equal(v_buf, v_before)
    assert np.array_equal(tables, tables_before)
    expected = acc_before.copy()
    if r:
        expected[::step, ::step] ^= np.array(matmul_reference(matrix, vectors),
                                             dtype=np.uint16).reshape(r, width)
    assert np.array_equal(acc_buf, expected)


def test_vmul_xor_into_rejects_mismatched_inputs():
    import pytest

    tables = gf.product_tables([[1, 2], [3, 4], [5, 6]])  # r = 3, b = 2
    acc = np.zeros((3, 4), dtype=np.uint16)
    good = np.zeros((2, 4), dtype=np.uint16)
    bad_calls = [
        (np.zeros((2, 4), dtype=np.uint16), tables, good),  # acc rows != r
        (acc, tables, np.zeros((3, 4), dtype=np.uint16)),  # vectors rows != b
        (acc, tables, np.zeros((2, 5), dtype=np.uint16)),  # widths differ
        (acc, tables, good.astype(np.int64)),
        (acc.astype(np.int64), tables, good),
        (acc, tables[:, :, :256], good),
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
