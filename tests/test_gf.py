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


def vmul(scalar: int, v: np.ndarray) -> np.ndarray:
    """Every element of uint16 array v times a scalar."""
    out = np.zeros(v.shape, dtype=np.uint16)
    gf.vmul_xor_into(out, scalar, v)
    return out


def test_vmul_matches_scalar():
    v = np.array([0, 1, 2, 777, 65535], dtype=np.uint16)
    for s in [0, 1, 3, 65535]:
        out = vmul(s, v)
        assert [int(x) for x in out] == [gf.gf_mul(s, int(e)) for e in v]


# zeros drawn often: zero has no logarithm, so the tables special-case it
vector_elems = st.one_of(st.just(0), elems)


@given(st.one_of(st.sampled_from([0, 1, 65535]), elems),
       st.lists(vector_elems, max_size=64), st.integers(1, 3), st.integers(0, 2**32))
@example(7, [], 1, 0)
@example(7, [0], 1, 0)
@example(65535, [0x1234], 2, 0)
def test_vmul_xor_into_matches_scalar_mul(scalar, values, step, seed):
    rng = np.random.default_rng(seed)
    # v and acc are strided views into larger buffers (non-contiguous for
    # step > 1), so an in-place update must land in acc's buffer alone
    v_buf = rng.integers(0, gf.FIELD_SIZE, step * len(values), dtype=np.uint16)
    v = v_buf[::step]
    v[:] = values
    v_before = v_buf.copy()
    acc_buf = rng.integers(0, gf.FIELD_SIZE, step * len(values), dtype=np.uint16)
    acc = acc_buf[::step]
    acc_before = acc_buf.copy()
    assert gf.vmul_xor_into(acc, scalar, v) is None
    assert np.array_equal(v_buf, v_before)
    expected = acc_before.copy()
    expected[::step] ^= np.array([gf.gf_mul(scalar, x) for x in values], dtype=np.uint16)
    assert np.array_equal(acc_buf, expected)


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
