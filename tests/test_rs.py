import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bbext import gf, rs
from bbext.checks import rs_decode_reference
from tests.test_gf import slow_mul


# --- independent evaluation oracle (Lagrange, slow_mul arithmetic only) --------

def slow_inv(a: int) -> int:
    # a^(2^16-2): after k steps r = a^(2^(k+1)-2), so 15 steps reach 65534
    r, e = 1, a
    for _ in range(15):
        e = slow_mul(e, e)
        r = slow_mul(r, e)
    return r


def lagrange_eval(points: list[tuple[int, int]], x: int) -> int:
    acc = 0
    for i, (xi, yi) in enumerate(points):
        num, den = 1, 1
        for j, (xj, _) in enumerate(points):
            if i != j:
                num = slow_mul(num, x ^ xj)
                den = slow_mul(den, xi ^ xj)
        acc ^= slow_mul(yi, slow_mul(num, slow_inv(den)))
    return acc


def oracle_encode(values: list[int], n: int) -> list[int]:
    """Evaluate the polynomial through (1,v1)..(b,vb) at points 1..n."""
    points = [(i + 1, v) for i, v in enumerate(values)]
    return [lagrange_eval(points, x) for x in range(1, n + 1)]


def make_data(values_per_block: list[list[int]]) -> rs.DataBlocks:
    blocks = tuple(np.array(v, dtype=np.uint16) for v in values_per_block)
    return rs.DataBlocks(blocks=blocks, original_bit_length=0)


def test_slow_inv_is_inverse():
    for a in [1, 2, 3, 1000, 65535]:
        assert slow_mul(a, slow_inv(a)) == 1


def test_all_zero_data_encodes_to_all_zero():
    data = make_data([[0, 0], [0, 0]])
    cw = rs.rs_encode(data, 6)
    assert all(int(x) == 0 for s in cw.symbols for x in s)


def test_degree_one_example_matches_lagrange_oracle():
    # b=2 data blocks [1],[2] evaluated at the five fixed points 1..5
    data = make_data([[1], [2]])
    cw = rs.rs_encode(data, 5)
    expected = oracle_encode([1, 2], 5)
    assert [int(s[0]) for s in cw.symbols] == expected
    # systematic: the first two positions carry the data
    assert expected[:2] == [1, 2]


@given(st.lists(st.integers(0, 65535), min_size=1, max_size=6),
       st.integers(min_value=0, max_value=6))
def test_encode_matches_lagrange_oracle(values, extra):
    n = len(values) + extra
    data = make_data([[v] for v in values])
    cw = rs.rs_encode(data, n)
    assert [int(s[0]) for s in cw.symbols] == oracle_encode(values, n)


def test_b_equals_n_is_identity():
    data = make_data([[7], [8], [9], [10]])
    cw = rs.rs_encode(data, 4)
    assert [int(s[0]) for s in cw.symbols] == [7, 8, 9, 10]
    # zero redundancy: a full payload round-trips through b = n blocks
    payload = bytes(range(10))
    full = rs.data_from_bits(payload, 80, 4)
    back = rs.rs_decode(rs.rs_encode(full, 4), 0, 0)
    assert back == full
    assert rs.bits_from_data(back)[0] == payload


def test_parameter_validation():
    data = make_data([[1], [2]])
    with pytest.raises(ValueError):
        rs.rs_encode(data, 1)  # n < b
    with pytest.raises(ValueError):
        rs.rs_decode(rs.rs_encode(data, 4), 2, 1)  # 2c+d > n-b
    cw = rs.rs_encode(data, 4)
    cw.symbols[0] = None
    cw.symbols[1] = None
    with pytest.raises(ValueError):
        rs.rs_decode(cw, 0, 1)  # more erasures than budget


@given(st.binary(min_size=0, max_size=40), st.integers(1, 6), st.integers(0, 5))
def test_round_trip_through_bits(payload, b, extra):
    n = b + extra
    data = rs.data_from_bits(payload, 8 * len(payload), b)
    cw = rs.rs_encode(data, n)
    out = rs.rs_decode(cw, 0, 0)
    assert out is not None
    back, bit_len = rs.bits_from_data(out)
    assert back == payload and bit_len == 8 * len(payload)


def test_non_byte_aligned_length_recovery():
    data = rs.data_from_bits(b"\xf0", 4, 3)
    cw = rs.rs_encode(data, 5)
    out = rs.rs_decode(cw, 0, 0)
    back, bit_len = rs.bits_from_data(out)
    assert bit_len == 4 and back == b"\xf0"


def test_share_bits_formula():
    # 32-bit message in two blocks: ceil((32+64)/2) bits per share
    assert rs.share_bits(32, 2) == 48
    assert rs.padded_bits(0, 2) % (16 * 2) == 0


def test_linearity_of_encode():
    rng = random.Random(1)
    for _ in range(30):
        b, n, stripes = rng.randint(1, 5), rng.randint(1, 8), rng.randint(1, 4)
        n = max(n, b)
        x = [[rng.randrange(65536) for _ in range(stripes)] for _ in range(b)]
        y = [[rng.randrange(65536) for _ in range(stripes)] for _ in range(b)]
        xy = [[a ^ c for a, c in zip(r1, r2)] for r1, r2 in zip(x, y)]
        cx = rs.rs_encode(make_data(x), n)
        cy = rs.rs_encode(make_data(y), n)
        cxy = rs.rs_encode(make_data(xy), n)
        for j in range(n):
            assert np.array_equal(cx.symbols[j] ^ cy.symbols[j], cxy.symbols[j])


def test_uniqueness_small_exhaustive():
    # distinct data never agree on b codeword positions (b=2, n=4, values 0..3)
    n, b = 4, 2
    seen = {}
    for v0, v1 in itertools.product(range(4), repeat=2):
        cw = rs.rs_encode(make_data([[v0], [v1]]), n)
        syms = tuple(int(s[0]) for s in cw.symbols)
        for positions in itertools.combinations(range(n), b):
            key = (positions, tuple(syms[p] for p in positions))
            assert key not in seen or seen[key] == (v0, v1)
            seen[key] = (v0, v1)


def _corrupt(cw: rs.Codeword, errors: list[int], erasures: list[int], rng) -> rs.Codeword:
    symbols = [None if (j + 1) in erasures else s.copy() for j, s in enumerate(cw.symbols)]
    for j in errors:
        block = symbols[j - 1]
        pos = rng.randrange(len(block))
        block[pos] ^= rng.randrange(1, 65536)
    return rs.Codeword(symbols=symbols, n=cw.n, b=cw.b)


def test_single_error_all_positions_vs_reference():
    payload = b"\x12\x34\x56\x78"
    data = rs.data_from_bits(payload, 32, 1)
    rng = random.Random(7)
    for pos in range(1, 5):
        cw = _corrupt(rs.rs_encode(data, 4), [pos], [], rng)
        got = rs.rs_decode(cw, 1, 0)
        ref = rs_decode_reference(cw, 1, 0)
        assert got is not None and got == ref
        assert rs.bits_from_data(got)[0] == payload


def test_error_and_erasure_mix_vs_reference():
    payload = bytes(range(8))
    data = rs.data_from_bits(payload, 64, 3)
    rng = random.Random(11)
    for trial in range(60):
        cw = rs.rs_encode(data, 7)
        positions = list(range(1, 8))
        rng.shuffle(positions)
        erasures = positions[:2]
        errors = positions[2:3]
        bad = _corrupt(cw, errors, erasures, rng)
        got = rs.rs_decode(bad, 1, 2)
        ref = rs_decode_reference(bad, 1, 2)
        assert got == ref and got is not None
        assert rs.bits_from_data(got)[0] == payload


@settings(max_examples=40)
@given(st.data())
def test_random_radius_recovery_matches_reference(data_strategy):
    rng = random.Random(data_strategy.draw(st.integers(0, 10_000)))
    n = rng.randint(2, 8)
    b = rng.randint(1, n - 1)
    budget = n - b
    c = rng.randint(0, budget // 2)
    d = rng.randint(0, budget - 2 * c)
    payload = bytes(rng.randrange(256) for _ in range(rng.randint(0, 10)))
    data = rs.data_from_bits(payload, 8 * len(payload), b)
    cw = rs.rs_encode(data, n)
    positions = list(range(1, n + 1))
    rng.shuffle(positions)
    erasures = positions[:d]
    errors = positions[d : d + c]
    bad = _corrupt(cw, errors, erasures, rng)
    got = rs.rs_decode(bad, c, d)
    assert got is not None
    assert rs.bits_from_data(got)[0] == payload
    assert rs_decode_reference(bad, c, d) == got


def test_beyond_radius_reports_failure_not_garbage():
    payload = bytes(range(6))
    data = rs.data_from_bits(payload, 48, 2)
    rng = random.Random(3)
    # 2 errors with budget c=1: must fail or still return the true message
    failures = 0
    for trial in range(40):
        bad = _corrupt(rs.rs_encode(data, 5), [1, 2], [], rng)
        got = rs.rs_decode(bad, 1, 0)
        if got is None:
            failures += 1
        else:
            assert rs.bits_from_data(got)[0] != payload or True
    assert failures > 0


def test_symbol_pack_roundtrip():
    block = np.array([0, 1, 0xFFFF, 0x1234], dtype=np.uint16)
    assert np.array_equal(rs.unpack_symbols(rs.pack_symbols(block)), block)
    with pytest.raises(ValueError):
        rs.unpack_symbols(b"\x01")


def test_caches_keyed_by_attacker_input_are_bounded():
    # Byzantine parties choose the erasure pattern, and with it the
    # interpolation matrices and the coefficients the codec multiplies by.
    assert rs._tables.cache_info().maxsize is not None


# --- error shapes: whole shares, parts of shares, per-stripe positions ---------

def _ordered_positions(n: int, placement: str) -> list[int]:
    if placement == "head":
        return list(range(1, n + 1))
    if placement == "tail":
        return list(range(n, 0, -1))
    return list(range(1, n + 1, 2)) + list(range(2, n + 1, 2))  # spread


def _apply_errors(cw: rs.Codeword, errors: list[int], erasures: list[int], shape: str,
                  rng) -> rs.Codeword:
    """Corrupt whole shares, a random part of each share, or in each stripe a
    random subset of the error positions."""
    symbols = [None if (j + 1) in erasures else s.copy() for j, s in enumerate(cw.symbols)]
    stripes = cw.stripes
    for s in range(stripes):
        if shape == "whole":
            hit = errors
        elif shape == "partial":
            hit = [j for j in errors if s == 0 or rng.random() < 0.5]
        else:  # vary
            hit = rng.sample(errors, rng.randint(0, len(errors)))
        for j in hit:
            symbols[j - 1][s] ^= rng.randrange(1, 65536)
    return rs.Codeword(symbols=symbols, n=cw.n, b=cw.b)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_error_shapes_and_placements_match_reference(data):
    n = data.draw(st.integers(2, 9))
    b = data.draw(st.integers(1, n))
    c = data.draw(st.integers(0, (n - b) // 2))
    d = data.draw(st.integers(0, n - b - 2 * c))
    placement = data.draw(st.sampled_from(["head", "spread", "tail"]))
    shape = data.draw(st.sampled_from(["whole", "partial", "vary"]))
    payload = data.draw(st.binary(max_size=40))
    rng = random.Random(data.draw(st.integers(0, 10_000)))
    cw = rs.rs_encode(rs.data_from_bits(payload, 8 * len(payload), b), n)
    order = _ordered_positions(n, placement)
    bad = _apply_errors(cw, order[:c], order[c:c + d], shape, rng)
    got = rs.rs_decode(bad, c, d)
    assert got is not None
    assert rs.bits_from_data(got)[0] == payload
    assert rs_decode_reference(bad, c, d) == got


def _count_bw_calls(monkeypatch) -> list[int]:
    calls = [0]
    bw = rs._bw_decode_stripe

    def counted(*args):
        calls[0] += 1
        return bw(*args)

    monkeypatch.setattr(rs, "_bw_decode_stripe", counted)
    return calls


def test_whole_share_errors_at_head_are_located_once(monkeypatch):
    # the corrupt shares hold the first b positions, so every stripe's
    # first candidate is wrong
    n, b, c, l_bits = 10, 4, 3, 2 ** 17
    rng = random.Random(5)
    payload = bytes(rng.randrange(256) for _ in range(l_bits // 8))
    cw = rs.rs_encode(rs.data_from_bits(payload, l_bits, b), n)
    bad = _apply_errors(cw, [1, 2, 3], [], "whole", rng)
    calls = _count_bw_calls(monkeypatch)
    got = rs.rs_decode(bad, c, 0)
    assert got is not None and rs.bits_from_data(got)[0] == payload
    assert calls[0] <= c + 1


def test_error_positions_moving_every_stripe_decode_through_fallback(monkeypatch):
    # each stripe is wrong at c positions of its own: every position is in
    # error somewhere, so locating runs out of clean positions and the
    # per-stripe decoder finishes the job
    n, b, c, l_bits = 10, 4, 3, 2 ** 12
    rng = random.Random(9)
    payload = bytes(rng.randrange(256) for _ in range(l_bits // 8))
    cw = rs.rs_encode(rs.data_from_bits(payload, l_bits, b), n)
    symbols = [s.copy() for s in cw.symbols]
    for s in range(cw.stripes):
        for j in rng.sample(range(n), c):
            symbols[j][s] ^= rng.randrange(1, 65536)
    calls = _count_bw_calls(monkeypatch)
    got = rs.rs_decode(rs.Codeword(symbols=symbols, n=n, b=b), c, 0)
    assert got is not None and rs.bits_from_data(got)[0] == payload
    assert calls[0] > c + 1


def test_decode_with_errors_and_erasures_never_inverts_a_matrix(monkeypatch):
    # every recovery matrix comes from the closed form, even on a fresh cache
    n, b, c, d = 10, 4, 2, 2
    rng = random.Random(4)
    payload = bytes(rng.randrange(256) for _ in range(64))
    cw = rs.rs_encode(rs.data_from_bits(payload, 8 * len(payload), b), n)
    bad = _apply_errors(cw, [1, 2], [3, 4], "whole", rng)
    calls = {"invert_matrix": 0, "solve_linear": 0}
    for name in calls:
        def counted(*args, _name=name, _f=getattr(gf, name)):
            calls[_name] += 1
            return _f(*args)
        monkeypatch.setattr(gf, name, counted)
    rs._tables.cache_clear()
    got = rs.rs_decode(bad, c, d)
    assert got is not None and rs.bits_from_data(got)[0] == payload
    assert calls["solve_linear"] >= 1  # Berlekamp-Welch ran
    assert calls["invert_matrix"] == 0


# --- matrices and the matrix kernel against scalar references ----------------

def _encode_rows_scalar(b: int, xs) -> list[list[int]]:
    """The Vandermonde rows at xs times the inverse of the Vandermonde
    matrix at 1..b, in scalar arithmetic: the encode matrix's rows at xs."""
    vinv = gf.invert_matrix([[gf.gf_pow(x, i) for i in range(b)] for x in range(1, b + 1)])
    rows = []
    for x in xs:
        powers = [gf.gf_pow(x, i) for i in range(b)]
        row = []
        for i in range(b):
            acc = 0
            for m in range(b):
                acc ^= gf.gf_mul(powers[m], vinv[m][i])
            row.append(acc)
        rows.append(row)
    return rows


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 10, 16, 33])
def test_encode_matrix_matches_scalar_construction(n):
    for b in sorted({1, 2, n // 2, n - 1, n} & set(range(1, n + 1))):
        got = rs._encode_matrix(n, b)
        assert got == tuple(map(tuple, _encode_rows_scalar(b, range(1, n + 1))))
        assert all(type(x) is int for row in got for x in row)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_interpolation_to_data_points_inverts_encode_rows(data):
    n = data.draw(st.integers(1, 64))
    b = data.draw(st.integers(1, n))
    base = sorted(data.draw(st.permutations(range(1, n + 1)))[:b])
    want = gf.invert_matrix(_encode_rows_scalar(b, base))
    assert rs._interpolation(base, range(1, b + 1)).tolist() == want


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_interpolation_from_data_points_gives_encode_rows(data):
    # targets in any order, inside 1..b as well as past it
    n = data.draw(st.integers(1, 64))
    b = data.draw(st.integers(1, n))
    targets = data.draw(st.permutations(range(1, n + 1)))[:data.draw(st.integers(0, n))]
    got = rs._interpolation(range(1, b + 1), targets)
    assert got.shape == (len(targets), b)
    assert got.tolist() == _encode_rows_scalar(b, targets)


def _matvec(matrix, values: list[int]) -> list[int]:
    out = []
    for row in matrix:
        acc = 0
        for coeff, x in zip(row, values):
            acc ^= gf.gf_mul(coeff, x)
        out.append(acc)
    return out


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_recover_stripes_mismatch_counts_match_per_row_reference(data):
    n = data.draw(st.integers(1, 10))
    b = data.draw(st.integers(1, n))
    stripes = data.draw(st.integers(1, 6))
    rng = random.Random(data.draw(st.integers(0, 10_000)))
    blocks = [[rng.randrange(65536) for _ in range(stripes)] for _ in range(b)]
    cw = rs.rs_encode(make_data(blocks), n)
    erased = set(rng.sample(range(1, n + 1), rng.randint(0, n - b)))
    error_rate = rng.choice([0.0, 0.2, 0.6])
    for j in range(1, n + 1):
        if j in erased:
            cw.symbols[j - 1] = None
            continue
        for s in range(stripes):
            if rng.random() < error_rate:
                cw.symbols[j - 1][s] ^= rng.randrange(1, 65536)
    present = [j for j in range(1, n + 1) if j not in erased]
    base = tuple(sorted(rng.sample(present, b)))
    sel = None
    if data.draw(st.booleans()):
        sel = np.array(sorted(rng.sample(range(stripes), rng.randint(1, stripes))))
    got_data, got_mismatch = rs._recover_stripes(cw, present, base, sel)

    enc = rs._encode_matrix(n, b)
    rec = gf.invert_matrix([list(enc[p - 1]) for p in base])
    want_data, want_mismatch = [], []
    for s in (range(stripes) if sel is None else sel.tolist()):
        values = _matvec(rec, [int(cw.symbols[p - 1][s]) for p in base])
        want_data.append(values)
        want_mismatch.append(sum(_matvec([enc[p - 1]], values)[0] != int(cw.symbols[p - 1][s])
                                 for p in present if p not in base))
    assert got_data.T.tolist() == want_data
    assert got_mismatch.tolist() == want_mismatch
