import hashlib
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bbext.accumulator import (
    BILINEAR,
    HASH_TREE,
    AccValue,
    Witness,
    acc_create_wit,
    acc_eval,
    acc_gen,
    acc_verify,
    witness_nominal_bits,
)

SCHEMES = [HASH_TREE, BILINEAR]


def bare(z: AccValue) -> AccValue:
    """Wire form of z: the commitment bytes without the local value set,
    levels or products."""
    return AccValue(z.data)


def H(data: bytes, k: int = 256) -> bytes:
    return hashlib.sha256(data).digest()[: k // 8]


def test_gen_determinism_and_validation():
    a = acc_gen(BILINEAR, 4, 128, rng_seed=0)
    b = acc_gen(BILINEAR, 4, 128, rng_seed=0)
    assert a == b
    assert acc_gen(BILINEAR, 4, 128, rng_seed=1) != a
    with pytest.raises(ValueError):
        acc_gen(HASH_TREE, 0, 256)
    with pytest.raises(ValueError):
        acc_gen(HASH_TREE, 4, 100)
    with pytest.raises(ValueError):
        acc_gen("mystery", 4, 256)


def test_bilinear_secret_held_by_setup_only():
    ak = acc_gen(BILINEAR, 7, 128, rng_seed=1)
    assert ak.setup_secret is not None
    assert acc_gen(HASH_TREE, 7, 128).setup_secret is None


def test_hash_tree_root_matches_hand_rolled_chain():
    vals = [b"v1", b"v2", b"v3", b"v4"]
    ak = acc_gen(HASH_TREE, 4, 256)
    z = acc_eval(ak, vals)
    expected = H(H(H(vals[0]) + H(vals[1])) + H(H(vals[2]) + H(vals[3])))
    assert z.data == expected


def test_hash_tree_truncated_k():
    vals = [b"a", b"b"]
    ak = acc_gen(HASH_TREE, 2, 128)
    z = acc_eval(ak, vals)
    assert z.data == H(H(b"a", 128) + H(b"b", 128), 128)
    assert len(z.data) == 16


def test_bilinear_singleton_is_shifted_hash():
    ak = acc_gen(BILINEAR, 1, 128, rng_seed=3)
    z = acc_eval(ak, [b"solo"])
    p = ak.prime
    expected = (ak.setup_secret + int.from_bytes(H(b"solo", 128), "big")) % p
    assert int.from_bytes(z.data, "big") == expected


def test_bilinear_pair_witness_is_cofactor():
    ak = acc_gen(BILINEAR, 2, 128, rng_seed=5)
    z = acc_eval(ak, [b"a", b"b"])
    w = acc_create_wit(ak, z, b"a")
    p = ak.prime
    expected = (ak.setup_secret + int.from_bytes(H(b"b", 128), "big")) % p
    assert int.from_bytes(w.data, "big") == expected


def test_bilinear_permutation_invariant():
    ak = acc_gen(BILINEAR, 3, 128, rng_seed=2)
    z1 = acc_eval(ak, [b"x", b"y", b"z"])
    z2 = acc_eval(ak, [b"z", b"x", b"y"])
    assert z1.data == z2.data


def test_eval_rejects_duplicates_and_wrong_cardinality():
    ak = acc_gen(HASH_TREE, 3, 256)
    with pytest.raises(ValueError):
        acc_eval(ak, [b"a", b"a", b"b"])
    with pytest.raises(ValueError):
        acc_eval(ak, [b"a", b"b"])


@given(st.integers(1, 9), st.sampled_from(SCHEMES), st.sampled_from([128, 256]),
       st.integers(0, 2**32))
def test_completeness(n, scheme, k, seed):
    rng = random.Random(seed)
    vals = []
    while len(vals) < n:
        v = bytes(rng.randrange(256) for _ in range(rng.randint(1, 12)))
        if v not in vals:
            vals.append(v)
    ak = acc_gen(scheme, n, k, rng_seed=seed)
    z = acc_eval(ak, vals)
    for v in vals:
        w = acc_create_wit(ak, z, v)
        assert w is not None
        assert acc_verify(ak, z, w, v)


def test_absent_value_yields_bottom():
    ak = acc_gen(HASH_TREE, 2, 256)
    z = acc_eval(ak, [b"a", b"b"])
    assert acc_create_wit(ak, z, b"c") is None


def test_wire_value_cannot_create_witnesses():
    ak = acc_gen(HASH_TREE, 2, 256)
    z = bare(acc_eval(ak, [b"a", b"b"]))
    with pytest.raises(ValueError):
        acc_create_wit(ak, z, b"a")


@pytest.mark.parametrize("scheme", SCHEMES)
def test_forgery_battery(scheme):
    rng = random.Random(42)
    n, k = 4, 128
    ak = acc_gen(scheme, n, k, rng_seed=9)
    vals = [bytes([i]) * 4 for i in range(n)]
    others = [bytes([i]) * 4 for i in range(n, 2 * n)]
    z = acc_eval(ak, vals)
    witnesses = {v: acc_create_wit(ak, z, v) for v in vals}
    # reuse: witness for one value presented for another member
    assert not acc_verify(ak, z, witnesses[vals[0]], vals[1])
    # splice: valid witness presented for a non-member
    for v in others:
        for w in witnesses.values():
            assert not acc_verify(ak, z, w, v)
    # truncate / extend
    w0 = witnesses[vals[0]]
    assert not acc_verify(ak, z, Witness(w0.data[:-1]), vals[0])
    assert not acc_verify(ak, z, Witness(w0.data + b"\x00"), vals[0])
    # random bytes
    for _ in range(50):
        fake = Witness(bytes(rng.randrange(256) for _ in range(len(w0.data))))
        assert not acc_verify(ak, z, fake, others[0])
    # witness from a different accumulation value
    z2 = acc_eval(ak, others)
    w_other = acc_create_wit(ak, z2, others[0])
    assert not acc_verify(ak, z, w_other, others[0])
    # malformed None
    assert not acc_verify(ak, z, None, vals[0])


@pytest.mark.parametrize("scheme", SCHEMES)
def test_message_binding_sample(scheme):
    # different value sets never collide on the commitment (sampled)
    rng = random.Random(1)
    ak = acc_gen(scheme, 3, 256, rng_seed=4)
    seen = {}
    for _ in range(500):
        vals = []
        while len(vals) < 3:
            v = bytes(rng.randrange(256) for _ in range(6))
            if v not in vals:
                vals.append(v)
        z = acc_eval(ak, vals)
        key = frozenset(vals) if scheme == BILINEAR else tuple(vals)
        if z.data in seen:
            assert seen[z.data] == key
        seen[z.data] = key


def test_nominal_sizes():
    assert witness_nominal_bits(BILINEAR, 100, 128) == 128
    assert witness_nominal_bits(HASH_TREE, 8, 256) == 256 * 3
    assert witness_nominal_bits(HASH_TREE, 9, 256) == 256 * 4
    assert witness_nominal_bits(HASH_TREE, 1, 256) == 0
    ak = acc_gen(BILINEAR, 4, 128, rng_seed=0)
    z = acc_eval(ak, [b"a", b"b", b"c", b"d"])
    assert len(z.data) == 32  # emulation field element is 2k bits wide


def test_accvalue_equality_ignores_source_set():
    ak = acc_gen(HASH_TREE, 2, 256)
    z = acc_eval(ak, [b"a", b"b"])
    assert z == AccValue(z.data)


@pytest.mark.parametrize("n", range(1, 10))
def test_witness_from_cached_levels_matches_rebuild(n):
    ak = acc_gen(HASH_TREE, n, 128)
    vals = [b"value-%d" % i for i in range(n)]
    z = acc_eval(ak, vals)
    assert z.levels is not None
    no_levels = AccValue(z.data, source_values=z.source_values)
    for v in vals:
        cached = acc_create_wit(ak, z, v)
        rebuilt = acc_create_wit(ak, no_levels, v)
        assert cached == rebuilt
        assert acc_verify(ak, z, cached, v)
        assert acc_verify(ak, z, rebuilt, v)


def test_accvalue_levels_are_local_state():
    ak = acc_gen(HASH_TREE, 3, 256)
    z = acc_eval(ak, [b"a", b"b", b"c"])
    without = AccValue(z.data, source_values=z.source_values)
    assert z == without and hash(z) == hash(without)
    assert "levels" not in repr(z)
    assert bare(z).levels is None and bare(z).source_values is None


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 31])
@pytest.mark.parametrize("k", [128, 256])
def test_bilinear_witness_from_products_is_the_cofactor_product(n, k):
    ak = acc_gen(BILINEAR, n, k, rng_seed=n)
    vals = [b"share-%d" % i for i in range(n)]
    z = acc_eval(ak, vals)
    assert z.products is not None
    no_products = AccValue(z.data, source_values=z.source_values)
    p = ak.prime
    factors = [(ak.setup_secret + int.from_bytes(H(v, k), "big")) % p for v in vals]
    zi = 1
    for f in factors:
        zi = zi * f % p
    assert z.data == zi.to_bytes(2 * k // 8, "big")
    for i, v in enumerate(vals):
        w = 1
        for j, f in enumerate(factors):
            if j != i:
                w = w * f % p
        expected = w.to_bytes(2 * k // 8, "big")
        assert acc_create_wit(ak, z, v).data == expected
        assert acc_create_wit(ak, no_products, v).data == expected
        assert acc_verify(ak, z, acc_create_wit(ak, z, v), v)
    assert z == no_products and hash(z) == hash(no_products)
    assert "products" not in repr(z) and bare(z).products is None
