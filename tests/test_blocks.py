import itertools

import pytest

from bbext import blocks
from bbext.accumulator import HASH_TREE, acc_gen


@pytest.fixture
def ak():
    return acc_gen(HASH_TREE, 4, 128, rng_seed=0)


def test_encode_share_shape():
    shares = blocks.encode(b"\xde\xad\xbe\xef", b=2, n=4)
    assert [s.index for s in shares] == [1, 2, 3, 4]
    lengths = {len(s.share) for s in shares}
    assert lengths == {6}  # ceil((32+64)/2) bits = 48 = 6 bytes
    again = blocks.encode(b"\xde\xad\xbe\xef", b=2, n=4)
    assert shares == again


def test_empty_message_roundtrip(ak):
    shares = blocks.encode(b"", b=2, n=4)
    z = blocks.eval_shares(ak, shares)
    packages = blocks.make_packages(shares, ak, z)
    got = blocks.reconstruct(packages, ak, z, d0=1, b=2)
    assert got == (b"", 0)


def test_canonical_encoding_layout():
    share = blocks.IndexedShare(index=0x0102, share=b"\xaa\xbb")
    assert share.canonical() == b"\x01\x02\xaa\xbb"


def test_distinct_messages_differ_widely():
    # shares of distinct messages differ in at least n-b+1 positions
    n, b = 4, 2
    for m1, m2 in itertools.combinations(range(256), 2):
        s1 = blocks.encode(bytes([m1]), b, n)
        s2 = blocks.encode(bytes([m2]), b, n)
        same = sum(1 for a, c in zip(s1, s2) if a.share == c.share)
        assert same <= b - 1, (m1, m2)


def test_reconstruct_roundtrip_and_binding(ak):
    m = b"0123456789ab"
    shares = blocks.encode(m, b=3, n=4)
    z = blocks.eval_shares(ak, shares)
    packages = blocks.make_packages(shares, ak, z)
    assert blocks.reconstruct(packages, ak, z, d0=1, b=3) == (m, 96)
    # one forged package is erased by verification, not mistaken
    bad = dict(packages)
    share = bad[2].indexed_share
    bad[2] = blocks.SharePackage(
        indexed_share=blocks.IndexedShare(share.index, bytes(len(share.share))),
        witness=bad[2].witness,
    )
    assert blocks.reconstruct(bad, ak, z, d0=1, b=3) == (m, 96)
    # an absent party is an erasure
    del bad[2]
    assert blocks.reconstruct(bad, ak, z, d0=1, b=3) == (m, 96)
    # beyond the erasure budget the result is failure, never a wrong message
    del bad[1]
    assert blocks.reconstruct(bad, ak, z, d0=1, b=3) is None


def test_reconstruct_rejects_misplaced_package(ak):
    m = b"0123456789ab"
    shares = blocks.encode(m, b=3, n=4)
    z = blocks.eval_shares(ak, shares)
    packages = blocks.make_packages(shares, ak, z)
    shuffled = dict(packages)
    shuffled[1], shuffled[2] = packages[2], packages[1]
    shuffled[3] = packages[3]
    # slots 1 and 2 now hold the wrong indices and are erased; d0=1 is exceeded
    assert blocks.reconstruct(shuffled, ak, z, d0=1, b=3) is None


def test_verify_package(ak):
    m = b"xyzw"
    shares = blocks.encode(m, b=2, n=4)
    z = blocks.eval_shares(ak, shares)
    packages = blocks.make_packages(shares, ak, z)
    assert blocks.verify_package(ak, z, packages[1], expect_index=1)
    assert not blocks.verify_package(ak, z, packages[1], expect_index=2)
    assert not blocks.verify_package(ak, z, "junk")


def test_nominal_bits_accounting(ak):
    shares = blocks.encode(b"\x01\x02\x03\x04", b=2, n=4)
    z = blocks.eval_shares(ak, shares)
    pkg = blocks.make_packages(shares, ak, z)[1]
    # index (16) + share bits + hash-path witness bits
    assert pkg.nominal_bits() == 16 + 48 + 128 * 2


def test_make_packages_requires_matching_commitment(ak):
    shares = blocks.encode(b"aaaa", b=2, n=4)
    other = blocks.encode(b"bbbb", b=2, n=4)
    z = blocks.eval_shares(ak, shares)
    with pytest.raises(ValueError):
        blocks.make_packages(other, ak, z)


def test_two_distributors_produce_byte_identical_packages(ak):
    # any two honest parties holding the same message derive identical
    # witnessed packages, so duplicate receipts are interchangeable
    m = b"same message"
    first = blocks.make_packages(blocks.encode(m, 3, 4), ak,
                                 blocks.eval_shares(ak, blocks.encode(m, 3, 4)))
    second = blocks.make_packages(blocks.encode(m, 3, 4), ak,
                                  blocks.eval_shares(ak, blocks.encode(m, 3, 4)))
    for j in range(1, 5):
        assert first[j].indexed_share == second[j].indexed_share
        assert first[j].witness.data == second[j].witness.data
