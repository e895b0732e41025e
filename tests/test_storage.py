import itertools

import numpy as np
import pytest

from wstsim.storage import (
    NodeContent,
    StorageConfig,
    mds_encode,
    mds_reconstruct,
    repair_node,
)
from wstsim.storage import _EXP, _LOG, _mul_table


# ---------------------------------------------------------------------------
# GF(256)
# ---------------------------------------------------------------------------


def gf_mul(a, b):
    """Carry-less product reduced by the AES polynomial 0x11B, shift by shift."""
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        a <<= 1
        if a & 0x100:
            a ^= 0x11B
        b >>= 1
    return acc


def test_gf_tables_cover_all_nonzero_elements():
    assert sorted(_EXP[:255]) == list(range(1, 256))
    assert all(_EXP[e] == _EXP[e - 255] for e in range(255, 510))
    power = 1
    for e in range(255):
        assert _EXP[e] == power and _LOG[power] == e  # powers of the generator 0x03
        power = gf_mul(power, 3)


def test_gf_inverses():
    for a in range(1, 256):
        assert gf_mul(a, _EXP[255 - _LOG[a]]) == 1


def test_gf_known_product():
    # 0x53 * 0xCA = 0x01 under the AES polynomial
    assert gf_mul(0x53, 0xCA) == 0x01
    assert _mul_table()[0x53, 0xCA] == 0x01


def test_gf_distributivity_sample():
    rng = np.random.default_rng(0)
    table = _mul_table()
    for _ in range(200):
        a, b, c = (int(v) for v in rng.integers(0, 256, size=3))
        assert gf_mul(a, b ^ c) == gf_mul(a, b) ^ gf_mul(a, c)
        assert table[a, b] == gf_mul(a, b)


# ---------------------------------------------------------------------------
# encode / reconstruct
# ---------------------------------------------------------------------------


def test_single_node_share_is_the_file():
    cfg = StorageConfig(1, 1)
    shares = mds_encode(b"hello", cfg)
    assert shares[0].fragment == b"hello"
    assert mds_reconstruct(shares, cfg) == b"hello"


def test_systematic_shares_and_all_2subsets_at_3_2():
    cfg = StorageConfig(3, 2)
    file = b"ab"
    shares = mds_encode(file, cfg)
    assert shares[0].fragment == b"a"
    assert shares[1].fragment == b"b"
    for subset in itertools.combinations(shares, 2):
        assert mds_reconstruct(list(subset), cfg) == file


def test_mds_property_exhaustive_5_3():
    cfg = StorageConfig(5, 3)
    rng = np.random.default_rng(1)
    for _ in range(20):
        file = rng.bytes(int(rng.integers(1, 64)))
        shares = mds_encode(file, cfg)
        for subset in itertools.combinations(shares, 3):
            assert mds_reconstruct(list(subset), cfg) == file


def test_mds_property_random_subsets_10_5():
    cfg = StorageConfig(10, 5)
    rng = np.random.default_rng(2)
    for _ in range(100):
        file = rng.bytes(int(rng.integers(0, 128)))
        shares = mds_encode(file, cfg)
        idx = rng.choice(10, size=5, replace=False)
        assert mds_reconstruct([shares[i] for i in idx], cfg) == file


def test_empty_file_roundtrip():
    cfg = StorageConfig(4, 2)
    shares = mds_encode(b"", cfg)
    assert all(s.fragment == b"" for s in shares)
    assert mds_reconstruct(shares[:2], cfg) == b""


def test_share_length_is_ceil_of_padded():
    cfg = StorageConfig(6, 3)
    for size in (1, 2, 3, 7, 9):
        shares = mds_encode(b"x" * size, cfg)
        expected = -(-size // 3)  # ceil, padding fills the last stripe
        assert all(len(s.fragment) == expected for s in shares)
        assert mds_reconstruct(shares[:3], cfg) == b"x" * size


def test_reconstruct_requires_k_distinct_shares():
    cfg = StorageConfig(4, 3)
    shares = mds_encode(b"abcdef", cfg)
    with pytest.raises(ValueError):
        mds_reconstruct(shares[:2], cfg)
    with pytest.raises(ValueError):
        mds_reconstruct([shares[0], shares[0], shares[1]], cfg)


def test_corrupt_share_changes_decode():
    # corruption detection is out of scope: a flipped byte silently decodes
    # to a different file
    cfg = StorageConfig(5, 3)
    file = bytes(range(30))
    shares = mds_encode(file, cfg)
    bad = NodeContent(4, bytes([shares[4].fragment[0] ^ 1]) + shares[4].fragment[1:], 0)
    assert mds_reconstruct([shares[0], bad, shares[2]], cfg) != file


# ---------------------------------------------------------------------------
# repair
# ---------------------------------------------------------------------------


def test_repair_is_byte_identical_10_5():
    cfg = StorageConfig(10, 5, d=7)
    rng = np.random.default_rng(3)
    for _ in range(100):
        file = rng.bytes(int(rng.integers(1, 100)))
        shares = mds_encode(file, cfg)
        lost = int(rng.integers(10))
        helpers = [s for s in shares if s.node_id != lost][:7]
        assert repair_node(lost, helpers, cfg).fragment == shares[lost].fragment


def old_repair(lost, helpers, cfg):
    """Repair as rebuild-then-re-encode, the oracle of repair_node."""
    return mds_encode(mds_reconstruct(helpers, cfg), cfg)[lost]


@pytest.mark.parametrize("n,k", [(6, 3), (10, 4)])
def test_repair_equals_rebuild_and_reencode_on_every_subset(n, k):
    cfg = StorageConfig(n, k, d=k)
    rng = np.random.default_rng(n)
    for size in (k * 5, k * 5 + 1, k * 5 + k - 1):  # pad_len 0, k - 1 and 1
        shares = mds_encode(rng.bytes(size), cfg)
        for lost in range(n):
            for ids in itertools.combinations([i for i in range(n) if i != lost], k):
                helpers = [shares[i] for i in ids]
                got = repair_node(lost, helpers, cfg)
                assert got == old_repair(lost, helpers, cfg)
                assert got == shares[lost]


def test_repair_equals_rebuild_and_reencode_on_tampered_shares():
    # random bytes in place of the shares: the rebuilt file's padding bytes
    # are nonzero, and re-encoding zeroes them
    rng = np.random.default_rng(11)
    for n, k in ((6, 3), (10, 4), (5, 4), (2, 1), (12, 7)):
        cfg = StorageConfig(n, k)
        for _ in range(60):
            length = int(rng.integers(0, 9))
            pad_len = int(rng.integers(-1, k + 2))  # also outside [0, k)
            lost = int(rng.integers(n))
            ids = [int(i) for i in rng.permutation([i for i in range(n) if i != lost])]
            ids = ids[: int(rng.integers(k, n))] if n > k else ids
            if len(ids) < k:
                continue
            helpers = [NodeContent(i, rng.bytes(length), pad_len) for i in ids]
            assert repair_node(lost, helpers, cfg) == old_repair(lost, helpers, cfg)


def evaluate(coeffs, x):
    """p(x) for p = sum_j coeffs[j] x^j, by Horner's rule with scalar products."""
    acc = 0
    for c in reversed(coeffs):
        acc = gf_mul(acc, x) ^ c
    return acc


def test_encode_equals_per_row_products():
    # share i holds p(i + 1), byte column by byte column, for the polynomial
    # of degree < k whose values at nodes 0..k-1 are the data chunks: draw
    # p, write its values at the data nodes as the file, check every share
    rng = np.random.default_rng(12)
    for n, k in ((1, 1), (6, 3), (255, 1), (255, 128), (255, 255)):
        cfg = StorageConfig(n, k)
        for length in (0, 1, 3):
            coeffs = rng.integers(0, 256, size=(length, k)).tolist()
            values = [bytes(evaluate(c, i + 1) for c in coeffs) for i in range(n)]
            file = b"".join(values[:k])
            assert mds_encode(file, cfg) == [NodeContent(i, v, 0) for i, v in enumerate(values)]
        # a padded file encodes as the zero-padded one, with pad_len recorded
        for size in (1, k + 1, 3 * k - 1):
            file, pad_len = rng.bytes(size), (-size) % k
            padded = mds_encode(file + bytes(pad_len), cfg)
            assert mds_encode(file, cfg) == [
                NodeContent(i, s.fragment, pad_len) for i, s in enumerate(padded)
            ]


def test_reconstruct_and_repair_from_high_node_ids():
    # helper sets drawn from all 255 nodes, so every evaluation point serves
    # as an interpolation node somewhere
    rng = np.random.default_rng(13)
    for k in (3, 128):
        cfg = StorageConfig(255, k)
        file = rng.bytes(2 * k)
        shares = mds_encode(file, cfg)
        for _ in range(4):
            ids = sorted(int(i) for i in rng.choice(255, size=k + 1, replace=False))
            lost, helpers = ids[0], [shares[i] for i in ids[1:]]
            assert mds_reconstruct(helpers, cfg) == file
            assert repair_node(lost, helpers, cfg) == shares[lost]


def test_repair_replication_parity_node():
    cfg = StorageConfig(2, 1, d=1)
    shares = mds_encode(b"data", cfg)
    repaired = repair_node(1, [shares[0]], cfg)
    assert repaired.fragment == b"data"


def test_repair_rejects_lost_among_helpers():
    cfg = StorageConfig(4, 2, d=3)
    shares = mds_encode(b"abcd", cfg)
    with pytest.raises(ValueError):
        repair_node(0, shares, cfg)


def test_repair_insufficient_helpers():
    cfg = StorageConfig(4, 3, d=3)
    shares = mds_encode(b"abcdef", cfg)
    with pytest.raises(ValueError):
        repair_node(0, shares[1:3], cfg)


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        StorageConfig(2, 3)
    with pytest.raises(ValueError):
        StorageConfig(256, 2)
    with pytest.raises(ValueError):
        StorageConfig(6, 3, d=2)  # d < k
    with pytest.raises(ValueError):
        StorageConfig(6, 3, d=6)  # d > n-1
    with pytest.raises(ValueError):
        StorageConfig(6, 3, fragment_bits=12)  # not a multiple of 8


# ---------------------------------------------------------------------------
# interleaved files: the layout a batch of repair trials encodes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("trials", [1, 7])
@pytest.mark.parametrize("k", [1, 3, 5])
@pytest.mark.parametrize("fragment_bits", [8, 16, 24, 4096])
def test_interleaved_files_encode_to_interleaved_shares(trials, k, fragment_bits):
    # chunk j of the virtual file holds every file's chunk j in turn, so
    # share i of it holds every file's own share i in turn
    cfg = StorageConfig(k + 3, k)
    size = fragment_bits // 8
    rng = np.random.default_rng([trials, k, fragment_bits])
    files = [rng.bytes(k * size) for _ in range(trials)]
    virtual = b"".join(f[j * size : (j + 1) * size] for j in range(k) for f in files)
    shares = mds_encode(virtual, cfg)
    assert all(s.pad_len == 0 and len(s.fragment) == trials * size for s in shares)
    for t, f in enumerate(files):
        own = mds_encode(f, cfg)
        for i in range(cfg.n):
            assert shares[i].fragment[t * size : (t + 1) * size] == own[i].fragment
            assert own[i].pad_len == 0
