"""(n, k) systematic MDS erasure code over GF(256) and node repair.

GF(256) arithmetic uses the AES reduction polynomial x^8+x^4+x^3+x+1 (0x11B)
with log/exp tables built from the generator 0x03.  Node i (ids run
0..n-1) has the evaluation point x_i = i + 1, and share i is p(i + 1) for
the unique polynomial p of degree < k through the k data chunks at the
points of nodes 0..k-1.  Shares 0..k-1 therefore equal the data chunks
themselves, and any k shares reconstruct the file.  The padded file is split
into k contiguous chunks, so share length = ceil(padded_len / k).

Every matrix is a Lagrange basis evaluated at node points, built in closed
form (barycentric weights over the log/exp tables) by _lagrange_rows(ids,
points), which maps p's values at the points of nodes ids to its values at
the points of nodes points: the generator G is rows(range(k), range(n)), the
decoding matrix inv(G_S) of the shares of nodes S is rows(S, range(k)), and
the repair row G[lost] * inv(G_S) is rows(S, (lost,)).  No matrix is
inverted, and one bounded cache holds them.

Repair is functional: the lost share is the one that rebuilding the file
from k helper shares and re-encoding it would give, byte-identical to the
original.  For an unpadded file repair_node computes it in one pass, as the
repair row applied to the helper shares.

Interleaved files.  Every row of these matrices acts on the shares or
chunks bytewise: byte b of an output depends only on byte b of each input.
So when T unpadded files of k*L bytes are laid out as one virtual file
whose chunk j holds every file's chunk j in turn, share i of the virtual
file holds every file's own share i in turn, and repair_node on such
shares repairs every file's share at once.  The repair pipeline encodes
and repairs a batch of trials this way (protocol.py).

Shares live only in memory: no command writes or reads a share file.
Corruption detection is out of scope: a tampered share decodes to a
different file without any error being raised.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

_GF_POLY = 0x11B
_GF_GENERATOR = 0x03


def _build_tables() -> tuple[list[int], list[int]]:
    exp = [0] * 510
    log = [0] * 256
    v = 1
    for i in range(255):
        exp[i] = v
        log[v] = i
        v <<= 1
        if v & 0x100:
            v ^= _GF_POLY
        v ^= exp[i]  # multiply by 0x03 = x + 1
    for i in range(255, 510):
        exp[i] = exp[i - 255]
    return exp, log


_EXP, _LOG = _build_tables()


@lru_cache(maxsize=None)
def _mul_table() -> np.ndarray:
    """256 x 256 product table, built lazily on first encode."""
    logs = np.array(_LOG, dtype=np.int64)
    exps = np.array(_EXP, dtype=np.uint8)
    table = exps[logs[:, None] + logs[None, :]]
    table[0, :] = 0
    table[:, 0] = 0
    return table


@lru_cache(maxsize=1024)
def _lagrange_rows(ids: tuple[int, ...], points: tuple[int, ...]) -> np.ndarray:
    """Lagrange interpolation over GF(256) as a read-only (len(points),
    len(ids)) uint8 matrix.

    Row a takes the values at x = id + 1 (for id in ids, distinct) of any
    polynomial of degree < len(ids) to its value at x = a + 1: entry j is
    the basis polynomial L_j(x) = w_j / (x - x_j) * prod_m (x - x_m), with
    barycentric weight w_j = 1 / prod_(m != j) (x_j - x_m), and a row whose
    x is one of the x_j is the unit row of j.  Subtraction is XOR, and each
    product is a sum of logs mod 255.
    """
    xs = [i + 1 for i in ids]
    log_w = [-sum(_LOG[xj ^ xm] for xm in xs if xm != xj) % 255 for xj in xs]
    rows = np.zeros((len(points), len(xs)), dtype=np.uint8)
    for r, a in enumerate(points):
        x = a + 1
        if x in xs:
            rows[r, xs.index(x)] = 1
            continue
        log_all = sum(_LOG[x ^ xm] for xm in xs)
        rows[r] = [_EXP[(log_all + lw - _LOG[x ^ xj]) % 255] for xj, lw in zip(xs, log_w)]
    rows.flags.writeable = False
    return rows


#: products computed per slice of _apply_rows, bounding its r*k*L temporary
_PRODUCT_SLICE = 1 << 20


def _apply_rows(rows: np.ndarray, data: np.ndarray) -> np.ndarray:
    """The GF(256) matrix product of rows (r, k) and data (k, L), both uint8."""
    table = _mul_table()
    out = np.empty((rows.shape[0], data.shape[1]), dtype=np.uint8)
    step = max(1, _PRODUCT_SLICE // rows.size)
    for lo in range(0, data.shape[1], step):
        out[:, lo : lo + step] = np.bitwise_xor.reduce(
            table[rows[:, :, None], data[None, :, lo : lo + step]], axis=1
        )
    return out


@dataclass(frozen=True)
class StorageConfig:
    """DSS parameters: n nodes, any k reconstruct, d helpers repair.

    fragment_bits fixes the per-share payload used by the transmission
    protocol (a multiple of 8; blocks of 3m bits are cut from it, the last
    one zero-padded when 3m does not divide it).
    """

    n: int
    k: int
    d: int | None = None
    fragment_bits: int | None = None

    def __post_init__(self) -> None:
        if not 1 <= self.k <= self.n:
            raise ValueError(f"need n >= k >= 1, got n={self.n}, k={self.k}")
        if self.n > 255:
            raise ValueError("GF(256) supports at most 255 nodes")
        if self.d is not None and not self.k <= self.d <= self.n - 1:
            raise ValueError(f"repair degree must satisfy k <= d <= n-1, got d={self.d}")
        if self.fragment_bits is not None and (
            self.fragment_bits <= 0 or self.fragment_bits % 8
        ):
            raise ValueError("fragment_bits must be a positive multiple of 8")


@dataclass(frozen=True)
class NodeContent:
    """One node's share.  pad_len is the file-level padding byte count; it is
    identical across the shares of one file and travels with them so that
    reconstruction needs no out-of-band state."""

    node_id: int
    fragment: bytes
    pad_len: int = 0


def mds_encode(file: bytes, cfg: StorageConfig) -> list[NodeContent]:
    """Encode a file into n shares; any k of them reconstruct it."""
    pad_len = (-len(file)) % cfg.k
    padded = file + b"\0" * pad_len
    length = len(padded) // cfg.k
    data = np.frombuffer(padded, dtype=np.uint8).reshape(cfg.k, length)
    shares = _apply_rows(_lagrange_rows(tuple(range(cfg.k)), tuple(range(cfg.n))), data)
    return [NodeContent(i, shares[i].tobytes(), pad_len) for i in range(cfg.n)]


def _chosen_shares(shares: list[NodeContent], cfg: StorageConfig) -> list[NodeContent]:
    """The k shares with the smallest distinct node ids (the first share of
    each id), after checking ids, lengths and padding metadata."""
    by_id = {}
    for s in shares:
        if not 0 <= s.node_id < cfg.n:
            raise ValueError(f"node id {s.node_id} out of range for n={cfg.n}")
        by_id.setdefault(s.node_id, s)
    if len(by_id) < cfg.k:
        raise ValueError(f"need at least k={cfg.k} distinct shares, got {len(by_id)}")
    chosen = [by_id[i] for i in sorted(by_id)[: cfg.k]]
    lengths = {len(s.fragment) for s in chosen}
    pads = {s.pad_len for s in chosen}
    if len(lengths) != 1 or len(pads) != 1:
        raise ValueError("inconsistent share lengths or padding metadata")
    return chosen


def _stack(shares: list[NodeContent]) -> np.ndarray:
    return np.stack([np.frombuffer(s.fragment, dtype=np.uint8) for s in shares])


def mds_reconstruct(shares: list[NodeContent], cfg: StorageConfig) -> bytes:
    """Rebuild the exact file from any >= k distinct shares.

    Deterministic: the k shares with the smallest node ids are used.
    """
    chosen = _chosen_shares(shares, cfg)
    ids = tuple(s.node_id for s in chosen)
    data = _apply_rows(_lagrange_rows(ids, tuple(range(cfg.k))), _stack(chosen))
    padded = data.tobytes()
    pad_len = chosen[0].pad_len
    return padded[: len(padded) - pad_len] if pad_len else padded


def repair_node(lost: int, helpers: list[NodeContent], cfg: StorageConfig) -> NodeContent:
    """Regenerate the lost share exactly from >= k helper shares.

    The result is mds_encode(mds_reconstruct(helpers, cfg), cfg)[lost] for
    every input.  Without file padding that is the combined row G[lost] *
    inv(G_S) applied to the shares.  With padding, rebuilding drops the
    file's pad_len trailing bytes and re-encoding pads them back as zeros,
    which a tampered share can make differ from what it decodes to, so
    padded shares take the rebuild-and-re-encode path itself.
    """
    if not 0 <= lost < cfg.n:
        raise ValueError(f"node id {lost} out of range for n={cfg.n}")
    if any(h.node_id == lost for h in helpers):
        raise ValueError("helpers must not include the lost node")
    chosen = _chosen_shares(helpers, cfg)
    if chosen[0].pad_len:
        return mds_encode(mds_reconstruct(helpers, cfg), cfg)[lost]
    ids = tuple(s.node_id for s in chosen)
    share = _apply_rows(_lagrange_rows(ids, (lost,)), _stack(chosen))
    return NodeContent(lost, share[0].tobytes(), 0)

