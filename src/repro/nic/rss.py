"""Receive Side Scaling: the Toeplitz hash and indirection table [4].

This is the real Toeplitz algorithm used by hardware NICs, including the
Microsoft-standard 40-byte default key and the symmetric key of Woo & Park
[70] (``0x6d5a`` repeated), which hashes both directions of a connection to
the same value — what the connection-tracker sharding baseline needs (§4.1).

The hash input follows the standard layouts: src IP, dst IP (4 bytes each,
network order), then src port, dst port (2 bytes each) for L4 hashing.  An
L2 input layout over the Ethernet header is also provided because the SCR
testbed steers sequencer-prefixed packets by hashing the dummy Ethernet
header (§3.3.1).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from ..packet import Packet
from ..packet.flow import FiveTuple

__all__ = [
    "MSFT_RSS_KEY",
    "SYMMETRIC_RSS_KEY",
    "toeplitz_hash",
    "toeplitz_hash_batch",
    "hash_input_l3",
    "hash_input_l4",
    "hash_input_l2",
    "RssIndirection",
]

#: The Microsoft-standard verification key from the RSS specification.
MSFT_RSS_KEY = bytes(
    [
        0x6D, 0x5A, 0x56, 0xDA, 0x25, 0x5B, 0x0E, 0xC2,
        0x41, 0x67, 0x25, 0x3D, 0x43, 0xA3, 0x8F, 0xB0,
        0xD0, 0xCA, 0x2B, 0xCB, 0xAE, 0x7B, 0x30, 0xB4,
        0x77, 0xCB, 0x2D, 0xA3, 0x80, 0x30, 0xF2, 0x0C,
        0x6A, 0x42, 0xB7, 0x3B, 0xBE, 0xAC, 0x01, 0xFA,
    ]
)

#: Symmetric RSS key [70]: hash(src,dst) == hash(dst,src).
SYMMETRIC_RSS_KEY = bytes([0x6D, 0x5A]) * 20


def toeplitz_hash(data: bytes, key: bytes = MSFT_RSS_KEY) -> int:
    """The Toeplitz hash: 32-bit result over ``data`` with ``key``.

    For each set bit in the input (MSB first), XOR in the 32-bit window of
    the key aligned at that bit position — the textbook hardware definition.
    """
    if len(key) * 8 < len(data) * 8 + 32:
        raise ValueError("key too short for input length")
    key_int = int.from_bytes(key, "big")
    key_bits = len(key) * 8
    result = 0
    for i, byte in enumerate(data):
        for bit in range(8):
            if byte & (0x80 >> bit):
                shift = key_bits - 32 - (i * 8 + bit)
                result ^= (key_int >> shift) & 0xFFFFFFFF
    return result


#: Per-(key, input-length) lookup tables for the batch Toeplitz path:
#: ``table[i][b]`` is the XOR of the 32-bit key windows selected by the set
#: bits of byte value ``b`` at byte position ``i``.  The hash of a row is
#: then the XOR-fold of one table lookup per byte — the classic
#: table-driven formulation of the same hardware definition, bit-identical
#: to :func:`toeplitz_hash` (the scalar oracle; see docs/HOTPATH.md).
_TOEPLITZ_TABLES: Dict[Tuple[bytes, int], np.ndarray] = {}


def _toeplitz_tables(key: bytes, length: int) -> np.ndarray:
    """The ``(length, 256)`` uint32 lookup tables for ``key``, cached."""
    cached = _TOEPLITZ_TABLES.get((key, length))
    if cached is not None:
        return cached
    if len(key) * 8 < length * 8 + 32:
        raise ValueError("key too short for input length")
    key_int = int.from_bytes(key, "big")
    key_bits = len(key) * 8
    # windows[i*8 + bit] = the 32-bit key window XORed in when that input
    # bit is set (same shift arithmetic as the scalar loop).
    windows = np.empty(length * 8, dtype=np.uint32)
    for pos in range(length * 8):
        shift = key_bits - 32 - pos
        windows[pos] = (key_int >> shift) & 0xFFFFFFFF
    # bit_sel[b, bit] — is bit ``bit`` (MSB first) set in byte value b?
    byte_vals = np.arange(256, dtype=np.uint16)
    bit_sel = (byte_vals[:, None] & (0x80 >> np.arange(8))) != 0
    tables = np.empty((length, 256), dtype=np.uint32)
    for i in range(length):
        selected = np.where(bit_sel, windows[i * 8:(i + 1) * 8][None, :], 0)
        tables[i] = np.bitwise_xor.reduce(selected.astype(np.uint32), axis=1)
    tables.setflags(write=False)
    _TOEPLITZ_TABLES[(key, length)] = tables
    return tables


def toeplitz_hash_batch(data: np.ndarray, key: bytes = MSFT_RSS_KEY) -> np.ndarray:
    """Toeplitz hashes for a whole matrix of inputs at once.

    ``data`` is an ``(n, length)`` uint8 matrix — one hash input per row,
    all the same length.  Returns ``n`` uint32 hashes, each bit-identical
    to ``toeplitz_hash(bytes(row), key)``; precomputed per-byte lookup
    tables replace the per-bit scalar loop (see docs/HOTPATH.md).
    """
    mat = np.ascontiguousarray(data, dtype=np.uint8)
    if mat.ndim != 2:
        raise ValueError("data must be an (n, length) matrix")
    n, length = mat.shape
    tables = _toeplitz_tables(key, length)
    out = np.zeros(n, dtype=np.uint32)
    for i in range(length):
        out ^= tables[i][mat[:, i]]
    return out


def hash_input_l3(ft: FiveTuple) -> bytes:
    """RSS input for IP-pair hashing (src & dst IP only)."""
    return ft.src_ip.to_bytes(4, "big") + ft.dst_ip.to_bytes(4, "big")


def hash_input_l4(ft: FiveTuple) -> bytes:
    """RSS input for 4-tuple hashing (IPs then ports)."""
    return (
        ft.src_ip.to_bytes(4, "big")
        + ft.dst_ip.to_bytes(4, "big")
        + ft.src_port.to_bytes(2, "big")
        + ft.dst_port.to_bytes(2, "big")
    )


def hash_input_l2(pkt: Packet) -> bytes:
    """RSS input over the Ethernet header (dst MAC, src MAC, ethertype).

    Used when the ToR-switch sequencer prepends a dummy Ethernet header and
    the NIC is configured to hash on L2 fields to spray packets (§3.3.1).
    """
    return pkt.eth.dst + pkt.eth.src + pkt.eth.ethertype.to_bytes(2, "big")


class RssIndirection:
    """The RSS indirection table: hash LSBs → queue number.

    Real NICs expose a small table (commonly 128 entries) that the driver
    (or RSS++ [34]) rewrites to migrate flow *shards* between queues.  Shard
    migration granularity — the heart of RSS++'s limits — is exactly one
    table entry.
    """

    def __init__(self, num_queues: int, table_size: int = 128) -> None:
        if num_queues < 1:
            raise ValueError("need at least one queue")
        if table_size < num_queues:
            raise ValueError("table must have at least one entry per queue")
        self.table_size = table_size
        self.num_queues = num_queues
        self.table: List[int] = [i % num_queues for i in range(table_size)]

    def shard_of(self, hash_value: int) -> int:
        """The shard (table index) a hash value falls into (also
        elementwise over a numpy column of hashes)."""
        return hash_value & (self.table_size - 1) if self._pow2() else hash_value % self.table_size

    def _pow2(self) -> bool:
        return (self.table_size & (self.table_size - 1)) == 0

    def queue_of(self, hash_value: int) -> int:
        return self.table[self.shard_of(hash_value)]

    def migrate(self, shard: int, queue: int) -> None:
        """Move one shard to another queue (an RSS++ rebalancing action)."""
        if not 0 <= shard < self.table_size:
            raise IndexError(f"shard {shard} out of range")
        if not 0 <= queue < self.num_queues:
            raise IndexError(f"queue {queue} out of range")
        self.table[shard] = queue

    def shards_on(self, queue: int) -> List[int]:
        return [s for s, q in enumerate(self.table) if q == queue]
