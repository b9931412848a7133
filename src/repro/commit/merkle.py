"""Binary Merkle trees (blake2b-256) over byte leaves and matrix rows.

Every commit round of the prover is one tree: :meth:`MerkleTree.from_rows`
hashes each row of a matrix of field elements into a leaf, so one
authentication path opens a whole row — all of a round's columns at one
position — at once.  Leaves and inner nodes are domain-separated with
blake2b's ``person`` parameter, so a leaf can never be replayed as a
node; scalars are 8-byte little-endian Goldilocks residues
(:func:`leaf_bytes`), so a row hashes to the same bytes whether the
prover serialized it from an array or the verifier from opened ints.
"""

from __future__ import annotations

import hashlib
import struct
from typing import List, Sequence

import numpy as np

from repro.obs.stats import STATS

DIGEST_BYTES = 32

_LEAF = b"zkml-leaf"
_NODE = b"zkml-node"
_blake2b = hashlib.blake2b


def _hash_leaf(data) -> bytes:
    return _blake2b(data, digest_size=DIGEST_BYTES, person=_LEAF).digest()


def _hash_node(left: bytes, right: bytes) -> bytes:
    return _blake2b(left + right, digest_size=DIGEST_BYTES,
                    person=_NODE).digest()


def leaf_bytes(values: Sequence[int]) -> bytes:
    """One matrix row as leaf bytes: 8 LE bytes per value."""
    return struct.pack("<%dQ" % len(values), *values)


class MerkleTree:
    """A Merkle tree with authentication paths.

    Leaves are arbitrary byte strings; the leaf count is padded to a power
    of two by repeating a fixed empty-leaf digest.
    """

    def __init__(self, leaves: Sequence[bytes]):
        if not len(leaves):
            raise ValueError("Merkle tree needs at least one leaf")
        self.num_leaves = len(leaves)
        level = [_hash_leaf(leaf) for leaf in leaves]
        STATS.merkle_leaf_hashes += len(level)
        n = 1
        while n < len(level):
            n <<= 1
        if n > len(level):
            STATS.merkle_leaf_hashes += 1
            level += [_hash_leaf(b"")] * (n - len(level))
        self._levels: List[List[bytes]] = [level]
        while len(level) > 1:
            level = [_hash_node(level[i], level[i + 1])
                     for i in range(0, len(level), 2)]
            STATS.merkle_node_hashes += len(level)
            self._levels.append(level)

    @classmethod
    def from_rows(cls, rows) -> "MerkleTree":
        """A tree with one leaf per row of an ``(L, w)`` matrix of field
        elements (an array or nested sequences of ints): the whole matrix
        is serialized in one pass and sliced per leaf, each leaf the
        row's :func:`leaf_bytes`."""
        rows = np.ascontiguousarray(rows, dtype="<u8")
        if rows.ndim != 2 or not rows.shape[1]:
            raise ValueError("rows need a nonempty (L, w) shape")
        width = 8 * rows.shape[1]
        buf = memoryview(rows).cast("B")
        return cls([buf[i : i + width] for i in range(0, len(buf), width)])

    @property
    def root(self) -> bytes:
        return self._levels[-1][0]

    @property
    def depth(self) -> int:
        """Length of every authentication path."""
        return len(self._levels) - 1

    def open(self, index: int) -> List[bytes]:
        """Authentication path (sibling hashes, leaf level first)."""
        if not 0 <= index < self.num_leaves:
            raise IndexError("leaf index %d out of range" % index)
        path = []
        for level in self._levels[:-1]:
            path.append(level[index ^ 1])
            index >>= 1
        return path


def verify_merkle_path(
    root: bytes, index: int, leaf: bytes, path: Sequence[bytes]
) -> bool:
    """Check an authentication path against a root."""
    STATS.merkle_leaf_hashes += 1
    STATS.merkle_node_hashes += len(path)
    node = _hash_leaf(leaf)
    for sibling in path:
        pair = sibling + node if index & 1 else node + sibling
        node = _blake2b(pair, digest_size=DIGEST_BYTES, person=_NODE).digest()
        index >>= 1
    return index == 0 and node == root
