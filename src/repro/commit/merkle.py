"""Binary Merkle trees (blake2b-256) over a commit round's rows.

Every commit round of the prover is one tree: :meth:`MerkleTree.from_lde`
hashes leaf ``j`` — every column of the round's ``(m, extension, n)`` LDE
at extended positions ``j`` and ``j + N/2`` — so one authentication path
opens a whole row, all of a round's columns at one position, at once.
The kernel reads each leaf's residues from the LDE where they lie; no
row-major leaf matrix is ever built.  Leaves and inner nodes are
domain-separated with blake2b's ``person`` parameter, so a leaf can never
be replayed as a node; scalars are 8-byte little-endian Goldilocks
residues (:func:`leaf_bytes`), so a row hashes to the same bytes whether
the prover read it from the LDE or the verifier serialized opened ints.

A tree is one ``(2 * padded - 1, 32)`` ``uint8`` node array, leaf level
first and the root last, filled by one ``gl_merkle_tree`` call
(``field/gl64_native.c``); the ``hashlib`` tree it is tested against
lives in ``tests/oracle.py``.  :func:`verify_merkle_path` uses
``hashlib``, so every verification re-hashes what it opens independently
of the kernel.  :func:`column_digests` is the same kernel's blake2b over
whole columns, eight abreast (the pk cache's integrity check).
"""

from __future__ import annotations

import hashlib
import struct
from typing import List, Sequence, Tuple

import numpy as np

from repro.field import native
from repro.obs.stats import STATS

DIGEST_BYTES = 32

_LEAF = b"zkml-leaf"
_NODE = b"zkml-node"
#: the two as ``gl_merkle_tree`` takes them: blake2b's 16-byte ``person`` field
_PERSONS = tuple(p.ljust(16, b"\0") for p in (_LEAF, _NODE))
_blake2b = hashlib.blake2b


def _hash_leaf(data) -> bytes:
    return _blake2b(data, digest_size=DIGEST_BYTES, person=_LEAF).digest()


def leaf_bytes(values: Sequence[int]) -> bytes:
    """One matrix row as leaf bytes: 8 LE bytes per value."""
    return struct.pack("<%dQ" % len(values), *values)


def _padded(count: int) -> int:
    """The leaf count rounded up to a power of two; counts the hashes a
    tree over ``count`` leaves makes."""
    if not count:
        raise ValueError("Merkle tree needs at least one leaf")
    padded = 1 << (count - 1).bit_length()
    STATS.merkle_leaf_hashes += count + (padded > count)
    STATS.merkle_node_hashes += padded - 1
    return padded


class MerkleTree:
    """A Merkle tree with authentication paths.

    The leaf count is padded to a power of two by repeating a fixed
    empty-leaf digest.  ``nodes`` holds every digest, level by level from
    the leaves up; ``_levels`` are views into it.
    """

    def __init__(self, num_leaves: int, nodes: np.ndarray):
        nodes.flags.writeable = False
        self.num_leaves, self.nodes = num_leaves, nodes
        padded = (len(nodes) + 1) // 2
        sizes = [padded >> d for d in range(padded.bit_length())]
        starts = np.cumsum([0] + sizes[:-1])
        self._levels = [nodes[s : s + n] for s, n in zip(starts, sizes)]
        # the sibling of leaf i at depth d is node starts[d] + ((i >> d) ^ 1)
        self._path_starts, self._path_shifts = starts[:-1], np.arange(len(starts) - 1)

    @classmethod
    def from_lde(cls, lde) -> "MerkleTree":
        """A round's tree over its ``(m, extension, n)`` LDE (an array or
        nested sequences of residues), in one ``gl_merkle_tree`` call.

        Leaf ``j < extension * n / 2`` is the :func:`leaf_bytes` of every
        column at part ``j % extension``, position ``j // extension``, then
        of every column at that position plus ``n / 2``.  A FRI fold layer
        is the ``(1, 1, N_i)`` case: leaf ``j`` is ``(G[j], G[j + N_i/2])``.
        """
        lde = np.ascontiguousarray(lde, dtype=np.uint64)
        if lde.ndim != 3 or not lde.shape[0] or not lde.shape[1] or lde.shape[2] % 2:
            raise ValueError("an LDE needs a nonempty (m, extension, n) shape, "
                             "n even; got %s" % (lde.shape,))
        m, ext, n = lde.shape
        count = ext * n // 2
        padded = _padded(count)
        nodes = np.empty((2 * padded - 1, DIGEST_BYTES), dtype=np.uint8)
        native.library().gl_merkle_tree(nodes.ctypes.data, lde.ctypes.data, m, ext,
                                        n, padded, *_PERSONS)
        return cls(count, nodes)

    def __getstate__(self):
        return {"num_leaves": self.num_leaves, "nodes": self.nodes}

    def __setstate__(self, state):
        self.__init__(state["num_leaves"], state["nodes"])

    @property
    def root(self) -> bytes:
        return self.nodes[-1].tobytes()

    @property
    def depth(self) -> int:
        """Length of every authentication path."""
        return len(self._levels) - 1

    def open(self, index: int) -> List[bytes]:
        """Authentication path (sibling hashes, leaf level first)."""
        return list(self.open_many([index])[0])

    def open_many(self, indices: Sequence[int]) -> List[Tuple[bytes, ...]]:
        """The authentication paths of many leaves: one gather from the
        node array over the precomputed level offsets, one unpack."""
        indices = np.asarray(indices, dtype=np.int64).reshape(-1)
        if indices.size and (indices.min() < 0
                             or indices.max() >= self.num_leaves):
            bad = indices[(indices < 0) | (indices >= self.num_leaves)][0]
            raise IndexError("leaf index %d out of range" % bad)
        if not self.depth:
            return [()] * len(indices)
        rows = self._path_starts + ((indices[:, None] >> self._path_shifts) ^ 1)
        path = struct.Struct("%ds" % DIGEST_BYTES * self.depth)
        return list(path.iter_unpack(self.nodes.take(rows, axis=0).tobytes()))


def column_digests(columns: Sequence[np.ndarray]) -> List[bytes]:
    """blake2b-256 (no key, no person) of each column's little-endian
    residues, equal to ``hashlib``'s: one ``gl_hash_columns`` call per
    column length, eight columns abreast through a pointer table."""
    columns = [np.ascontiguousarray(col, dtype=np.uint64) for col in columns]
    out = np.empty((len(columns), DIGEST_BYTES), dtype=np.uint8)
    for size in sorted({len(col) for col in columns}):
        which = [i for i, col in enumerate(columns) if len(col) == size]
        ptrs = np.array([columns[i].ctypes.data for i in which], dtype=np.uintp)
        part = np.empty((len(which), DIGEST_BYTES), dtype=np.uint8)
        native.library().gl_hash_columns(part.ctypes.data, ptrs.ctypes.data,
                                         len(which), size)
        out[which] = part
    return [digest.tobytes() for digest in out]


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
