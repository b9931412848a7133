"""Tests for the Merkle tree: paths over byte leaves (built by the
``hashlib`` oracle in ``tests/oracle.py``) and over matrix rows (built by
the kernel), both checked by ``verify_merkle_path``."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.commit import MerkleTree, verify_merkle_path
from repro.commit.merkle import leaf_bytes
from repro.obs.stats import STATS

from tests.oracle import hashlib_tree


def test_empty_rejected():
    with pytest.raises(ValueError):
        MerkleTree.from_rows(np.zeros((0, 2), dtype=np.uint64))
    with pytest.raises(ValueError):
        hashlib_tree([])


def test_single_leaf():
    t = hashlib_tree([b"only"])
    assert verify_merkle_path(t.root, 0, b"only", t.open(0))


def test_all_paths_verify():
    leaves = [bytes([i]) * 4 for i in range(7)]
    t = hashlib_tree(leaves)
    for i, leaf in enumerate(leaves):
        assert verify_merkle_path(t.root, i, leaf, t.open(i))


def test_wrong_leaf_rejected():
    leaves = [b"a", b"b", b"c", b"d"]
    t = hashlib_tree(leaves)
    assert not verify_merkle_path(t.root, 1, b"x", t.open(1))


def test_wrong_index_rejected():
    leaves = [b"a", b"b", b"c", b"d"]
    t = hashlib_tree(leaves)
    assert not verify_merkle_path(t.root, 2, b"b", t.open(1))


def test_out_of_range_open():
    t = hashlib_tree([b"a", b"b"])
    with pytest.raises(IndexError):
        t.open(2)


def test_roots_differ_for_different_content():
    assert hashlib_tree([b"a", b"b"]).root != hashlib_tree([b"a", b"c"]).root


def test_leaf_node_domain_separation():
    # A single leaf equal to the concatenation of two hashes must not
    # collide with the two-leaf tree (second-preimage resistance shape).
    t2 = hashlib_tree([b"a", b"b"])
    forged = hashlib_tree([t2._levels[0][0].tobytes() + t2._levels[0][1].tobytes()])
    assert forged.root != t2.root


@given(
    n=st.integers(min_value=1, max_value=20),
    idx_frac=st.floats(min_value=0, max_value=0.999),
)
@settings(max_examples=25)
def test_paths_verify_property(n, idx_frac):
    leaves = [i.to_bytes(4, "little") for i in range(n)]
    t = hashlib_tree(leaves)
    i = int(idx_frac * n)
    assert verify_merkle_path(t.root, i, leaves[i], t.open(i))


# -- matrix-leaf trees ---------------------------------------------------------


@given(
    depth=st.integers(min_value=1, max_value=5),
    cols=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    as_array=st.booleans(),
)
@settings(max_examples=25, deadline=None)
def test_row_trees_open_every_index_and_nothing_else(depth, cols, seed,
                                                     as_array):
    rng = np.random.default_rng(seed)
    leaves = 1 << depth
    mat = rng.integers(0, 2**63, size=(leaves, cols), dtype=np.uint64)
    tree = MerkleTree.from_rows(mat if as_array else mat.tolist())
    assert tree.depth == depth
    for i in range(leaves):
        leaf, path = leaf_bytes(mat[i].tolist()), tree.open(i)
        assert verify_merkle_path(tree.root, i, leaf, path)
        for other in (i - 1, i + 1):
            if 0 <= other < leaves:
                assert not verify_merkle_path(tree.root, other, leaf, path)
        # any one flipped bit of the leaf breaks the path
        byte = int(rng.integers(len(leaf)))
        flipped = bytearray(leaf)
        flipped[byte] ^= 1 << int(rng.integers(8))
        assert not verify_merkle_path(tree.root, i, bytes(flipped), path)
    # an index beyond the tree never verifies, whatever the path length
    assert not verify_merkle_path(tree.root, leaves, leaf, path)


def test_array_and_list_rows_hash_identically():
    mat = np.arange(24, dtype=np.uint64).reshape(8, 3)
    assert (MerkleTree.from_rows(mat).root
            == MerkleTree.from_rows(mat.tolist()).root)
    # a row's leaf is its leaf_bytes, whichever form it came in
    tree = MerkleTree.from_rows(mat)
    assert verify_merkle_path(tree.root, 5, leaf_bytes(mat[5].tolist()),
                              tree.open(5))


def test_tree_hashes_are_counted():
    before = STATS.snapshot()
    tree = MerkleTree.from_rows(np.ones((16, 2), dtype=np.uint64))
    delta = STATS.delta(before)
    assert (delta["merkle_leaf_hashes"], delta["merkle_node_hashes"]) == (16, 15)
    before = STATS.snapshot()
    verify_merkle_path(tree.root, 3, leaf_bytes([1, 1]), tree.open(3))
    delta = STATS.delta(before)
    assert (delta["merkle_leaf_hashes"], delta["merkle_node_hashes"]) == (1, 4)
