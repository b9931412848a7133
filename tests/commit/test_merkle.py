"""Tests for the Merkle tree: paths over byte leaves (built by the
``hashlib`` oracle in ``tests/oracle.py``) and over the rows of an LDE
(built by the kernel, reading each leaf where it lies), both checked by
``verify_merkle_path``."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.commit import MerkleTree, verify_merkle_path
from repro.commit.merkle import leaf_bytes
from repro.obs.stats import STATS

from tests.oracle import hashlib_tree, lde_leaf_rows


def test_empty_rejected():
    for shape in ((0, 1, 2), (1, 0, 2), (2, 1, 3), (4, 2)):
        with pytest.raises(ValueError):
            MerkleTree.from_lde(np.zeros(shape, dtype=np.uint64))
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
    ext=st.sampled_from([1, 2, 4]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    as_array=st.booleans(),
)
@settings(max_examples=25, deadline=None)
def test_row_trees_open_every_index_and_nothing_else(depth, cols, ext, seed,
                                                     as_array):
    rng = np.random.default_rng(seed)
    lde = rng.integers(0, 2**63, size=(cols, ext, 2 << depth), dtype=np.uint64)
    leaves, mat = ext << depth, lde_leaf_rows(lde)
    tree = MerkleTree.from_lde(lde if as_array else lde.tolist())
    assert tree.depth == depth + ext.bit_length() - 1
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
    lde = np.arange(48, dtype=np.uint64).reshape(3, 2, 8)
    assert (MerkleTree.from_lde(lde).root
            == MerkleTree.from_lde(lde.tolist()).root)
    # leaf 5 is part 1 at position 2, then at position 6, of every column,
    # whichever form the LDE came in
    tree = MerkleTree.from_lde(lde)
    row = [*lde[:, 1, 2].tolist(), *lde[:, 1, 6].tolist()]
    assert row == lde_leaf_rows(lde)[5].tolist()
    assert verify_merkle_path(tree.root, 5, leaf_bytes(row), tree.open(5))


def test_tree_hashes_are_counted():
    before = STATS.snapshot()
    tree = MerkleTree.from_lde(np.ones((1, 1, 32), dtype=np.uint64))
    delta = STATS.delta(before)
    assert (delta["merkle_leaf_hashes"], delta["merkle_node_hashes"]) == (16, 15)
    before = STATS.snapshot()
    verify_merkle_path(tree.root, 3, leaf_bytes([1, 1]), tree.open(3))
    delta = STATS.delta(before)
    assert (delta["merkle_leaf_hashes"], delta["merkle_node_hashes"]) == (1, 4)
