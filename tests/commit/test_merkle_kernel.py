"""The compiled Merkle tree against the ``hashlib`` oracle.

``MerkleTree.from_rows`` builds a tree in one ``gl_merkle_tree`` call;
``tests/oracle.py`` builds the same tree with a ``hashlib`` loop over the
rows' leaf bytes.  The two must be the same object, down to its pickle and
the hash counts.
"""

import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.commit import MerkleTree, verify_merkle_path
from repro.commit.merkle import DIGEST_BYTES, _hash_leaf, leaf_bytes
from repro.field import gl64
from repro.obs.stats import STATS

from tests.oracle import hashlib_tree, tree_from_rows


def build(rows, tier):
    """The tree and the STATS delta of building it on ``tier``."""
    before = STATS.snapshot()
    tree = (tree_from_rows if tier == "numpy" else MerkleTree.from_rows)(rows)
    return tree, STATS.delta(before)


@settings(max_examples=60, deadline=None)
@given(
    count=st.sampled_from([1, 2, 4, 8, 16, 32, 64]) | st.integers(1, 70),
    words=st.sampled_from([16, 17]) | st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
)
@example(count=3, words=16, seed=0)   # a 128-byte leaf: one full block
@example(count=5, words=17, seed=0)   # 136 bytes: a second block
@example(count=64, words=1, seed=0)
def test_compiled_tree_is_the_hashlib_tree(count, words, seed):
    rows = np.random.default_rng(seed).integers(
        0, gl64.P, size=(count, words), dtype=np.uint64)
    fast, fast_stats = build(rows, "native")
    slow, slow_stats = build(rows, "numpy")
    assert fast.nodes.shape == (2 * (1 << (count - 1).bit_length()) - 1,
                                DIGEST_BYTES)
    assert np.array_equal(fast.nodes, slow.nodes)
    assert fast.root == slow.root and fast.depth == slow.depth
    assert pickle.dumps(fast) == pickle.dumps(slow)
    assert fast_stats == slow_stats
    paths = fast.open_many(range(count))
    assert paths == slow.open_many(range(count))
    for i, path in enumerate(paths):
        assert fast.open(i) == slow.open(i) == list(path)
        assert verify_merkle_path(fast.root, i, leaf_bytes(rows[i].tolist()),
                                  path)
    with pytest.raises(IndexError):
        fast.open(count)


def test_a_pickled_tree_is_its_node_array():
    tree = MerkleTree.from_rows(np.arange(10, dtype=np.uint64).reshape(5, 2))
    back = pickle.loads(pickle.dumps(tree))
    assert np.array_equal(back.nodes, tree.nodes)
    assert not back.nodes.flags.writeable
    assert back.open_many([4, 0]) == tree.open_many([4, 0])
    assert len(pickle.dumps(tree)) < tree.nodes.nbytes + 400


def test_open_many_is_open_per_index():
    tree = hashlib_tree([bytes([i]) for i in range(11)])
    assert tree.open_many([]) == []
    assert tree.open_many([10, 3, 3]) == [tuple(tree.open(i)) for i in (10, 3, 3)]
    with pytest.raises(IndexError, match="leaf index -1"):
        tree.open_many([2, -1])
    assert hashlib_tree([b"only"]).open_many([0, 0]) == [(), ()]


def test_a_leaf_holding_two_digests_is_not_their_node():
    t2 = hashlib_tree([b"a", b"b"])
    left, right = t2.open(1)[0], t2.open(0)[0]
    assert left == _hash_leaf(b"a") and right == _hash_leaf(b"b")
    assert hashlib_tree([left + right]).root != t2.root
