"""The compiled Merkle tree against the ``hashlib`` oracle.

``MerkleTree.from_lde`` builds a round's tree in one ``gl_merkle_tree``
call, reading every leaf from the LDE where it lies; ``tests/oracle.py``
builds the same tree with a ``hashlib`` loop over the explicit leaf
matrix (``lde_leaf_rows``).  The two must be the same object, down to its
pickle and the hash counts.  ``column_digests`` is held to ``hashlib``
the same way.
"""

import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.commit import MerkleTree, verify_merkle_path
from repro.commit.merkle import DIGEST_BYTES, _hash_leaf, column_digests, leaf_bytes
from repro.field import gl64
from repro.obs.stats import STATS

from tests import oracle
from tests.oracle import hashlib_tree, lde_leaf_rows, tree_from_lde


def build(lde, tier):
    """The tree and the STATS delta of building it on ``tier``."""
    before = STATS.snapshot()
    tree = (tree_from_lde if tier == "numpy" else MerkleTree.from_lde)(lde)
    return tree, STATS.delta(before)


@settings(max_examples=60, deadline=None)
@given(
    m=st.sampled_from([1, 7, 8, 9]) | st.integers(1, 50),
    ext=st.sampled_from([1, 2, 4]),
    n=st.sampled_from([2, 6, 16]) | st.integers(1, 40).map(lambda h: 2 * h),
    seed=st.integers(0, 2**32 - 1),
)
@example(m=8, ext=1, n=6, seed=0)    # a 128-byte leaf: one full block
@example(m=9, ext=2, n=10, seed=0)   # 144 bytes: a second block
@example(m=1, ext=1, n=128, seed=0)
def test_compiled_tree_is_the_hashlib_tree(m, ext, n, seed):
    lde = np.random.default_rng(seed).integers(
        0, gl64.P, size=(m, ext, n), dtype=np.uint64)
    count = ext * n // 2
    rows = lde_leaf_rows(lde)
    fast, fast_stats = build(lde, "native")
    slow, slow_stats = build(lde, "numpy")
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
    tree = MerkleTree.from_lde(np.arange(10, dtype=np.uint64).reshape(1, 1, 10))
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


@settings(max_examples=40, deadline=None)
@given(
    count=st.integers(0, 19),
    words=st.sampled_from([0, 1, 15, 16, 17, 32, 33]) | st.integers(0, 300),
    ragged=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_column_digests_are_hashlibs(count, words, ragged, seed):
    """Columns of one length (eight abreast and a tail), or of two
    lengths (one kernel call each), strided ones copied first."""
    rng = np.random.default_rng(seed)
    cols = [rng.integers(0, gl64.P, size=words + (ragged and i % 3 == 1), dtype=np.uint64)
            for i in range(count)]
    if cols and words > 1:
        cols[0] = np.repeat(cols[0], 2)[::2]  # a strided view
    assert column_digests(cols) == oracle.column_digests(cols)
