"""Tests for cell-reference tensors and their free shape operations."""

import numpy as np
import pytest

from repro.tensor import PLACEHOLDER, Entry, Lanes, ShapeTensor, Tensor


def seq_tensor(*shape):
    n = int(np.prod(shape))
    return Tensor.from_values(list(range(n)), shape)


class TestConstruction:
    def test_from_values_shape(self):
        t = seq_tensor(2, 3)
        assert t.shape == (2, 3)
        assert t.size == 6
        assert t.ndim == 2

    def test_values_roundtrip(self):
        t = seq_tensor(2, 2)
        assert t.values().tolist() == [[0, 1], [2, 3]]

    def test_filled_shares_one_entry(self):
        e = Entry(7)
        t = Tensor.filled(e, (2, 2))
        assert all(x is e for x in t.entries())

    def test_non_object_array_rejected(self):
        with pytest.raises(TypeError):
            Tensor(np.zeros((2, 2)))


class TestSharing:
    def test_reshape_shares_entries(self):
        t = seq_tensor(2, 3)
        r = t.reshape(3, 2)
        assert t.entry(0, 1) is r.entry(0, 1)
        # mutating through one view is visible through the other
        t.entry(0, 1).value = 99
        assert r.entry(0, 1).value == 99

    def test_transpose_shares_entries(self):
        t = seq_tensor(2, 3)
        tr = t.transpose()
        assert tr.shape == (3, 2)
        assert tr.entry(2, 1) is t.entry(1, 2)

    def test_slice_shares_entries(self):
        t = seq_tensor(4, 4)
        s = t[1:3, 2:]
        assert s.shape == (2, 2)
        assert s.entry(0, 0) is t.entry(1, 2)

    def test_concat_shares_entries(self):
        a, b = seq_tensor(2, 2), seq_tensor(2, 2)
        c = Tensor.concat([a, b], axis=0)
        assert c.shape == (4, 2)
        assert c.entry(0, 0) is a.entry(0, 0)
        assert c.entry(2, 0) is b.entry(0, 0)

    def test_pad_references_shared_zero(self):
        zero = Entry(0)
        t = seq_tensor(2, 2).pad(((1, 1), (1, 1)), zero)
        assert t.shape == (4, 4)
        assert t.entry(0, 0) is zero
        assert t.entry(3, 3) is zero
        assert t.entry(1, 1).value == 0  # original corner


class TestShapeOps:
    def test_flatten(self):
        assert seq_tensor(2, 3).flatten().shape == (6,)

    def test_squeeze_expand(self):
        t = seq_tensor(1, 3)
        assert t.squeeze(0).shape == (3,)
        assert t.squeeze(0).expand_dims(1).shape == (3, 1)

    def test_split(self):
        parts = seq_tensor(4, 2).split(2, axis=0)
        assert [p.shape for p in parts] == [(2, 2), (2, 2)]
        assert parts[1].entry(0, 0).value == 4

    def test_stack(self):
        s = Tensor.stack([seq_tensor(3), seq_tensor(3)], axis=0)
        assert s.shape == (2, 3)

    def test_broadcast(self):
        t = seq_tensor(1, 3).broadcast_to((4, 3))
        assert t.shape == (4, 3)
        assert t.entry(2, 1) is t.entry(0, 1)

    def test_getitem_scalar_wraps(self):
        t = seq_tensor(2, 2)
        s = t[1, 1]
        assert s.shape == ()
        assert s.entries()[0].value == 3

    def test_values_i64(self):
        assert seq_tensor(3).values_i64().dtype == np.int64


SHAPE_OPS = [
    ("reshape", lambda t: t.reshape(4, -1)),
    ("flatten", lambda t: t.flatten()),
    ("transpose", lambda t: t.transpose()),
    ("transpose_axes", lambda t: t.transpose((2, 0, 1))),
    ("slice", lambda t: t[1:3, :, 1]),
    ("index", lambda t: t[2]),
    ("squeeze", lambda t: t[:1].squeeze(0)),
    ("expand_dims", lambda t: t.expand_dims(-1)),
    ("pad", lambda t: t.pad(((1, 0), (0, 2), (0, 0)), Entry(0))),
    ("split", lambda t: t.split(2, axis=0)[1]),
    ("broadcast", lambda t: t[:, :1].broadcast_to((4, 3, 2))),
    ("windows", lambda t: t.windows(2, 2, 1)),
    ("concat", lambda t: Tensor.concat([t, t], axis=1)),
    ("stack", lambda t: Tensor.stack([t, t], axis=1)),
]


@pytest.mark.parametrize("name,op", SHAPE_OPS, ids=[n for n, _ in SHAPE_OPS])
def test_shape_tensor_tracks_every_shape_op(name, op):
    """A counting walk's shape-only tensor lands on the shape the real
    tensor does, holding only the placeholder."""
    real, shaped = op(seq_tensor(4, 3, 2)), op(ShapeTensor((4, 3, 2)))
    assert isinstance(shaped, ShapeTensor)
    assert shaped.shape == real.shape
    entries = shaped.entries()
    assert isinstance(entries, Lanes) and len(entries) == real.size
    assert entries[-1] is PLACEHOLDER and len(entries[1:]) == real.size - 1
