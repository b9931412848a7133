"""Tensors of grid-cell entries with free shape operations.

A counting walk (the layout simulator) runs the same layer code on
:class:`ShapeTensor` operands: every element is :data:`PLACEHOLDER`, and
the entry lists it hands to gadgets are :class:`Lanes`, so the walk costs
O(ndim) per shape operation whatever the tensor's size.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.halo2.column import Column, cell_of


@dataclass(frozen=True)
class Cell:
    """A concrete cell of the circuit grid."""

    column: Column
    row: int


class Entry:
    """One tensor element: a fixed-point value plus its home cell.

    ``home`` is None until a gadget first materializes the value in the
    grid, then that cell's :func:`~repro.halo2.column.cell_code`; because
    shape operations share Entry objects, materializing a value once
    makes every view of it copy-constrainable.
    """

    __slots__ = ("value", "home")

    def __init__(self, value: int, home: Optional[int] = None):
        self.value = value
        self.home = home

    @property
    def cell(self) -> Optional[Cell]:
        """The home as a :class:`Cell`, or None before the first placement."""
        return None if self.home is None else Cell(*cell_of(self.home))

    def __repr__(self) -> str:
        return "Entry(%r%s)" % (self.value,
                                "" if self.home is None else ", placed")


#: The one element of every shape-only tensor: it has no value, so a
#: counting walk that reads one fails instead of computing garbage.
PLACEHOLDER = Entry(None)


class Lanes(SequenceABC):
    """``n`` references to one item in O(1) memory: what a counting walk
    passes where an assigning one passes a list."""

    __slots__ = ("item", "n")

    def __init__(self, item, n: int):
        self.item = item
        self.n = n

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Lanes(self.item, len(range(*index.indices(self.n))))
        if not -self.n <= index < self.n:
            raise IndexError(index)
        return self.item


_value = operator.attrgetter("value")


def _objects(items: Iterable, shape: Sequence[int]) -> np.ndarray:
    """``items`` as an ``object`` ndarray of ``shape``."""
    return np.fromiter(items, dtype=object).reshape(shape)


class Tensor:
    """An n-dimensional array of shared :class:`Entry` references."""

    def __init__(self, entries: np.ndarray):
        if entries.dtype != object:
            raise TypeError("entries must be an object ndarray of Entry")
        self._entries = entries

    # -- constructors ----------------------------------------------------------

    @classmethod
    def from_values(cls, values, shape: Optional[Sequence[int]] = None) -> "Tensor":
        """Build a tensor of fresh entries from integer values."""
        arr = np.asarray(values, dtype=object)
        if shape is not None:
            arr = arr.reshape(shape)
        return cls(_objects(map(Entry, map(int, arr.ravel())), arr.shape))

    @classmethod
    def from_entries(cls, entries: Sequence[Entry], shape: Sequence[int]) -> "Tensor":
        """Wrap existing entries (row-major) into a tensor view."""
        if isinstance(entries, Lanes):
            return ShapeTensor(shape)
        return cls(_objects(entries, tuple(shape)))

    @classmethod
    def filled(cls, entry: Entry, shape: Sequence[int]) -> "Tensor":
        """A tensor where every element references the *same* entry."""
        out = np.empty(tuple(shape), dtype=object)
        out[...] = entry
        return cls(out)

    # -- basic properties --------------------------------------------------------

    @property
    def shape(self) -> Tuple[int, ...]:
        return self._entries.shape

    @property
    def size(self) -> int:
        return int(self._entries.size)

    @property
    def ndim(self) -> int:
        return self._entries.ndim

    def entries(self) -> List[Entry]:
        """Entries in row-major order."""
        return list(self._entries.reshape(-1))

    def rows(self) -> Sequence[Sequence[Entry]]:
        """A matrix's entries, one sequence per row."""
        return list(self._entries)

    def entry(self, *index: int) -> Entry:
        return self._entries[tuple(index)]

    def array(self) -> np.ndarray:
        """The entries as an ``object`` ndarray of this tensor's shape
        (a view: it shares the entries)."""
        return self._entries

    def values(self) -> np.ndarray:
        """Signed fixed-point values as an object ndarray."""
        return _objects(map(_value, self._entries.ravel()), self.shape)

    def values_i64(self) -> np.ndarray:
        """Values as int64 (raises on overflow) for numpy math."""
        return self.values().astype(np.int64)

    # -- free shape operations (paper §5.1) ----------------------------------------

    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return Tensor(self._entries.reshape(shape))

    def flatten(self) -> "Tensor":
        return Tensor(self._entries.reshape(-1))

    def transpose(self, axes: Optional[Sequence[int]] = None) -> "Tensor":
        return Tensor(np.transpose(self._entries, axes))

    def __getitem__(self, index) -> "Tensor":
        sub = self._entries[index]
        if not isinstance(sub, np.ndarray):
            sub = np.array(sub, dtype=object).reshape(())
        return Tensor(sub)

    def squeeze(self, axis: Optional[int] = None) -> "Tensor":
        return Tensor(np.squeeze(self._entries, axis=axis))

    def expand_dims(self, axis: int) -> "Tensor":
        return Tensor(np.expand_dims(self._entries, axis))

    def pad(self, pad_width, pad_entry: Entry) -> "Tensor":
        """Pad with references to a shared constant entry (free)."""
        padded = np.pad(
            self._entries,
            pad_width,
            mode="constant",
            constant_values=pad_entry,
        )
        return Tensor(padded)

    @staticmethod
    def concat(tensors: Iterable["Tensor"], axis: int = 0) -> "Tensor":
        tensors = list(tensors)
        if isinstance(tensors[0], ShapeTensor):
            shape = list(tensors[0].shape)
            shape[axis] = sum(t.shape[axis] for t in tensors)
            return ShapeTensor(shape)
        arrays = [t._entries for t in tensors]
        return Tensor(np.concatenate(arrays, axis=axis))

    def split(self, sections: int, axis: int = 0) -> List["Tensor"]:
        return [Tensor(part) for part in np.split(self._entries, sections, axis)]

    @staticmethod
    def stack(tensors: Sequence["Tensor"], axis: int = 0) -> "Tensor":
        if isinstance(tensors[0], ShapeTensor):
            shape = list(tensors[0].shape)
            shape.insert(axis % (len(shape) + 1), len(tensors))
            return ShapeTensor(shape)
        arrays = [t._entries for t in tensors]
        return Tensor(np.stack(arrays, axis=axis))

    def broadcast_to(self, shape: Sequence[int]) -> "Tensor":
        return Tensor(np.broadcast_to(self._entries, tuple(shape)).copy())

    def windows(self, kh: int, kw: int, stride: int) -> "Tensor":
        """The sliding ``kh x kw`` windows of an (h, w, c) tensor, every
        ``stride`` positions, as an (oh, ow, c, kh, kw) view (free)."""
        view = sliding_window_view(self._entries, (kh, kw), axis=(0, 1))
        return Tensor(view[::stride, ::stride])

    def __repr__(self) -> str:
        return "Tensor(shape=%r)" % (self.shape,)


class ShapeTensor(Tensor):
    """A tensor that is only a shape: what a counting walk passes between
    layers.  Every element is :data:`PLACEHOLDER`, and each shape
    operation computes its result's shape instead of moving references."""

    def __init__(self, shape: Iterable[int]):
        self._shape = tuple(shape)

    @property
    def shape(self) -> Tuple[int, ...]:
        return self._shape

    @property
    def size(self) -> int:
        return math.prod(self._shape)

    @property
    def ndim(self) -> int:
        return len(self._shape)

    def entries(self) -> Lanes:
        return Lanes(PLACEHOLDER, self.size)

    def rows(self) -> Lanes:
        return Lanes(Lanes(PLACEHOLDER, self._shape[1]), self._shape[0])

    def entry(self, *index: int) -> Entry:
        return PLACEHOLDER

    def reshape(self, *shape: int) -> "ShapeTensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        if -1 in shape:
            known = -math.prod(shape)
            shape = tuple(self.size // known if s == -1 else s for s in shape)
        return ShapeTensor(shape)

    def flatten(self) -> "ShapeTensor":
        return ShapeTensor((self.size,))

    def transpose(self, axes: Optional[Sequence[int]] = None) -> "ShapeTensor":
        axes = range(self.ndim - 1, -1, -1) if axes is None else axes
        return ShapeTensor(self._shape[a] for a in axes)

    def __getitem__(self, index) -> "ShapeTensor":
        if isinstance(index, int):
            return ShapeTensor(self._shape[1:])
        index = index if isinstance(index, tuple) else (index,)
        shape = [len(range(*i.indices(dim)))
                 for dim, i in zip(self._shape, index) if isinstance(i, slice)]
        return ShapeTensor(shape + list(self._shape[len(index):]))

    def squeeze(self, axis: Optional[int] = None) -> "ShapeTensor":
        if axis is None:
            return ShapeTensor(s for s in self._shape if s != 1)
        shape = list(self._shape)
        shape.pop(axis)
        return ShapeTensor(shape)

    def expand_dims(self, axis: int) -> "ShapeTensor":
        shape = list(self._shape)
        shape.insert(axis % (self.ndim + 1), 1)
        return ShapeTensor(shape)

    def pad(self, pad_width, pad_entry: Entry) -> "ShapeTensor":
        return ShapeTensor(s + a + b for s, (a, b) in zip(self._shape, pad_width))

    def split(self, sections: int, axis: int = 0) -> List["ShapeTensor"]:
        shape = list(self._shape)
        shape[axis] //= sections
        return [ShapeTensor(shape)] * sections

    def broadcast_to(self, shape: Sequence[int]) -> "ShapeTensor":
        return ShapeTensor(shape)

    def windows(self, kh: int, kw: int, stride: int) -> "ShapeTensor":
        h, w, c = self._shape
        return ShapeTensor(((h - kh) // stride + 1, (w - kw) // stride + 1,
                            c, kh, kw))
