"""The prover's constraint evaluator: expressions compiled to a register tape.

Keygen compiles the circuit's expressions once into a :class:`Tape` — a
flat register program in the shape of halo2's ``GraphEvaluator`` — and
keeps it on the :class:`~repro.halo2.keygen.ProvingKey`.  Each proof binds
the tape's scalars (the challenges) and runs it with one
:func:`repro.field.gl64.eval_tape` call, which walks the rows in fixed
blocks through every instruction (``gl_eval_tape`` in ``gl64_native.c``).
Two tapes per key:

- the *quotient* tape folds every constraint with powers of ``y`` over
  the extended coset's ``(extension, n)`` parts (:func:`compile_fold`);
- the *helper* tape writes phase 2's theta-compressed lookup inputs and
  tables and every lookup and permutation denominator
  (:func:`compile_stores`).

Compilation is deduplicated by node identity — keygen shares subtrees
between constraints (a compressed lookup input, a permutation
denominator), and each is computed once per row block — and ``a - b``
(``Sum(a, Neg(b))``) is one ``SUB``.  A subtree without column reads
(``Constant`` / ``Challenge`` arithmetic) is never a vector: it becomes
one *scalar slot*, evaluated in Python when a proof binds the tape.  A
column read is loaded just before the instruction that uses it, and
registers are reused as soon as their value is dead, so the register
file is a property of the expressions, never of ``k``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.field.gl64 import (
    TAPE_ADD,
    TAPE_LOAD,
    TAPE_MUL,
    TAPE_NEG,
    TAPE_STORE,
    TAPE_SUB,
)
from repro.field.prime_field import PrimeField
from repro.halo2.column import Column
from repro.halo2.expression import (
    Challenge,
    Constant,
    Expression,
    Neg,
    Product,
    Ref,
    Sum,
)

#: The challenge label the quotient tape folds the constraints with.
Y = "y"

#: A column slot's source: ``(round, position)`` in the committed rounds
#: (:data:`repro.halo2.shape.FIXED_ROUND` ...), or ``(INSTANCE, index)``
#: for a public column, which is never committed.
Slot = Tuple[int, int]
INSTANCE = -1


@dataclass(frozen=True)
class Tape:
    """A compiled register program (plain data; it pickles with the key).

    ``code`` is ``(len, 4)`` ``int32`` instructions for
    :func:`repro.field.gl64.eval_tape`; ``slots[i]`` says where the
    column ``LOAD`` reads as slot ``i`` comes from; ``scalars[j]`` is the
    constant-only expression behind operand ``-1 - j``.
    """

    code: np.ndarray
    slots: Tuple[Slot, ...]
    scalars: Tuple[Expression, ...]
    num_regs: int
    num_outputs: int

    def bind(self, field: PrimeField, challenges: Dict[str, int]) -> np.ndarray:
        """The scalar operands' values under this proof's challenges."""
        return np.array([e.evaluate(field, None, challenges) for e in self.scalars],
                        dtype=np.uint64)


class _Compiler:
    """Expressions -> SSA instructions over value ids, then registers.

    While compiling, a value is an ``int`` (a vector value id), a
    ``(slot, rotation)`` pair (a column read not loaded yet) or an
    :class:`Expression` (constant-only: it becomes a scalar operand when
    a vector instruction reads it).
    """

    def __init__(self, n: int, slot_of: Callable[[Column], Slot]):
        self.n = n
        self.slot_of = slot_of
        self.columns: List[Column] = []
        self.slots: Dict[Tuple[str, int], int] = {}
        self.scalars: List[Expression] = []
        self.scalar_keys: Dict[object, int] = {}
        #: ``[op, dst, a, b]`` over value ids (``dst`` of a STORE is its
        #: output row); scalar operands are already ``-1 - index``
        self.code: List[List[int]] = []
        self.values = 0
        # id -> (node, value); keeping the node alive pins its id
        self.memo: Dict[int, tuple] = {}

    def value(self, e: Expression):
        kind = type(e)
        if kind is Ref:
            col = e.column
            key = (col.kind.value, col.index)  # hashes faster than a Column
            slot = self.slots.get(key)
            if slot is None:
                slot = self.slots[key] = len(self.columns)
                self.columns.append(col)
            return (slot, e.rotation % self.n)
        if kind is Constant or kind is Challenge:
            return e
        hit = self.memo.get(id(e))
        if hit is not None:
            return hit[1]
        if kind is Sum:
            left, right = e.left, e.right
            if type(right) is Neg:
                op, a, b = TAPE_SUB, left, right.inner
            elif type(left) is Neg:
                op, a, b = TAPE_SUB, right, left.inner
            else:
                op, a, b = TAPE_ADD, left, right
            args = [self.value(a), self.value(b)]
        elif kind is Product:
            op, args = TAPE_MUL, [self.value(e.left), self.value(e.right)]
        elif kind is Neg:
            op, args = TAPE_NEG, [self.value(e.inner)]
        else:
            raise TypeError("unknown expression node %r" % kind.__name__)
        if isinstance(args[0], Expression) and isinstance(args[-1], Expression):
            result = e  # constant-only: one scalar operand, if ever read
        else:
            result = self.op(op, *args)
        self.memo[id(e)] = (e, result)
        return result

    def operand(self, v) -> int:
        """A value as an instruction operand: a pending column read
        becomes a LOAD right before its use, a constant-only expression a
        scalar slot."""
        if isinstance(v, tuple):
            return self.emit(TAPE_LOAD, *v)
        if isinstance(v, Expression):
            if type(v) is Constant:
                key = ("C", v.value)
            elif type(v) is Challenge:
                key = ("H", v.label)
            else:
                key = id(v)
            index = self.scalar_keys.get(key)
            if index is None:
                index = self.scalar_keys[key] = len(self.scalars)
                self.scalars.append(v)
            return -1 - index
        return v

    def emit(self, op: int, a: int, b: int = 0) -> int:
        self.code.append([op, self.values, a, b])
        self.values += 1
        return self.values - 1

    def op(self, op: int, a, b=None):
        """``a (op) b`` as an instruction, or as an expression when both
        sides are constant-only."""
        if isinstance(a, Expression) and (b is None or isinstance(b, Expression)):
            return {TAPE_ADD: Sum, TAPE_MUL: Product}[op](a, b)
        a = self.operand(a)
        if b is None:
            return self.emit(op, a)
        b = self.operand(b)
        if a < 0 and op != TAPE_SUB:
            a, b = b, a  # the vector operand first
        return self.emit(op, a, b)

    def store(self, row: int, v) -> None:
        self.code.append([TAPE_STORE, row, self.operand(v), 0])

    def tape(self, num_outputs: int) -> Tape:
        """Give every value a register, reusing a register once the last
        instruction reading its value has run."""
        code = self.code
        last = [0] * self.values
        for i, (op, _, a, b) in enumerate(code):
            if op != TAPE_LOAD:
                if a >= 0:
                    last[a] = i
                if b >= 0 and op != TAPE_NEG and op != TAPE_STORE:
                    last[b] = i
        reg = [0] * self.values
        free: List[int] = []
        num_regs = 0
        for i, ins in enumerate(code):
            op, dst, a, b = ins
            if op != TAPE_LOAD:
                if a >= 0:
                    ins[2] = reg[a]
                    if last[a] == i:
                        heapq.heappush(free, reg[a])
                if b >= 0 and op != TAPE_NEG and op != TAPE_STORE:
                    ins[3] = reg[b]
                    if last[b] == i and b != a:
                        heapq.heappush(free, reg[b])
            if op != TAPE_STORE:
                if free:
                    reg[dst] = heapq.heappop(free)
                else:
                    reg[dst] = num_regs
                    num_regs += 1
                ins[1] = reg[dst]
        return Tape(code=np.array(code, dtype=np.int32).reshape(-1, 4),
                    slots=tuple(map(self.slot_of, self.columns)),
                    scalars=tuple(self.scalars),
                    num_regs=num_regs, num_outputs=num_outputs)


def compile_fold(exprs: Sequence[Expression], n: int,
                 slot_of: Callable[[Column], Slot]) -> Tape:
    """One output row: ``sum_i y^(len-1-i) * exprs[i]`` (Horner in the
    challenge :data:`Y`), the fold the verifier applies to the openings.

    ``n`` is the length of a coset part, which rotations wrap around;
    ``slot_of`` names the source of each column read.
    """
    c = _Compiler(n, slot_of)
    y = Challenge(Y)
    acc = None
    for e in exprs:
        v = c.value(e)
        acc = v if acc is None else c.op(TAPE_ADD, c.op(TAPE_MUL, acc, y), v)
    c.store(0, Constant(0) if acc is None else acc)
    return c.tape(1)


def compile_stores(exprs: Sequence[Tuple[int, Expression]], n: int,
                   slot_of: Callable[[Column], Slot]) -> Tape:
    """Output row ``row`` holds ``expr`` for every ``(row, expr)``, which
    are evaluated in the order given (put a subtree's readers next to it
    to keep its register short-lived)."""
    c = _Compiler(n, slot_of)
    for row, e in exprs:
        c.store(row, c.value(e))
    return c.tape(len(exprs))
