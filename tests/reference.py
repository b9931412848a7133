"""Plain-Python references the vectorized kernels are tested against.

Each function here is the textbook, row-at-a-time form of something the
prover computes with the Goldilocks kernels: a radix-2 NTT over lists of
ints, Horner evaluation, the lookup multiplicity count and the running
sum.  They are written for clarity, not speed, and are field-generic, so
they share no code (and no caches) with what they check.
"""

from typing import Dict, List, Sequence

from repro.field.prime_field import PrimeField
from repro.halo2.prover import _not_in_table


def ntt(field: PrimeField, values: Sequence[int], root: int) -> List[int]:
    """Evaluations at ``root^0 .. root^(n-1)`` of the coefficient vector
    ``values`` (``n`` a power of two, ``root`` of order ``n``)."""
    n = len(values)
    if n & (n - 1):
        raise ValueError("NTT length must be a power of two, got %d" % n)
    p = field.p
    out = list(values)
    j = 0
    for i in range(1, n):  # bit-reversal permutation
        bit = n >> 1
        while j & bit:
            j ^= bit
            bit >>= 1
        j |= bit
        if i < j:
            out[i], out[j] = out[j], out[i]
    length = 2
    while length <= n:
        step = pow(root, n // length, p)
        half = length // 2
        for start in range(0, n, length):
            w = 1
            for i in range(start, start + half):
                u, v = out[i], out[i + half] * w % p
                out[i], out[i + half] = (u + v) % p, (u - v) % p
                w = w * step % p
        length <<= 1
    return out


def intt(field: PrimeField, values: Sequence[int], root: int) -> List[int]:
    """Inverse of :func:`ntt` with the same root."""
    inv_n = field.inv(len(values))
    return [v * inv_n % field.p for v in ntt(field, values, field.inv(root))]


def coset_ntt(field: PrimeField, values: Sequence[int], root: int,
              shift: int) -> List[int]:
    """Evaluations on the coset ``shift * <root>``."""
    p = field.p
    return ntt(field, [v * pow(shift, i, p) % p for i, v in enumerate(values)],
               root)


def coset_intt(field: PrimeField, values: Sequence[int], root: int,
               shift: int) -> List[int]:
    """Inverse of :func:`coset_ntt`."""
    p, inv_shift = field.p, field.inv(shift)
    return [c * pow(inv_shift, i, p) % p
            for i, c in enumerate(intt(field, values, root))]


def poly_eval(field: PrimeField, coeffs: Sequence[int], x: int) -> int:
    """``sum_i coeffs[i] x^i`` by Horner's rule."""
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % field.p
    return acc


def lookup_multiplicities(field: PrimeField, names: Sequence[str],
                          f_vecs, t_vec, selectors) -> List[int]:
    """Per table row, how many active input rows of all the lookups
    ``names`` (compressed inputs ``f_vecs``; 0/1 ``selectors``, ``None``
    for a lookup of every row) hit it, each input counted at the first
    table row holding its value.  An active value missing from the table
    raises the prover's ``ProvingError`` for the first such lookup, at
    its lowest row."""
    first_row_of: Dict[int, int] = {}
    for row, t in enumerate(t_vec):
        first_row_of.setdefault(int(t), row)
    counts = [0] * len(t_vec)
    for name, f_vec, sel in zip(names, f_vecs, selectors):
        for row, f in enumerate(f_vec):
            if sel is not None and not sel[row]:
                continue
            target = first_row_of.get(int(f))
            if target is None:
                raise _not_in_table(field, name, int(f), row)
            counts[target] += 1
    return counts


def prefix_sum(field: PrimeField, values: Sequence[int]) -> List[int]:
    """The running-sum column: ``s[0] = 0``, ``s[j+1] = s[j] + values[j]``."""
    out = [0] * len(values)
    for row in range(len(values) - 1):
        out[row + 1] = field.add(out[row], values[row])
    return out
