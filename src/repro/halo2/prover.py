"""Proof creation.

Follows the halo2 recipe (paper §3 and §7.4):

1. commit to the user advice columns;
2. derive ``theta/beta/gamma/alpha`` and build the lookup (one ``h`` per
   lookup, one ``m`` and ``s`` per table) and permutation (h_c, s) helper
   columns; commit to them;
3. derive ``y``, fold every constraint, and divide by the vanishing
   polynomial on the extended coset to obtain the quotient polynomial,
   committed in ``d_max - 1`` pieces of degree < n;
4. derive ``x`` and open every queried polynomial.

The FFTs and commitments performed here are the operations the optimizer's
cost model counts (Eqs. 1–2).

Implementation notes: on Goldilocks every phase runs batched over whole
*matrices* of columns.  Phase 1 and the helper commits stack columns into
an ``(m, n)`` ``uint64`` matrix, interpolate with one batched NTT, and
commit row by row; all-zero columns (detected at synthesis by
:meth:`~repro.halo2.circuit.Assignment.advice_is_zero` or at commit time
by a row scan) skip both the transform and the digest.  Phase 2 stacks
every lookup and permutation denominator into a single flat
``gl64.batch_inv`` call and builds lookup multiplicities with sorted
numpy searches.  Phase 3 evaluates the quotient per *coset part* —
``extension`` interleaved base-width cosets — so no column is ever
materialized at extended width and the vanishing division is one scalar
per part; column sets past ``QUOTIENT_STREAM_ELEMS`` process one part at
a time, bounding peak memory to one ``(columns, n)`` matrix.  On other
fields the columnwise list-backend reference path runs instead (phase 2
is one construction over either backend, with per-row reference
kernels in place of the vectorized ones), and the two produce
byte-identical proofs (asserted by the equivalence tests).

The prover is serial: one process, one thread per proof.  More cores are
used by proving more batches at once (``zkml serve --workers N``), never
by splitting one proof.  A :class:`~repro.perf.timer.PhaseTimer` may be
passed to record the commit / helpers / quotient / openings phase
breakdown.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Tuple

import numpy as np

from repro.commit.scheme import Commitment, CommitmentScheme
from repro.commit.transcript import Transcript
from repro.field import gl64
from repro.halo2.circuit import Assignment
from repro.halo2.column import Column, ColumnType
from repro.halo2.expression import VectorEvaluator, evaluate_on_lagrange
from repro.halo2.keygen import ALPHA, BETA, GAMMA, THETA, ProvingKey
from repro.halo2.proof import Proof
from repro.obs.stats import STATS
# leaf-module import: repro.perf's package init pulls in the pk cache,
# which imports repro.halo2 and would close an import cycle through here
from repro.perf.timer import NULL_TIMER
# re-exported for callers that import ProvingError from here; the class
# now lives in the shared taxonomy and carries phase/layer/row context
from repro.resilience.errors import ProvingError

#: Elements (referenced columns x extended width) above which the quotient
#: streams one coset part at a time instead of holding every column's
#: (extension, n) part matrix at once.  Below it the all-parts batch wins:
#: the expression evaluator's per-node overhead is paid once, not once per
#: part (the per-part loop measured 40-60% slower at k=9, 0-8% at k=12).
QUOTIENT_STREAM_ELEMS = 1 << 25


def _interpolate_commit_rows(domain, scheme, rows: np.ndarray):
    """Interpolate + commit the rows of ``rows``; returns (polys, coms).

    All-zero rows skip the transform (a zero column interpolates to the
    zero polynomial) and share one zero-polynomial commitment; both skips
    are counted in ``STATS.sparsity_skips``.  The nonzero rows go through
    a single batched inverse NTT.
    """
    m = rows.shape[0]
    nonzero = np.flatnonzero(np.any(rows != 0, axis=1))
    if nonzero.size == m:
        polys = domain.lagrange_to_coeff_rows(rows)
    else:
        polys = np.zeros_like(rows)
        if nonzero.size:
            polys[nonzero] = domain.lagrange_to_coeff_rows(rows[nonzero])
        STATS.sparsity_skips += m - nonzero.size
    zero_rows = frozenset(range(m)) - frozenset(nonzero.tolist())
    zero_digest = None
    coms = []
    for i in range(m):
        if i in zero_rows and zero_digest is not None:
            # reuse the memoized zero-polynomial digest, but as fresh
            # objects: pickle memoizes shared objects into back-references
            # and the proof bytes must match the share-nothing reference
            STATS.sparsity_skips += 1
            coms.append(Commitment(bytes(memoryview(zero_digest))))
        else:
            com = scheme.commit(polys[i])
            if i in zero_rows:
                zero_digest = com.digest
            coms.append(com)
    return polys, coms


def _interpolate_commit(domain, scheme, vecs):
    """Base-domain columns -> (coefficient vectors, commitments): one
    batched call on Goldilocks, column by column on the list backend."""
    if domain.uses_gl64 and vecs:
        return _interpolate_commit_rows(domain, scheme, np.stack(vecs))
    polys = [domain.lagrange_to_coeff_vec(vec) for vec in vecs]
    return polys, [scheme.commit(poly) for poly in polys]


# -- vectorized helper-column kernels ----------------------------------------


def _lookup_multiplicities(field, names, f_arrs, t_arr) -> np.ndarray:
    """Vectorized multiplicity counting: one table's shared ``m`` column.

    ``f_arrs`` holds the compressed inputs of every lookup reading the
    table (``names`` are theirs).  Matches the reference loop bit for
    bit: each input row maps to the *first* table row holding its value
    (stable argsort keeps the lowest original row first among
    duplicates), and a value missing from the table raises
    :class:`ProvingError` naming the first such lookup and its lowest
    offending row.
    """
    n = len(t_arr)
    order = np.argsort(t_arr, kind="stable")
    sorted_t = t_arr[order]
    uniq = np.empty(n, dtype=bool)
    uniq[0] = True
    uniq[1:] = sorted_t[1:] != sorted_t[:-1]
    uniq_vals = sorted_t[uniq]
    first_rows = order[uniq]
    f_all = np.concatenate(f_arrs)
    pos = np.searchsorted(uniq_vals, f_all)
    ok = pos < uniq_vals.size
    ok &= uniq_vals[np.minimum(pos, uniq_vals.size - 1)] == f_all
    if not ok.all():
        which, row = divmod(int(np.argmax(~ok)), n)
        raise _not_in_table(field, names[which], int(f_arrs[which][row]), row)
    counts = np.bincount(first_rows[pos], minlength=n)
    return counts.astype(np.uint64)


def _lookup_multiplicities_ref(field, names, f_vecs, t_vec) -> List[int]:
    """The per-row reference for :func:`_lookup_multiplicities`."""
    first_row_of: Dict[int, int] = {}
    for row, t in enumerate(t_vec):
        first_row_of.setdefault(t, row)
    m_vals = [0] * len(t_vec)
    for name, f_vec in zip(names, f_vecs):
        for row, f in enumerate(f_vec):
            target = first_row_of.get(f)
            if target is None:
                raise _not_in_table(field, name, f, row)
            m_vals[target] += 1
    return m_vals


def _not_in_table(field, name: str, value: int, row: int) -> ProvingError:
    return ProvingError(
        "lookup %r: input %d at row %d is not in the table"
        % (name, field.decode_signed(value), row),
        row=row, lookup=name,
    )


def _prefix_sum_vec(h_arr) -> np.ndarray:
    """The running-sum column: ``s[0] = 0``, ``s[j+1] = s[j] + h[j]``.

    The 32-bit limbs of up to ``2^31`` residues sum without wrapping a
    64-bit word (each limb sum stays below ``2^63 < p``), so the mod-p
    prefix sum is two ``np.cumsum`` passes recombined in the field.
    """
    lo = np.cumsum(h_arr[:-1] & np.uint64(0xFFFFFFFF), dtype=np.uint64)
    hi = np.cumsum(h_arr[:-1] >> np.uint64(32), dtype=np.uint64)
    out = np.zeros(len(h_arr), dtype=np.uint64)
    out[1:] = gl64.add(gl64.mul(hi, 1 << 32), lo)
    return out


def _prefix_sum_ref(field, values) -> List[int]:
    """The per-row reference for :func:`_prefix_sum_vec`."""
    out = [0] * len(values)
    for row in range(len(values) - 1):
        out[row + 1] = field.add(out[row], values[row])
    return out


def _batched_inverses(denoms: List[np.ndarray]) -> List[np.ndarray]:
    """One flat ``batch_inv`` over many same-length denominator vectors.

    ``gl64.batch_inv`` costs ``2*log2(len)`` full-width passes regardless
    of content, so inverting every helper denominator of the proof in a
    single concatenated call amortizes the scans that would dominate at
    column width.  A zero denominator is re-raised per vector so the
    reported index matches the unbatched path.
    """
    if not denoms:
        return []
    flat = np.concatenate(denoms)
    try:
        inv = gl64.batch_inv(flat)
    except ZeroDivisionError:
        return [gl64.batch_inv(d) for d in denoms]
    return list(inv.reshape(len(denoms), -1))


# -- coset-part quotient evaluation ------------------------------------------


def _quotient_extended_np(domain, vk, assignment, advice_polys, challenges, y):
    """The quotient's extended-coset evaluations, one base-width part at a time.

    Extended index ``j = t * extension + r`` splits the coset into
    ``extension`` interleaved parts; part ``r`` is itself a base-width
    coset with shift ``coset_shift * w_E^r``, and a rotation by
    ``rot * extension`` in the extended domain is a cyclic rotation by
    ``rot`` *within every part*.  Folding the constraints over the
    stacked ``(extension, n)`` part matrices therefore reproduces the
    reference extended-domain vector exactly, while every NTT runs at
    base width and the vanishing division collapses to one scalar
    multiply per part (``Z_H`` is constant on a part).

    The fast path holds all parts of every referenced column at once;
    past ``QUOTIENT_STREAM_ELEMS`` the streaming mode loops over parts so
    peak extra memory is one ``(columns, n)`` matrix.
    """
    backend = domain.backend
    n = domain.n
    extension = domain.extended_n // domain.n
    cols = set()
    for _, expr in vk.constraints:
        cols |= {col for col, _ in expr.refs()}
    cols_order = sorted(cols, key=lambda c: (c.kind.value, c.index))
    col_ix = {col: i for i, col in enumerate(cols_order)}
    # fixed/selector parts are circuit constants precomputed at keygen;
    # only witness-dependent (advice, instance) columns transform here
    fixed_parts = vk.fixed_part_evals()
    dyn_pos: List[int] = []
    dyn_rows = []
    for i, col in enumerate(cols_order):
        if col.kind == ColumnType.ADVICE:
            poly = advice_polys[col.index]
        elif col.kind == ColumnType.INSTANCE:
            poly = domain.lagrange_to_coeff_vec(
                backend.from_ints(assignment.column_values(col))
            )
        else:
            continue
        dyn_pos.append(i)
        dyn_rows.append(poly if isinstance(poly, np.ndarray) else gl64.from_ints(poly))
    # all parts of one column together equal one logical extended NTT;
    # counted for every referenced column so the tally stays comparable
    # with the cost model whether or not the fixed parts were cached
    STATS.ntt_extended += len(cols_order)
    mat_dyn = (
        np.stack(dyn_rows) if dyn_rows else np.zeros((0, n), dtype=np.uint64)
    )
    inv_parts = domain.vanishing_part_inverses()
    exprs = [expr for _, expr in vk.constraints]

    if len(cols_order) * domain.extended_n > QUOTIENT_STREAM_ELEMS:
        q_ext = np.empty(domain.extended_n, dtype=np.uint64)
        for r in range(extension):
            part = np.empty((len(cols_order), n), dtype=np.uint64)
            for i, col in enumerate(cols_order):
                if col.kind not in (ColumnType.ADVICE, ColumnType.INSTANCE):
                    part[i] = fixed_parts[col][r]
            if dyn_pos:
                part[dyn_pos] = domain.coeff_to_extended_part(mat_dyn, r)
            rotated: Dict[Tuple[Column, int], object] = {}

            def read_vec(col, rot, _part=part, _rotated=rotated):
                key = (col, rot)
                vec = _rotated.get(key)
                if vec is None:
                    vec = backend.rotate(_part[col_ix[col]], rot)
                    _rotated[key] = vec
                return vec

            folded = VectorEvaluator(backend, n, read_vec, challenges).fold(
                exprs, y
            )
            q_ext[r::extension] = gl64.mul(folded, np.uint64(inv_parts[r]))
        return q_ext

    parts = np.empty((len(cols_order), extension, n), dtype=np.uint64)
    for i, col in enumerate(cols_order):
        if col.kind not in (ColumnType.ADVICE, ColumnType.INSTANCE):
            parts[i] = fixed_parts[col]
    for r in range(extension):
        if dyn_pos:
            parts[dyn_pos, r, :] = domain.coeff_to_extended_part(mat_dyn, r)
    rotated: Dict[Tuple[Column, int], object] = {}

    def read_vec(col, rot):
        key = (col, rot)
        vec = rotated.get(key)
        if vec is None:
            vec = backend.rotate(parts[col_ix[col]], rot)
            rotated[key] = vec
        return vec

    evaluator = VectorEvaluator(backend, (extension, n), read_vec, challenges)
    folded = evaluator.fold(exprs, y)
    q_mat = gl64.mul(folded, np.array(inv_parts, dtype=np.uint64).reshape(-1, 1))
    # q_mat[r, t] is extended index t*extension + r
    return np.ascontiguousarray(q_mat.T).reshape(-1)


def create_proof(
    pk: ProvingKey,
    assignment: Assignment,
    scheme: CommitmentScheme,
    timer=None,
) -> Proof:
    """Produce a proof that ``assignment`` satisfies the circuit.

    Args:
        pk: The proving key from keygen.
        assignment: The witness grid.
        scheme: The commitment backend.
        timer: An optional :class:`repro.perf.PhaseTimer` that receives the
            commit/helpers/quotient/openings wall-clock breakdown.
    """
    vk = pk.vk
    field = vk.field
    domain = vk.domain
    n = vk.n
    cs = vk.cs
    if assignment.k != vk.k:
        raise ProvingError(
            "assignment has k=%d but keys expect k=%d" % (assignment.k, vk.k),
            assignment_k=assignment.k, key_k=vk.k,
        )
    timer = timer if timer is not None else NULL_TIMER
    backend = domain.backend
    use_np = domain.uses_gl64

    transcript = Transcript(field)
    transcript.append_message(b"vk", vk.digest())
    for col_values in assignment.instance_values():
        transcript.append_scalar_vector(b"instance", col_values)

    # ---- phase 1: user advice commitments ---------------------------------
    with timer.phase("commit"):
        advice_vecs: Dict[int, object] = {}
        for i in range(cs.num_advice):
            if use_np and assignment.advice_is_zero(i):
                # synthesis never wrote a nonzero value: skip even the
                # row-by-row grid read; the zero row is then skipped again
                # at interpolation/commit time
                advice_vecs[i] = np.zeros(n, dtype=np.uint64)
            else:
                col = Column(ColumnType.ADVICE, i)
                advice_vecs[i] = backend.from_ints(assignment.column_values(col))
        advice_polys: Dict[int, object] = {}
        advice_commitments = []
        polys, coms = _interpolate_commit(
            domain, scheme, [advice_vecs[i] for i in range(cs.num_advice)])
        for i, com in enumerate(coms):
            advice_polys[i] = polys[i]
            advice_commitments.append(com)
            transcript.append_commitment(b"advice", com.digest)

    challenges = {
        THETA: transcript.challenge_scalar(b"theta"),
        BETA: transcript.challenge_scalar(b"beta"),
        GAMMA: transcript.challenge_scalar(b"gamma"),
        ALPHA: transcript.challenge_scalar(b"alpha"),
    }

    # ---- phase 2: helper columns -------------------------------------------
    with timer.phase("helpers"):
        lagrange_cache: Dict[Column, object] = {}

        def read_lagrange(col: Column):
            """Base-domain evaluations of a user column, as a backend vector."""
            cached = lagrange_cache.get(col)
            if cached is not None:
                return cached
            if col.kind == ColumnType.ADVICE:
                vec = advice_vecs.get(col.index)
                if vec is None:
                    raise ProvingError("helper expression reads helper column %r" % col)
            elif col.kind == ColumnType.INSTANCE:
                vec = backend.from_ints(assignment.column_values(col))
            else:
                vec = backend.from_ints(pk.fixed_evals[col])
            lagrange_cache[col] = vec
            return vec

        def compress_columns(exprs, theta: int):
            """Columnwise random-linear combination by powers of theta."""
            parts = [
                evaluate_on_lagrange(e, backend, read_lagrange, n, challenges)
                for e in exprs
            ]
            acc = parts[-1]
            for part in reversed(parts[:-1]):
                acc = backend.fold(acc, theta, part)
            return acc

        # One construction for both backends; only the row-sequential
        # kernels differ.  On Goldilocks every lookup and permutation
        # denominator of the proof is inverted in ONE flat batch_inv call
        # and multiplicities / running sums are vectorized; elsewhere the
        # per-row reference kernels run.
        if use_np:
            multiplicities, prefix_sum = _lookup_multiplicities, _prefix_sum_vec
            inverses = _batched_inverses
        else:
            multiplicities = _lookup_multiplicities_ref
            prefix_sum = partial(_prefix_sum_ref, field)

            def inverses(vectors):
                return [backend.batch_inv(vec) for vec in vectors]

        theta, alpha = challenges[THETA], challenges[ALPHA]
        beta, gamma = challenges[BETA], challenges[GAMMA]
        perm = vk.permutation
        denoms: List[object] = []
        m_vecs = []
        for helpers in vk.lookups:
            STATS.lookup_passes += len(helpers.arguments)
            f_vecs = [
                compress_columns(lk.inputs, theta) for lk in helpers.arguments
            ]
            t_vec = compress_columns(helpers.table, theta)
            m_vecs.append(backend.from_ints(multiplicities(
                field, [lk.name for lk in helpers.arguments], f_vecs, t_vec
            )))
            denoms.extend(backend.add_scalar(f_vec, alpha) for f_vec in f_vecs)
            denoms.append(backend.add_scalar(t_vec, alpha))
        if perm is not None:
            for col, id_col, sigma_col in zip(
                perm.columns, perm.id_cols, perm.sigma_cols
            ):
                v_vec = read_lagrange(col)
                for tag_col in (id_col, sigma_col):
                    tags = backend.from_ints(pk.fixed_evals[tag_col])
                    denoms.append(backend.add_scalar(
                        backend.add(v_vec, backend.mul_scalar(tags, beta)), gamma
                    ))
        invs = iter(inverses(denoms))

        helper_evals: Dict[int, object] = {}
        for helpers, m_vec in zip(vk.lookups, m_vecs):
            # h_i = 1/(alpha + f_i);  s accumulates sum_i h_i - m/(alpha + t)
            total = backend.zeros(n)
            for h_col in helpers.h_cols:
                h_vec = next(invs)
                helper_evals[h_col.index] = h_vec
                total = backend.add(total, h_vec)
            total = backend.sub(total, backend.mul(m_vec, next(invs)))
            helper_evals[helpers.m_col.index] = m_vec
            helper_evals[helpers.s_col.index] = prefix_sum(total)
        if perm is not None:
            total = backend.zeros(n)
            for h_col in perm.helper_cols:
                inv_id, inv_sigma = next(invs), next(invs)
                h_vec = backend.sub(inv_id, inv_sigma)
                helper_evals[h_col.index] = h_vec
                total = backend.add(total, h_vec)
            helper_evals[perm.sum_col.index] = prefix_sum(total)

        helper_order = sorted(helper_evals)
        polys, coms = _interpolate_commit(
            domain, scheme, [helper_evals[idx] for idx in helper_order])
        helper_commitments = []
        for idx, poly, com in zip(helper_order, polys, coms):
            advice_polys[idx] = poly
            advice_vecs[idx] = helper_evals[idx]
            helper_commitments.append(com)
            transcript.append_commitment(b"helper", com.digest)

    y = transcript.challenge_scalar(b"y")

    # ---- phase 3: quotient ---------------------------------------------------
    with timer.phase("quotient"):
        ext_n = domain.extended_n
        extension = ext_n // n
        if use_np:
            q_ext = _quotient_extended_np(
                domain, vk, assignment, advice_polys, challenges, y
            )
        else:
            extended_cache: Dict[Column, object] = {}
            rotated_cache: Dict[Tuple[Column, int], object] = {}

            def extended_evals(col: Column):
                cached = extended_cache.get(col)
                if cached is not None:
                    return cached
                if col.kind == ColumnType.ADVICE:
                    poly = advice_polys[col.index]
                elif col.kind == ColumnType.INSTANCE:
                    poly = domain.lagrange_to_coeff_vec(
                        backend.from_ints(assignment.column_values(col))
                    )
                else:
                    poly = vk.fixed_polys[col]
                ext = domain.coeff_to_extended_vec(poly)
                extended_cache[col] = ext
                return ext

            def read_vec(col: Column, rot: int):
                key = (col, rot)
                cached = rotated_cache.get(key)
                if cached is not None:
                    return cached
                vec = backend.rotate(extended_evals(col), rot * extension)
                rotated_cache[key] = vec
                return vec

            evaluator = VectorEvaluator(backend, ext_n, read_vec, challenges)
            folded = evaluator.fold([expr for _, expr in vk.constraints], y)
            q_ext = backend.mul(folded, domain.vanishing_inverse_vec())

        q_coeffs = domain.extended_to_coeff_vec(q_ext)

        num_pieces = vk.num_quotient_pieces
        pieces = []
        for j in range(num_pieces):
            piece = q_coeffs[j * n : (j + 1) * n]
            if len(piece) < n:
                padded = backend.zeros(n)
                padded[: len(piece)] = piece
                piece = padded
            pieces.append(piece)

        quotient_commitments = []
        for piece in pieces:
            com = scheme.commit(piece)
            quotient_commitments.append(com)
            transcript.append_commitment(b"quotient", com.digest)

    x = transcript.challenge_nonzero(b"x")

    # ---- phase 4: openings -----------------------------------------------------
    with timer.phase("openings"):
        advice_openings: Dict[Tuple[int, int], "OpeningProof"] = {}
        if use_np:
            if vk.advice_queries:
                qrows = np.stack(
                    [advice_polys[col.index] for col, _ in vk.advice_queries]
                )
                points = [domain.rotate(x, rot) for _, rot in vk.advice_queries]
                for (col, rot), opening in zip(
                    vk.advice_queries, scheme.open_rows(qrows, points)
                ):
                    advice_openings[(col.index, rot)] = opening
            quotient_openings = scheme.open_rows(
                np.stack(pieces), [x] * len(pieces)
            )
        else:
            for col, rot in vk.advice_queries:
                point = domain.rotate(x, rot)
                advice_openings[(col.index, rot)] = scheme.open(
                    advice_polys[col.index], point
                )
            quotient_openings = [scheme.open(piece, x) for piece in pieces]

    return Proof(
        advice_commitments=advice_commitments,
        helper_commitments=helper_commitments,
        quotient_commitments=quotient_commitments,
        advice_openings=advice_openings,
        quotient_openings=quotient_openings,
    )
