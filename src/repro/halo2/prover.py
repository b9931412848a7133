"""Proof creation.

Follows the halo2 recipe (paper §3 and §7.4) over a transparent,
succinct commitment scheme (:mod:`repro.commit.scheme`):

1. interpolate the user advice columns, extend them to the rate-
   ``1/extension`` coset and commit the round as one Merkle tree;
2. derive ``theta/beta/gamma/alpha`` and build the lookup (one ``h`` per
   pair of lookups into one table, one ``m`` and ``s`` per table:
   ``sum_j ceil(L_j/2) + 2T`` columns) and permutation (h_c, s) helper
   columns; commit them as a second round;
3. derive ``y``, fold every constraint, and divide by the vanishing
   polynomial on the extended coset to obtain the quotient polynomial,
   committed in ``d_max - 1`` pieces of degree < n as a third round;
4. derive ``x`` (outside the domain and the coset), evaluate every
   queried polynomial at ``omega^rot x``, and prove all of those claims
   with one batched DEEP-FRI opening: ``FRI_QUERIES`` rows of each
   round tree, never a polynomial.

The FFTs and commitments performed here are the operations the optimizer's
cost model counts (Eqs. 1–2).

Implementation notes: every phase runs batched over whole *matrices* of
Goldilocks columns (``uint64`` arrays through the :mod:`repro.field.gl64`
kernels).  Phase 1 and the helper commits stack columns into
an ``(m, n)`` ``uint64`` matrix, interpolate with one batched NTT and
extend with one batched coset NTT per part (the user advice round is the
assignment's ``uint64`` advice array itself); all-zero columns (found by
one row scan) skip the interpolation.  No constraint expression is
walked here: keygen compiled them into two register tapes
(:mod:`repro.halo2.tape`), and each phase that evaluates expressions runs
its tape in one ``gl64.eval_tape`` call.  Phase 2's tape writes every
compressed lookup column, every lookup and permutation denominator and
every lookup numerator; the denominators go through a single flat
``gl64.batch_inv`` call, and lookup multiplicities (over the rows whose
selector is on) come from sorted numpy searches.  Phase 3's tape
folds the constraints per *coset part* — ``extension`` interleaved
base-width cosets — *reading* the committed columns' extensions from
phases 1-2 and the key's fixed round instead of transforming them again,
so the vanishing division is one scalar per part.  The tape walks rows
in fixed blocks, so the evaluator's memory is a register file of a few
blocks whatever the circuit's size.  The compiled and numpy kernel tiers
produce byte-identical proofs (asserted by the equivalence tests, which
also hold each vectorized kernel to a per-row reference).

One proof runs in one process, and this module runs on one thread.  The
cores come in inside a kernel call: a large NTT, Merkle tree, tape run,
weighted sum, Horner or ``batch_inv`` call splits its rows, leaves, row
blocks or columns over the process's kernel threads (one per CPU of its
affinity mask, ``native.thread_count()``) and joins them before it
returns, so no thread outlives a call and the process may fork between
calls.  Every output is computed as one thread computes it: proofs and
``STATS`` (counted here, in Python) do not depend on the thread count.
``zkml serve --workers N`` proves N batches at once in worker processes,
each taking ``cpus // N`` kernel threads; a proof is never split across
processes.  A :class:`~repro.perf.timer.PhaseTimer` may be passed to
record the commit / helpers / quotient / openings phase breakdown.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.commit.scheme import (
    CommitmentScheme,
    CommittedRound,
    draw_opening_point,
)
from repro.commit.transcript import Transcript
from repro.field import gl64
from repro.halo2.circuit import Assignment
from repro.halo2.keygen import ProvingKey
from repro.halo2.proof import Proof
from repro.halo2.shape import (
    ADVICE_ROUND,
    ALPHA,
    BETA,
    FIXED_ROUND,
    GAMMA,
    HELPER_ROUND,
    QUOTIENT_ROUND,
    THETA,
)
from repro.halo2.tape import INSTANCE, Y
from repro.obs.stats import STATS
# leaf-module import: repro.perf's package init pulls in the pk cache,
# which imports repro.halo2 and would close an import cycle through here
from repro.perf.timer import NULL_TIMER
# re-exported for callers that import ProvingError from here; the class
# now lives in the shared taxonomy and carries phase/layer/row context
from repro.resilience.errors import ProvingError


def _interpolate_commit_rows(domain, scheme, rows: np.ndarray):
    """Interpolate, extend and commit the rows of ``rows`` as one round.

    Returns ``(polys, round)``.  All-zero rows skip the interpolation (a
    zero column is the zero polynomial; counted in
    ``STATS.sparsity_skips``); the nonzero rows go through a single
    batched inverse NTT, then every row through one batched coset NTT
    per part.
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
    return polys, scheme.commit_round(domain, domain.lde(polys))


def _interpolate_commit(domain, scheme, vecs):
    """Base-domain columns (an ``(m, n)`` array or a sequence of rows) ->
    (coefficient rows, committed round), in one batched call.  No columns,
    no round (``None``)."""
    if not len(vecs):
        return [], None
    return _interpolate_commit_rows(domain, scheme, np.asarray(vecs))


def _claimed_evaluations(domain, polys_by_round, claims, x) -> List[int]:
    """``f(omega^rot x)`` for every claim, from the coefficient forms, as
    plain ints: one Horner kernel call per round, reading the claimed rows
    of its coefficient matrix in place through a row index."""
    rnds, cols, rots = np.array(claims, dtype=np.int64).reshape(-1, 3).T
    points = np.array([domain.rotate(x, rot) for rot in rots.tolist()], dtype=np.uint64)
    out = np.empty(len(claims), dtype=np.uint64)
    for rnd in sorted(set(rnds.tolist())):
        which = np.flatnonzero(rnds == rnd)
        out[which] = gl64.poly_eval_rows(polys_by_round[rnd], points[which], cols[which])
    return out.tolist()


# -- vectorized helper-column kernels ----------------------------------------


def _lookup_multiplicities(field, names, f_arrs, t_arr,
                           selectors) -> np.ndarray:
    """Vectorized multiplicity counting: one table's shared ``m`` column.

    ``f_arrs`` holds the compressed inputs of every lookup reading the
    table (``names`` are theirs), and ``selectors`` their 0/1 selector
    columns (``None`` for a lookup that reads every row).  Only rows
    whose selector is on count: each such input row maps
    to the *first* table row holding its value (stable argsort keeps the
    lowest original row first among duplicates), and a value missing
    from the table raises :class:`ProvingError` naming the first such
    lookup and its lowest offending row.
    """
    n = len(t_arr)
    order = np.argsort(t_arr, kind="stable")
    sorted_t = t_arr[order]
    uniq = np.empty(n, dtype=bool)
    uniq[0] = True
    uniq[1:] = sorted_t[1:] != sorted_t[:-1]
    uniq_vals = sorted_t[uniq]
    first_rows = order[uniq]
    # the active rows of each lookup (None: all of them); the lookups of
    # one gadget share a selector
    active_rows = {id(sel): None if sel is None else np.flatnonzero(sel)
                   for sel in selectors}
    rows = [active_rows[id(sel)] for sel in selectors]
    f_all = np.concatenate([f if r is None else f[r]
                            for f, r in zip(f_arrs, rows)])
    pos = np.searchsorted(uniq_vals, f_all)
    ok = pos < uniq_vals.size
    ok &= uniq_vals[np.minimum(pos, uniq_vals.size - 1)] == f_all
    if not ok.all():
        bad = int(np.argmax(~ok))
        for which, r in enumerate(rows):
            active = n if r is None else len(r)
            if bad < active:
                row = bad if r is None else int(r[bad])
                raise _not_in_table(field, names[which],
                                    int(f_arrs[which][row]), row)
            bad -= active
    counts = np.bincount(first_rows[pos], minlength=n)
    return counts.astype(np.uint64)


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


def _batched_inverses(denoms: np.ndarray) -> np.ndarray:
    """One flat ``batch_inv`` over the rows of an ``(m, n)`` matrix.

    ``gl64.batch_inv`` costs ``2*log2(len)`` full-width passes regardless
    of content, so inverting every helper denominator of the proof in a
    single call amortizes the scans that would dominate at column width.
    A zero denominator is re-raised per row so the reported index matches
    the unbatched path.
    """
    if not len(denoms):
        return denoms.copy()
    try:
        inv = gl64.batch_inv(denoms.reshape(-1))
    except ZeroDivisionError:
        return np.stack([gl64.batch_inv(d) for d in denoms])
    return inv.reshape(denoms.shape)


# -- the two tape runs ---------------------------------------------------------


def _quotient_extended_np(pk, assignment, committed_lde, challenges, y):
    """The quotient's extended-coset evaluations, in natural order.

    Extended index ``j = t * extension + r`` splits the coset into
    ``extension`` interleaved parts; part ``r`` is itself a base-width
    coset with shift ``coset_shift * w_E^r``, and a rotation by
    ``rot * extension`` in the extended domain is a cyclic rotation by
    ``rot`` *within every part*.  So the key's quotient tape, run over
    every column's ``(extension, n)`` part matrix, reproduces the per-row
    fold over the extended domain exactly, and the vanishing division
    collapses to one scalar multiply per part (``Z_H`` is constant on a
    part), applied as the tape stores its result.

    Nothing committed is transformed here: ``committed_lde(round, pos)``
    is the ``(extension, n)`` extension phases 1-2 (or, for the fixed
    round, keygen) committed; only instance columns (public, never
    committed) are extended on the spot, all in one batch.
    """
    vk = pk.vk
    domain = vk.domain
    tape = pk.quotient_tape
    public = [pos for rnd, pos in tape.slots if rnd == INSTANCE]
    if public:
        public_lde = iter(domain.lde(
            domain.lagrange_to_coeff_rows(assignment.instance[public])))
    cols = []
    for rnd, pos in tape.slots:
        if rnd == INSTANCE:
            cols.append(next(public_lde))
            continue
        if rnd == FIXED_ROUND:
            # read from the keygen-time extension, but counted as the
            # logical transform it replaces so the tally stays comparable
            # with the cost model
            STATS.ntt_extended += 1
        cols.append(committed_lde(rnd, pos))
    q_ext = np.empty((1, domain.extended_n), dtype=np.uint64)
    gl64.eval_tape(tape.code, tape.num_regs, cols,
                   tape.bind(vk.field, {**challenges, Y: y}), q_ext,
                   parts=domain.extension,
                   scale=np.array(domain.vanishing_part_inverses(), dtype=np.uint64))
    return q_ext[0]


def _helper_vectors(pk, assignment, challenges) -> np.ndarray:
    """Phase 2's vectors over the base domain, one row each: every
    table's compressed inputs and table column, every lookup and
    permutation denominator, then every lookup numerator (see
    :func:`repro.halo2.keygen.keygen`)."""
    vk = pk.vk
    tape = pk.helper_tape
    advice = assignment.advice
    cols = []
    for rnd, pos in tape.slots:
        if rnd == ADVICE_ROUND:
            cols.append(advice[pos])
        elif rnd == INSTANCE:
            cols.append(assignment.instance[pos])
        elif rnd == FIXED_ROUND:
            cols.append(pk.fixed_evals[vk.fixed_columns[pos]])
        else:
            raise ProvingError("helper expression reads helper column %d" % pos)
    out = np.empty((tape.num_outputs, vk.n), dtype=np.uint64)
    gl64.eval_tape(tape.code, tape.num_regs, cols,
                   tape.bind(vk.field, challenges), out)
    return out


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
    if assignment.k != vk.k:
        raise ProvingError(
            "assignment has k=%d but keys expect k=%d" % (assignment.k, vk.k),
            assignment_k=assignment.k, key_k=vk.k,
        )
    timer = timer if timer is not None else NULL_TIMER

    transcript = Transcript(field)
    transcript.append_message(b"vk", vk.digest())
    for col_values in assignment.instance_values():
        transcript.append_scalar_vector(b"instance", col_values)

    # rounds and coefficient rows, indexed by the claims' round numbers
    rounds: List[Optional[CommittedRound]] = [None] * 4
    polys_by_round: List[object] = [[]] * 4
    rounds[FIXED_ROUND] = pk.fixed_round
    polys_by_round[FIXED_ROUND] = pk.fixed_polys

    def commit_round(index: int, label: bytes, vecs) -> None:
        polys, committed = _interpolate_commit(domain, scheme, vecs)
        polys_by_round[index] = polys
        rounds[index] = committed
        if committed is not None:
            transcript.append_commitment(label, committed.root)

    # ---- phase 1: user advice commitments ---------------------------------
    with timer.phase("commit"):
        commit_round(ADVICE_ROUND, b"advice", assignment.advice)

    challenges = {
        THETA: transcript.challenge_scalar(b"theta"),
        BETA: transcript.challenge_scalar(b"beta"),
        GAMMA: transcript.challenge_scalar(b"gamma"),
        ALPHA: transcript.challenge_scalar(b"alpha"),
    }

    # ---- phase 2: helper columns -------------------------------------------
    with timer.phase("helpers"):
        # one tape run writes every compressed lookup column, every
        # denominator and every lookup numerator; the denominators are
        # inverted in ONE flat batch_inv call; multiplicities and running
        # sums are vectorized
        vectors = _helper_vectors(pk, assignment, challenges)
        lookup_rows = sum(len(helpers.arguments) + 1 for helpers in vk.lookups)
        h_rows = sum(len(helpers.h_cols) for helpers in vk.lookups)
        compressed = iter(vectors[:lookup_rows])
        perm = vk.permutation
        m_vecs = []
        for helpers in vk.lookups:
            STATS.lookup_passes += len(helpers.arguments)
            f_vecs = [next(compressed) for _ in helpers.arguments]
            m_vecs.append(_lookup_multiplicities(
                field, [lk.name for lk in helpers.arguments], f_vecs,
                next(compressed),
                [None if lk.selector is None else pk.fixed_evals[lk.selector]
                 for lk in helpers.arguments]))
        invs = _batched_inverses(vectors[lookup_rows:len(vectors) - h_rows])
        tables = len(vk.lookups)
        # rows [0, h_rows): h = (q_i (alpha + f_j) + q_j (alpha + f_i)) /
        # ((alpha + f_i)(alpha + f_j)) for a pair, q / (alpha + f) for a
        # lookup alone; then one m / (alpha + t) row per table
        terms = np.empty((h_rows + tables, n), dtype=np.uint64)
        gl64.mul_into(terms[:h_rows], invs[:h_rows], vectors[len(vectors) - h_rows:])
        if tables:
            gl64.mul_into(terms[h_rows:], np.stack(m_vecs),
                          invs[h_rows:h_rows + tables])

        helper_evals: Dict[int, object] = {}
        first = 0
        for t, (helpers, m_vec) in enumerate(zip(vk.lookups, m_vecs)):
            # s accumulates sum h - m/(alpha + t): one weighted sum
            rows = list(range(first, first + len(helpers.h_cols)))
            for h_col, row in zip(helpers.h_cols, rows):
                helper_evals[h_col.index] = terms[row]
            total = gl64.weighted_sum(terms, [1] * len(rows) + [field.p - 1],
                                      rows + [h_rows + t])
            helper_evals[helpers.m_col.index] = m_vec
            helper_evals[helpers.s_col.index] = _prefix_sum_vec(total)
            first += len(rows)
        if perm is not None:
            # h_c = 1/(id denominator) - 1/(sigma denominator), pairs in turn
            pairs = invs[h_rows + tables:]
            for c, h_col in enumerate(perm.helper_cols):
                helper_evals[h_col.index] = gl64.sub(pairs[2 * c], pairs[2 * c + 1])
            total = gl64.weighted_sum(pairs, [1, field.p - 1] * len(perm.helper_cols))
            helper_evals[perm.sum_col.index] = _prefix_sum_vec(total)

        # helper columns are numbered contiguously after the user advice
        commit_round(HELPER_ROUND, b"helper",
                     [helper_evals[idx] for idx in sorted(helper_evals)])

    y = transcript.challenge_scalar(b"y")

    # ---- phase 3: quotient ---------------------------------------------------
    with timer.phase("quotient"):
        q_ext = _quotient_extended_np(
            pk, assignment, lambda rnd, pos: rounds[rnd].lde[pos], challenges, y
        )
        q_coeffs = domain.extended_to_coeff_vec(q_ext)
        # the pieces never outnumber the extension, so they fit the coset
        pieces = q_coeffs[: vk.shape.quotient_pieces * n].reshape(-1, n)
        polys_by_round[QUOTIENT_ROUND] = pieces
        rounds[QUOTIENT_ROUND] = scheme.commit_round(domain, domain.lde(pieces))
        transcript.append_commitment(b"quotient", rounds[QUOTIENT_ROUND].root)

    x = draw_opening_point(domain, transcript)

    # ---- phase 4: one batched opening ------------------------------------------
    with timer.phase("openings"):
        claims = vk.shape.claims
        evals = _claimed_evaluations(domain, polys_by_round, claims, x)
        fri_roots, final_poly, queries = scheme.open_batch(
            domain, rounds, claims, evals, x, transcript)

    return Proof(
        round_roots=[rnd.root for rnd in rounds[ADVICE_ROUND:]
                     if rnd is not None],
        evals=evals,
        fri_roots=fri_roots,
        final_poly=final_poly,
        queries=queries,
    )
