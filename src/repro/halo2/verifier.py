"""Proof verification.

The verifier replays the Fiat–Shamir transcript — round roots, then the
claimed evaluations, then the opening's own challenges — evaluates the
folded constraint expression at the challenge point ``x`` (fixed, selector
and advice values from the proof's claimed evaluations, instance columns
from the public inputs) and checks

    sum_i y^i * C_i(x)  ==  Z_H(x) * (q_0(x) + x^n q_1(x) + ...).

A witness violating any gate, copy, or lookup constraint makes the left
side indivisible by the vanishing polynomial, so the identity fails at a
random ``x`` with overwhelming probability.  The claimed evaluations
themselves are bound to the round roots (the key's fixed root and the
proof's advice, helper and quotient roots) by the one batched DEEP-FRI
opening (:meth:`CommitmentScheme.verify_batch`): every Merkle path,
every fold and the final polynomial must check out.  That check runs
first — it is hashes, and a damaged proof should cost no more than
finding the damage.  The verifier never sees a polynomial and runs no
NTT.

One entry point, :func:`verify_proof_strict`: it runs
:func:`validate_proof_shape` (every count, width, path length, digest
and scalar range checked against the verifying key before the first
hash, raising :class:`~repro.resilience.errors.ProofFormatError` on
violation) and then maps *any* rejection or internal crash to a typed
:class:`~repro.resilience.errors.VerificationFailure`.  It returns
``None`` or raises; there is no boolean verdict to forget to check.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.commit.merkle import DIGEST_BYTES
from repro.commit.scheme import CommitmentScheme, draw_opening_point
from repro.commit.transcript import Transcript
from repro.field.prime_field import require_goldilocks
from repro.halo2.column import Column, ColumnType
from repro.halo2.expression import evaluate_from_openings
from repro.halo2.keygen import VerifyingKey
from repro.halo2.proof import Proof
from repro.halo2.shape import ALPHA, BETA, GAMMA, QUOTIENT_ROUND, THETA, claim_of
from repro.resilience.errors import KernelUnavailableError, ProofFormatError, VerificationFailure


def _check_scalars(what: str, values: Sequence[int], p: int) -> None:
    try:
        ok = not values or (0 <= min(values) and max(values) < p)
    except TypeError:
        ok = False
    if not ok:
        raise ProofFormatError("%s holds an out-of-field scalar" % what)


def _check_count(what: str, items: Sequence, want: int) -> None:
    if len(items) != want:
        raise ProofFormatError("expected %d %s, proof has %d"
                               % (want, what, len(items)))


def _check_digests(what: str, digests: Sequence[bytes]) -> None:
    if not (set(map(type, digests)) <= {bytes}
            and set(map(len, digests)) <= {DIGEST_BYTES}):
        raise ProofFormatError("%s has a malformed digest" % what)


def check_instance_shape(vk: VerifyingKey, instance: List[List[int]]) -> None:
    """The public inputs are the key's ``cs.num_instance`` columns of
    ``n`` rows each, or :class:`ProofFormatError` naming both numbers."""
    if len(instance) != vk.cs.num_instance:
        raise ProofFormatError("expected %d instance columns, got %d"
                               % (vk.cs.num_instance, len(instance)))
    for i, col_values in enumerate(instance):
        if len(col_values) != vk.n:
            raise ProofFormatError("instance column %d has %d rows, circuit "
                                   "has %d" % (i, len(col_values), vk.n),
                                   column=i)


def validate_proof_shape(
    vk: VerifyingKey,
    proof: Proof,
    instance: List[List[int]],
) -> None:
    """Validate structural bounds before any cryptographic work.

    Checks every count, row width and path length against the verifying
    key's :class:`~repro.halo2.shape.ProofShape`, digest widths, scalar
    ranges (every field element must lie in ``[0, p)``) and the
    public-input shape.  Raises :class:`ProofFormatError` on the first
    violation; returns ``None`` when the proof is structurally plausible.
    No hash, no field arithmetic.  A key over any field but Goldilocks is
    refused first (:class:`~repro.resilience.errors.UnsupportedFieldError`):
    its proofs could not have come from this prover.
    """
    require_goldilocks(vk.field)
    p = vk.field.p
    shape = vk.shape

    for what, items, want in (
        ("round roots", proof.round_roots, shape.round_roots),
        ("claimed evaluations", proof.evals, len(shape.claims)),
        ("fold-layer roots", proof.fri_roots, len(shape.fold_path_depths)),
        ("final coefficients", proof.final_poly, shape.final_len),
        ("queries", proof.queries, shape.queries),
    ):
        _check_count(what, items, want)
    _check_digests("round root", proof.round_roots)
    _check_digests("fold-layer root", proof.fri_roots)
    _check_scalars("claimed evaluation", proof.evals, p)
    _check_scalars("final polynomial", proof.final_poly, p)

    row_widths = shape.row_widths
    row_paths = [shape.row_path_depth] * len(row_widths)
    fold_paths = shape.fold_path_depths
    for q, query in enumerate(proof.queries):
        rows, layers = query.rows, query.folds
        if [len(row.values) for row in rows] != row_widths:
            raise ProofFormatError("query %d opens rows of the wrong shape"
                                   % q, index=q)
        if ([len(row.path) for row in rows] != row_paths
                or [len(fold.path) for fold in layers] != fold_paths):
            raise ProofFormatError("query %d has a path node count the "
                                   "circuit does not dictate" % q, index=q)
        if any(len(fold.pair) != 2 for fold in layers):
            raise ProofFormatError("query %d has a fold that is not a pair"
                                   % q, index=q)
        # one range check and one digest check per query, not per row
        scalars = [v for row in rows for v in row.values]
        scalars += [v for fold in layers for v in fold.pair]
        _check_scalars("query %d" % q, scalars, p)
        nodes = [node for row in rows for node in row.path]
        nodes += [node for fold in layers for node in fold.path]
        _check_digests("query %d path node" % q, nodes)

    check_instance_shape(vk, instance)
    for i, col_values in enumerate(instance):
        for v in col_values:
            if not (0 <= int(v) < p):
                raise ProofFormatError("instance column %d holds an "
                                       "out-of-field value" % i, column=i)


def verify_proof_strict(
    vk: VerifyingKey,
    proof: Proof,
    instance: List[List[int]],
    scheme: CommitmentScheme,
) -> None:
    """Verify or raise — the hardened entry point for untrusted proofs.

    Raises :class:`ProofFormatError` for structural violations,
    :class:`KernelUnavailableError` when this box cannot run the field
    kernel at all (no verdict either way), and :class:`VerificationFailure`
    for everything else: a clean rejection, or *any* internal exception,
    chained as its ``__cause__`` (hostile bytes must never produce a raw
    traceback).  Returns ``None`` on success.
    """
    validate_proof_shape(vk, proof, instance)
    try:
        ok = _verify_shaped(vk, proof, instance, scheme)
    except (ProofFormatError, VerificationFailure, KernelUnavailableError):
        raise
    except Exception as exc:  # noqa: BLE001 — hostile bytes must never leak a raw traceback
        raise VerificationFailure(
            "verifier crashed on a shape-valid proof",
            cause=type(exc).__name__, detail=str(exc)[:200],
        ) from exc
    if not ok:
        raise VerificationFailure("proof rejected")


def folded_constraints_at(
    vk: VerifyingKey,
    evals: Sequence[int],
    instance: List[List[int]],
    challenges: Dict[str, int],
    y: int,
    x: int,
) -> int:
    """``sum_i y^i C_i(x)``: the constraint list folded at the point ``x``.

    Committed columns are read from ``evals`` (aligned with
    ``vk.shape.claims``); instance columns are evaluated from the public
    inputs barycentrically at each point — no transform.
    """
    field, domain = vk.field, vk.domain
    slot = {claim: j for j, claim in enumerate(vk.shape.claims)}
    openings: Dict[Tuple[Column, int], int] = {}
    for _, expr in vk.constraints:
        for col, rot in expr.refs():
            if (col, rot) in openings:
                continue
            if col.kind == ColumnType.INSTANCE:
                openings[(col, rot)] = domain.evaluate_lagrange(
                    instance[col.index], domain.rotate(x, rot))
            else:
                openings[(col, rot)] = evals[slot[claim_of(
                    col, rot, vk.cs.num_advice, vk.fixed_columns)]]
    folded = 0
    for _, expr in vk.constraints:
        value = evaluate_from_openings(expr, field, openings, challenges)
        folded = field.add(field.mul(folded, y), value)
    return folded


def _verify_shaped(
    vk: VerifyingKey,
    proof: Proof,
    instance: List[List[int]],
    scheme: CommitmentScheme,
) -> bool:
    """The cryptographic checks, on a proof whose shape already matches."""
    field = vk.field
    domain = vk.domain
    if scheme.name != vk.scheme_name or scheme.field.p != field.p:
        return False

    # ---- replay the transcript ---------------------------------------------
    roots: List[Optional[bytes]] = [vk.fixed_root]
    proof_roots = iter(proof.round_roots)
    for width in vk.shape.round_widths[1:]:
        roots.append(next(proof_roots) if width else None)
    advice_root, helper_root, quotient_root = roots[1:]

    transcript = Transcript(field)
    transcript.append_message(b"vk", vk.digest())
    for col_values in instance:
        transcript.append_scalar_vector(b"instance", col_values)
    if advice_root is not None:
        transcript.append_commitment(b"advice", advice_root)
    challenges = {
        THETA: transcript.challenge_scalar(b"theta"),
        BETA: transcript.challenge_scalar(b"beta"),
        GAMMA: transcript.challenge_scalar(b"gamma"),
        ALPHA: transcript.challenge_scalar(b"alpha"),
    }
    if helper_root is not None:
        transcript.append_commitment(b"helper", helper_root)
    y = transcript.challenge_scalar(b"y")
    transcript.append_commitment(b"quotient", quotient_root)
    x = draw_opening_point(domain, transcript)

    # ---- the claimed evaluations are the committed columns' ------------------
    # (hashes first: a damaged opening is refused before the constraint
    # list is evaluated at all)
    if not scheme.verify_batch(
            domain, roots, vk.shape.claims, proof.evals, x, proof.fri_roots,
            proof.final_poly, proof.queries, transcript):
        return False

    # ---- the constraint identity at x, from the claimed evaluations ----------
    folded = folded_constraints_at(vk, proof.evals, instance, challenges, y, x)
    x_n = field.pow(x, vk.n)
    q_at_x = 0
    for j, claim in reversed(list(enumerate(vk.shape.claims))):
        if claim[0] == QUOTIENT_ROUND:
            q_at_x = field.add(field.mul(q_at_x, x_n), proof.evals[j])
    return folded == field.mul(domain.vanishing_eval(x), q_at_x)
