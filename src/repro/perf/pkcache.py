"""Proving-key cache keyed by circuit digest.

Keygen only reads witness-independent data — the constraint system, fixed
and selector values, and the copy-constraint list.  Two proves of the same
model with different inputs therefore share keys; the cache detects that
with a structural digest and skips preprocessing entirely.

Two layers:

- :class:`ProvingKeyCache` — the in-memory LRU every prove consults
  (``GLOBAL_PK_CACHE``).  Every entry carries an integrity checksum
  computed at insert time and re-verified on each hit: a corrupted entry
  (bit rot, or a buggy mutation of shared key state) is detected,
  **evicted, and rebuilt** — counted
  as ``resilience_recovered_total{reason="pk_cache_rebuild"}`` rather
  than poisoning the proof.  The check and the rebuild are always on.
- :class:`DiskPKCache` — an optional content-addressed on-disk layer
  *under* the LRU (``ProvingKeyCache.attach_disk``).  Keys survive
  restarts and are shared across the serve cluster's worker processes:
  files are checksummed (evict-never-serve-corrupt, the VK registry's
  read idiom), written atomically via per-process tmp files +
  ``os.replace``, and guarded by advisory per-digest file locks so two
  workers racing the same circuit run keygen **at most once** between
  them — the loser blocks briefly and loads the winner's keys.

Counter semantics (asserted by ``tests/perf/test_pkcache_stats.py``):
every ``get_or_create`` call increments **exactly one** of ``hits``
(served from memory), ``misses`` (first sight of this digest — filled by
keygen or by the disk layer), or ``rebuilds`` (a corrupt memory entry
was evicted and re-fetched).  ``disk_hits`` counts the subset of
misses/rebuilds that skipped keygen by loading from disk.  ``clear()``
resets entries *and* counters, so post-clear stats start from zero.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from collections import OrderedDict
from typing import Optional, Tuple, Union

import numpy as np

from repro.commit import merkle
from repro.commit.scheme import CommitmentScheme
from repro.halo2.circuit import Assignment, ConstraintSystem
from repro.halo2.keygen import ProvingKey, VerifyingKey, keygen
from repro.resilience import events
from repro.resilience.errors import CacheCorruptionError
from repro.storage import WRITE_ATTEMPTS, WRITE_BACKOFF_SECONDS, atomic_write, checksum16, file_lock


def circuit_digest(
    cs: ConstraintSystem, assignment: Assignment, scheme_name: str
) -> str:
    """A binding digest of everything keygen consumes.

    Covers the circuit shape (columns, gates, lookups, equality set), the
    fixed/selector grids, and the copy constraints — but *not* advice or
    instance values, which keygen never reads.
    """
    h = hashlib.blake2b(digest_size=32)

    def put(tag: str, payload) -> None:
        data = payload.encode() if isinstance(payload, str) else payload
        h.update(tag.encode())
        h.update(len(data).to_bytes(8, "little"))
        h.update(data)

    put("scheme", scheme_name)
    put(
        "shape",
        "%d:%d:%d:%d:%d:%d"
        % (
            assignment.k,
            cs.num_advice,
            cs.num_fixed,
            cs.num_instance,
            cs.num_selectors,
            cs.field.p,
        ),
    )
    for gate in cs.gates:
        put("gate", "%s|%r|%r" % (gate.name, gate.selector, gate.constraints))
    for lk in cs.lookups:
        put("lookup", "%s|%r|%r|%r" % (lk.name, lk.selector, lk.inputs,
                                        lk.table))
    put("equality", repr(cs.permuted_columns()))
    # the grids as packed bytes, not repr() of 2^k Python objects per column
    for i, values in enumerate(assignment.fixed):
        put("fixed:%d" % i, values.astype("<u8").tobytes())
    for i, sel in enumerate(assignment.selectors):
        put("selector:%d" % i, sel.tobytes())
    # the copy list as one (6, len) int64 array: kind, index and row of
    # each side
    put("copies", np.ascontiguousarray(assignment.copies.T).tobytes())
    return h.hexdigest()


def _entry_checksum(pk: ProvingKey, vk: VerifyingKey) -> str:
    """An integrity checksum over the cached key material, re-run on every hit.

    Covers exactly what proving consumes: the vk's binding digest (the
    fixed round's root, the shape and the constraint list) plus the
    prover's evaluation-form fixed data.  Each fixed column (a read-only
    uint64 array) is digested in place by the kernel's blake2b-256, eight
    columns abreast (:func:`repro.commit.merkle.column_digests`, equal to
    ``hashlib``'s); one ``hashlib`` blake2b-128 then binds ``vk.digest()``
    and each column's ``repr``, length and digest.  Deliberately *not* a
    pickle of the objects — the vk and its evaluation domain memoize
    derived data lazily (vk digest, NTT twiddles), which would make a
    whole-object checksum unstable.
    """
    cols = sorted(pk.fixed_evals, key=lambda c: (c.kind.value, c.index))
    digests = merkle.column_digests([pk.fixed_evals[col] for col in cols])
    h = hashlib.blake2b(digest_size=16)
    h.update(vk.digest())
    for col, digest in zip(cols, digests):
        h.update(repr(col).encode())
        h.update(len(pk.fixed_evals[col]).to_bytes(8, "little"))
        h.update(digest)
    return h.hexdigest()


# -- disk layer ---------------------------------------------------------------

#: Magic prefix of every on-disk pk-cache artifact.  The version covers
#: what keygen *produces* (constraint list, helper-column layout), which
#: :func:`circuit_digest` does not: v2 = per-table lookup helpers; v3 = the
#: committed fixed round (LDE + Merkle tree) and its root in the vk; v4 =
#: ``fixed_evals`` pickled as uint64 arrays, keyed by the packed-bytes digest;
#: v5 = the key carries its compiled quotient and helper tapes; v6 = the
#: fixed round's Merkle tree is one node array; v7 = the domain's cached
#: NTT twiddles are one packed array (no limb tables).
DISK_MAGIC = b"zkml-pk-cache/v7\n"

_DISK_CHECKSUM_BYTES = 16


class DiskPKCache:
    """Content-addressed, checksummed on-disk proving-key store.

    Layout under ``root`` (``zkml serve --registry`` puts it beside the
    verifying-key registry's ``vk/`` and ``index.json``)::

        pk/<circuit_digest>.pkl     checksummed pickled (pk, vk) pair
        locks/<circuit_digest>.lock advisory keygen lock (empty file)

    Artifacts are ``DISK_MAGIC || blake2b-16(payload) || payload`` where
    payload is a pickle of ``{"digest", "pk", "vk"}``.  Reads verify the
    magic, the checksum, and the embedded digest before returning keys;
    any mismatch **evicts** the file (counted as
    ``resilience_recovered_total{reason="pk_disk_evict"}``) and reports a
    miss — corrupt keys are never served.  Writes go through a
    per-process tmp file and ``os.replace`` with bounded retries
    (:func:`repro.storage.atomic_write`, as the registry writes), so a
    reader never observes a half-written artifact.
    """

    def __init__(self, root: str):
        self.root = root
        os.makedirs(os.path.join(root, "pk"), exist_ok=True)
        os.makedirs(os.path.join(root, "locks"), exist_ok=True)
        self.loads = 0
        self.load_hits = 0
        self.stores = 0
        self.evictions = 0

    def path(self, digest: str) -> str:
        return os.path.join(self.root, "pk", "%s.pkl" % digest)

    def lock(self, digest: str):
        """An exclusive advisory lock for this digest's keygen critical
        section (hold it across the load-miss → keygen → store window)."""
        return file_lock(os.path.join(self.root, "locks", "%s.lock" % digest))

    def load(self, digest: str):
        """Return the stored ``(pk, vk)`` for ``digest`` or ``None``.

        A missing file is a plain miss.  A file that fails any integrity
        check (magic, checksum, unpicklable, wrong digest inside) is
        evicted and reported as a miss — never served.
        """
        self.loads += 1
        path = self.path(digest)
        try:
            with open(path, "rb") as fh:
                blob = fh.read()
        except OSError:
            return None
        doc, cause = self._decode(digest, blob)
        if doc is not None:
            self.load_hits += 1
            return doc["pk"], doc["vk"]
        self.evictions += 1
        try:
            os.unlink(path)
        except OSError:
            pass
        events.recovered("pk_disk_evict", digest=digest[:16], cause=cause)
        return None

    def _decode(self, digest: str,
                blob: bytes) -> Tuple[Optional[dict], Optional[str]]:
        """The stored document, unpickled once, or ``None`` and the
        corruption cause."""
        if not blob.startswith(DISK_MAGIC):
            return None, "bad_magic"
        body = blob[len(DISK_MAGIC):]
        if len(body) < _DISK_CHECKSUM_BYTES:
            return None, "truncated"
        checksum, payload = (body[:_DISK_CHECKSUM_BYTES],
                             body[_DISK_CHECKSUM_BYTES:])
        if checksum16(payload) != checksum:
            return None, "checksum_mismatch"
        try:
            doc = pickle.loads(payload)
        except Exception:  # noqa: BLE001 — any unpickle failure is corruption
            return None, "unpicklable"
        if not isinstance(doc, dict) or doc.get("digest") != digest \
                or "pk" not in doc or "vk" not in doc:
            return None, "wrong_object"
        return doc, None

    def store(self, digest: str, pk: ProvingKey, vk: VerifyingKey) -> None:
        """Atomically persist keys for ``digest`` (idempotent)."""
        payload = pickle.dumps({"digest": digest, "pk": pk, "vk": vk})
        try:
            atomic_write(self.path(digest),
                         DISK_MAGIC + checksum16(payload) + payload,
                         attempts=WRITE_ATTEMPTS,
                         backoff_seconds=WRITE_BACKOFF_SECONDS,
                         retry_event="pk_disk_write", digest=digest[:16])
        except OSError as exc:
            raise CacheCorruptionError(
                "could not persist proving keys after %d attempts"
                % WRITE_ATTEMPTS, digest=digest[:16]) from exc
        self.stores += 1

    def stats(self) -> dict:
        return {
            "root": self.root,
            "loads": self.loads,
            "load_hits": self.load_hits,
            "stores": self.stores,
            "evictions": self.evictions,
        }


class ProvingKeyCache:
    """A small LRU of checksummed ``(pk, vk)`` pairs keyed by
    :func:`circuit_digest`, optionally layered over a :class:`DiskPKCache`."""

    def __init__(self, maxsize: int = 4,
                 disk: Optional[DiskPKCache] = None):
        self.maxsize = maxsize
        self.disk = disk
        self._entries: "OrderedDict[str, Tuple[ProvingKey, VerifyingKey, str]]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.rebuilds = 0
        self.disk_hits = 0

    def attach_disk(self, disk: Union[DiskPKCache, str, None]) -> None:
        """Layer a disk cache under this LRU (a path creates one).

        The serve cluster's worker processes call this at startup with a
        shared directory, so keygen results cross process boundaries and
        survive restarts.  ``None`` detaches.
        """
        if isinstance(disk, str):
            disk = DiskPKCache(disk)
        self.disk = disk

    def _entry_is_intact(self, digest: str) -> bool:
        """Re-verify a cached entry's checksum."""
        pk, vk, stored = self._entries[digest]
        return _entry_checksum(pk, vk) == stored

    def _fetch(self, cs: ConstraintSystem, assignment: Assignment,
               scheme: CommitmentScheme, digest: str, tracer=None):
        """Produce keys for a digest not served from memory.

        With a disk layer, the whole load-miss → keygen → store window
        runs under the digest's advisory file lock, so concurrent worker
        processes racing the same circuit perform at most one keygen.
        Returns ``(pk, vk, from_disk)``.
        """
        if self.disk is None:
            pk, vk = keygen(cs, assignment, scheme, tracer)
            return pk, vk, False
        with self.disk.lock(digest):
            loaded = self.disk.load(digest)
            if loaded is not None:
                return loaded[0], loaded[1], True
            pk, vk = keygen(cs, assignment, scheme, tracer)
            self.disk.store(digest, pk, vk)
        return pk, vk, False

    def get_or_create(
        self,
        cs: ConstraintSystem,
        assignment: Assignment,
        scheme: CommitmentScheme,
        digest: Optional[str] = None,
        tracer=None,
    ) -> Tuple[ProvingKey, VerifyingKey, bool]:
        """Return cached keys for this circuit, running keygen on a miss
        (under ``tracer``; default: the process tracer).

        The third element reports whether keygen was skipped (a memory
        hit or a disk-layer hit).  A cache hit whose checksum fails is
        evicted and rebuilt (counted as ``rebuilds``, *not* as a miss).
        """
        if digest is None:
            digest = circuit_digest(cs, assignment, scheme.name)
        entry = self._entries.get(digest)
        rebuild = False
        if entry is not None:
            if self._entry_is_intact(digest):
                self._entries.move_to_end(digest)
                self.hits += 1
                return entry[0], entry[1], True
            # corruption detected: evict, then fall through to rebuild
            # (counted once, as a rebuild — never double-counted as a miss)
            del self._entries[digest]
            rebuild = True
            events.recovered("pk_cache_rebuild", digest=digest[:16])
        pk, vk, from_disk = self._fetch(cs, assignment, scheme, digest,
                                         tracer)
        self._entries[digest] = (pk, vk, _entry_checksum(pk, vk))
        if len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
        if rebuild:
            self.rebuilds += 1
        else:
            self.misses += 1
        if from_disk:
            self.disk_hits += 1
        return pk, vk, from_disk

    def clear(self) -> None:
        """Drop every entry *and* reset the counters — post-clear stats
        describe only post-clear traffic (the disk layer's files and its
        own counters are not touched; detach it to forget them)."""
        self._entries.clear()
        self.hits = 0
        self.misses = 0
        self.rebuilds = 0
        self.disk_hits = 0

    def stats(self) -> dict:
        """A plain-dict snapshot for operator surfaces (``zkml top``).

        ``lookups == hits + misses + rebuilds`` always holds — each
        ``get_or_create`` lands in exactly one bucket, so
        ``hits / lookups`` is an honest hit rate.
        """
        lookups = self.hits + self.misses + self.rebuilds
        out = {
            "entries": len(self._entries),
            "maxsize": self.maxsize,
            "hits": self.hits,
            "misses": self.misses,
            "rebuilds": self.rebuilds,
            "disk_hits": self.disk_hits,
            "lookups": lookups,
            "hit_rate": round(self.hits / lookups, 4) if lookups else 0.0,
        }
        if self.disk is not None:
            out["disk"] = self.disk.stats()
        return out


#: Process-wide default cache used by the runtime pipeline.
GLOBAL_PK_CACHE = ProvingKeyCache()
