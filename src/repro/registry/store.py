"""On-disk verifying-key store (``zkml-vk-registry/v1``).

Layout under the registry root::

    index.json              {"schema": ..., "entries": {vk_hash_hex: {...}}}
    index.lock              advisory lock held across each index update
    vk/<vk_hash_hex>.pkl    pickled VerifyingKey, one file per key

The index entry records the lookup tuple (model, scheme, config digest)
plus an integrity checksum — blake2b-16 over the *stored file bytes*,
not over a fresh pickle: the vk memoizes derived data lazily (its own
digest, NTT twiddles), so re-pickling the live object is not stable,
but the bytes we wrote are.  Both index and artifacts are written
tmp-then-rename with bounded retries (:func:`repro.storage.atomic_write`).

Reads re-verify: a missing or checksum-failing artifact is **evicted**
from the index, counted as
``resilience_recovered_total{reason="vk_registry_evict"}``, and
surfaced as a typed :class:`~repro.resilience.errors.RegistryError` so
the caller knows to re-publish — never served corrupt.
"""

from __future__ import annotations

import json
import os
import pickle
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.resilience import events
from repro.resilience.errors import (
    RegistryError,
    UnknownVerifyingKeyError,
    VerificationFailure,
)
from repro.storage import WRITE_ATTEMPTS, WRITE_BACKOFF_SECONDS, atomic_write, checksum16, file_lock

__all__ = ["INDEX_SCHEMA", "RegistryEntry", "VKRegistry"]

INDEX_SCHEMA = "zkml-vk-registry/v1"


def _artifact_checksum(data: bytes) -> str:
    return checksum16(data).hex()


@dataclass
class RegistryEntry:
    """One published verifying key's index record."""

    vk_hash: str
    model: str
    scheme: str
    config_digest: str
    checksum: str
    file: str
    size_bytes: int

    def as_dict(self) -> Dict[str, object]:
        return asdict(self)

    def bind(self, env) -> None:
        """Refuse an envelope whose model or config digest is not the one
        published with this key.

        The proof statement binds the vk hash and the public inputs; the
        model and config metadata are bound here, against what the prover
        published, so a relabeled envelope is rejected (a
        :class:`~repro.resilience.errors.VerificationFailure`), not served.
        """
        if (self.model != env.model
                or self.config_digest != env.config_digest_hex):
            raise VerificationFailure(
                "envelope metadata (model %r, config %s) does not match "
                "registry entry (model %r, config %s)"
                % (env.model, env.config_digest_hex[:8], self.model,
                   self.config_digest[:8]), model=env.model)


class VKRegistry:
    """Content-addressed, checksummed verifying-key store."""

    def __init__(self, root: str):
        self.root = root
        os.makedirs(os.path.join(root, "vk"), exist_ok=True)

    # -- index ---------------------------------------------------------------

    @property
    def index_path(self) -> str:
        return os.path.join(self.root, "index.json")

    def _load_index(self) -> Dict[str, Dict]:
        if not os.path.exists(self.index_path):
            return {}
        try:
            with open(self.index_path) as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise RegistryError("registry index is unreadable",
                                path=self.index_path,
                                error=type(exc).__name__) from exc
        if doc.get("schema") != INDEX_SCHEMA:
            raise RegistryError(
                "registry index has schema %r (expected %r)"
                % (doc.get("schema"), INDEX_SCHEMA), path=self.index_path)
        return doc.get("entries", {})

    def _store_index(self, entries: Dict[str, Dict]) -> None:
        doc = {"schema": INDEX_SCHEMA, "entries": entries}
        self._atomic_write(self.index_path,
                           json.dumps(doc, indent=1, sort_keys=True).encode(),
                           what="index")

    @contextmanager
    def _index_lock(self) -> Iterator[None]:
        """Hold ``index.lock`` across one read-modify-write of the index."""
        try:
            with file_lock(os.path.join(self.root, "index.lock")):
                yield
        except OSError as exc:
            raise RegistryError("registry index update failed: %s" % exc,
                                path=self.root) from exc

    def _atomic_write(self, path: str, data: bytes, what: str) -> None:
        try:
            atomic_write(path, data, attempts=WRITE_ATTEMPTS,
                         backoff_seconds=WRITE_BACKOFF_SECONDS,
                         retry_event="registry_write", what=what)
        except OSError as exc:
            raise RegistryError(
                "could not write registry %s after %d attempts"
                % (what, WRITE_ATTEMPTS), path=path) from exc

    # -- publish -------------------------------------------------------------

    def publish(self, vk, model: str,
                config_digest: bytes) -> Tuple[RegistryEntry, bool]:
        """Store ``vk`` under its binding digest; idempotent.

        Returns ``(entry, created)``.  A pre-existing intact entry is a
        no-op (``created=False``); a pre-existing entry whose artifact is
        missing or checksum-failing is **rebuilt** from the key in hand,
        counted as a recovery.
        """
        vk_hash = vk.digest().hex()
        with self._index_lock():
            entries = self._load_index()
            existing = entries.get(vk_hash)
            if existing is not None:
                if self._read_artifact(existing)[0] is not None:
                    return RegistryEntry(**existing), False
                events.recovered("vk_registry_rebuild", vk_hash=vk_hash[:16],
                                 model=model)
            data = pickle.dumps(vk)
            rel = os.path.join("vk", "%s.pkl" % vk_hash)
            self._atomic_write(os.path.join(self.root, rel), data,
                               what="vk artifact")
            entry = RegistryEntry(
                vk_hash=vk_hash,
                model=model,
                scheme=vk.scheme_name,
                config_digest=config_digest.hex(),
                checksum=_artifact_checksum(data),
                file=rel,
                size_bytes=len(data),
            )
            entries[vk_hash] = entry.as_dict()
            self._store_index(entries)
        return entry, True

    # -- read ----------------------------------------------------------------

    def _read_artifact(self, record: Dict) -> Tuple[Optional[bytes], str]:
        """``(bytes, "")`` for one index record's intact on-disk artifact,
        or ``(None, cause)``: one read, so the bytes a caller unpickles
        are the bytes that were checksummed."""
        path = os.path.join(self.root, record["file"])
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except OSError:
            return None, "missing_artifact"
        if _artifact_checksum(data) != record["checksum"]:
            return None, "checksum_mismatch"
        return data, ""

    def _record(self, entries: Dict[str, Dict], vk_hash: str) -> Dict:
        record = entries.get(vk_hash)
        if record is None:
            raise UnknownVerifyingKeyError(
                "verifying key %s is not in the registry" % vk_hash[:16],
                vk_hash=vk_hash, registry=self.root)
        return record

    def entry(self, vk_hash: str) -> RegistryEntry:
        """The index record for ``vk_hash`` (no artifact read)."""
        return RegistryEntry(**self._record(self._load_index(), vk_hash))

    def get(self, vk_hash: str):
        """The verifying key for ``vk_hash`` (see :meth:`resolve`)."""
        return self.resolve(vk_hash)[0]

    def resolve(self, vk_hash: str) -> Tuple[object, RegistryEntry]:
        """Load and integrity-check the verifying key for ``vk_hash``,
        with the index record it was published under (one index read).

        Unknown hash → :class:`UnknownVerifyingKeyError`.  A corrupt or
        missing artifact is evicted from the index (counted as
        ``vk_registry_evict``) and raises :class:`RegistryError` — the
        caller re-publishes to rebuild.
        """
        entries = self._load_index()
        record = self._record(entries, vk_hash)
        data, cause = self._read_artifact(record)
        intact = data is not None
        if intact:
            try:
                vk = pickle.loads(data)
            except Exception:  # noqa: BLE001 — any unpickle failure is corruption
                intact, cause = False, "unpicklable"
            else:
                try:
                    stored_hash = vk.digest().hex()
                except Exception:  # noqa: BLE001 — a valid pickle of the wrong object
                    intact, cause = False, "not_a_verifying_key"
                else:
                    if stored_hash != vk_hash:
                        intact, cause = False, "digest_mismatch"
        if not intact:
            self._evict(vk_hash, record, cause)
            raise RegistryError(
                "verifying key %s failed integrity (%s); entry evicted — "
                "re-publish to rebuild" % (vk_hash[:16], cause),
                vk_hash=vk_hash, cause=cause)
        return vk, RegistryEntry(**record)

    def _evict(self, vk_hash: str, judged: Dict, cause: str) -> None:
        """Drop the record ``judged`` corrupt and its artifact, unless a
        publish rebuilt it since (another record, or it now reads intact)."""
        with self._index_lock():
            entries = self._load_index()
            if entries.get(vk_hash) != judged:
                return
            if cause in ("missing_artifact", "checksum_mismatch") and \
                    self._read_artifact(judged)[0] is not None:
                return
            del entries[vk_hash]
            try:
                os.unlink(os.path.join(self.root, judged["file"]))
            except OSError:
                pass
            self._store_index(entries)
        events.recovered("vk_registry_evict", vk_hash=vk_hash[:16],
                         cause=cause)

    def list_entries(self) -> List[RegistryEntry]:
        """All index records, sorted by (model, scheme, vk hash)."""
        entries = [RegistryEntry(**record)
                   for record in self._load_index().values()]
        entries.sort(key=lambda e: (e.model, e.scheme, e.vk_hash))
        return entries

    # -- check ---------------------------------------------------------------

    def check(self, repair: bool = False) -> Dict[str, object]:
        """Verify every artifact against its recorded checksum.

        Returns a report dict; with ``repair=True`` corrupt/missing
        entries are evicted (they cannot be rebuilt without the key —
        the publisher re-runs ``zkml prove --registry``).
        """
        entries = self._load_index()
        ok: List[str] = []
        bad: List[Dict[str, str]] = []
        for vk_hash, record in sorted(entries.items()):
            data, cause = self._read_artifact(record)
            if data is not None:
                ok.append(vk_hash)
            else:
                bad.append({"vk_hash": vk_hash, "model": record["model"],
                            "cause": cause})
        if repair and bad:
            for item in bad:
                self._evict(item["vk_hash"], entries[item["vk_hash"]],
                            item["cause"])
        return {
            "schema": "zkml-registry-check/v1",
            "root": self.root,
            "checked": len(ok) + len(bad),
            "intact": len(ok),
            "corrupt": bad,
            "repaired": bool(repair and bad),
            "ok": not bad,
        }
