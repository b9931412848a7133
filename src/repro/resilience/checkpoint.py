"""Stage checkpointing for long proving runs (``zkml prove --checkpoint``).

A :class:`CheckpointStore` persists each completed pipeline stage
(``synthesize`` → ``keygen`` → ``prove``) to a directory, so an
interrupted run resumes from the last completed stage instead of
starting over.  Because the prover is fully deterministic, a resumed run
produces a proof **byte-identical** to an uninterrupted one — the
checkpointed witness grid and keys are the complete prover input.

Layout::

    DIR/manifest.json    {"schema", "config", "stages": {name: checksum}}
    DIR/synthesize.pkl   pickled SynthesizedModel (witness grid + layout)
    DIR/keygen.pkl       pickled (pk, vk, keygen_cache_hit)
    DIR/prove.pkl        pickled proof + phase timings + op counts

Every stage file carries a blake2b checksum in the manifest; a mismatch
on load raises :class:`~repro.resilience.errors.CacheCorruptionError`
and the caller recomputes the stage (detect → evict → rebuild, same
policy as the pk cache).  A checkpoint is bound to its proving
*configuration* (model, input digest, scheme, grid parameters): resuming
with a different configuration raises
:class:`~repro.resilience.errors.CheckpointError` instead of silently
proving the wrong circuit.

Stage writes run through the ``disk_write`` fault-injection site and are
retried with backoff before surfacing a ``CheckpointError``.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
from typing import Any, Dict, Optional

import numpy as np

from repro.obs import log as obs_log
from repro.resilience import faults
from repro.resilience.errors import CacheCorruptionError, CheckpointError
from repro.storage import atomic_write, checksum16

__all__ = ["CheckpointStore", "proving_config_digest"]

#: Manifest schema tag.  Stage files pickle keys, proofs and the
#: synthesized circuit, so the tag moves with their layout: v2 = per-table
#: lookup helpers; v3 = one config digest (chained per slot, covers ``k``)
#: and one ``SynthesizedModel`` shape for every batch size; v4 = succinct
#: proofs (Merkle rounds in the proving key, the ``ZKMLPRF2`` proof shape);
#: v5 = the ``Assignment`` as arrays (grids, masks, an int64 copy list);
#: v6 = the proving key carries its compiled quotient and helper tapes;
#: v7 = the key's fixed-round Merkle tree is one node array.
SCHEMA = "zkml-checkpoint/v7"

#: Pipeline stages, in order.
STAGES = ("synthesize", "keygen", "prove")

_log = obs_log.get_logger("checkpoint")


def proving_config_digest(spec, batch_inputs, scheme_name: str,
                          num_cols: int, scale_bits: int,
                          lookup_bits: Optional[int], k: Optional[int]) -> str:
    """A binding digest of everything that determines the proof bytes.

    Chains one digest per inference slot in batch order, so any change to
    the grid parameters (``k`` included), the batch size, the ordering,
    or any single input set produces a different digest.
    """
    config = ("%s|%s|%d|%d|%r|%r" % (spec.name, scheme_name, num_cols,
                                     scale_bits, lookup_bits, k)).encode()
    chain = hashlib.blake2b(digest_size=16)
    chain.update(("batch|%d" % len(batch_inputs)).encode())
    for inputs in batch_inputs:
        h = hashlib.blake2b(config, digest_size=16)
        for name in sorted(inputs):
            arr = np.ascontiguousarray(
                np.asarray(inputs[name], dtype=np.float64))
            h.update(name.encode())
            h.update(repr(arr.shape).encode())
            h.update(arr.tobytes())
        chain.update(h.hexdigest().encode())
    return chain.hexdigest()


def _checksum(payload: bytes) -> str:
    return checksum16(payload).hex()


class CheckpointStore:
    """Persist and resume pipeline stages under one directory."""

    def __init__(self, directory: str, config_digest: str,
                 resume: bool = False, write_attempts: int = 3,
                 backoff_seconds: float = 0.05):
        self.directory = directory
        self.config_digest = config_digest
        self.write_attempts = write_attempts
        self.backoff_seconds = backoff_seconds
        self._stages: Dict[str, str] = {}
        os.makedirs(directory, exist_ok=True)
        manifest_path = self._manifest_path()
        if resume and os.path.exists(manifest_path):
            self._load_manifest(manifest_path)
        else:
            # fresh run: forget any stale stages from a previous config
            self._write_manifest()

    # -- manifest ------------------------------------------------------------

    def _manifest_path(self) -> str:
        return os.path.join(self.directory, "manifest.json")

    def _stage_path(self, stage: str) -> str:
        return os.path.join(self.directory, "%s.pkl" % stage)

    def _load_manifest(self, path: str) -> None:
        try:
            with open(path) as fh:
                manifest = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise CheckpointError(
                "unreadable checkpoint manifest at %s: %s" % (path, exc),
                directory=self.directory,
            ) from exc
        if manifest.get("schema") != SCHEMA:
            raise CheckpointError(
                "checkpoint schema %r does not match %r"
                % (manifest.get("schema"), SCHEMA),
                directory=self.directory,
            )
        if manifest.get("config") != self.config_digest:
            raise CheckpointError(
                "checkpoint was written for a different proving "
                "configuration (model/inputs/scheme/grid changed)",
                directory=self.directory,
                expected=self.config_digest,
                found=manifest.get("config"),
            )
        stages = manifest.get("stages", {})
        if not isinstance(stages, dict):
            raise CheckpointError("malformed checkpoint manifest",
                                  directory=self.directory)
        self._stages = {str(k): str(v) for k, v in stages.items()}

    def _write_manifest(self) -> None:
        payload = json.dumps(
            {"schema": SCHEMA, "config": self.config_digest,
             "stages": self._stages},
            indent=2, sort_keys=True,
        )
        self._atomic_write(self._manifest_path(), payload.encode(),
                           stage="manifest")

    # -- stage IO ------------------------------------------------------------

    def completed_stages(self) -> Dict[str, str]:
        """Stage name -> checksum for every recorded stage."""
        return dict(self._stages)

    def has(self, stage: str) -> bool:
        return stage in self._stages

    def save(self, stage: str, payload: Any) -> None:
        """Pickle a stage result, checksum it, and record it durably."""
        data = pickle.dumps(payload)
        self._atomic_write(self._stage_path(stage), data, stage=stage)
        self._stages[stage] = _checksum(data)
        self._write_manifest()
        _log.debug("checkpointed stage", stage=stage, bytes=len(data))

    def load(self, stage: str) -> Any:
        """Load a stage result, verifying its checksum first."""
        path = self._stage_path(stage)
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except OSError as exc:
            raise CacheCorruptionError(
                "checkpoint stage %r is recorded but unreadable" % stage,
                phase="checkpoint", stage=stage, path=path,
            ) from exc
        expected = self._stages.get(stage)
        actual = _checksum(data)
        if expected != actual:
            raise CacheCorruptionError(
                "checkpoint stage %r failed its checksum" % stage,
                phase="checkpoint", stage=stage,
                expected=expected, actual=actual,
            )
        try:
            return pickle.loads(data)
        except Exception as exc:  # noqa: BLE001 — checksummed but unpicklable = corrupt
            raise CacheCorruptionError(
                "checkpoint stage %r does not unpickle" % stage,
                phase="checkpoint", stage=stage,
            ) from exc

    def discard(self, stage: str) -> None:
        """Forget a stage (e.g. after its checksum failed)."""
        self._stages.pop(stage, None)
        try:
            os.remove(self._stage_path(stage))
        except OSError:
            pass
        self._write_manifest()

    def _atomic_write(self, path: str, data: bytes, stage: str) -> None:
        """Write-then-rename, retrying transient failures with backoff."""
        try:
            atomic_write(path, data, attempts=self.write_attempts,
                         backoff_seconds=self.backoff_seconds,
                         retry_event="checkpoint_write", stage=stage)
        except (OSError, faults.InjectedFault) as exc:
            raise CheckpointError(
                "could not write checkpoint stage %r after %d attempts"
                % (stage, self.write_attempts),
                stage=stage, path=path,
            ) from exc
