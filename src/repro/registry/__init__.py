"""Verifying-key registry: content-addressed VK artifacts on disk.

A verifier that accepts envelopes from untrusted parties needs key
provenance: given an envelope's verifying-key hash, fetch *the* key the
prover published — or refuse with a typed error.  :class:`VKRegistry`
stores pickled :class:`~repro.halo2.keygen.VerifyingKey` artifacts
content-addressed by their binding digest, checksummed at publish time
and re-verified on every read, with atomic writes and
evict-on-corruption (the proving-key cache's integrity pattern, applied
to disk).  ``zkml prove --registry`` publishes into it and ``zkml
registry list|check`` is the operator surface; :meth:`VKRegistry.resolve`
is the verifier's one lookup.
"""

from repro.registry.store import (
    INDEX_SCHEMA,
    RegistryEntry,
    VKRegistry,
)

__all__ = ["VKRegistry", "RegistryEntry", "INDEX_SCHEMA"]
