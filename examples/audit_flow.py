"""The full Figure-2 audit flow with the first-class audit API.

1. The provider proves every served inference into a hash-chained
   AuditLog, which publishes the verifying key to a registry.  The key's
   hash is the model commitment (the weights sit in its fixed columns),
   and the provider announces it.
2. The auditor resolves the key from the registry by that hash and
   replays the log: every entry must name the published key, every proof
   must verify under it, and the chain must be intact.

Run:  python examples/audit_flow.py
"""

import tempfile

import numpy as np

from repro.envelope import decode_envelope
from repro.model import GraphBuilder
from repro.registry import VKRegistry
from repro.runtime import AuditLog, audit


def build_model(seed=6):
    gb = GraphBuilder("prod-scorer", materialize=True, seed=seed)
    x = gb.input("request", (1, 6))
    h = gb.fully_connected(x, 6, 4)
    h = gb.activation(h, "relu")
    out = gb.fully_connected(h, 4, 2)
    return gb.build([out])


def main():
    with tempfile.TemporaryDirectory() as root:
        audit_against(VKRegistry(root))


def audit_against(registry):
    rng = np.random.default_rng(8)

    # 1. serve users, proving every inference into the chained log; the
    #    weights stay private, the verifying key goes to the registry
    log = AuditLog(build_model(), registry, scheme_name="kzg", num_cols=10,
                   scale_bits=6)
    for i in range(3):
        entry = log.serve({"request": rng.uniform(-1, 1, (1, 6))})
        print("served request %d: %d-byte envelope, chain %s..."
              % (i, len(entry.envelope), entry.chain_digest.hex()[:12]))
    published = decode_envelope(log.entries[0].envelope).vk_hash_hex
    print("published model commitment (vk hash):", published[:24], "...")

    # 2. the auditor checks everything against the published key
    findings = audit(log, registry, published)
    print("audit findings:", findings or "none — log is clean")
    assert findings == []

    # 3. a provider that silently swaps the weights is caught: the
    #    swapped model's key has another hash than the published one
    rogue_log = AuditLog(build_model(seed=99), registry, scheme_name="kzg",
                         num_cols=10, scale_bits=6)
    for _ in range(2):
        rogue_log.serve({"request": rng.uniform(-1, 1, (1, 6))})
    findings = audit(rogue_log, registry, published)
    print("after a silent model swap:", [str(f) for f in findings])
    assert [f.kind for f in findings] == ["model", "model"]


if __name__ == "__main__":
    main()
