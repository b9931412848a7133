"""The verify path loads only what it runs.

A fresh interpreter unpickles a verifying key, decodes an envelope and
verifies it; the ``repro`` modules it loaded must be in
:data:`ALLOWED` and hold at most :data:`LINE_BUDGET` lines.  This is the
verifier's trusted computing base: the prover, the mock prover, the pk
cache, the metrics registry and the service never enter it.

Print the closure (module, lines, total) with::

    PYTHONPATH=src python -m tests.halo2.test_verifier_closure
"""

import json
import os
import pickle
import subprocess
import sys

import repro
from repro.model import get_model, seeded_inputs
from repro.runtime import prove_model

#: Every ``repro`` module a verify may load.  ``commit.kzg`` and
#: ``commit.ipa`` are the scheme labels ``scheme_by_name`` resolves;
#: ``halo2.keygen`` and ``halo2.tape`` come with ``VerifyingKey``, which
#: lives beside keygen while the package imports ``keygen`` eagerly.
ALLOWED = frozenset({
    "repro",
    "repro.commit", "repro.commit.fri", "repro.commit.ipa",
    "repro.commit.kzg", "repro.commit.merkle", "repro.commit.scheme",
    "repro.commit.transcript",
    "repro.envelope", "repro.envelope.format", "repro.envelope.verify",
    "repro.field", "repro.field.domain", "repro.field.gl64",
    "repro.field.native", "repro.field.ntt", "repro.field.prime_field",
    "repro.field.vector",
    "repro.halo2", "repro.halo2.circuit", "repro.halo2.column",
    "repro.halo2.expression", "repro.halo2.gate", "repro.halo2.keygen",
    "repro.halo2.lookup", "repro.halo2.proof", "repro.halo2.shape",
    "repro.halo2.tape", "repro.halo2.verifier",
    "repro.obs", "repro.obs.stats", "repro.obs.trace",
    "repro.resilience", "repro.resilience.errors",
})

#: Modules (or packages, with everything under them) that must never load.
FORBIDDEN = (
    "repro.halo2.prover", "repro.halo2.mock", "repro.perf",
    "repro.storage", "repro.obs.cluster", "repro.obs.metrics",
    "repro.obs.log", "repro.resilience.events", "repro.runtime",
    "repro.serve", "repro.compiler", "repro.gadgets", "repro.layers",
    "repro.model", "repro.optimizer",
)

#: Lines of ``repro`` source a verify may load (~5.9k when set).
LINE_BUDGET = 6000

CHILD = r"""
import json, pickle, sys
from repro.envelope import decode_envelope, verify_envelope
with open(sys.argv[1], "rb") as fh:
    vk = pickle.load(fh)
with open(sys.argv[2], "rb") as fh:
    env = decode_envelope(fh.read())
assert verify_envelope(env, vk) is True
lines = {}
for name, module in sorted(sys.modules.items()):
    if name == "repro" or name.startswith("repro."):
        with open(module.__file__, "rb") as fh:
            lines[name] = fh.read().count(b"\n")
print(json.dumps(lines))
"""


def _in_fresh_interpreter(code, *argv):
    src = os.path.dirname(os.path.dirname(repro.__file__))
    out = subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout


def verifier_closure(workdir):
    """``{module: lines}`` for every ``repro`` module a fresh interpreter
    loads to unpickle a dlrm-mini key, decode its envelope and verify it."""
    spec = get_model("dlrm", "mini")
    result = prove_model(spec, seeded_inputs(spec), use_pk_cache=False)
    vk_path = os.path.join(workdir, "vk.pkl")
    env_path = os.path.join(workdir, "proof.env")
    with open(vk_path, "wb") as fh:
        pickle.dump(result.vk, fh)
    with open(env_path, "wb") as fh:
        fh.write(result.envelope_bytes())
    return json.loads(_in_fresh_interpreter(CHILD, vk_path, env_path))


def test_verifying_an_envelope_loads_only_the_verifier(tmp_path):
    closure = verifier_closure(str(tmp_path))
    loaded = set(closure)
    assert "repro.halo2.verifier" in loaded
    forbidden = sorted(name for name in loaded if any(
        name == f or name.startswith(f + ".") for f in FORBIDDEN))
    assert not forbidden, forbidden
    assert loaded <= ALLOWED, sorted(loaded - ALLOWED)
    assert sum(closure.values()) <= LINE_BUDGET, closure


def test_the_lazy_names_resolve_after_their_submodules_load():
    # importing a submodule sets the package attribute of its name to the
    # module: ``keygen`` must still be the function zkbench calls
    out = _in_fresh_interpreter("""
import sys
import repro.halo2.keygen, repro.halo2.prover, repro.halo2.mock
from repro.halo2 import MockProver, create_proof, keygen
modules = sys.modules
assert keygen is modules["repro.halo2.keygen"].keygen, keygen
assert create_proof is modules["repro.halo2.prover"].create_proof
assert MockProver is modules["repro.halo2.mock"].MockProver
print(keygen.__name__, create_proof.__name__, MockProver.__name__)
""")
    assert out.split() == ["keygen", "create_proof", "MockProver"]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as workdir:
        closure = verifier_closure(workdir)
    for name, lines in sorted(closure.items()):
        print("%6d  %s" % (lines, name))
    print("%6d  lines in %d modules (budget %d)"
          % (sum(closure.values()), len(closure), LINE_BUDGET))
