"""The envelope flow end to end: pipeline API, CLI exit codes, registry.

The v2 envelope is the one proof artifact: ``prove_model``/
``prove_batch`` emit it, ``verify_envelope`` checks it against a key,
``zkml prove --registry`` publishes that key, and ``zkml verify
--envelope F --registry D`` checks the file against the published key —
exiting 3, distinctly, when the key is absent from the registry.
"""

import dataclasses
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.cli import main
from repro.envelope import decode_envelope, is_envelope, verify_envelope
from repro.model import get_model
from repro.obs import log as obs_log
from repro.perf.pkcache import DiskPKCache, ProvingKeyCache
from repro.registry import VKRegistry
from repro.resilience.errors import ProvingError
from repro.runtime import pipeline, prove_batch, prove_model

rng = np.random.default_rng(53)

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC_DIR] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep)
                     if p])
    return env


@pytest.fixture(autouse=True)
def reset_log_level():
    yield
    obs_log.set_level("info")  # `-q` runs mute the shared logger


@pytest.fixture(scope="module")
def proven():
    spec = get_model("dlrm", "mini")
    inputs = {k: rng.uniform(-0.5, 0.5, s) for k, s in spec.inputs.items()}
    return prove_model(spec, inputs, scheme_name="kzg", num_cols=10,
                       scale_bits=5)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One prove run shared by the CLI tests: its envelope and the
    registry it published the key into."""
    root = tmp_path_factory.mktemp("envelope-cli")
    paths = {
        "envelope": str(root / "proof.env"),
        "registry": str(root / "registry"),
        "root": str(root),
    }
    rc = main(["prove", "--model", "dlrm", "--envelope", paths["envelope"],
               "--registry", paths["registry"], "-q"])
    obs_log.set_level("info")
    assert rc == 0
    return paths


def write_envelope(path, env) -> str:
    """Encode ``env`` (a fresh, valid checksum) to ``path``."""
    with open(path, "wb") as f:
        f.write(env.encode())
    return str(path)


def read_envelope(path):
    with open(path, "rb") as f:
        return decode_envelope(f.read())


def verify_cli(envelope, registry, *extra):
    return main(["verify", "--envelope", envelope, "--registry", registry,
                 "-q", *extra])


class TestPipelineEnvelopeApi:
    def test_prove_result_envelope_is_self_consistent(self, proven):
        env = proven.envelope()
        assert env.model == proven.spec_name
        assert env.scheme_name == proven.scheme_name
        assert env.vk_hash == proven.vk.digest()
        assert env.instance == [list(col) for col in proven.instance]
        assert is_envelope(proven.envelope_bytes())

    def test_verify_model_proof_accepts_envelope_bytes(self, proven):
        assert verify_envelope(decode_envelope(proven.envelope_bytes()),
                               proven.vk)

    def test_verify_model_proof_accepts_envelope_object(self, proven):
        assert verify_envelope(proven.envelope(), proven.vk)

    def test_loose_bytes_rejected_typed(self, proven):
        # bytes must be an envelope: the pre-envelope wire format is
        # refused by the envelope decoder, before any proof parsing
        from repro.halo2.proof import proof_to_bytes
        from repro.resilience.errors import EnvelopeError

        with pytest.raises(EnvelopeError):
            decode_envelope(proof_to_bytes(proven.proof))

    def test_envelope_bytes_deterministic(self, proven):
        assert proven.envelope_bytes() == proven.envelope_bytes()

    def test_prove_batch_emits_envelopes(self):
        spec = get_model("dlrm", "mini")
        batch = [
            {k: rng.uniform(-0.5, 0.5, s) for k, s in spec.inputs.items()}
            for _ in range(2)
        ]
        result = prove_batch(spec, batch, scheme_name="kzg", num_cols=10,
                             scale_bits=5)
        env = result.envelope()  # one envelope covers the whole batch
        assert env.model == spec.name
        assert env.vk_hash == result.vk.digest()
        assert env.instance == [list(col) for col in result.instance]
        verify_envelope(decode_envelope(result.envelope_bytes()), result.vk)


class TestProveCli:
    def test_artifact_carries_envelope(self, workspace):
        # the envelope names the key `zkml prove --registry` published,
        # and the entry binds the envelope's model and config
        env = read_envelope(workspace["envelope"])
        vk, entry = VKRegistry(workspace["registry"]).resolve(
            env.vk_hash_hex)
        assert env.model == entry.model == "dlrm-mini"
        assert vk.digest() == env.vk_hash
        entry.bind(env)

    def test_envelope_file_is_raw_wire_bytes(self, workspace):
        with open(workspace["envelope"], "rb") as f:
            data = f.read()
        assert is_envelope(data)
        assert decode_envelope(data).model == "dlrm-mini"

    def test_cli_seed_and_socket_seed_prove_the_same_statement(self,
                                                                tmp_path):
        from repro.serve.server import request_inputs

        path = str(tmp_path / "seed7.env")
        assert main(["prove", "--model", "dlrm", "--seed", "7",
                     "--envelope", path, "-q"]) == 0
        spec = get_model("dlrm", "mini")
        wire = prove_model(spec, request_inputs(spec, {"seed": 7}))
        with open(path, "rb") as f:
            assert f.read() == wire.envelope_bytes()

    def test_registry_was_populated(self, workspace):
        rc = main(["registry", "list", "--registry", workspace["registry"],
                   "-q"])
        assert rc == 0
        rc = main(["registry", "check", "--registry", workspace["registry"],
                   "-q"])
        assert rc == 0


class TestVerifyCliExitCodes:
    def test_envelope_with_registry_exit_zero(self, workspace):
        assert verify_cli(workspace["envelope"], workspace["registry"]) == 0

    def test_artifact_envelope_path_exit_zero(self, workspace):
        # the same check through the installed entry point, in a fresh
        # interpreter
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "verify",
             "--envelope", workspace["envelope"],
             "--registry", workspace["registry"]],
            capture_output=True, text=True, env=cli_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert "verification: OK" in proc.stdout + proc.stderr

    def test_unknown_vk_exits_three_with_hint(self, workspace, tmp_path,
                                              capsys):
        empty = str(tmp_path / "empty-registry")
        assert verify_cli(workspace["envelope"], empty) == 3
        err = capsys.readouterr().err
        assert "unknown_vk" in err
        # the remediation hint: publish by proving into the registry
        assert "zkml prove --model" in err and "--registry " + empty in err

    def test_publish_then_retry_clears_exit_three(self, workspace,
                                                  tmp_path):
        fresh = str(tmp_path / "fresh-registry")
        assert verify_cli(workspace["envelope"], fresh) == 3
        assert main(["prove", "--model", "dlrm", "--registry", fresh,
                     "-q"]) == 0
        assert verify_cli(workspace["envelope"], fresh) == 0

    def test_tampered_envelope_exit_one(self, workspace, tmp_path, capsys):
        with open(workspace["envelope"], "rb") as f:
            data = bytearray(f.read())
        data[-1] ^= 0xFF
        bad = str(tmp_path / "tampered.env")
        with open(bad, "wb") as f:
            f.write(bytes(data))
        assert verify_cli(bad, workspace["registry"]) == 1
        assert "EnvelopeChecksumError" in capsys.readouterr().err

    def test_relabeled_envelope_exit_one(self, workspace, tmp_path, capsys):
        # a valid checksum over a renamed model: the registry entry the
        # prover published binds the name
        env = read_envelope(workspace["envelope"])
        bad = write_envelope(tmp_path / "relabeled.env",
                             dataclasses.replace(env, model="mnist-mini"))
        assert verify_cli(bad, workspace["registry"]) == 1
        assert "does not match registry entry" in capsys.readouterr().err

    def test_envelope_without_registry_exit_one(self, workspace, capsys):
        rc = main(["verify", "--envelope", workspace["envelope"], "-q"])
        assert rc == 1
        assert "registry" in capsys.readouterr().err

    def test_registry_check_detects_corruption_exit_one(self, workspace,
                                                        tmp_path):
        broken = str(tmp_path / "broken-registry")
        shutil.copytree(workspace["registry"], broken)
        vk_dir = os.path.join(broken, "vk")
        victim = os.path.join(vk_dir, os.listdir(vk_dir)[0])
        with open(victim, "ab") as f:
            f.write(b"rot")
        assert main(["registry", "check", "--registry", broken, "-q"]) == 1


class TestVerifyCommand:
    def test_good_artifact_exit_zero(self, workspace, tmp_path):
        # another proof under the published key verifies without
        # re-publishing
        path = str(tmp_path / "seed3.env")
        assert main(["prove", "--model", "dlrm", "--seed", "3",
                     "--envelope", path, "-q"]) == 0
        assert read_envelope(path).proof_bytes != read_envelope(
            workspace["envelope"]).proof_bytes
        assert verify_cli(path, workspace["registry"]) == 0

    def test_truncated_proof_exit_one(self, workspace, tmp_path, capsys):
        # a well-formed envelope around a truncated proof: the envelope
        # decoder passes it, the proof deserializer must reject it typed
        env = read_envelope(workspace["envelope"])
        bad = write_envelope(tmp_path / "truncated.env", dataclasses.replace(
            env, proof_bytes=env.proof_bytes[:40]))
        assert verify_cli(bad, workspace["registry"]) == 1
        assert "ProofFormatError" in capsys.readouterr().err

    def test_tampered_instance_exit_one(self, workspace, tmp_path, capsys):
        env = read_envelope(workspace["envelope"])
        env.instance[0][0] += 1
        bad = write_envelope(tmp_path / "tampered.env", env)
        assert verify_cli(bad, workspace["registry"]) == 1
        assert "VerificationFailure" in capsys.readouterr().err

    def test_garbage_file_exit_one(self, workspace, tmp_path, capsys):
        bad = str(tmp_path / "garbage.env")
        with open(bad, "wb") as f:
            f.write(b"\x93not an envelope at all")
        assert verify_cli(bad, workspace["registry"]) == 1
        err = capsys.readouterr().err
        assert "verification: FAILED" in err and "Envelope" in err

    def test_missing_file_exit_one(self, workspace, tmp_path):
        assert verify_cli(str(tmp_path / "nope.env"),
                          workspace["registry"]) == 1

    def test_no_traceback_in_subprocess(self, workspace, tmp_path):
        # the contract: `zkml verify` on a broken envelope exits 1 with a
        # structured log line and no Python traceback on either stream
        with open(workspace["envelope"], "rb") as f:
            data = f.read()
        bad = str(tmp_path / "broken.env")
        with open(bad, "wb") as f:
            f.write(data[:33])
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "verify", "--envelope", bad,
             "--registry", workspace["registry"]],
            capture_output=True, text=True, env=cli_env(),
        )
        assert proc.returncode == 1
        combined = proc.stdout + proc.stderr
        assert "Traceback" not in combined
        assert "verification: FAILED" in combined


#: A ``zkml prove`` whose pk cache lost its directory after it was
#: attached: keygen's lock file cannot be opened (a bare ``OSError``).
_PROVE_WITH_VANISHED_PK_CACHE = """
import shutil, sys, tempfile
from repro.perf.pkcache import GLOBAL_PK_CACHE
root = tempfile.mkdtemp()
GLOBAL_PK_CACHE.attach_disk(root)
shutil.rmtree(root)
from repro.cli import main
sys.exit(main(["prove", "--model", "dlrm"]))
"""


class TestTypedTopLevel:
    def test_unrecovered_fault_surfaces_typed(self, tmp_path, monkeypatch):
        # a stage that dies with a bare OSError surfaces as a ProvingError
        # naming the stage, not as a traceback
        spec = get_model("dlrm", "mini")
        inputs = {k: rng.uniform(-0.5, 0.5, s)
                  for k, s in spec.inputs.items()}
        root = str(tmp_path / "pk")
        monkeypatch.setattr(pipeline, "GLOBAL_PK_CACHE",
                            ProvingKeyCache(disk=DiskPKCache(root)))
        shutil.rmtree(root)
        with pytest.raises(ProvingError) as info:
            prove_model(spec, inputs, num_cols=10, scale_bits=5)
        assert info.value.phase == "keygen"
        assert isinstance(info.value.__cause__, OSError)

    def test_cli_reports_typed_failure_without_traceback(self):
        proc = subprocess.run(
            [sys.executable, "-c", _PROVE_WITH_VANISHED_PK_CACHE],
            capture_output=True, text=True, env=cli_env(),
        )
        assert proc.returncode == 1
        combined = proc.stdout + proc.stderr
        assert "Traceback" not in combined
        assert "ProvingError" in combined
