"""The envelope flow end to end: pipeline API, CLI exit codes, registry.

Covers the public surfaces PR-level acceptance names: ``prove_model``/
``prove_batch`` emit envelopes, ``verify_model_proof`` accepts them
(and refuses bytes that are not one), and ``zkml verify`` exits
3 — distinctly — when the envelope's key is absent from the registry.
"""

import dataclasses
import os
import pickle
import shutil
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.cli import main
from repro.envelope import decode_envelope, is_envelope
from repro.halo2.proof import proof_to_bytes
from repro.model import get_model
from repro.obs import log as obs_log
from repro.perf.pkcache import DiskPKCache, ProvingKeyCache
from repro.resilience.errors import ProvingError
from repro.runtime import pipeline, prove_batch, prove_model, verify_model_proof

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
    """One prove run shared by the CLI tests: artifact, envelope,
    populated registry."""
    root = tmp_path_factory.mktemp("envelope-cli")
    paths = {
        "artifact": str(root / "proof.pkl"),
        "envelope": str(root / "proof.env"),
        "registry": str(root / "registry"),
        "root": str(root),
    }
    rc = main(["prove", "--model", "dlrm", "--out", paths["artifact"],
               "--envelope", paths["envelope"],
               "--registry", paths["registry"], "-q"])
    obs_log.set_level("info")
    assert rc == 0
    return paths


class TestPipelineEnvelopeApi:
    def test_prove_result_envelope_is_self_consistent(self, proven):
        env = proven.envelope()
        assert env.model == proven.spec_name
        assert env.scheme_name == proven.scheme_name
        assert env.vk_hash == proven.vk.digest()
        assert env.instance == [list(col) for col in proven.instance]
        assert is_envelope(proven.envelope_bytes())

    def test_verify_model_proof_accepts_envelope_bytes(self, proven):
        verify_model_proof(proven.vk, proven.envelope_bytes())

    def test_verify_model_proof_accepts_envelope_object(self, proven):
        verify_model_proof(proven.vk, proven.envelope())

    def test_loose_bytes_rejected_typed(self, proven):
        # bytes must be an envelope: the pre-envelope wire format is
        # refused by the envelope decoder, before any proof parsing
        from repro.halo2.proof import proof_to_bytes
        from repro.resilience.errors import EnvelopeError

        with pytest.raises(EnvelopeError):
            verify_model_proof(proven.vk, proof_to_bytes(proven.proof),
                               proven.instance, proven.scheme_name)

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
        verify_model_proof(result.vk, result.envelope_bytes())


class TestProveCli:
    def test_artifact_carries_envelope(self, workspace):
        with open(workspace["artifact"], "rb") as f:
            doc = pickle.load(f)
        env = decode_envelope(doc["envelope"])
        assert env.model == "dlrm-mini"
        assert env.vk_hash == doc["vk"].digest()

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
        assert main(["verify", "--envelope", workspace["envelope"],
                     "--registry", workspace["registry"], "-q"]) == 0

    def test_artifact_envelope_path_exit_zero(self, workspace):
        assert main(["verify", "--artifact", workspace["artifact"],
                     "-q"]) == 0

    def test_unknown_vk_exits_three_with_hint(self, workspace, tmp_path,
                                              capsys):
        empty = str(tmp_path / "empty-registry")
        rc = main(["verify", "--envelope", workspace["envelope"],
                   "--registry", empty, "-q"])
        assert rc == 3
        err = capsys.readouterr().err
        assert "unknown_vk" in err
        assert "zkml registry publish" in err  # the remediation hint

    def test_publish_then_retry_clears_exit_three(self, workspace,
                                                  tmp_path):
        fresh = str(tmp_path / "fresh-registry")
        assert main(["verify", "--envelope", workspace["envelope"],
                     "--registry", fresh, "-q"]) == 3
        assert main(["registry", "publish",
                     "--artifact", workspace["artifact"],
                     "--registry", fresh, "-q"]) == 0
        assert main(["verify", "--envelope", workspace["envelope"],
                     "--registry", fresh, "-q"]) == 0

    def test_tampered_envelope_exit_one(self, workspace, tmp_path, capsys):
        with open(workspace["envelope"], "rb") as f:
            data = bytearray(f.read())
        data[-1] ^= 0xFF
        bad = str(tmp_path / "tampered.env")
        with open(bad, "wb") as f:
            f.write(bytes(data))
        rc = main(["verify", "--envelope", bad,
                   "--registry", workspace["registry"], "-q"])
        assert rc == 1
        assert "EnvelopeChecksumError" in capsys.readouterr().err

    def test_relabeled_envelope_exit_one(self, workspace, tmp_path, capsys):
        # a valid checksum over a renamed model: the registry entry the
        # prover published binds the name
        with open(workspace["envelope"], "rb") as f:
            env = decode_envelope(f.read())
        bad = str(tmp_path / "relabeled.env")
        with open(bad, "wb") as f:
            f.write(dataclasses.replace(env, model="mnist-mini").encode())
        rc = main(["verify", "--envelope", bad,
                   "--registry", workspace["registry"], "-q"])
        assert rc == 1
        assert "does not match registry entry" in capsys.readouterr().err

    def test_envelope_without_registry_exit_one(self, workspace, capsys):
        rc = main(["verify", "--envelope", workspace["envelope"], "-q"])
        assert rc == 1
        assert "registry" in capsys.readouterr().err

    def test_registry_check_detects_corruption_exit_one(self, workspace,
                                                        tmp_path):
        import shutil

        broken = str(tmp_path / "broken-registry")
        shutil.copytree(workspace["registry"], broken)
        vk_dir = os.path.join(broken, "vk")
        victim = os.path.join(vk_dir, os.listdir(vk_dir)[0])
        with open(victim, "ab") as f:
            f.write(b"rot")
        assert main(["registry", "check", "--registry", broken, "-q"]) == 1

    def test_publish_rejects_envelope_free_artifact(self, workspace,
                                                    tmp_path, capsys):
        with open(workspace["artifact"], "rb") as f:
            doc = pickle.load(f)
        doc.pop("envelope")
        legacy = str(tmp_path / "legacy.pkl")
        with open(legacy, "wb") as f:
            pickle.dump(doc, f)
        rc = main(["registry", "publish", "--artifact", legacy,
                   "--registry", str(tmp_path / "reg"), "-q"])
        assert rc == 1
        assert "re-prove" in capsys.readouterr().err


@pytest.fixture(scope="module")
def artifact(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("artifacts") / "proof.pkl")
    rc = main(["prove", "--model", "dlrm", "--out", path, "-q"])
    assert rc == 0
    return path


class TestVerifyCommand:
    def test_good_artifact_exit_zero(self, artifact):
        assert main(["verify", "--artifact", artifact, "-q"]) == 0

    def test_artifact_carries_wire_bytes(self, artifact):
        with open(artifact, "rb") as f:
            doc = pickle.load(f)
        assert doc["proof_bytes"] == proof_to_bytes(doc["proof"])

    def test_truncated_proof_exit_one(self, artifact, tmp_path, capsys):
        # a well-formed envelope around a truncated proof: the envelope
        # decoder passes it, the proof deserializer must reject it typed
        with open(artifact, "rb") as f:
            doc = pickle.load(f)
        env = decode_envelope(doc["envelope"])
        doc["envelope"] = dataclasses.replace(
            env, proof_bytes=env.proof_bytes[:40]).encode()
        bad = str(tmp_path / "truncated.pkl")
        with open(bad, "wb") as f:
            pickle.dump(doc, f)
        assert main(["verify", "--artifact", bad, "-q"]) == 1
        err = capsys.readouterr().err
        assert "ProofFormatError" in err

    def test_tampered_instance_exit_one(self, artifact, tmp_path, capsys):
        with open(artifact, "rb") as f:
            doc = pickle.load(f)
        env = decode_envelope(doc["envelope"])
        env.instance[0][0] += 1
        doc["envelope"] = env.encode()
        bad = str(tmp_path / "tampered.pkl")
        with open(bad, "wb") as f:
            pickle.dump(doc, f)
        assert main(["verify", "--artifact", bad, "-q"]) == 1
        assert "VerificationFailure" in capsys.readouterr().err

    def test_artifact_without_envelope_exit_one(self, artifact, tmp_path,
                                                capsys):
        # the loose (vk, proof, instance) fields alone are not a proof
        # `zkml verify` accepts any more: typed refusal, told to re-prove
        with open(artifact, "rb") as f:
            doc = pickle.load(f)
        del doc["envelope"]
        bad = str(tmp_path / "loose.pkl")
        with open(bad, "wb") as f:
            pickle.dump(doc, f)
        assert main(["verify", "--artifact", bad, "-q"]) == 1
        err = capsys.readouterr().err
        assert "ProofFormatError" in err and "re-prove" in err

    def test_garbage_file_exit_one(self, tmp_path, capsys):
        bad = str(tmp_path / "garbage.pkl")
        with open(bad, "wb") as f:
            f.write(b"\x93not a pickle at all")
        assert main(["verify", "--artifact", bad, "-q"]) == 1
        assert "malformed artifact" in capsys.readouterr().err

    def test_missing_file_exit_one(self, tmp_path):
        assert main(["verify", "--artifact",
                     str(tmp_path / "nope.pkl"), "-q"]) == 1

    def test_no_traceback_in_subprocess(self, artifact, tmp_path):
        # the contract: `zkml verify` on a broken artifact exits 1 with a
        # structured log line and no Python traceback on either stream
        with open(artifact, "rb") as f:
            doc = pickle.load(f)
        doc.pop("envelope", None)
        doc["proof_bytes"] = doc["proof_bytes"][:33]
        del doc["proof"]
        bad = str(tmp_path / "broken.pkl")
        with open(bad, "wb") as f:
            pickle.dump(doc, f)
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "verify", "--artifact", bad],
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
