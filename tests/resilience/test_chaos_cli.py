"""CLI robustness: chaos matrix, hardened verify, typed top-level errors."""

import dataclasses
import os
import pickle
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.cli import main
from repro.envelope import decode_envelope
from repro.halo2.proof import proof_to_bytes
from repro.model import get_model
from repro.obs import log as obs_log
from repro.resilience import events, faults
from repro.runtime import prove_model

rng = np.random.default_rng(11)

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def cli_env(**extra):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC_DIR] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep)
                     if p])
    env.update(extra)
    return env


@pytest.fixture(autouse=True)
def clean_state():
    events.reset()
    faults.uninstall()
    yield
    events.reset()
    faults.uninstall()
    obs_log.set_level("info")  # `-q` runs mute the shared logger


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


class TestChaosCommand:
    def test_single_site_matrix_green(self, capsys):
        rc = main(["chaos", "--model", "dlrm", "--sites", "transcript", "-q"])
        assert rc == 0

    def test_fuzz_only_smoke(self):
        rc = main(["chaos", "--model", "dlrm", "--sites", "transcript",
                   "--fuzz", "20", "-q"])
        assert rc == 0


class TestTypedTopLevel:
    def test_unrecovered_fault_surfaces_typed(self, tmp_path, capsys):
        # arm more transcript faults than the retry budget: the run must
        # exit 1 with a structured ProvingError line, not a traceback
        spec = get_model("dlrm", "mini")
        inputs = {k: rng.uniform(-0.5, 0.5, s)
                  for k, s in spec.inputs.items()}
        from repro.resilience.errors import ProvingError

        with faults.use_faults("transcript:99"):
            with pytest.raises(ProvingError) as info:
                prove_model(spec, inputs, num_cols=10, scale_bits=5,
                            use_pk_cache=False)
        assert info.value.phase == "prove"

    def test_cli_reports_typed_failure_without_traceback(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "prove", "--model", "dlrm"],
            capture_output=True, text=True,
            env=cli_env(ZKML_FAULTS="transcript:99"),
        )
        assert proc.returncode == 1
        combined = proc.stdout + proc.stderr
        assert "Traceback" not in combined
        assert "ProvingError" in combined
