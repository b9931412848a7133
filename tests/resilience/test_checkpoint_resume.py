"""Checkpoint/resume: interrupted runs resume to byte-identical proofs."""

import json
import os
import pickle

import numpy as np
import pytest

from repro.halo2.proof import proof_to_bytes
from repro.model import get_model
from repro.perf.pkcache import GLOBAL_PK_CACHE
from repro.resilience import events, faults
from repro.resilience.checkpoint import (
    STAGES,
    CheckpointStore,
    proving_config_digest,
)
from repro.resilience.errors import CheckpointError
from repro.runtime import prove_model, verify_model_proof

rng = np.random.default_rng(7)


@pytest.fixture(scope="module")
def mnist_case():
    spec = get_model("mnist", "mini")
    inputs = {k: rng.uniform(-0.5, 0.5, s) for k, s in spec.inputs.items()}
    return spec, inputs


def prove(spec, inputs, **kwargs):
    return prove_model(spec, inputs, scheme_name="kzg", num_cols=10,
                       scale_bits=5, **kwargs)


@pytest.fixture(autouse=True)
def clean_events():
    events.reset()
    yield
    events.reset()
    faults.uninstall()


class TestCheckpointStore:
    def test_save_load_roundtrip(self, tmp_path):
        store = CheckpointStore(str(tmp_path), "cfg")
        store.save("synthesize", {"rows": 42})
        assert store.has("synthesize")
        assert store.load("synthesize") == {"rows": 42}

    def test_manifest_layout(self, tmp_path):
        store = CheckpointStore(str(tmp_path), "cfg")
        store.save("keygen", [1, 2, 3])
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["schema"] == "zkml-checkpoint/v7"
        assert manifest["config"] == "cfg"
        assert "keygen" in manifest["stages"]

    def test_config_mismatch_refuses_resume(self, tmp_path):
        CheckpointStore(str(tmp_path), "cfg-a").save("synthesize", 1)
        with pytest.raises(CheckpointError, match="different proving"):
            CheckpointStore(str(tmp_path), "cfg-b", resume=True)

    def test_corrupted_stage_detected(self, tmp_path):
        store = CheckpointStore(str(tmp_path), "cfg")
        store.save("prove", {"x": 1})
        (tmp_path / "prove.pkl").write_bytes(b"garbage")
        from repro.resilience.errors import CacheCorruptionError

        with pytest.raises(CacheCorruptionError, match="checksum"):
            store.load("prove")

    def test_disk_write_fault_retried(self, tmp_path):
        store = CheckpointStore(str(tmp_path), "cfg", backoff_seconds=0.0)
        with faults.use_faults("disk_write:1"):
            store.save("synthesize", "payload")
        assert store.load("synthesize") == "payload"
        assert events.counts()["retries"] >= 1

    def test_disk_write_fault_exhaustion_is_typed(self, tmp_path):
        store = CheckpointStore(str(tmp_path), "cfg", backoff_seconds=0.0)
        with faults.use_faults("disk_write:99"), \
                pytest.raises(CheckpointError, match="could not write"):
            store.save("synthesize", "payload")

    def test_config_digest_binds_inputs(self, mnist_case):
        spec, inputs = mnist_case
        base = proving_config_digest(spec, [inputs], "kzg", 10, 5, None,
                                     None)
        assert base == proving_config_digest(spec, [inputs], "kzg", 10, 5,
                                             None, None)
        other = {k: v + 1.0 for k, v in inputs.items()}
        assert base != proving_config_digest(spec, [other], "kzg", 10, 5,
                                             None, None)
        assert base != proving_config_digest(spec, [inputs], "ipa", 10, 5,
                                             None, None)
        # the batch is part of the configuration: size and order bind
        assert base != proving_config_digest(spec, [inputs, inputs], "kzg",
                                             10, 5, None, None)
        assert proving_config_digest(spec, [inputs, other], "kzg", 10, 5,
                                     None, None) \
            != proving_config_digest(spec, [other, inputs], "kzg", 10, 5,
                                     None, None)


class TestResume:
    def test_checkpointed_equals_plain(self, mnist_case, tmp_path):
        spec, inputs = mnist_case
        plain = prove(spec, inputs)
        ckpt = prove(spec, inputs, checkpoint_dir=str(tmp_path))
        assert proof_to_bytes(plain.proof) == proof_to_bytes(ckpt.proof)
        for stage in STAGES:
            assert (tmp_path / ("%s.pkl" % stage)).exists()

    def test_interrupted_after_keygen_resumes_byte_identical(
            self, mnist_case, tmp_path):
        # the acceptance scenario: kill the run after keygen, resume, and
        # require the final proof bytes to match an uninterrupted run
        spec, inputs = mnist_case
        uninterrupted = prove(spec, inputs)

        class Interrupted(BaseException):
            pass

        calls = {"n": 0}
        orig = pickle.dumps

        def dumps_then_die(obj, *a, **kw):
            data = orig(obj, *a, **kw)
            calls["n"] += 1
            if calls["n"] == 2:  # synthesize, then keygen: die after keygen
                raise Interrupted
            return data

        pickle.dumps = dumps_then_die
        try:
            with pytest.raises(Interrupted):
                prove(spec, inputs, checkpoint_dir=str(tmp_path))
        finally:
            pickle.dumps = orig

        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert set(manifest["stages"]) == {"synthesize"}

        # resume in a "new process": cold pk cache, stale state gone
        GLOBAL_PK_CACHE.clear()
        resumed = prove(spec, inputs, checkpoint_dir=str(tmp_path),
                        resume=True)
        assert (proof_to_bytes(resumed.proof)
                == proof_to_bytes(uninterrupted.proof))
        assert verify_model_proof(resumed.vk, resumed.proof,
                                  resumed.instance, "kzg")

    def test_resume_skips_completed_stages(self, mnist_case, tmp_path):
        spec, inputs = mnist_case
        first = prove(spec, inputs, checkpoint_dir=str(tmp_path))
        # v4 prove payloads written before the per-phase RSS sample was
        # dropped carry a key this build no longer reads; such a
        # directory must still resume (no schema bump for a dead field)
        store = CheckpointStore(
            str(tmp_path),
            proving_config_digest(spec, [inputs], "kzg", 10, 5, None, None),
            resume=True)
        store.save("prove", dict(store.load("prove"),
                                 retired_per_phase_rss={"commit": 1}))
        GLOBAL_PK_CACHE.clear()
        resumed = prove(spec, inputs, checkpoint_dir=str(tmp_path),
                        resume=True)
        assert (proof_to_bytes(first.proof)
                == proof_to_bytes(resumed.proof))
        assert resumed.phase_seconds == first.phase_seconds  # not re-proved

    def test_corrupt_stage_recomputed_on_resume(self, mnist_case, tmp_path):
        spec, inputs = mnist_case
        first = prove(spec, inputs, checkpoint_dir=str(tmp_path))
        path = os.path.join(str(tmp_path), "prove.pkl")
        with open(path, "r+b") as fh:
            fh.seek(10)
            fh.write(b"\xff\xff\xff\xff")
        GLOBAL_PK_CACHE.clear()
        resumed = prove(spec, inputs, checkpoint_dir=str(tmp_path),
                        resume=True)
        assert (proof_to_bytes(first.proof)
                == proof_to_bytes(resumed.proof))
        assert events.counts().get(
            'recovered{reason="checkpoint_stage_rebuild"}', 0) >= 1

    def test_v1_checkpoint_refused_on_resume(self, mnist_case, tmp_path,
                                             monkeypatch):
        # a directory written by an older build holds stage pickles this
        # one must not load (v1: a pk with the old constraint list; v2: a
        # config digest without k and the pre-unification circuit shape;
        # v3: a pk without the fixed round and a reveal-the-polynomial
        # proof; v4: an Assignment of per-cell lists; v5: a pk without its
        # compiled tapes): the run must refuse
        # it with the typed schema error — not the misleading "different
        # configuration" — and never unpickle it
        spec, inputs = mnist_case
        prove(spec, inputs, checkpoint_dir=str(tmp_path))
        path = tmp_path / "manifest.json"
        manifest = json.loads(path.read_text())

        def no_unpickling(data):
            raise AssertionError("an old checkpoint stage was unpickled")

        monkeypatch.setattr(pickle, "loads", no_unpickling)
        for old in ("zkml-checkpoint/v1", "zkml-checkpoint/v2",
                    "zkml-checkpoint/v3", "zkml-checkpoint/v4",
                    "zkml-checkpoint/v5", "zkml-checkpoint/v6"):
            manifest["schema"] = old
            path.write_text(json.dumps(manifest))
            with pytest.raises(CheckpointError, match="schema '%s'" % old):
                prove(spec, inputs, checkpoint_dir=str(tmp_path),
                      resume=True)

    def test_without_resume_flag_starts_fresh(self, mnist_case, tmp_path):
        spec, inputs = mnist_case
        prove(spec, inputs, checkpoint_dir=str(tmp_path))
        store = CheckpointStore(str(tmp_path),
                                "unrelated", resume=False)
        assert store.completed_stages() == {}
