"""Tests for prior-work baselines and the CLI."""

import pytest

from repro.cli import main
from repro.envelope import decode_envelope
from repro.model import get_model
from repro.runtime import (
    estimate_model,
    supports_cnn_only,
    vcnn_estimate,
    zkcnn_estimate,
)
from repro.runtime.baselines import UnsupportedModel


class TestBaselines:
    def test_vgg16_anchors(self):
        spec = get_model("vgg16", "paper")
        zk = zkcnn_estimate(spec)
        # anchored near the published 88.3 s / 59 ms / 341 KB
        assert 50 < zk.proving_seconds < 150
        assert 100_000 < zk.proof_bytes < 500_000
        v = vcnn_estimate(spec)
        assert 20 * 3600 < v.proving_seconds < 45 * 3600
        assert v.proof_bytes < 1000

    def test_cnn_support_detection(self):
        assert supports_cnn_only(get_model("vgg16", "paper"))
        assert supports_cnn_only(get_model("mnist", "paper"))
        assert not supports_cnn_only(get_model("gpt2", "paper"))
        assert not supports_cnn_only(get_model("twitter", "paper"))

    def test_transformers_rejected_by_prior_work(self):
        with pytest.raises(UnsupportedModel, match="only CNNs"):
            zkcnn_estimate(get_model("gpt2", "paper"))
        with pytest.raises(UnsupportedModel):
            vcnn_estimate(get_model("dlrm", "paper"))

    def test_resnet_cheaper_than_vgg_for_zkcnn(self):
        resnet = zkcnn_estimate(get_model("resnet18", "paper"))
        vgg = zkcnn_estimate(get_model("vgg16", "paper"))
        assert resnet.proving_seconds < vgg.proving_seconds


class TestEstimateModel:
    def test_mnist_magnitude(self):
        est = estimate_model("mnist", "kzg", scale_bits=12)
        # paper: 2.45 s; same order of magnitude
        assert 0.2 < est.proving_seconds < 30

    def test_gpt2_is_largest(self):
        gpt2 = estimate_model("gpt2", "kzg", scale_bits=12)
        mnist = estimate_model("mnist", "kzg", scale_bits=12)
        assert gpt2.proving_seconds > 20 * mnist.proving_seconds


class TestCLI:
    def test_models_command(self, capsys):
        assert main(["models"]) == 0
        out = capsys.readouterr().out
        assert "gpt2" in out and "mnist" in out

    def test_optimize_command(self, capsys):
        assert main(["optimize", "--model", "dlrm"]) == 0
        out = capsys.readouterr().out
        assert "est. proving" in out

    def test_prove_and_verify_roundtrip(self, tmp_path, capsys):
        envelope = str(tmp_path / "proof.env")
        registry = str(tmp_path / "registry")
        assert main(["prove", "--model", "mnist", "--envelope", envelope,
                     "--registry", registry]) == 0
        assert main(["verify", "--envelope", envelope,
                     "--registry", registry]) == 0
        out = capsys.readouterr().out
        assert "OK" in out

    def test_verify_rejects_tampered_artifact(self, tmp_path, capsys):
        envelope = str(tmp_path / "proof.env")
        registry = str(tmp_path / "registry")
        assert main(["prove", "--model", "mnist", "--envelope", envelope,
                     "--registry", registry]) == 0
        with open(envelope, "rb") as f:
            env = decode_envelope(f.read())
        # tamper the public inputs and re-encode (a fresh, valid checksum)
        env.instance[0][0] += 1
        with open(envelope, "wb") as f:
            f.write(env.encode())
        assert main(["verify", "--envelope", envelope,
                     "--registry", registry]) == 1

    @pytest.mark.parametrize("command", ["serve", "prove", "bench", "profile"])
    def test_no_intra_proof_jobs_flag(self, command, capfd):
        # the prover is serial; processes are `zkml serve --workers N`
        # (`bench --help` is zkbench's help from its own process, and
        # returns; argparse's exits)
        try:
            code = main([command, "--help"])
        except SystemExit as done:
            code = done.code
        assert code == 0
        out = capfd.readouterr().out
        assert "usage:" in out and "--jobs" not in out


class TestInspectAndTranspileCLI:
    def test_inspect_paper_model(self, capsys):
        assert main(["inspect", "--model", "dlrm"]) == 0
        out = capsys.readouterr().out
        assert "weight columns" in out and "constraint deg" in out

    def test_inspect_mini_model(self, capsys):
        assert main(["inspect", "--model", "mnist", "--scale", "mini",
                     "--scale-bits", "5"]) == 0
        out = capsys.readouterr().out
        assert "gadget rows" in out

    def test_transpile_json_file(self, tmp_path, capsys):
        import json

        from repro.model import export

        flat = export(get_model("mnist", "mini"))
        path = tmp_path / "model.json"
        path.write_text(json.dumps(flat))
        assert main(["transpile", "--flat", str(path),
                     "--scale-bits", "5"]) == 0
        out = capsys.readouterr().out
        assert "transpiled 'mnist-mini'" in out
