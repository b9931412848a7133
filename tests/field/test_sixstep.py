"""Six-step (Bailey) NTT equivalence: byte-for-byte against radix-2.

The blocked transform is only a legal prover substitution if it is
*exact* — same canonical Goldilocks values at every index, no
reassociation drift.  These tests sweep k in {4..14} with seeded random
inputs and random coset shifts on the gl64 kernels (the radix-2
kernel and the reference NTT are the oracles), and check the
``SIXSTEP_MIN_K`` dispatch threshold routes ``EvaluationDomain``
transforms through the blocked path.
"""

import random

import numpy as np
import pytest

from repro.field import GOLDILOCKS, EvaluationDomain, gl64
from repro.field import ntt as ntt_module

from tests.reference import ntt

F = GOLDILOCKS

KS = range(4, 15)


def _random_vector(k: int, seed: int):
    rng = random.Random(seed)
    return [rng.randrange(F.p) for _ in range(1 << k)]


def _random_shift(k: int, seed: int) -> int:
    return random.Random(10_000 + seed).randrange(1, F.p)


@pytest.mark.parametrize("k", KS)
def test_numpy_sixstep_matches_radix2(k):
    n = 1 << k
    root = F.root_of_unity(k)
    values = gl64.from_ints(_random_vector(k, seed=200 + k))
    stages = gl64.ntt_stages(root, n)
    rev = gl64.bit_reverse_indices(n)
    reference = gl64.ntt(values, stages, rev)
    plan = gl64.build_sixstep_plan(root, n)
    np.testing.assert_array_equal(gl64.sixstep_ntt(values, plan), reference)


@pytest.mark.parametrize("k", KS)
def test_numpy_sixstep_fused_coset_matches_scaled_radix2(k):
    n = 1 << k
    root = F.root_of_unity(k)
    shift = _random_shift(k, seed=300 + k)
    values = gl64.from_ints(_random_vector(k, seed=300 + k))
    # reference: explicit full-width coset scale, then plain radix-2
    scale = gl64.powers(1, shift, n)
    stages = gl64.ntt_stages(root, n)
    rev = gl64.bit_reverse_indices(n)
    reference = gl64.ntt(gl64.mul(values, scale), stages, rev)
    plan = gl64.build_sixstep_plan(root, n, shift=shift)
    np.testing.assert_array_equal(gl64.sixstep_ntt(values, plan), reference)


def test_numpy_plan_rejects_tiny_or_non_power_sizes():
    root = F.root_of_unity(4)
    with pytest.raises(ValueError):
        gl64.build_sixstep_plan(root, 3)
    with pytest.raises(ValueError):
        gl64.build_sixstep_plan(root, 2)


def test_ntt_dispatches_to_sixstep_at_threshold(monkeypatch):
    # Lowering the threshold must not change values — only the code path.
    k = 6
    values = _random_vector(k, seed=42)
    expected = ntt(F, values, F.root_of_unity(k))
    monkeypatch.setattr(ntt_module, "SIXSTEP_MIN_K", 4)
    calls = []
    real = gl64.sixstep_ntt
    monkeypatch.setattr(gl64, "sixstep_ntt",
                        lambda *args, **kw: calls.append("numpy")
                        or real(*args, **kw))
    assert EvaluationDomain(F, k).coeff_to_lagrange(values) == expected
    assert calls == ["numpy"]
