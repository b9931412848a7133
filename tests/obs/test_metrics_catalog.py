"""docs/observability.md's metrics catalog names exactly what is emitted.

One registry receives a one-shot prove (``prove_model(...,
metrics=...)``), two in-process served batches of two (a keygen and
a pk-cache hit, plus a queue-full rejection and a failed batch, so
every serving row fires) and a ``VerifyService`` batch with one good and one tampered envelope.  The
series names it then holds must equal the catalog's, minus the rows
only a shed, eviction, worker crash or poison batch, or ``zkml
calibrate`` writes, which are listed here by name.  A series missing
from the catalog, or catalogued but never emitted, fails.
"""

import os
import re

import numpy as np
import pytest

from repro.model import get_model
from repro.obs.metrics import MetricsRegistry
from repro.registry import VKRegistry
from repro.resilience.errors import ResilienceError, ServiceOverloadedError
from repro.runtime import prove_model
from repro.serve import ProvingService, ServeConfig, VerifyService

CATALOG = os.path.join(os.path.dirname(__file__), "..", "..", "docs",
                       "observability.md")

#: Catalogued rows that only a shed, an eviction, a worker-process crash
#: or a poison batch writes.
SHED_OR_CRASH_ONLY = {
    "serve_shed_batches_total",
    "serve_worker_restarts_total",
    "serve_redispatched_batches_total",
    "zkml_scheduler_evicted_total",
    "zkml_scheduler_poisoned_total",
}

#: Catalogued rows that only ``zkml calibrate`` writes.
CALIBRATE_ONLY = {
    "zkml_costmodel_predicted_seconds",
    "zkml_costmodel_actual_seconds",
    "zkml_costmodel_drift",
}


def catalog_names():
    """Every backticked name in the first cell of a catalog table row."""
    with open(CATALOG) as fh:
        text = fh.read()
    section = text.split("### Metrics catalog", 1)[1].split("\n### ", 1)[0]
    names = set()
    for line in section.splitlines():
        cells = line.split("|")
        if line.startswith("| `") and len(cells) > 2:
            names.update(re.findall(r"`([a-z0-9_]+)`", cells[1]))
    return names


def emitted_names(registry):
    return set(re.findall(r"^# TYPE (\S+) ", registry.to_prometheus(),
                          flags=re.M))


@pytest.fixture(scope="module")
def registry(tmp_path_factory):
    registry = MetricsRegistry()
    spec = get_model("dlrm", "mini")
    rng = np.random.default_rng(5)

    def draw():
        return {k: rng.uniform(-0.5, 0.5, s) for k, s in spec.inputs.items()}

    proven = prove_model(spec, draw(), metrics=registry)

    # the queue holds one pair, so a third request is rejected; the pair
    # is one batch of two (keygen), the next pair a pk-cache hit
    service = ProvingService(ServeConfig(max_batch=2, max_queue=2,
                                         max_flush_seconds=1.0),
                             metrics=registry)
    futures = [service.submit(spec, draw()) for _ in range(2)]
    with pytest.raises(ServiceOverloadedError):  # not started: queue full
        service.submit(spec, draw())
    with service:
        assert [f.result(timeout=300).batch_size for f in futures] == [2, 2]
        again = [service.submit(spec, draw()) for _ in range(2)]
        assert all(f.result(timeout=300).keygen_cache_hit for f in again)
        doomed = service.submit(spec, {k: np.full(s, 1e9)
                                       for k, s in spec.inputs.items()})
        with pytest.raises(ResilienceError):
            doomed.result(timeout=300)

    env = proven.envelope()
    root = str(tmp_path_factory.mktemp("catalog-vkreg"))
    VKRegistry(root).publish(proven.vk, env.model, env.config_digest)
    good = env.encode()
    bad = bytearray(good)
    bad[-1] ^= 0xFF
    verdict = VerifyService(registry=VKRegistry(root), metrics=registry) \
        .verify_batch([good, bytes(bad)])
    assert (verdict["accepted"], verdict["rejected"]) == (1, 1)
    return registry


def test_the_excluded_rows_are_catalogued():
    assert SHED_OR_CRASH_ONLY | CALIBRATE_ONLY <= catalog_names()


def test_every_emitted_series_is_catalogued_and_every_row_emitted(registry):
    expected = catalog_names() - SHED_OR_CRASH_ONLY - CALIBRATE_ONLY
    emitted = emitted_names(registry)
    assert sorted(emitted - expected) == []  # emitted, not catalogued
    assert sorted(expected - emitted) == []  # catalogued, never emitted
