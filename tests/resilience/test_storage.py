"""The one atomic-blob primitive (:mod:`repro.storage`) and its users."""

import os
import threading

import pytest

from repro.registry.store import VKRegistry
from repro.resilience import events
from repro.storage import atomic_write, checksum16

from tests.flaky_disk import fail_replace


def _stores(tmp_path):
    registry = VKRegistry(str(tmp_path / "registry"))
    return {
        "registry": lambda path, data: registry._atomic_write(
            path, data, what="index"),
        "primitive": lambda path, data: atomic_write(
            path, data, attempts=3, backoff_seconds=0.0,
            retry_event="test_write"),
    }


@pytest.mark.parametrize("store", ["registry", "primitive"])
def test_concurrent_writers_of_one_path_do_not_share_a_tmp_file(
        tmp_path, monkeypatch, store):
    """Two threads writing the same path each rename a file that holds
    *their own* whole payload: with a shared ``path + ".tmp"`` the second
    open truncates the first writer's partial file."""
    write = _stores(tmp_path)[store]
    path = str(tmp_path / "blob.bin")
    payloads = {name: name.encode() * 4096 for name in ("a", "b")}
    both_written = threading.Barrier(2, timeout=10)
    real_replace = os.replace
    renamed = {}

    def gated_replace(src, dst):
        if dst == path and threading.current_thread().name in payloads:
            both_written.wait()
            with open(src, "rb") as fh:
                renamed[threading.current_thread().name] = fh.read()
        return real_replace(src, dst)

    monkeypatch.setattr(os, "replace", gated_replace)
    threads = [threading.Thread(target=write, args=(path, data), name=name)
               for name, data in payloads.items()]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=20)
        assert not thread.is_alive()
    assert renamed == payloads
    with open(path, "rb") as fh:
        assert fh.read() in payloads.values()  # the last rename won, whole
    assert [n for n in os.listdir(str(tmp_path)) if ".tmp" in n] == []


def test_retries_are_counted_then_the_last_failure_is_raised(
        tmp_path, monkeypatch):
    path = str(tmp_path / "blob.bin")
    events.reset()
    failed = fail_replace(monkeypatch, 2)
    atomic_write(path, b"payload", attempts=3, backoff_seconds=0.0,
                 retry_event="test_write", what="blob")
    with open(path, "rb") as fh:
        assert fh.read() == b"payload"
    assert len(failed) == 2
    assert events.counts()["retries"] == 2
    failed = fail_replace(monkeypatch, 5)
    with pytest.raises(OSError):
        atomic_write(path, b"other", attempts=2, backoff_seconds=0.0,
                     retry_event="test_write")
    assert len(failed) == 2
    with open(path, "rb") as fh:
        assert fh.read() == b"payload"  # a failed write leaves the old blob
    assert os.listdir(str(tmp_path)) == ["blob.bin"]
    events.reset()


def test_checksum16_is_blake2b_16():
    import hashlib

    assert checksum16(b"zkml") == hashlib.blake2b(
        b"zkml", digest_size=16).digest()
