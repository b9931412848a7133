"""A disk that fails on purpose: ``os.replace`` raises ``OSError``.

The on-disk stores (:func:`repro.storage.atomic_write` and its users)
retry a failed write and clean up after the last one.  Tests reach that
path by patching ``os.replace`` here, not through a hook in the product.
"""

import errno
import os


def fail_replace(monkeypatch, times):
    """Make the next ``times`` calls of ``os.replace`` raise ``OSError``.

    Returns the list of ``(src, dst)`` pairs that failed, so a test can
    assert the failures really happened.
    """
    real_replace = os.replace
    failed = []

    def replace(src, dst):
        if len(failed) < times:
            failed.append((src, dst))
            raise OSError(errno.EIO, "simulated write failure", dst)
        return real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    return failed
