"""Pytest plugin: run the tests against an AddressSanitizer build of the C
kernel.

A bit-identity test cannot see a read one element past a buffer; the
sanitizer can.  The plugin adds ``-fsanitize=address
-fno-omit-frame-pointer`` to the kernel's compiler flags, which the build
tag hashes, so the instrumented library is built and cached beside the
plain one, and fails the session unless that build loads and passes the
load-time check.  The ASan runtime must be loaded first (without it the
process stops at load with status 1)::

    LD_PRELOAD="$(gcc -print-file-name=libasan.so)" \\
    ASAN_OPTIONS=detect_leaks=0 PYTHONPATH=src \\
    python -m pytest --capture=sys -p tests.asan_kernel \\
        tests/test_trace_equivalence.py tests/test_packed.py tests/test_pool.py

A sanitizer report ends the process with status 1.  ``--capture=sys``
keeps it visible: under pytest's default descriptor-level capture it goes
to a capture file that is never printed.
"""

from __future__ import annotations

import pytest

import repro.forest._cgrower as _cgrower


def pytest_configure(config) -> None:
    _cgrower._CFLAGS += ("-fsanitize=address", "-fno-omit-frame-pointer")
    # Forget a kernel loaded before the flags changed.
    _cgrower._lib, _cgrower._attempted = None, False
    if _cgrower.load() is None:
        raise pytest.UsageError(
            "the AddressSanitizer build of the C kernel did not load; "
            "is the ASan runtime preloaded (LD_PRELOAD)?"
        )
