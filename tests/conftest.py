"""Test configuration shared by every test module.

Property tests run under a derandomized Hypothesis profile: the examples
are a fixed function of each test's source, so a tier-1 run is
reproducible and its length is bounded by `max_examples`.

The `recording_pool` fixture stands in for the process pool of
`verify.run_suite`, so tests of the worker count start no process.
"""

import concurrent.futures

import pytest

try:
    from hypothesis import settings
except ImportError:  # property tests skip themselves without Hypothesis
    pass
else:
    settings.register_profile("tier1", derandomize=True, database=None,
                              deadline=None, max_examples=100)
    settings.load_profile("tier1")


@pytest.fixture
def recording_pool(monkeypatch):
    """Replace ProcessPoolExecutor by a pool that starts no process: it
    records its max_workers and runs each submitted call at once, in
    this process.  Returns the list of the pools' max_workers."""
    made = []

    class RecordingPool:
        def __init__(self, max_workers=None):
            made.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args, **kwargs):
            future = concurrent.futures.Future()
            future.set_result(fn(*args, **kwargs))
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return made
