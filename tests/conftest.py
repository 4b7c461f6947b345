import concurrent.futures

import pytest

from hookforest import verify


@pytest.fixture
def pool_starts(monkeypatch):
    """Force the worker pool: a zero threshold, and two CPUs even on a
    one-CPU host.  Returns the worker counts of the pools started."""
    starts = []
    real = concurrent.futures.ProcessPoolExecutor

    def counted(workers, *args, **kwargs):
        starts.append(workers)
        return real(workers, *args, **kwargs)

    monkeypatch.setattr(verify, "POOL_THRESHOLD_S", 0.0)
    monkeypatch.setattr(verify.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", counted)
    return starts
