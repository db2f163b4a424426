import math

import pytest

from privsan import metrics


@pytest.fixture
def heap_scratch(monkeypatch):
    """Keep every kNN scratch array on the heap, where tracemalloc sees it;
    by default the large ones live in memory maps, which it does not."""
    monkeypatch.setattr(metrics, "_MAPPED_BYTES", math.inf)
