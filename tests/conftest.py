import pytest
from hypothesis import HealthCheck, settings

from syndetic import pipeline, vdw

settings.register_profile(
    "suite",
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture
def no_search(monkeypatch):
    """Every van der Waerden search with two or more colors raises: the
    construction's span lookup and the search loop behind vdw_number."""

    def searched(*args):
        raise AssertionError("a van der Waerden search ran")

    monkeypatch.setattr(pipeline, "vdw_span", searched)
    monkeypatch.setattr(vdw, "_search", searched)
