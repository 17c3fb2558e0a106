"""Shared test fixtures and hypothesis profiles.

The experiment runner persists simulation results to a user-level disk
cache (``~/.cache/repro-disco``).  Tests must neither read stale results
from it (a cache hit would mask a behaviour change) nor pollute it, so
every test session gets a private, throwaway cache directory.

Hypothesis tests that leave ``max_examples`` unset take it from the
loaded profile: ``quick`` (the default here) keeps the suite fast, and
``--hypothesis-profile native-differential`` runs the native-vs-Python
router sweep draws (``tests/test_native_sweep.py``) at a CI-sized
budget.
"""

import pytest
from hypothesis import settings

settings.register_profile("quick", max_examples=12, deadline=None)
settings.register_profile("native-differential", max_examples=500,
                          deadline=None)
settings.load_profile("quick")


@pytest.fixture(autouse=True, scope="session")
def _isolated_disk_cache(tmp_path_factory):
    cache_root = tmp_path_factory.mktemp("repro-disco-cache")
    mp = pytest.MonkeyPatch()
    mp.setenv("REPRO_CACHE_DIR", str(cache_root))
    yield
    mp.undo()
