import contextlib
import warnings

import pytest
from hypothesis import HealthCheck, settings

# On a failing example Hypothesis imports its patch writer, and with it
# libcst, whose import trips mypy_extensions' DeprecationWarning. Under the
# suite's error::DeprecationWarning filter that aborts the whole run with an
# INTERNALERROR, so the writer is imported here once, with that warning
# silenced for this third-party import only.
with warnings.catch_warnings(), contextlib.suppress(ImportError):
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401

settings.register_profile(
    "suite",
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(autouse=True, scope="session")
def no_persistent_bundle_cache():
    """Keep the suite off a developer's DYADCAST_CACHE_DIR: a default
    BundleCache() would read and fill it, and a cache read would stand in
    for a fresh fit. Subprocesses inherit the cleaned environment."""
    with pytest.MonkeyPatch.context() as patch:
        patch.delenv("DYADCAST_CACHE_DIR", raising=False)
        yield
