import importlib
import pkgutil

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "debell",
    deadline=None,
    print_blob=True,  # a failure prints the blob that replays it with @reproduce_failure
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("debell")


@pytest.fixture
def empty_memos():
    """Every debell memo emptied, as a fresh process has them: each module attribute
    with ``cache_clear`` and the Stirling triangle store.  A count pin that reads
    ``cache_info`` after a run starts from here, so no earlier test's entries count."""
    import debell
    from debell import stirling

    for info in pkgutil.iter_modules(debell.__path__):
        for value in vars(importlib.import_module(f"debell.{info.name}")).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()
    stirling._TABLES.clear()
