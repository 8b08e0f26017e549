"""Every memoizing cache in debell is named here, so a new one is a visible
change rather than a silent source of unbounded growth."""

import importlib
import pkgutil

import debell

ALLOWED = [
    "_bell_egf",
    "_excess_partitions",
    "_gamma_free",
    "_lambda1",
    "_points",
    "_product_factor",
    "_section_convolution",
    "_tally_by_run",
    "_xu_and_log",
    "claim_registry",
    "r_derangement",
]


def test_cache_inventory():
    found = {}
    for info in pkgutil.iter_modules(debell.__path__):
        module = importlib.import_module(f"debell.{info.name}")
        for value in vars(module).values():
            if hasattr(value, "cache_info"):
                found[id(value)] = value.__name__
    assert sorted(found.values()) == ALLOWED
