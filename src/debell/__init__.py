"""debell: exact arithmetic for generalized Stirling numbers, r-derangements,
barred preferential arrangements, and higher-order r-deranged Bell numbers,
with brute-force enumeration oracles and an identity-verification harness.

The package root exports only the names the README quick tour imports, plus
``binpow``; everything else is imported from its own module
(``from debell.bell import omega_egf``).  An export is looked up in its
module on every access (PEP 562), so ``import debell`` loads no submodule,
and a function rebound in its module is what the root returns, since the
root keeps no copy of it.
"""

from importlib import import_module

__version__ = "0.1.0"

# exported name -> the module that defines it
_EXPORTS = {
    "ParamSet": "exact",
    "bell_egf": "bell",
    "bell_lambda1": "bell",
    "binpow": "series",
    "r_deranged_partitions_enum": "enumeration",
    "r_derangement_egf": "derangements",
    "run_claims": "verify",
    "stirling_rec": "stirling",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)
