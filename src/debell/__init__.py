"""debell: exact arithmetic for generalized Stirling numbers, r-derangements,
barred preferential arrangements, and higher-order r-deranged Bell numbers,
with brute-force enumeration oracles and an identity-verification harness.
"""

from .asymptotics import (
    AsymptoticComparison,
    bell_asymptotic_estimate,
    expansion,
    partitions_with_parts,
    w_explicit,
)
from .bell import (
    bell_convolution,
    bell_egf,
    bell_general_closed,
    bell_lambda1,
    deranged_bell_classic,
    omega,
    omega_egf,
)
from .derangements import (
    derangement,
    r_derangement,
    r_derangement_egf,
    r_derangement_rec,
)
from .enumeration import (
    EnumerationCapError,
    barred_count,
    ordered_partitions_count,
    r_derangements_enum,
    r_deranged_partitions_enum,
    r_stirling_count,
    set_partitions_count,
)
from .exact import ParamSet, binomial, falling, format_rat, gen_falling
from .series import TruncatedSeries, binpow
from .stirling import StirlingTable, stirling_egf, stirling_rec
from .verify import GridSpec, VerificationReport, emit_report, run_claims

__version__ = "0.1.0"

__all__ = [
    "AsymptoticComparison",
    "EnumerationCapError",
    "GridSpec",
    "ParamSet",
    "StirlingTable",
    "TruncatedSeries",
    "VerificationReport",
    "barred_count",
    "bell_asymptotic_estimate",
    "bell_convolution",
    "bell_egf",
    "bell_general_closed",
    "bell_lambda1",
    "binomial",
    "binpow",
    "deranged_bell_classic",
    "derangement",
    "emit_report",
    "expansion",
    "falling",
    "format_rat",
    "gen_falling",
    "omega",
    "omega_egf",
    "ordered_partitions_count",
    "partitions_with_parts",
    "r_derangement",
    "r_derangement_egf",
    "r_derangement_rec",
    "r_derangements_enum",
    "r_deranged_partitions_enum",
    "r_stirling_count",
    "run_claims",
    "set_partitions_count",
    "stirling_egf",
    "stirling_rec",
    "w_explicit",
]
