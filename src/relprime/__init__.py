"""Exact counting of relatively prime subsets and constrained coprime tuples.

The ground set is any disjoint union of finite arithmetic progressions;
the counters are Möbius sums over a single divisibility kernel |X_d| and
return plain Python ints, exact at any size.  A brute-force oracle
recounts everything from the definitions for verification.
"""

from ._kernels import BACKEND
from .counting import f, f_k, nathanson_f, nathanson_phi, phi, phi_k
from .errors import (
    BudgetExceededError,
    DomainError,
    OverlapError,
    SetSpecError,
)
from .oracle import (
    OracleBudget,
    brute_f,
    brute_f_k,
    brute_phi,
    brute_phi_k,
    brute_tuples,
    subset_gcd_histogram,
)
from .setmodel import (
    Progression,
    ProgressionUnion,
    count_ap_multiples,
    enumerate_elements,
    interval,
    parse_set_spec,
    union_multiples,
    validate_union,
)
from .shonhiwa import g_count, h_count, l_count, s_count, t_count

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "BudgetExceededError",
    "DomainError",
    "OracleBudget",
    "OverlapError",
    "Progression",
    "ProgressionUnion",
    "SetSpecError",
    "brute_f",
    "brute_f_k",
    "brute_phi",
    "brute_phi_k",
    "brute_tuples",
    "count_ap_multiples",
    "enumerate_elements",
    "f",
    "f_k",
    "g_count",
    "h_count",
    "interval",
    "l_count",
    "nathanson_f",
    "nathanson_phi",
    "parse_set_spec",
    "phi",
    "phi_k",
    "s_count",
    "subset_gcd_histogram",
    "t_count",
    "union_multiples",
    "validate_union",
]
