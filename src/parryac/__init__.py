"""Abelian complexity of binary fixed points of quadratic Parry morphisms.

Closed-form AC(n) in O(log n) exact integer operations for both morphism
families, an independent brute-force oracle, greedy U-representations,
and generators for the fixed point and its extremal companion words.
"""

from .complexity import (
    ACResult,
    METHOD_CLOSED_FORM,
    METHOD_STURMIAN,
    ac,
    ac_nonsimple,
    ac_range,
    ac_via_prefix_counts,
    balance_bound,
    max_ac,
)
from .extremal import (
    choose_k_nonsimple,
    choose_mn_simple,
    v_b_count_simple,
    w_b_count_nonsimple,
    w_b_count_simple,
    w_prefix_nonsimple,
    w_stage_length_nonsimple,
    wv_prefix_simple,
    wv_stage_length_simple,
)
from .numeration import (
    normal_u_rep,
    prefix_b_count,
    prefix_decomposition,
    u_rep_value,
    u_value,
)
from .oracle import (
    OracleInstabilityError,
    ParikhInterval,
    oracle_ac,
    parikh_extrema,
)
from .words import (
    A,
    B,
    GENERATION_CAP,
    UBETA,
    V,
    W,
    CapExceededError,
    Family,
    Morphism,
    ParikhVector,
    UnsupportedConstructionError,
    apply,
    fixed_point_prefix,
    make_morphism,
    parikh,
    parikh_image,
)

__version__ = "0.1.0"

__all__ = [
    "A", "B", "GENERATION_CAP", "UBETA", "V", "W",
    "ACResult", "CapExceededError", "Family", "Morphism",
    "METHOD_CLOSED_FORM", "METHOD_STURMIAN", "OracleInstabilityError", "ParikhInterval",
    "ParikhVector", "UnsupportedConstructionError",
    "ac", "ac_nonsimple", "ac_range", "ac_via_prefix_counts", "apply",
    "balance_bound", "choose_k_nonsimple", "choose_mn_simple",
    "fixed_point_prefix", "make_morphism", "max_ac", "normal_u_rep", "oracle_ac",
    "parikh", "parikh_extrema", "parikh_image",
    "prefix_b_count", "prefix_decomposition", "u_rep_value", "u_value",
    "v_b_count_simple", "w_b_count_nonsimple",
    "w_b_count_simple", "w_prefix_nonsimple", "w_stage_length_nonsimple",
    "wv_prefix_simple", "wv_stage_length_simple",
]
