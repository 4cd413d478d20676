"""Copartition counting functions: exact and mod-2 series, enumeration,
parity analysis, and density-table regeneration."""

__version__ = "0.1.0"

from .params import CpParams
from .series import (
    ExactSeries,
    FactorSpec,
    ParitySeries,
    copartition_factors,
    copartition_parity,
    copartition_series,
    expand_factors,
    expand_factors_mod2,
    negated_pochhammer,
    pentagonal_support,
    pochhammer,
    reciprocal,
    reduce_mod2,
    self_conjugate_parity,
    self_conjugate_series,
)
from .enumeration import (
    Copartition,
    count_copartitions,
    crank_distribution,
    distinct_parts_to_hooks,
    enumerate_copartitions,
    hooks_to_distinct_parts,
    size_counts,
)
from .parity import (
    CheckResult,
    DensityReport,
    ProgressionFamily,
    TWO_SQUARES,
    X2_PLUS_3Y2,
    andrews_mod5_check,
    both_parities_prefix_check,
    brute_force_representable,
    density_report,
    even_guarantee_314,
    even_guarantee_516,
    even_guarantee_check,
    form_equivalence_check,
    form_equivalence_sweep_check,
    format_proportion,
    is_prime,
    is_sum_of_two_squares,
    is_x2_plus_3y2,
    lacunary_odd_support_check,
    merge_checks,
    odd_term_count_check,
    oracle_check,
    parity_gf_check,
    progression_check,
    self_conjugate_check,
    theta_product_identity_check,
    verify_even_progression,
)
from .tables import TableData, generate_table
