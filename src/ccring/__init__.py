"""Constacyclic codes of length n*p^s over F_{p^m} + u F_{p^m}, u^2 = 0.

The ambient ring R[x]/(x^(n*p^s) - lambda) splits through primitive
idempotents into a direct sum of chain-ring extensions K_j + u K_j;
this package classifies, counts, enumerates and dualizes the ideals
(= constacyclic codes) of that ring, with brute-force oracles for
cross-checking every closed-form result at small sizes.
"""

from .chain import ChainCtx, ceil_half
from .decomp import (
    AmbientParams,
    FactorData,
    build_factor_data,
    clear_memo,
    factor_data,
    factor_data_for,
    factor_degrees,
)
from .dual import (
    count_self_dual,
    dual_code,
    dual_code_nu,
    dual_factor_data,
    enumerate_self_dual,
    is_self_dual,
)
from .gf import FieldCtx, field_new, ps_root
from .ideals import (
    CodeSpec,
    IdealSpec,
    case_counts,
    code_size,
    count_codes,
    count_codes_by_degree,
    count_ideals,
    count_ideals_params,
    count_ideals_sumform_params,
    enumerate_codes,
    enumerate_ideals,
    ideal_size,
)
from .poly import (
    Poly,
    factor_squarefree,
    frobenius,
    is_irreducible,
    poly_gcd,
    poly_modpow,
    poly_xgcd,
    reciprocal,
)

__version__ = "0.1.0"
