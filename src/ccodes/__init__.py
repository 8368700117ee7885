"""Affine Cartesian evaluation codes and their combinatorial machinery.

Construct codes from evaluation sets over small finite fields, compute
their generalized Hamming weight hierarchies and duals in closed form,
and cross-check every closed form against exhaustive oracles.
"""

from .codes import (
    CartesianCodeSpec,
    LinearCode,
    brute_ghw,
    brute_min_weight,
    code_summary,
    dual_code,
    dual_hierarchy,
    extremal_family,
    extremal_polynomials,
    gaussian_binomial,
    generator_matrix,
    hierarchy,
    matmul,
    max_common_zeros,
    rank,
    spec_from_parts,
    wei_duality_check,
)
from .gf import Field, field_create, parse_field
from .grid import (
    GridShape,
    brute_min_shadow,
    lex_segment,
    min_shadow_size,
    rth_of_deg_le,
    shadow,
)
from .hilbert import footprint_upper_bound, hilbert_fn

from .verification import VerifyReport, verify

__version__ = "0.1.0"
