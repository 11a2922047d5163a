"""Factorization-based free-period and periodicity obstructions.

The package decides, for a knot-like integer polynomial, which orders n
survive the classical free-periodicity factorization condition, certifies
the survivors with explicit witness factorizations, screens prime-power
periods through the mod-p congruence of Murasugi, and runs both
obstructions over the combinatorial family of candidate L-space knot
polynomials.
"""

from .cyclotomic import (
    cyclotomic_tag,
    phi_inverse,
    prime_power,
)
from .hartley import (
    EValue,
    HartleyProfile,
    HartleySet,
    KnotCheckReport,
    WitnessCertificate,
    construct_witness,
    e_of_irreducible,
    hartley_knot_check,
    hartley_profile,
    hartley_set,
    is_n_hartley,
    power_index,
    profile_from_factors,
    rational_power_index,
    rotation_product_deflated,
    verify_witness,
)
from .intpoly import IntPoly, content_primitive, format_poly, parse_poly
from .lspace import (
    Candidate,
    CandidateRecord,
    FilterConfig,
    SurveyReport,
    candidate_record,
    enumerate_candidates,
    survey,
)
from .mahler import BoundMode, m_min_log2, prime_bound, voutier_log2_lb
from .murasugi import (
    MurasugiHit,
    murasugi_screen,
    murasugi_screen_all,
    verify_hit,
)
from .zfactor import FactoredPoly, factor_over_z
from .cli import KnotRecord, ingest_csv, normalize_alexander

__all__ = [
    "BoundMode",
    "Candidate",
    "CandidateRecord",
    "EValue",
    "FactoredPoly",
    "FilterConfig",
    "HartleyProfile",
    "HartleySet",
    "IntPoly",
    "KnotCheckReport",
    "KnotRecord",
    "MurasugiHit",
    "SurveyReport",
    "WitnessCertificate",
    "candidate_record",
    "construct_witness",
    "content_primitive",
    "cyclotomic_tag",
    "e_of_irreducible",
    "enumerate_candidates",
    "factor_over_z",
    "format_poly",
    "hartley_knot_check",
    "hartley_profile",
    "hartley_set",
    "ingest_csv",
    "is_n_hartley",
    "m_min_log2",
    "murasugi_screen",
    "murasugi_screen_all",
    "normalize_alexander",
    "parse_poly",
    "phi_inverse",
    "power_index",
    "prime_bound",
    "prime_power",
    "profile_from_factors",
    "rational_power_index",
    "rotation_product_deflated",
    "survey",
    "verify_hit",
    "verify_witness",
    "voutier_log2_lb",
]

__version__ = "0.1.0"
