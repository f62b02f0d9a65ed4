"""Differential uniformity of polynomial maps over GF(2^m), studied through
an associated projective surface: construction, point counts, exclusion
bounds, irreducibility and smoothness criteria, and coefficient-space scans.
"""

__version__ = "0.1.0"

from .gf2m import Field, default_modulus, is_irreducible
from .polyfunc import (PolyFunc, affine_transform, catalogue,
                       known_apn_exponent, normalize, parse_family,
                       parse_poly)
from .differential import (differential_spectrum, fingerprint_digest,
                           is_apn, walsh_fingerprint)
from .mvpoly import TriPoly
from .surface import (Surface, build_surface, count_points,
                      derivative_divisibility, diagonal_infinity_singular,
                      infinity_curve)
from .criteria import (absolutely_irreducible, binomial_criterion,
                       congruence_irreducible, congruence_smooth,
                       curve_singular_points, exponent_pair_criterion,
                       surface_irreducible)
from .bounds import (IRREDUCIBLE, ISOLATED, curve_exclusion,
                     excludes_irreducible, excludes_isolated, hasse_weil_min,
                     mmax, mmax_table)
from .search import (SearchJob, checkpoint_resume, checkpoint_save, classify,
                     scan)
from . import errors

__all__ = [
    "Field", "default_modulus", "is_irreducible",
    "PolyFunc", "normalize", "affine_transform", "parse_poly",
    "parse_family", "catalogue", "known_apn_exponent",
    "differential_spectrum", "is_apn",
    "walsh_fingerprint", "fingerprint_digest",
    "TriPoly",
    "Surface", "build_surface", "count_points",
    "derivative_divisibility", "diagonal_infinity_singular",
    "infinity_curve",
    "absolutely_irreducible", "binomial_criterion",
    "congruence_irreducible", "congruence_smooth",
    "curve_singular_points", "exponent_pair_criterion",
    "surface_irreducible",
    "IRREDUCIBLE", "ISOLATED", "excludes_irreducible", "excludes_isolated",
    "mmax", "mmax_table", "curve_exclusion", "hasse_weil_min",
    "SearchJob", "scan", "checkpoint_save", "checkpoint_resume",
    "classify",
    "errors",
    "__version__",
]
