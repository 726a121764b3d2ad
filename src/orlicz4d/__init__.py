"""Numerics for concentration and loss of compactness of radial H^2 data
on R^4 in the exponential Orlicz class.

The package works in the log-radius variable s = -log|x|: norms reduce to
weighted 1D integrals (gridfn, norms), the Luxemburg-type norm is found by
a seeded root-find on its exponential functional (orlicz), the explicit
concentrating family and bubble generators come with closed-form oracles
(bubbles, concentration), and a constructive scale/profile extraction loop
decomposes finite concentrating families (decompose).  verify bundles every checkable
quantitative claim into pass/fail suites; cli exposes the lot.
"""

from .bubbles import (ORLICZ_LIMIT_CONST, BubbleSpec, MollifierSpec, Profile,
                      alternative_mollifier, appendix_closed_forms, bubble_values,
                      default_mollifier, eta_jet, lemma_add1_integrals,
                      make_bubble, make_falpha, narrow_mollifier, profile_L,
                      profile_cusp, profile_orlicz_limit, profile_tent)
from .concentration import gaussian_test, pair_concentration
from .corpus import corpus_functions
from .decompose import (DecompositionResult, ScaleDetectionError, SequenceFamily,
                        decompose, detect_scale, energy_ledger, estimate_A0,
                        orthogonality_check, subtract_bubble, synthesize_family)
from .gridfn import (GridDomainError, IntegrandOverflowError, LogGrid,
                     LogRadialFunction, bubble_grid, compose_segments,
                     from_radius_samples, integrate_samples, sample_radial,
                     uniform_grid)
from .norms import NormKind, check_radial_inequalities, norm, norms_squared
from .orlicz import (BracketExpansionError, OrliczConfig, exp_weighted_integral,
                     orlicz_functional, orlicz_norm, tm_functional)
from .verify import run_suite

# each name is read outside its home module by the package, demos/ or perfbench/
__all__ = [
    "ORLICZ_LIMIT_CONST", "BubbleSpec", "MollifierSpec", "Profile",
    "alternative_mollifier", "appendix_closed_forms", "bubble_values",
    "default_mollifier", "eta_jet", "lemma_add1_integrals", "make_bubble",
    "make_falpha", "narrow_mollifier", "profile_L", "profile_cusp",
    "profile_orlicz_limit", "profile_tent",
    "gaussian_test", "pair_concentration",
    "corpus_functions",
    "DecompositionResult", "ScaleDetectionError", "SequenceFamily", "decompose",
    "detect_scale", "energy_ledger", "estimate_A0", "orthogonality_check",
    "subtract_bubble", "synthesize_family",
    "GridDomainError", "IntegrandOverflowError", "LogGrid", "LogRadialFunction",
    "bubble_grid", "compose_segments", "from_radius_samples", "integrate_samples",
    "sample_radial", "uniform_grid",
    "NormKind", "check_radial_inequalities", "norm", "norms_squared",
    "BracketExpansionError", "OrliczConfig", "exp_weighted_integral",
    "orlicz_functional", "orlicz_norm", "tm_functional",
    "run_suite",
]
__version__ = "0.1.0"
