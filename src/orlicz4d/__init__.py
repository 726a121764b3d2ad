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

from .bubbles import (BubbleSpec, MollifierSpec, Profile, alternative_mollifier,
                      appendix_closed_forms, bubble_values, default_mollifier,
                      eta_callables, lemma_add1_integrals, make_bubble, make_eta,
                      make_falpha, narrow_mollifier,
                      profile_L, profile_cusp, profile_orlicz_limit, profile_tent,
                      ORLICZ_LIMIT_CONST)
from .concentration import ConcentrationReport, gaussian_test, pair_concentration, plateau_test
from .corpus import corpus_functions, random_smooth_radial
from .decompose import (DecompositionResult, ScaleDetectionError, ScaleSeq,
                        SequenceFamily, decompose, detect_scale, energy_ledger,
                        estimate_A0, extract_profile, orthogonality_check,
                        subtract_bubble, synthesize_family)
from .gridfn import (GridDomainError, IntegrandOverflowError, LogGrid,
                     LogRadialFunction, bubble_grid, compose_segments,
                     from_radius_samples, integrate_samples, sample_radial,
                     uniform_grid)
from .norms import InequalityReport, NormKind, check_radial_inequalities, norm, norms_squared
from .orlicz import (BracketExpansionError, OrliczConfig, TmResult,
                     exp_weighted_integral, orlicz_functional, orlicz_norm,
                     tm_functional)
from .verify import SuiteReport, run_suite

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
