"""Hyperbolic-cross trigonometric approximation in anisotropic Lorentz-Zygmund spaces.

Subpackages:
  indexsets    exact dyadic blocks, crosses, and weighted layer sets
  norms        rearrangement-based mixed norms on grids and sequence norms
  spectral     FFT synthesis/analysis and cross truncation of polynomials
  classes      smoothness-class functional, rate exponents, extremal functions
  asymptotics  lemma-style sums, closed-form references, ratio scans, rate fits
  experiments  end-to-end rate experiments
  cli          command-line entry point
"""

__version__ = "0.1.0"

from .indexsets import (
    Anisotropy,
    axis_block,
    containing_block,
    cross_cardinality,
    cross_layers,
    hyperbolic_cross,
    layer_exact,
    rho_block,
)
from .norms import (
    GridFunction,
    MixedSpaceParams,
    ScalarSpaceParams,
    SequenceNormSpec,
    anisotropic_norm,
    iterated_rearrangement,
    lz_scalar_norm,
    mixed_sequence_norm,
    separable_norm,
)
from .spectral import (
    GridSpec,
    SpectralFunction,
    analyze,
    cross_truncate,
    dirichlet_block,
    synthesize,
    truncation_error,
)
from .classes import (
    BesovParams,
    DerivedExponents,
    TheoremParams,
    besov_functional,
    derived_exponents,
    extremal_f1,
    extremal_f2,
    extremal_f3,
    theoretical_rate,
)
from .asymptotics import (
    RateFit,
    RatioReport,
    lemma1_interior_sum,
    lemma1_reference,
    lemma1_sum,
    lemma2_reference,
    lemma2_sum,
    lemma3_lhs,
    lemma3_reference,
    lemma4_lhs,
    lemma4_reference,
    rate_fit,
    ratio_scan,
)
from .experiments import (
    approx_error_scan,
    class_normalizer,
    theorem1_rate_experiment,
)
