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
