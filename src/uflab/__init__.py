"""Numerical experiments with Fourier uncertainty ratios.

The package evaluates the scale-invariant ratios
F_q(f) = ||f||_q ||f^||_q / (||f||_2 ||f^||_2) and the two-exponent
variant F_qp on complex Gaussian mixtures and Hermite expansions, using
the unitary transform convention f^(xi) = integral f(x) e^{-2 pi i x xi} dx.
Norms are exact where a closed form or a finite Gaussian sum exists
(single Gaussian/chirp terms, mixtures at even integer exponents,
Hermite expansions in L^2); everything else runs through certified
adaptive quadrature, with an FFT-based cross check.
"""

__version__ = "0.1.0"

# The flat namespace is exactly the names of the README's import blocks;
# every other entry point lives in its module.
from .gaussian import (
    ChirpParams,
    ComplexGaussianTerm,
    GaussianMixture,
    TwoScaleParams,
    closed_form_Fq_chirp,
    closed_form_Fqp_chirp,
)
from .numerics import (
    NormEstimate,
    ToleranceNotAchieved,
    dft_approx,
    lq_norm_quad,
    sample,
)
from .hermite import HermiteExpansion, random_schwartz
from .functionals import (
    beckner_constant,
    eval_Fq,
    eval_Fqp,
    fq_gc_lower_bound,
    norms,
)
from .verifier import run_suite
from .explore import minimize_Fq

__all__ = [
    "__version__",
    "ChirpParams", "TwoScaleParams", "ComplexGaussianTerm", "GaussianMixture",
    "HermiteExpansion",
    "eval_Fq", "eval_Fqp", "norms", "NormEstimate", "ToleranceNotAchieved",
    "lq_norm_quad", "dft_approx", "sample",
    "closed_form_Fq_chirp", "closed_form_Fqp_chirp", "beckner_constant",
    "fq_gc_lower_bound", "random_schwartz",
    "run_suite", "minimize_Fq",
]
