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

from types import ModuleType as _ModuleType

from .gaussian import (
    MIN_CHIRP_MARGIN,
    ChirpParams,
    ComplexGaussianTerm,
    GaussianMixture,
    TwoScaleParams,
    closed_form_Fq_chirp,
    closed_form_Fqp_chirp,
    make_chirp,
    make_two_scale,
    term_lq_norm,
)
from .numerics import (
    NormEstimate,
    SampledFunction,
    ToleranceNotAchieved,
    dft_approx,
    integrate_adaptive,
    lq_norm_quad,
    norm_from_samples,
    sample,
    truncation_radius,
)
from .hermite import (
    N_MAX,
    HermiteExpansion,
    hermite_eval,
    random_schwartz,
)
from .functionals import (
    FunctionalReport,
    beckner_constant,
    conjugate_exponent,
    eval_Fq,
    eval_Fqp,
    fq_gc_lower_bound,
    gc_l2_norm_sq,
    gc_lq_lower_bound,
    gc_lq_lower_bound_weak,
    gc_lq_upper_bound,
    interpolation_exponent,
    norms,
)
from .verifier import (
    SUITE_NAMES,
    CheckResult,
    run_suite,
    verify_asymptotics,
    verify_closed_forms,
    verify_fq_lower_bound,
    verify_hausdorff_young,
    verify_interpolation,
    verify_reduction_q_lt_2_le_p,
    verify_superadditivity,
)
from .explore import (
    GridSpec,
    IntervalReport,
    MinimizeFamilySpec,
    MinimizeReport,
    OptimizerConfig,
    SweepResult,
    SweepRow,
    estimate_image_interval,
    minimize_Fq,
    sweep,
)
from .cli import main, run_cli

# Every public name imported above; the submodules that the imports bind
# as package attributes are not part of the flat API.
__all__ = ["__version__"] + [
    name for name, value in list(globals().items())
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
