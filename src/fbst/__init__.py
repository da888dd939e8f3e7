"""Full Bayesian Significance Test on posterior draws.

Compute the e-value against a sharp null hypothesis, the asymptotic
p-value and the standardized e-value from MCMC draws, and render
surprise-function plots.
"""

__version__ = "0.1.0"

from .core import (FbstResult, ReferenceFunction, SurpriseFunction,
                   evalue_grid, evalue_mc, fbst, fbst_pipeline, pvalue_evalue,
                   standardized_evalue, surprise_fit)
from .density import (DensityEstimate, PosteriorSample, kde_eval, kde_fit,
                      silverman_bandwidth)
from .errors import (DimensionError, DomainError, DrawsError, FbstError,
                     PlotError, ReferenceFunctionError, SamplerError)
from .io import DrawsFileSpec, ResultDocument, format_result, load_draws, \
    write_result
from .oracle import (TTestData, analytic_evalue_flat, brute_force_evalue,
                     random_walk_metropolis, ttest_metropolis)
from .special_math import (DensityFamily, chisq_cdf, chisq_pdf, chisq_quantile,
                           density_eval, reg_lower_incomplete_gamma)
from .viz import PlotSpec, render_fbst_plot

__all__ = [
    "DensityEstimate", "DensityFamily", "DimensionError", "DomainError",
    "DrawsError", "DrawsFileSpec", "FbstError", "FbstResult",
    "PlotError", "PlotSpec", "PosteriorSample", "ReferenceFunction",
    "ReferenceFunctionError", "ResultDocument", "SamplerError",
    "SurpriseFunction", "TTestData",
    "analytic_evalue_flat", "brute_force_evalue",
    "chisq_cdf", "chisq_pdf", "chisq_quantile", "density_eval", "evalue_grid",
    "evalue_mc", "fbst", "fbst_pipeline", "format_result", "kde_eval",
    "kde_fit", "load_draws", "pvalue_evalue", "random_walk_metropolis",
    "reg_lower_incomplete_gamma", "render_fbst_plot", "silverman_bandwidth",
    "standardized_evalue", "surprise_fit",
    "ttest_metropolis", "write_result", "__version__",
]
