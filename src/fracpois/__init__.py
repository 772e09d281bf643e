"""Exact distributions, samplers and Monte Carlo verification for the
space-, time- and space-time fractional Poisson processes."""

from .dist import (PmfRow, ProcessParams, cdf, first_passage_cdf,
                   first_passage_density, pgf, pmf, pmf_row,
                   pmf_time_fractional_direct)
from .sample import RngStream, SampleBatch, sample_batch
from .special_fn import (EvalResult, NonConvergence, SeriesConfig,
                         mittag_leffler)

__version__ = "0.1.0"

__all__ = [
    "ProcessParams", "PmfRow", "pmf", "pmf_row",
    "pmf_time_fractional_direct", "pgf", "cdf", "first_passage_cdf",
    "first_passage_density", "RngStream", "SampleBatch", "sample_batch",
    "SeriesConfig", "EvalResult", "NonConvergence", "mittag_leffler",
    "__version__",
]
