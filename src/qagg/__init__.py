"""Convex aggregation of ordered linear smoothers.

Builds Tikhonov/ridge regularizer families in shared-eigenbasis form,
aggregates them with certified simplex weights, provides the classical
selection baselines (unbiased-risk argmin, GCV, exponential weighting)
and ships a seeded Monte Carlo harness for regret experiments.
"""

from qagg import aggregate, smoother, spectral
from qagg.aggregate import *  # noqa: F403
from qagg.smoother import *  # noqa: F403
from qagg.spectral import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [*spectral.__all__, *smoother.__all__, *aggregate.__all__, "__version__"]
