"""Brute-force Monte Carlo verification of the closed-form moments.

Every expectation the closed forms claim is estimated here directly from
fresh channel draws, with standard errors, so the analytic module can be
certified numerically.  This module intentionally does not import the
analytic module: the two routes to each moment stay independent.
"""

from __future__ import annotations

import math

import numpy as np

from .budget import LinkBudget, SystemConfig
from .channel import Geometry
from .transceiver import Moments, PhaseConfig, literal_trial_statistics, moments_at


def estimate_moments(
    geom: Geometry,
    cfg: SystemConfig,
    phases: PhaseConfig,
    budget: LinkBudget,
    trials: int,
    seed: int,
) -> tuple[Moments, Moments]:
    """Sample means and standard errors of the five moments under `budget`,
    from `trials` fresh channel draws, each as a `Moments`.

    Deterministic given (seed, trials); the stream is independent of the
    rate-simulation streams so estimates never reuse simulation draws.  The
    draws are full draws of both hops at every size
    (`literal_trial_statistics`), so the oracle checks the reduced draw of
    the Monte Carlo rates from outside.
    """
    per_trial = moments_at(literal_trial_statistics(geom, cfg, phases, trials, stream=(seed,)),
                           budget, cfg)
    mean = Moments(*(x.mean(axis=0) for x in per_trial))
    if trials < 2:
        return mean, Moments(*map(np.zeros_like, mean))
    return mean, Moments(*(x.std(axis=0, ddof=1) / math.sqrt(trials) for x in per_trial))
