"""Numerical checks of the trust-weight bounds and complexity-gap separability.

The statements are evaluated against empirical distributions (sample means),
where the convexity and bounded-range inequalities hold exactly, so the
checks are deterministic rather than asymptotic.  Every check takes plain arrays
of normalized complexities in [0, 1] (``check_normalized``) and returns a dict;
its keys, in order, are the keys that ``itboost verify-bounds`` prints.
"""

from __future__ import annotations

import math

import numpy as np

from .complexity import check_normalized

COMPARISON_TOL = 1e-12


def trust_bound_check(values) -> dict:
    """Check exp(-mean) <= mean(exp(-C)) <= exp(-mean + range^2 / 8) over complexities C.

    The lower bound is convexity of exp(-x); the upper bound is the
    bounded-range moment bound applied to the centred values.  Both hold for
    every sample, so the satisfied flags failing indicates a bug, not an
    unlucky draw.
    """
    v = check_normalized(values, "trust_bound_check")
    tau_hat = float(np.mean(np.exp(-v)))
    mu_hat = float(np.mean(v))
    value_range = float(v.max() - v.min())
    jensen = math.exp(-mu_hat)
    hoeffding = math.exp(-mu_hat + value_range**2 / 8.0)
    return {
        "empirical_tau": tau_hat,
        "mean_complexity": mu_hat,
        "jensen_lower": jensen,
        "hoeffding_upper": hoeffding,
        "jensen_satisfied": tau_hat >= jensen - COMPARISON_TOL,
        "hoeffding_satisfied": tau_hat <= hoeffding + COMPARISON_TOL,
    }


def ratio_bound_check(clean, noisy) -> dict:
    """Check tau_noisy / tau_clean <= exp(-(gap) + noisy_range^2 / 8) for two complexity vectors.

    The upper bound uses the bounded-range bound on the noisy group (the
    numerator) and convexity on the clean group (the denominator), so the
    correction term comes from the noisy group's range only.  The report also
    states whether the empirical complexity gap exceeds the correction, the
    condition under which noisy samples are guaranteed a down-weighting ratio
    below 1.
    """
    clean = check_normalized(clean, "ratio_bound_check")
    noisy = check_normalized(noisy, "ratio_bound_check")
    tau_clean = float(np.mean(np.exp(-clean)))
    tau_noisy = float(np.mean(np.exp(-noisy)))
    gap = float(np.mean(noisy) - np.mean(clean))
    correction = float((noisy.max() - noisy.min()) ** 2 / 8.0)
    bound = math.exp(-gap + correction)
    ratio = tau_noisy / tau_clean
    return {
        "tau_clean": tau_clean,
        "tau_noisy": tau_noisy,
        "tau_ratio": ratio,
        "complexity_gap": gap,
        "correction": correction,
        "ratio_bound": bound,
        "ratio_bound_satisfied": ratio <= bound + COMPARISON_TOL,
        "gap_exceeds_correction": gap > correction,
    }


def required_group_size(epsilon: float, delta: float) -> int:
    """Smallest per-group n with concentration radius epsilon at confidence 1 - delta.

    ValueError when ``log(2/delta) / (2*epsilon**2)`` leaves the float range:
    ``epsilon**2`` overflows or underflows to 0, or the quotient is infinite.
    """
    if not 0.0 < epsilon < math.inf:
        raise ValueError("required_group_size: epsilon must be positive and finite")
    if not 0.0 < delta < 1.0:
        raise ValueError("required_group_size: delta must be in (0, 1)")
    try:
        size = math.log(2.0 / delta) / (2.0 * epsilon**2)
    except (OverflowError, ZeroDivisionError):
        size = math.inf
    if not math.isfinite(size):
        raise ValueError(
            f"required_group_size: group size log(2/delta) / (2*epsilon**2) is out of range "
            f"for epsilon={epsilon!r}, delta={delta!r}"
        )
    return math.ceil(size)


def separability_from_groups(clean_values, noisy_values, epsilon: float, delta: float) -> dict:
    """Empirical separability of mean complexities at tolerance (epsilon, delta).

    Verdict: separable iff the observed gap exceeds 2*epsilon and both groups
    are at least the required size.
    """
    clean = check_normalized(clean_values, "separability_from_groups")
    noisy = check_normalized(noisy_values, "separability_from_groups")
    n_req = required_group_size(epsilon, delta)
    mean_clean = float(clean.mean())
    mean_noisy = float(noisy.mean())
    gap = mean_noisy - mean_clean
    return {
        "n_clean": clean.size,
        "n_noisy": noisy.size,
        "mean_clean": mean_clean,
        "mean_noisy": mean_noisy,
        "epsilon": epsilon,
        "delta": delta,
        "required_group_size": n_req,
        "separable": (gap > 2.0 * epsilon) and clean.size >= n_req and noisy.size >= n_req,
    }
