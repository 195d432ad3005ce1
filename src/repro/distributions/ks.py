"""One-sample Kolmogorov-Smirnov statistic, implemented directly.

The KS statistic is the maximum absolute distance between the empirical CDF
of a sample and a theoretical CDF [19]:

    D_n = sup_x | F_n(x) - F(x) |

For a sorted sample ``x_(1) <= ... <= x_(n)`` the supremum is attained at a
sample point, so

    D_n = max_i  max( i/n - F(x_(i)),  F(x_(i)) - (i-1)/n )

which is exactly what :func:`ks_statistic` computes.
"""

from __future__ import annotations

import numpy as np

from repro.distributions.univariate import Distribution
from repro.utils.validation import check_array_1d


def ks_statistic(values: np.ndarray, dist: Distribution) -> float:
    """KS distance between a sample and a fitted reference distribution.

    Parameters
    ----------
    values:
        1-D sample.
    dist:
        Any :class:`~repro.distributions.Distribution` providing ``cdf``.

    Returns
    -------
    float
        The statistic in [0, 1]; 0 means the sample matches the reference
        CDF exactly at every sample point.
    """
    v = np.sort(check_array_1d(values, "values"))  # gemlint: disable=GEM-D01(sorts raw values for the empirical CDF; tied values are indistinguishable and no index order is derived)
    n = v.size
    cdf = np.clip(dist.cdf(v), 0.0, 1.0)
    upper = np.arange(1, n + 1) / n - cdf
    lower = cdf - np.arange(0, n) / n
    return float(max(np.max(upper), np.max(lower), 0.0))


def ks_statistic_against(
    values: np.ndarray,
    families: tuple[type[Distribution], ...],
) -> dict[str, float]:
    """Fit each family to ``values`` and return its KS distance.

    This is the feature extractor behind the KS baseline: each column is
    described by how closely it follows each reference family. Families whose
    fit fails on degenerate data (e.g. constant columns) get the worst
    possible distance of 1.0, which is informative in itself.
    """
    v = check_array_1d(values, "values")
    out: dict[str, float] = {}
    for family in families:
        try:
            fitted = family.fit(v)
            out[family.name] = ks_statistic(v, fitted)
        except (ValueError, FloatingPointError, ZeroDivisionError):
            out[family.name] = 1.0
    return out
