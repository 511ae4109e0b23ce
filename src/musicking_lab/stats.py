"""One-way ANOVA for cross-session comparison.

The p-value comes from the F-distribution survival function, evaluated
through the regularized incomplete beta function (continued-fraction form,
relative tolerance 1e-12).  A reported p of exactly 0 therefore means the
true value underflowed double precision, which is how analysis software
ends up printing "p-value: 0.0" for enormous F statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._series import as_array, finite, nonnull, refusing
from .errors import DegenerateVariance, NoConvergence, TooFewGroups

_BETA_TOL = 1e-12
_BETA_MAX_ITER = 1000
_TINY = 1e-300


@dataclass(frozen=True)
class AnovaResult:
    f_statistic: float
    p_value: float
    df_between: int
    df_within: int
    group_means: tuple[float, ...]
    grand_mean: float

    def as_dict(self) -> dict:
        return {"f_statistic": self.f_statistic, "p_value": self.p_value,
                "df_between": self.df_between, "df_within": self.df_within,
                "group_means": list(self.group_means), "grand_mean": self.grand_mean}


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    # Lentz's method for the continued fraction in the incomplete beta.
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _TINY:
        d = _TINY
    d = 1.0 / d
    h = d
    for m in range(1, _BETA_MAX_ITER + 1):
        m2 = 2 * m
        # The even step, then the odd one; only the odd one tests convergence.
        for numerator in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                          -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 + numerator * d
            if abs(d) < _TINY:
                d = _TINY
            c = 1.0 + numerator / c
            if abs(c) < _TINY:
                c = _TINY
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < _BETA_TOL:
            return h
    raise NoConvergence(f"incomplete beta did not converge for a={a}, b={b}, x={x}")


def _incomplete_beta(a: float, b: float, x: float, y: float) -> float:
    # I_x(a, b) with y = 1 - x passed separately: when x is within a rounding
    # error of 1, its complement y cannot be recovered as 1.0 - x.
    if x == 0.0:
        return 0.0
    if y == 0.0:
        return 1.0
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    # The continued fraction converges fast only on one side of the
    # crossover; use the symmetry I_x(a,b) = 1 - I_{1-x}(b,a) past it.
    if x < (a + 1.0) / (a + b + 2.0):
        front = math.exp(a * math.log(x) + b * math.log1p(-x) - log_beta)
        return front * _beta_continued_fraction(a, b, x) / a
    front = math.exp(a * math.log1p(-y) + b * math.log(y) - log_beta)
    return 1.0 - front * _beta_continued_fraction(b, a, y) / b


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) for a, b > 0 and x in [0, 1]; raises NoConvergence where
    the continued fraction does not converge (a = b = 1e7)."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must be in [0, 1], got {x}")
    return _incomplete_beta(a, b, x, 1.0 - x)


def f_survival(f: float, df1: int, df2: int) -> float:
    """P(F >= f) for the F distribution with (df1, df2) degrees of freedom.

    Both x = df2 / (df2 + df1 f) and its complement are computed directly,
    so the result stays accurate as f -> 0, where x rounds to 1.
    """
    if f <= 0.0:
        return 1.0
    denominator = df2 + df1 * f
    return _incomplete_beta(df2 / 2.0, df1 / 2.0, df2 / denominator, df1 * f / denominator)


def anova_oneway(groups: Sequence[Sequence[float | None]]) -> AnovaResult:
    """Classic one-way ANOVA over k groups (unbalanced sizes welcome).

    F = MS_between / MS_within; the p-value is the F survival function at
    the observed statistic.  Nulls are stripped per group first.

    Raises:
        TooFewGroups: Fewer than 2 groups, or a group with fewer than 2
            non-null observations.
        DegenerateVariance: Zero within-group variance everywhere, which
            leaves F undefined.
        NonFinite: An infinite value, or a mean, a sum of squares or F
            overflows double precision.
    """
    cleaned = [nonnull(as_array(g)) for g in groups]
    if len(cleaned) < 2:
        raise TooFewGroups(f"ANOVA needs >= 2 groups, got {len(cleaned)}")
    for i, g in enumerate(cleaned):
        if g.size < 2:
            raise TooFewGroups(f"group {i} has {g.size} non-null values, needs >= 2")
        finite(g, f"ANOVA group {i}")

    sizes = np.array([g.size for g in cleaned], dtype=float)
    total = float(sizes.sum())
    df_between = len(cleaned) - 1
    df_within = int(total) - len(cleaned)
    with refusing("ANOVA overflows double precision"):  # numpy scalars raise; floats would not
        means = np.array([g.mean() for g in cleaned])
        grand_mean = sum(g.sum() for g in cleaned) / total
        ss_between = np.dot(sizes, (means - grand_mean) ** 2)
        ss_within = sum(((g - m) ** 2).sum() for g, m in zip(cleaned, means))
        if ss_within == 0.0:
            raise DegenerateVariance("no within-group variance; F undefined")
        f_stat = float((ss_between / df_between) / (ss_within / df_within))
    return AnovaResult(
        f_statistic=f_stat,
        p_value=f_survival(f_stat, df_between, df_within),
        df_between=df_between,
        df_within=df_within,
        group_means=tuple(float(m) for m in means),
        grand_mean=float(grand_mean),
    )
