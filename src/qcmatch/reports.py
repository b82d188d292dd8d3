"""Monte Carlo summary types shared by the simulation modules."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

Z95 = 1.96


@dataclass(frozen=True)
class SimReport:
    """Mean estimate with a 95% normal confidence half-width.

    `half_width` is always 1.96*sqrt(variance/trials); comparator values and
    ratios are present only when the comparators were computed.
    """

    mean: float
    variance: float
    trials: int
    half_width: float
    lp_value: float | None = None
    opt_value: float | None = None
    ratio_vs_lp: float | None = None
    ratio_vs_opt: float | None = None

    def as_dict(self) -> dict:
        return {k: v for k, v in asdict(self).items() if v is not None}


def make_report(
    mean: float,
    variance: float,
    trials: int,
    lp_value: float | None = None,
    opt_value: float | None = None,
) -> SimReport:
    if trials < 1:
        raise ValueError("trials must be >= 1")
    hw = Z95 * math.sqrt(max(variance, 0.0) / trials)
    return SimReport(
        mean=mean,
        variance=variance,
        trials=trials,
        half_width=hw,
        lp_value=lp_value,
        opt_value=opt_value,
        ratio_vs_lp=None if lp_value in (None, 0.0) else mean / lp_value,
        ratio_vs_opt=None if opt_value in (None, 0.0) else mean / opt_value,
    )


def wilson_halfwidth(successes: int, n: int, z: float = Z95) -> float:
    """Half-width of the Wilson score interval for a binomial proportion."""
    if n <= 0:
        return 0.5
    phat = successes / n
    denom = 1.0 + z * z / n
    return z * math.sqrt(phat * (1.0 - phat) / n + z * z / (4.0 * n * n)) / denom


def std_error(successes: int, n: int) -> float:
    """Plain binomial standard error sqrt(p(1-p)/n)."""
    if n <= 0:
        return 0.5
    phat = successes / n
    return math.sqrt(phat * (1.0 - phat) / n)
