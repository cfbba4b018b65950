"""Position distributions, second moments, and power-law transport fits.

The transport class of a walk shows in how its second moment about the
origin grows: ballistic spreading goes as t^2, classical diffusion as t, and
disordered walks land in between (sub-ballistic).  Moment series, of one walk
or of a batched random ensemble, reduce the walk kernel's arrays to m2 as
they stream.  `fit_power_law` extracts (prefactor, exponent) from a moment
series by least squares against c * t^alpha, in numpy alone, by variable
projection (Golub & Pereyra, SIAM J. Numer. Anal. 10, 413 (1973)): for a
fixed exponent the best prefactor is linear, so the fit is a 1-D search for
the exponent, stopped at floating-point resolution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .walk import CoinPolicy, InitialCoin, WalkState, _batch_walks, _dynamic_plan, _moments, plan_coins

__all__ = [
    "PositionDistribution",
    "MomentSeries",
    "PowerLawFit",
    "position_distribution",
    "second_moment",
    "moment_series",
    "ensemble_moment_series",
    "classical_baseline",
    "fit_power_law",
]

#: Profile-slope evaluations one fit may spend; the package's moment series
#: take 10 to 20 (bracketing included).
_FIT_MAX_EVALS = 100


@dataclass(frozen=True)
class PositionDistribution:
    """Probability of finding the walker at each lattice site at a fixed time."""

    sites: NDArray[np.int64]
    probabilities: NDArray[np.float64]

    def __post_init__(self) -> None:
        if self.sites.shape != self.probabilities.shape:
            raise ValueError("sites and probabilities must have the same length")


@dataclass(frozen=True)
class MomentSeries:
    """Second moment m2(t) = sum_j p_j(t) j^2 for t = 1 .. len."""

    times: NDArray[np.int64]
    m2: NDArray[np.float64]


@dataclass(frozen=True)
class PowerLawFit:
    """Least-squares fit of m2 = prefactor * t^exponent over [t_min, t_max].

    `residual` is the RMS misfit of log m2 in log-log space.
    """

    prefactor: float
    exponent: float
    residual: float
    t_min: int
    t_max: int


def position_distribution(state: WalkState) -> PositionDistribution:
    """Site-occupation probabilities of a walker state (all sites -t .. t)."""
    return PositionDistribution(
        sites=state.sites, probabilities=state.probabilities()
    )


def second_moment(dist: PositionDistribution) -> float:
    """Second moment about the origin, sum_j p_j j^2."""
    return float(np.sum(dist.probabilities * dist.sites.astype(float) ** 2))


def moment_series(init: InitialCoin, policy: CoinPolicy, steps: int) -> MomentSeries:
    """Second moment of the walk at every t = 1 .. steps."""
    m2 = _moments(plan_coins(policy, steps), init.spinor)
    return MomentSeries(times=np.arange(1, steps + 1), m2=m2)


def ensemble_moment_series(
    init: InitialCoin, steps: int, n_seeds: int = 256, base_seed: int = 0
) -> MomentSeries:
    """Second moment averaged over `n_seeds` fresh random coin sequences.

    Seeds base_seed .. base_seed + n_seeds - 1 make the ensemble reproducible:
    seed s drives the walk of ``plan_coins(DynamicRandom(s), steps)``.  The
    seeds stream in groups of one kernel row budget, each group's m2 summed
    over its walks, so memory stays bounded whatever `n_seeds` is.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if n_seeds < 1:
        raise ValueError(f"n_seeds must be >= 1, got {n_seeds}")
    group = _batch_walks(steps)
    stop = base_seed + n_seeds
    total = np.zeros(steps)
    for first in range(base_seed, stop, group):
        plan = _dynamic_plan(range(first, min(first + group, stop)), steps)
        total += np.sum(_moments(plan, init.spinor), axis=1)
    return MomentSeries(times=np.arange(1, steps + 1), m2=total / n_seeds)


def classical_baseline(steps: int) -> MomentSeries:
    """Second moment of the unbiased classical walk: m2(t) = t, exactly."""
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    t = np.arange(1, steps + 1)
    return MomentSeries(times=t, m2=t.astype(np.float64))


def _profile(
    log_t: NDArray[np.float64], m2: NDArray[np.float64], alpha: float
) -> tuple[float, float]:
    """Best prefactor c(alpha), and a value > 0 where the profile SSE falls.

    The slope of sum r^2 (r = m2 - c(alpha) t^alpha) is -2 c(alpha) sum r
    t^alpha log t.  The second value is sum r u log(t / t_ref) with u = (t /
    t_ref)^alpha, the negated slope up to a positive factor (sum r u = 0 at
    c(alpha)); t_ref is the largest t for alpha >= 0, else the smallest, so
    u <= 1 and nothing overflows.
    """
    ref = log_t.max() if alpha >= 0 else log_t.min()
    d = log_t - ref
    u = np.exp(alpha * d)
    scale = (u @ m2) / (u @ u)
    r = m2 - scale * u
    return float(scale * np.exp(-alpha * ref)), float(r @ (u * d))


def _best_exponent(
    log_t: NDArray[np.float64], m2: NDArray[np.float64], alpha0: float
) -> float:
    """Stationary exponent of the profile SSE; see `fit_power_law`."""
    budget = iter(range(_FIT_MAX_EVALS))
    # Moving alpha by less than this moves no (t / t')^alpha by a rounding unit.
    resolution = np.finfo(np.float64).eps / float(log_t.max() - log_t.min())

    def downhill(alpha: float) -> float:
        if next(budget, None) is None:
            raise ValueError(
                f"power-law fit did not converge within _FIT_MAX_EVALS = "
                f"{_FIT_MAX_EVALS} evaluations"
            )
        return _profile(log_t, m2, alpha)[1]

    a, fa = alpha0, downhill(alpha0)
    if fa == 0.0:
        return a
    step = float(np.copysign(1e-2, fa))
    b, fb = a + step, downhill(a + step)
    while fa * fb > 0.0:
        a, fa, step = b, fb, 2.0 * step
        b, fb = a + step, downhill(a + step)
    (lo, f_lo), (hi, f_hi) = sorted([(a, fa), (b, fb)])
    kept = 0  # the end the previous step kept: -1 lo, +1 hi
    while f_lo != 0.0 and f_hi != 0.0 and hi - lo > resolution:
        x = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
            if not lo < x < hi:
                break
        fx = downhill(x)
        if (fx > 0.0) == (f_lo > 0.0):
            lo, f_lo = x, fx
            if kept == 1:
                f_hi *= 0.5
            kept = 1
        else:
            hi, f_hi = x, fx
            if kept == -1:
                f_lo *= 0.5
            kept = -1
    return lo if abs(f_lo) <= abs(f_hi) else hi


def fit_power_law(
    series: MomentSeries, t_min: int = 1, t_max: int | None = None
) -> PowerLawFit:
    """Fit m2 = c * t^alpha over the window t in [t_min, t_max].

    Least squares on m2 itself, by variable projection: for each alpha the
    best c is c(alpha) = sum t^alpha m2 / sum t^(2 alpha), so only alpha is
    searched.  The closed-form log-log least-squares line gives the starting
    exponent; steps of 0.01, doubling, walk downhill from it until the slope
    of the profile SSE changes sign, and Illinois false position (bisection
    when it would leave the bracket) narrows that bracket until no double
    lies strictly inside it or it is too narrow to move any ratio (t /
    t')^alpha of window times by a rounding unit: the optimum's
    floating-point limit.  Needs at least 3 points in the
    window and strictly positive, finite moments.

    Returns
    -------
    PowerLawFit
        Prefactor, exponent, and RMS log-log residual of the returned fit.

    Raises
    ------
    ValueError
        On a bad window or moments, if the search needs more than
        `_FIT_MAX_EVALS` slope evaluations, or if the optimum's prefactor
        over- or underflows a double.
    """
    if t_min < 1:
        raise ValueError(f"t_min must be >= 1, got {t_min}")
    hi = int(series.times.max()) if t_max is None else t_max
    keep = (series.times >= t_min) & (series.times <= hi)
    t = series.times[keep].astype(np.float64)
    m2 = series.m2[keep]
    if len(t) < 3:
        raise ValueError(f"need at least 3 points with t in [{t_min}, {hi}], got {len(t)}")
    if not np.all((m2 > 0.0) & np.isfinite(m2)):
        raise ValueError("zero, negative or non-finite moment inside the fit window")

    log_t, log_m = np.log(t), np.log(m2)
    design = np.column_stack([log_t, np.ones_like(log_t)])
    (alpha0, _), *_ = np.linalg.lstsq(design, log_m, rcond=None)

    alpha = _best_exponent(log_t, m2, float(alpha0))
    c = _profile(log_t, m2, alpha)[0]
    if not 0.0 < c < np.inf:
        raise ValueError(
            f"power-law fit has no representable prefactor (exponent {alpha:.6g})"
        )
    residual = float(np.sqrt(np.mean((log_m - (np.log(c) + alpha * log_t)) ** 2)))
    return PowerLawFit(
        prefactor=c, exponent=alpha, residual=residual, t_min=int(t_min), t_max=int(hi)
    )
