"""Position distributions, second moments, and power-law transport fits.

The transport class of a walk shows in how its second moment about the
origin grows: ballistic spreading goes as t^2, classical diffusion as t, and
disordered walks land in between (sub-ballistic).  Moment series, of one walk
or of a batched random ensemble, reduce the walk kernel's arrays to m2 as
they stream.  `fit_power_law` extracts (prefactor, exponent) from a moment
series by least squares against c * t^alpha.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray
from scipy.optimize import curve_fit

from .walk import CoinPlan, CoinPolicy, DynamicRandom, InitialCoin, WalkState
from .walk import _propagate, _second_moment, plan_coins

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


@dataclass(frozen=True)
class PositionDistribution:
    """Probability of finding the walker at each lattice site at a fixed time."""

    sites: NDArray[np.int64]
    probabilities: NDArray[np.float64]

    def __post_init__(self) -> None:
        if self.sites.shape != self.probabilities.shape:
            raise ValueError("sites and probabilities must have the same length")

    def as_dict(self) -> dict[int, float]:
        return {int(j): float(p) for j, p in zip(self.sites, self.probabilities)}


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


def _moments(plan: CoinPlan, spinor: NDArray[np.complex128]) -> NDArray[np.float64]:
    """m2 after each step of every walk of `plan`, shape (steps, ...)."""
    return np.array([_second_moment(up, dn) for up, dn in _propagate(plan, spinor)])


def moment_series(init: InitialCoin, policy: CoinPolicy, steps: int) -> MomentSeries:
    """Second moment of the walk at every t = 1 .. steps."""
    m2 = _moments(plan_coins(policy, steps), init.spinor)
    return MomentSeries(times=np.arange(1, steps + 1), m2=m2)


def ensemble_moment_series(
    init: InitialCoin, steps: int, n_seeds: int = 256, base_seed: int = 0
) -> MomentSeries:
    """Second moment averaged over `n_seeds` fresh random coin sequences.

    Seeds are base_seed .. base_seed + n_seeds - 1, so the ensemble is
    reproducible; all walks advance together as one batch of the walk kernel.
    """
    if n_seeds < 1:
        raise ValueError(f"n_seeds must be >= 1, got {n_seeds}")
    plans = [plan_coins(DynamicRandom(seed=base_seed + k), steps) for k in range(n_seeds)]
    bits = np.stack([p.step_bits for p in plans])
    batch = CoinPlan(steps, alphabet=plans[0].alphabet, step_bits=bits)
    m2 = np.mean(_moments(batch, init.spinor), axis=1)
    return MomentSeries(times=np.arange(1, steps + 1), m2=m2)


def classical_baseline(steps: int) -> MomentSeries:
    """Second moment of the unbiased classical walk: m2(t) = t, exactly."""
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    t = np.arange(1, steps + 1)
    return MomentSeries(times=t, m2=t.astype(np.float64))


def fit_power_law(
    series: MomentSeries, t_min: int = 1, t_max: int | None = None
) -> PowerLawFit:
    """Fit m2 = c * t^alpha over the window t in [t_min, t_max].

    The closed-form log-log least-squares line provides the starting point,
    which is then refined by least squares on m2 itself (the refinement is a
    no-op for exact power-law input, where the log-log line is already the
    optimum).  Needs at least 3 points in the window and strictly positive
    moments.

    Returns
    -------
    PowerLawFit
        Prefactor, exponent, and RMS log-log residual of the returned fit.
    """
    if t_min < 1:
        raise ValueError(f"t_min must be >= 1, got {t_min}")
    hi = int(series.times.max()) if t_max is None else t_max
    keep = (series.times >= t_min) & (series.times <= hi)
    t = series.times[keep].astype(np.float64)
    m2 = series.m2[keep]
    if len(t) < 3:
        raise ValueError(f"need at least 3 points with t in [{t_min}, {hi}], got {len(t)}")
    if np.any(m2 <= 0.0):
        raise ValueError("zero or negative moment inside the fit window")

    log_t, log_m = np.log(t), np.log(m2)
    design = np.column_stack([log_t, np.ones_like(log_t)])
    (alpha0, log_c0), *_ = np.linalg.lstsq(design, log_m, rcond=None)

    popt, _ = curve_fit(
        lambda x, c, a: c * x**a,
        t,
        m2,
        p0=(np.exp(log_c0), alpha0),
        maxfev=10000,
        xtol=1e-15,
        ftol=1e-15,
        gtol=1e-15,
    )
    c, alpha = float(popt[0]), float(popt[1])
    residual = float(np.sqrt(np.mean((log_m - (np.log(c) + alpha * log_t)) ** 2)))
    return PowerLawFit(
        prefactor=c, exponent=alpha, residual=residual, t_min=int(t_min), t_max=int(hi)
    )
