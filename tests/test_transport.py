import math
import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import pytest
from scipy.optimize import curve_fit

from dtqw import transport, walk
from dtqw.coins import hadamard_coin
from dtqw.transport import (
    MomentSeries,
    PositionDistribution,
    classical_baseline,
    ensemble_moment_series,
    fit_power_law,
    moment_series,
    position_distribution,
    second_moment,
)
from dtqw.walk import (
    CoinPlan,
    DynamicRandom,
    DynamicSequence,
    InitialCoin,
    Ordered,
    StaticAndDynamic,
    StaticRandom,
    final_state,
    initial_state,
    plan_coins,
)
from oracles import as_dict

SC0 = "FFHFHFHHFFFFFHFHHHHH"


def test_distribution_localized():
    dist = position_distribution(initial_state(InitialCoin(0, 0)))
    assert as_dict(dist) == {0: 1.0}


def test_distribution_one_hadamard_step():
    state = final_state(InitialCoin(0, 0), Ordered(hadamard_coin()), 1)
    d = as_dict(position_distribution(state))
    assert d[1] == pytest.approx(0.5, abs=1e-15)
    assert d[-1] == pytest.approx(0.5, abs=1e-15)
    assert d[0] == 0.0


def test_distribution_two_hadamard_steps():
    state = final_state(InitialCoin(0, 0), Ordered(hadamard_coin()), 2)
    d = as_dict(position_distribution(state))
    assert d[2] == pytest.approx(0.25, abs=1e-14)
    assert d[0] == pytest.approx(0.5, abs=1e-14)
    assert d[-2] == pytest.approx(0.25, abs=1e-14)


def test_second_moment_point_masses():
    assert second_moment(
        PositionDistribution(sites=np.array([0]), probabilities=np.array([1.0]))
    ) == 0.0
    assert second_moment(
        PositionDistribution(
            sites=np.array([-1, 1]), probabilities=np.array([0.5, 0.5])
        )
    ) == pytest.approx(1.0)


def test_position_distribution_rejects_arrays_of_different_lengths():
    with pytest.raises(ValueError, match="sites and probabilities must have the same length"):
        PositionDistribution(sites=np.array([-1, 1]), probabilities=np.array([1.0]))


@pytest.mark.parametrize("build, message", [
    (lambda: ensemble_moment_series(InitialCoin(51, 0), 0, n_seeds=4), "steps must be >= 1, got 0"),
    (lambda: ensemble_moment_series(InitialCoin(51, 0), 5, n_seeds=0), "n_seeds must be >= 1, got 0"),
    (lambda: classical_baseline(0), "steps must be >= 1, got 0"),
], ids=["ensemble steps", "ensemble seeds", "classical steps"])
def test_series_builders_reject_counts_below_one(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_second_moment_20_steps_near_ballistic_prediction():
    state = final_state(InitialCoin(51, 0), Ordered(hadamard_coin()), 20)
    m2 = second_moment(position_distribution(state))
    # 0.29 * 20^2 with the prefactor tolerance of the transport fit
    assert abs(m2 - 0.29 * 400.0) <= 0.03 * 400.0


def test_fit_recovers_exact_power_law():
    t = np.arange(1, 21)
    fit = fit_power_law(MomentSeries(times=t, m2=3.0 * t.astype(float) ** 2))
    assert abs(fit.prefactor - 3.0) < 1e-12
    assert abs(fit.exponent - 2.0) < 1e-12
    assert fit.residual < 1e-12


def test_fit_recovers_fractional_power_law():
    t = np.arange(1, 31)
    fit = fit_power_law(MomentSeries(times=t, m2=0.6 * t.astype(float) ** 1.54))
    assert abs(fit.prefactor - 0.6) < 1e-12
    assert abs(fit.exponent - 1.54) < 1e-12
    assert fit.residual < 1e-12


def test_fit_window_and_errors():
    t = np.arange(1, 21)
    series = MomentSeries(times=t, m2=t.astype(float))
    with pytest.raises(ValueError):
        fit_power_law(series, t_min=19)  # fewer than 3 points
    with pytest.raises(ValueError):
        fit_power_law(series, t_min=0)
    bad = MomentSeries(times=t, m2=np.concatenate([[0.0], t[1:].astype(float)]))
    with pytest.raises(ValueError):
        fit_power_law(bad)


def _sse(series, c, alpha):
    """Sum of squared residuals of c * t^alpha, in 40-digit decimal arithmetic.

    In doubles, the residuals of a near-exact t^2 series (ordered walk) carry
    rounding noise of ~1e-11 relative in their sum, enough to swap the order
    of two optima that agree to 14 digits.
    """
    with localcontext() as ctx:
        ctx.prec = 40
        c, alpha = Decimal(c), Decimal(alpha)
        return sum(
            (Decimal(float(m)) - c * Decimal(int(t)) ** alpha) ** 2
            for t, m in zip(series.times, series.m2)
        )


@pytest.mark.parametrize(
    "policy",
    [
        Ordered(hadamard_coin()),
        DynamicRandom(seed=7),
        StaticRandom(seed=7),
        StaticAndDynamic(static_seed=7, dynamic_seed=8),
        None,
    ],
    ids=["ordered", "dynamic", "static", "static_and_dynamic", "ensemble"],
)
def test_fit_matches_curve_fit_oracle(policy):
    init = InitialCoin(51, 0)
    if policy is None:
        series = ensemble_moment_series(init, 100, n_seeds=64, base_seed=0)
    else:
        series = moment_series(init, policy, 2048)
    t = series.times.astype(float)
    log_t, log_m = np.log(t), np.log(series.m2)
    alpha0, log_c0 = np.polyfit(log_t, log_m, 1)
    (c_ref, alpha_ref), _ = curve_fit(
        lambda x, c, a: c * x**a, t, series.m2, p0=(np.exp(log_c0), alpha0),
        maxfev=10000, xtol=1e-15, ftol=1e-15, gtol=1e-15,
    )
    fit = fit_power_law(series)
    assert _sse(series, fit.prefactor, fit.exponent) <= _sse(series, c_ref, alpha_ref) * (
        1 + Decimal("1e-12")
    )
    assert abs(fit.prefactor / c_ref - 1) < 1e-8
    assert abs(fit.exponent / alpha_ref - 1) < 1e-8


def test_fit_that_does_not_converge_raises(monkeypatch):
    series = moment_series(InitialCoin(51, 0), Ordered(hadamard_coin()), 20)
    monkeypatch.setattr(transport, "_FIT_MAX_EVALS", 1)
    with pytest.raises(ValueError, match="_FIT_MAX_EVALS = 1 evaluations"):
        fit_power_law(series)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_fit_rejects_non_finite_moments(value):
    t = np.arange(1, 21)
    m2 = t.astype(float) ** 1.5
    m2[7] = value
    with pytest.raises(ValueError, match="non-finite moment inside the fit window"):
        fit_power_law(MomentSeries(times=t, m2=m2))


def test_fit_refuses_unrepresentable_prefactor():
    # One outlier at the end pulls the least-squares exponent past 600,
    # where c = m2 / 70^alpha underflows.
    t = np.arange(1, 71)
    m2 = t.astype(float) ** 1.9
    m2[-1] *= 1e4
    with pytest.raises(ValueError, match="no representable prefactor"):
        fit_power_law(MomentSeries(times=t, m2=m2))


def test_classical_baseline_values_and_fit():
    series = classical_baseline(20)
    assert series.m2[0] == 1.0
    assert series.m2[-1] == 20.0
    fit = fit_power_law(series)
    assert abs(fit.exponent - 1.0) < 1e-12
    assert abs(fit.prefactor - 1.0) < 1e-12


def test_moment_series_respects_light_cone():
    for policy in (Ordered(hadamard_coin()), DynamicSequence(SC0), DynamicRandom(seed=3)):
        series = moment_series(InitialCoin(51, 0), policy, 20)
        assert np.all(series.m2 <= series.times.astype(float) ** 2 + 1e-12)
        assert np.all(series.m2 >= 0.0)


def test_ordering_quantum_beats_disordered_beats_classical():
    init = InitialCoin(51, 0)
    m_ordered = moment_series(init, Ordered(hadamard_coin()), 20).m2[-1]
    m_disordered = moment_series(init, DynamicSequence(SC0), 20).m2[-1]
    m_classical = classical_baseline(20).m2[-1]
    assert m_classical < m_disordered < m_ordered


def test_ensemble_moment_series_deterministic_and_subballistic():
    init = InitialCoin(51, 0)
    a = ensemble_moment_series(init, 20, n_seeds=32, base_seed=5)
    b = ensemble_moment_series(init, 20, n_seeds=32, base_seed=5)
    np.testing.assert_array_equal(a.m2, b.m2)
    fit = fit_power_law(a)
    assert 1.0 < fit.exponent < 2.0


def test_ensemble_moment_series_streams_its_seeds_in_bounded_memory():
    # 1024 seeds of 200 steps run as 13 groups of up to 2^14 // 201 = 81
    # walks; one batch of all of them would take 19.8 MB of buffers.
    steps, n_seeds = 200, 1024
    group = walk._BATCH_ROWS // (steps + 1)
    tracemalloc.start()
    try:
        ensemble_moment_series(InitialCoin(51, 0), steps, n_seeds=n_seeds)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # The kernel's two buffers, and the two scratch rows of `_second_moment`, as large as one.
    buffers = 3 * 2 * group * (steps + 1) * 16
    rows = 2 * 2 * group * steps * 8  # m2 rows and step bits, each also in a list while stacked
    # numpy's two ufunc buffers, and room for one step's (walks,) sums and views.
    slack = 2 * np.getbufsize() * 16 + 3 * group * (steps + 1) * 8 + 2**16
    assert peak < buffers + rows + slack


def test_ensemble_moment_series_draws_each_seed_as_its_dynamic_random_plan():
    # One group (64 seeds of 100 steps, as in the bench) keeps the summation
    # order of one batch over every seed, so the mean agrees bit for bit.
    init, steps, n_seeds, base_seed = InitialCoin(51, 30), 100, 64, 7
    assert n_seeds <= walk._BATCH_ROWS // (steps + 1)
    bits = np.stack([plan_coins(DynamicRandom(base_seed + k), steps).step_bits for k in range(n_seeds)])
    plan = CoinPlan(steps, plan_coins(DynamicRandom(base_seed), steps).alphabet, step_bits=bits)
    expected = np.mean(transport._moments(plan, init.spinor), axis=1)
    ensemble = ensemble_moment_series(init, steps, n_seeds=n_seeds, base_seed=base_seed)
    np.testing.assert_array_equal(ensemble.m2, expected)


def test_ensemble_moment_series_is_mean_of_per_seed_series():
    init = InitialCoin(33, 120)
    # One batch of seeds, and three (268, 268 and 64 walks of 60 steps).
    for steps, n_seeds in ((15, 9), (60, 600)):
        ensemble = ensemble_moment_series(init, steps, n_seeds=n_seeds, base_seed=4)
        per_seed = [moment_series(init, DynamicRandom(seed=4 + k), steps).m2 for k in range(n_seeds)]
        # Correctly rounded sums: np.mean over 600 rows adds them one at a
        # time, and its own rounding reaches 1.7e-12 at t = 43.
        mean = np.array([math.fsum(m2) for m2 in zip(*per_seed)]) / n_seeds
        np.testing.assert_array_equal(ensemble.times, np.arange(1, steps + 1))
        np.testing.assert_allclose(ensemble.m2, mean, rtol=0, atol=1e-12)
