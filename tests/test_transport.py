from decimal import Decimal, localcontext

import numpy as np
import pytest
from scipy.optimize import curve_fit

from dtqw import transport
from dtqw.coins import hadamard_coin
from dtqw.transport import (
    MomentSeries,
    classical_baseline,
    ensemble_moment_series,
    fit_power_law,
    moment_series,
    position_distribution,
    second_moment,
)
from dtqw.walk import (
    DynamicRandom,
    DynamicSequence,
    InitialCoin,
    Ordered,
    StaticAndDynamic,
    StaticRandom,
    evolve,
    initial_state,
)

SC0 = "FFHFHFHHFFFFFHFHHHHH"


def test_distribution_localized():
    dist = position_distribution(initial_state(InitialCoin(0, 0)))
    assert dist.as_dict() == {0: 1.0}


def test_distribution_one_hadamard_step():
    state = evolve(InitialCoin(0, 0), Ordered(hadamard_coin()), 1)[-1]
    d = position_distribution(state).as_dict()
    assert d[1] == pytest.approx(0.5, abs=1e-15)
    assert d[-1] == pytest.approx(0.5, abs=1e-15)
    assert d[0] == 0.0


def test_distribution_two_hadamard_steps():
    state = evolve(InitialCoin(0, 0), Ordered(hadamard_coin()), 2)[-1]
    d = position_distribution(state).as_dict()
    assert d[2] == pytest.approx(0.25, abs=1e-14)
    assert d[0] == pytest.approx(0.5, abs=1e-14)
    assert d[-2] == pytest.approx(0.25, abs=1e-14)


def test_second_moment_point_masses():
    from dtqw.transport import PositionDistribution

    assert second_moment(
        PositionDistribution(sites=np.array([0]), probabilities=np.array([1.0]))
    ) == 0.0
    assert second_moment(
        PositionDistribution(
            sites=np.array([-1, 1]), probabilities=np.array([0.5, 0.5])
        )
    ) == pytest.approx(1.0)


def test_second_moment_20_steps_near_ballistic_prediction():
    state = evolve(InitialCoin(51, 0), Ordered(hadamard_coin()), 20)[-1]
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


def test_ensemble_moment_series_is_mean_of_per_seed_series():
    init = InitialCoin(33, 120)
    ensemble = ensemble_moment_series(init, 15, n_seeds=9, base_seed=4)
    per_seed = [moment_series(init, DynamicRandom(seed=4 + k), 15).m2 for k in range(9)]
    np.testing.assert_array_equal(ensemble.times, np.arange(1, 16))
    np.testing.assert_allclose(ensemble.m2, np.mean(per_seed, axis=0), rtol=0, atol=1e-12)
