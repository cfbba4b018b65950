import tracemalloc

import numpy as np
import pytest

from dtqw.coins import fourier_coin, hadamard_coin, identity_coin
from dtqw.entanglement import coin_density_curve, reduced_coin_density
from dtqw.transport import moment_series, position_distribution, second_moment
from dtqw.walk import (
    CoinPlan,
    DynamicRandom,
    DynamicSequence,
    InitialCoin,
    Ordered,
    StaticAndDynamic,
    StaticRandom,
    WalkState,
    _coin_density,
    _propagate,
    _second_moment,
    evolve,
    final_state,
    initial_state,
    plan_coins,
)
from oracles import dense_trajectory, embed_state, reference_propagate

SC0 = "FFHFHFHHFFFFFHFHHHHH"


# --- initial_state -----------------------------------------------------------


def test_initial_state_north_pole():
    for phi in (0, 45, 321):
        s = initial_state(InitialCoin(0, phi))
        np.testing.assert_allclose(s.amps[:, 0], [1, 0], atol=1e-15)


def test_initial_state_51_0():
    s = initial_state(InitialCoin(51, 0))
    a, b = s.amps[:, 0]
    # direct scalar-trig evaluation
    assert abs(a - np.cos(np.deg2rad(25.5))) < 1e-15
    assert abs(b - np.sin(np.deg2rad(25.5))) < 1e-15
    assert abs(a - 0.9026) < 5e-5
    assert abs(b - 0.4305) < 5e-5


def test_initial_state_south_pole_with_phase():
    s = initial_state(InitialCoin(180, 90))
    np.testing.assert_allclose(s.amps[:, 0], [0, 1j], atol=1e-15)


@pytest.mark.parametrize("theta,phi", [(-1, 0), (181, 0), (90, -5), (90, 360), (90, 400)])
def test_initial_coin_rejects_out_of_range(theta, phi):
    with pytest.raises(ValueError):
        InitialCoin(theta, phi)


# --- one step ----------------------------------------------------------------


def test_step_hadamard_from_origin():
    out = final_state(InitialCoin(0, 0), Ordered(hadamard_coin()), 1)
    np.testing.assert_allclose(out.spinor(1), [1 / np.sqrt(2), 0], atol=1e-15)
    np.testing.assert_allclose(out.spinor(-1), [0, 1 / np.sqrt(2)], atol=1e-15)


def test_step_fourier_from_origin():
    out = final_state(InitialCoin(0, 0), Ordered(fourier_coin()), 1)
    np.testing.assert_allclose(out.spinor(1), [1 / np.sqrt(2), 0], atol=1e-15)
    np.testing.assert_allclose(out.spinor(-1), [0, 1j / np.sqrt(2)], atol=1e-15)


def test_step_rejects_non_unitary_coin():
    with pytest.raises(ValueError):
        final_state(InitialCoin(0, 0), Ordered(np.array([[1, 0], [0, 2]], dtype=complex)), 1)


def test_six_hadamard_steps_match_dense_oracle():
    init = InitialCoin(51, 0)
    policy = Ordered(hadamard_coin())
    states = evolve(init, policy, 6)
    oracle = dense_trajectory(init, policy, 6)
    for state, vec in zip(states, oracle):
        np.testing.assert_allclose(embed_state(state, 6), vec, atol=1e-10)


# --- evolve ------------------------------------------------------------------

FIVE_POLICIES = [
    Ordered(hadamard_coin()),
    DynamicSequence(SC0),
    DynamicRandom(seed=7),
    StaticRandom(seed=7),
    StaticAndDynamic(static_seed=3, dynamic_seed=11),
]


@pytest.mark.parametrize("policy", FIVE_POLICIES)
def test_final_state_equals_last_evolve_state_bit_for_bit(policy):
    init = InitialCoin(33, 120)
    final = final_state(init, policy, 20)
    expected = evolve(init, policy, 20)[-1]
    assert final.t == expected.t
    np.testing.assert_array_equal(final.amps, expected.amps)


@pytest.mark.parametrize("policy", FIVE_POLICIES)
def test_streamed_reductions_equal_dense_states(policy):
    """rho_C(t) and m2(t) reduced from the compressed arrays match the dense states."""
    init = InitialCoin(51, 30)
    states = evolve(init, policy, 20)
    rho = coin_density_curve(init, policy, 20)
    assert rho.shape == (21, 2, 2)
    for t, state in enumerate(states):
        np.testing.assert_allclose(rho[t], reduced_coin_density(state), rtol=0, atol=1e-12)
    dense_m2 = [second_moment(position_distribution(s)) for s in states[1:]]
    np.testing.assert_allclose(moment_series(init, policy, 20).m2, dense_m2, rtol=1e-12, atol=0)


def dynamic_batch(steps: int, walks: int = 4) -> CoinPlan:
    """One plan whose leading axis runs the walks of DynamicRandom(seed=0 .. walks-1)."""
    plans = [plan_coins(DynamicRandom(seed=k), steps) for k in range(walks)]
    return CoinPlan(steps, plans[0].alphabet, step_bits=np.stack([p.step_bits for p in plans]))


def test_streamed_reductions_carry_batch_axes():
    init = InitialCoin(51, 30)
    batch = dynamic_batch(20)
    walks = [evolve(init, DynamicRandom(seed=k), 20) for k in range(4)]
    for t, (up, dn) in enumerate(_propagate(batch, init.spinor), 1):
        rho, m2 = _coin_density(up, dn), _second_moment(up, dn)
        assert rho.shape == (4, 2, 2) and m2.shape == (4,)
        for k, states in enumerate(walks):
            np.testing.assert_allclose(rho[k], reduced_coin_density(states[t]), rtol=0, atol=1e-12)
            dense = second_moment(position_distribution(states[t]))
            np.testing.assert_allclose(m2[k], dense, rtol=1e-12, atol=0)



# The origin of StaticRandom's range is -7, not -steps, so its site slices are offset.
KERNEL_CASES = [(p, 20) for p in FIVE_POLICIES] + [(StaticRandom(seed=5, site_range=(-7, 12)), 7)]
KERNEL_IDS = [type(p).__name__ for p in FIVE_POLICIES] + ["StaticRandom-offset"]


def static_batch(steps: int) -> CoinPlan:
    """The walks of `dynamic_batch` on one frozen site pattern: coins per walk and per site."""
    static = plan_coins(StaticRandom(seed=9), steps)
    step_bits = dynamic_batch(steps).step_bits
    return CoinPlan(steps, static.alphabet, static.site_bits, static.site_origin, step_bits)


@pytest.mark.parametrize(
    "plan",
    [plan_coins(p, steps) for p, steps in KERNEL_CASES] + [dynamic_batch(20), static_batch(20)],
    ids=KERNEL_IDS + ["batch", "static-batch"],
)
def test_kernel_matches_reference_bit_for_bit(plan):
    """The buffered kernel equals the allocate-per-step reference after every step."""
    spinor = InitialCoin(51, 30).spinor
    steps = 0
    # Compare before advancing: the kernel overwrites a yielded pair two steps later.
    kernel, reference = _propagate(plan, spinor), reference_propagate(plan, spinor)
    for (up, dn), (ref_up, ref_dn) in zip(kernel, reference):
        np.testing.assert_array_equal(up, ref_up)
        np.testing.assert_array_equal(dn, ref_dn)
        steps += 1
    assert steps == plan.steps


@pytest.mark.parametrize("policy,steps", KERNEL_CASES, ids=KERNEL_IDS)
def test_evolve_matches_reference_bit_for_bit(policy, steps):
    init = InitialCoin(33, 120)
    states = evolve(init, policy, steps)
    reference = reference_propagate(plan_coins(policy, steps), init.spinor)
    for state, (up, dn) in zip(states[1:], reference, strict=True):
        np.testing.assert_array_equal(state.amps[:, ::2], np.stack([up, dn]))
        assert not state.amps[:, 1::2].any()


def test_single_walk_coin_density_matches_batched_rows():
    """One walk's rho_C (BLAS dot products) and its row of a batch agree at every step.

    The sweep reports batched entropies and `entropy_of_sequence` re-checks
    one sequence through the single-walk path.
    """
    init = InitialCoin(51, 30)
    curves = [coin_density_curve(init, DynamicRandom(seed=k), 200) for k in range(4)]
    for t, (up, dn) in enumerate(_propagate(dynamic_batch(200), init.spinor), 1):
        rho = _coin_density(up, dn)
        for k, curve in enumerate(curves):
            np.testing.assert_allclose(_coin_density(up[k], dn[k]), rho[k], rtol=0, atol=1e-15)
            np.testing.assert_allclose(curve[t], rho[k], rtol=0, atol=1e-15)


@pytest.mark.parametrize(
    "policy,steps",
    [(StaticAndDynamic(1, 2), 4096), (StaticRandom(seed=3, site_range=(-10**5, 10**5)), 100)],
    ids=["StaticAndDynamic", "StaticRandom-wide-range"],
)
def test_final_state_memory_stays_linear_for_static_plans(policy, steps):
    # Step buffers and coin tables are O(steps): tables cover the light cone,
    # not the whole site range, and nothing may grow per step.
    tracemalloc.start()
    try:
        final_state(InitialCoin(51, 0), policy, steps)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_evolve_identity_coin_marches_right():
    states = evolve(InitialCoin(0, 0), Ordered(identity_coin()), 7)
    final = states[-1]
    np.testing.assert_allclose(final.spinor(7), [1, 0], atol=1e-15)
    assert final.probabilities()[-1] == pytest.approx(1.0, abs=1e-15)


def test_evolve_identity_coin_never_splits():
    init = InitialCoin(51, 120)
    final = evolve(init, Ordered(identity_coin()), 5)[-1]
    a0, b0 = init.spinor
    assert final.spinor(5)[0] == pytest.approx(a0, abs=1e-15)
    assert final.spinor(-5)[1] == pytest.approx(b0, abs=1e-15)
    assert np.count_nonzero(final.probabilities() > 1e-14) == 2


def test_evolve_three_steps_matches_dense_oracle():
    init = InitialCoin(51, 0)
    states = evolve(init, Ordered(hadamard_coin()), 3)
    oracle = dense_trajectory(init, Ordered(hadamard_coin()), 3)
    np.testing.assert_allclose(embed_state(states[-1], 3), oracle[-1], atol=1e-10)


def test_evolve_enhancer_sequence_entropy_band():
    from dtqw.entanglement import state_entropy

    final = evolve(InitialCoin(51, 0), DynamicSequence(SC0), 20)[-1]
    assert 0.96 <= state_entropy(final) <= 1.0


def test_evolve_rejects_bad_steps():
    with pytest.raises(ValueError):
        evolve(InitialCoin(51, 0), Ordered(hadamard_coin()), 0)


def test_evolve_rejects_sequence_length_mismatch():
    with pytest.raises(ValueError):
        evolve(InitialCoin(51, 0), DynamicSequence("HFH"), 4)


def test_evolve_rejects_bad_sequence_symbols():
    with pytest.raises(ValueError):
        evolve(InitialCoin(51, 0), DynamicSequence("HXH"), 3)


@pytest.mark.parametrize(
    "policy",
    [
        DynamicRandom(seed=7),
        StaticRandom(seed=7),
        StaticAndDynamic(static_seed=3, dynamic_seed=11),
    ],
)
def test_evolve_is_deterministic_under_seed(policy):
    a = evolve(InitialCoin(33, 120), policy, 15)
    b = evolve(InitialCoin(33, 120), policy, 15)
    for sa, sb in zip(a, b):
        np.testing.assert_array_equal(sa.amps, sb.amps)


def test_static_random_site_range_must_cover_light_cone():
    with pytest.raises(ValueError):
        evolve(InitialCoin(0, 0), StaticRandom(seed=1, site_range=(-2, 2)), 5)


def test_static_random_explicit_range_accepted():
    states = evolve(InitialCoin(0, 0), StaticRandom(seed=1, site_range=(-9, 9)), 5)
    assert states[-1].norm() == pytest.approx(1.0, abs=1e-12)
    init = InitialCoin(51, 30)
    policy = StaticRandom(seed=1, site_range=(-7, 12))
    oracle = dense_trajectory(init, policy, 5)
    for state, vec in zip(evolve(init, policy, 5), oracle):
        np.testing.assert_allclose(embed_state(state, 5), vec, atol=1e-10)


def test_plan_matches_engine_for_static_policy():
    """The per-(t, j) coin lookup and the vectorized engine agree."""
    init = InitialCoin(77, 10)
    policy = StaticAndDynamic(static_seed=5, dynamic_seed=6)
    states = evolve(init, policy, 5)
    oracle = dense_trajectory(init, policy, 5)
    np.testing.assert_allclose(embed_state(states[-1], 5), oracle[-1], atol=1e-12)


def test_walk_state_validates_shape():
    with pytest.raises(ValueError):
        WalkState(t=1, amps=np.zeros((2, 2), dtype=complex))
    with pytest.raises(ValueError):
        WalkState(t=-1, amps=np.zeros((2, 1), dtype=complex))


def test_plan_coin_matrix_bounds():
    plan = plan_coins(Ordered(hadamard_coin()), 3)
    with pytest.raises(ValueError):
        plan.coin_matrix(3, 0)
    plan_static = plan_coins(StaticRandom(seed=0), 3)
    with pytest.raises(ValueError):
        plan_static.coin_matrix(0, 4)
