import re
import tracemalloc

import numpy as np
import pytest

import dtqw.walk
from dtqw.coins import fourier_coin, hadamard_coin
from dtqw.entanglement import (
    asymptotic_entropy,
    check_density_matrix,
    coin_density_curve,
    density_eigenvalues,
    entropy_curve,
    reduced_coin_density,
    site_decomposition,
    state_entropy,
    von_neumann_entropy,
)
from dtqw.walk import (
    DynamicRandom,
    DynamicSequence,
    InitialCoin,
    Ordered,
    StaticAndDynamic,
    StaticRandom,
    WalkState,
    _propagate,
    final_state,
    initial_state,
    plan_coins,
)
from oracles import (
    dephased_limit_entropy,
    momentum_coin_densities,
    random_density,
    random_walk_state,
    reference_propagate,
)

SC0 = "FFHFHFHHFFFFFHFHHHHH"


def test_reduced_density_of_product_state():
    init = InitialCoin(51, 30)
    rho = reduced_coin_density(initial_state(init))
    chi = init.spinor
    np.testing.assert_allclose(rho, np.outer(chi, chi.conj()), atol=1e-15)


def test_reduced_density_one_hadamard_step_is_maximally_mixed():
    state = final_state(InitialCoin(0, 0), Ordered(hadamard_coin()), 1)
    np.testing.assert_allclose(reduced_coin_density(state), np.eye(2) / 2, atol=1e-12)


def test_reduced_density_has_unit_trace(rng):
    for t in (1, 4, 9):
        rho = reduced_coin_density(random_walk_state(rng, t))
        assert abs(np.trace(rho) - 1.0) < 1e-12


def test_reduced_density_rejects_unnormalized():
    state = WalkState(t=0, amps=np.array([[0.5], [0.0]], dtype=complex))
    with pytest.raises(ValueError):
        reduced_coin_density(state)


def test_site_decomposition_localized():
    dec = site_decomposition(initial_state(InitialCoin(0, 0)))
    assert list(dec.sites) == [0]
    np.testing.assert_allclose(dec.probabilities, [1.0])
    np.testing.assert_allclose(dec.local_states[0], [[1, 0], [0, 0]], atol=1e-15)


def test_site_decomposition_one_hadamard_step():
    state = final_state(InitialCoin(0, 0), Ordered(hadamard_coin()), 1)
    dec = site_decomposition(state)
    assert list(dec.sites) == [-1, 1]
    np.testing.assert_allclose(dec.probabilities, [0.5, 0.5], atol=1e-15)
    np.testing.assert_allclose(dec.local_states[0], [[0, 0], [0, 1]], atol=1e-15)
    np.testing.assert_allclose(dec.local_states[1], [[1, 0], [0, 0]], atol=1e-15)


def test_site_decomposition_reconstructs_reduced_density():
    state = final_state(InitialCoin(51, 0), DynamicSequence(SC0), 20)
    dec = site_decomposition(state)
    mixed = np.einsum("j,jkl->kl", dec.probabilities, dec.local_states)
    np.testing.assert_allclose(mixed, reduced_coin_density(state), atol=1e-12)
    assert abs(dec.probabilities.sum() - 1.0) < 1e-10


def test_entropy_of_maximally_mixed_is_one():
    assert von_neumann_entropy(np.eye(2, dtype=complex) / 2) == pytest.approx(1.0, abs=1e-15)


def test_entropy_of_pure_states_is_zero(rng):
    for _ in range(50):
        rho = random_density(rng, pure=True)
        assert von_neumann_entropy(rho) == pytest.approx(0.0, abs=1e-6)


def test_entropy_of_diagonal_quarter_three_quarter():
    rho = np.diag([0.25, 0.75]).astype(complex)
    # frozen from the scalar formula -0.25 log2 0.25 - 0.75 log2 0.75
    assert von_neumann_entropy(rho) == pytest.approx(0.8112781244591328, abs=1e-12)


def test_entropy_rejects_invalid_matrices():
    with pytest.raises(ValueError):
        von_neumann_entropy(np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex))
    with pytest.raises(ValueError):
        von_neumann_entropy(np.diag([0.3, 0.8]).astype(complex))
    with pytest.raises(ValueError):
        von_neumann_entropy(np.diag([1.2, -0.2]).astype(complex))
    with pytest.raises(ValueError, match=r"must be 2x2, got shape \(3, 2, 2\)"):
        von_neumann_entropy(np.stack([np.eye(2) / 2] * 3))
    for shape in ((3, 3), (2,), (4, 2, 3)):
        with pytest.raises(ValueError, match=re.escape(f"must be 2x2, got shape {shape}")):
            check_density_matrix(np.zeros(shape))
    # Every comparison with NaN is false: only a finiteness check stops these.
    for rho in (np.full((2, 2), np.nan), [[0.5, np.nan], [np.nan, 0.5]], [[0.5, 1j * np.nan], [0, 0.5]]):
        with pytest.raises(ValueError, match="non-finite"):
            von_neumann_entropy(np.asarray(rho, dtype=complex))


@pytest.mark.parametrize(
    "bad,message",
    [
        ([[0.5, 0.5], [0.0, 0.5]], "not Hermitian"),
        (np.diag([0.3, 0.8]), r"trace \(1\.1\+0j\) is not 1"),
        (np.diag([1.2, -0.2]), "negative eigenvalue"),
        ([[0.5, np.nan], [np.nan, 0.5]], "non-finite"),
    ],
    ids=["hermitian", "trace", "eigenvalue", "nan"],
)
def test_check_density_matrix_refuses_a_stack_for_one_bad_matrix(rng, bad, message):
    stack = np.stack([random_density(rng) for _ in range(12)]).reshape(3, 4, 2, 2)
    np.testing.assert_array_equal(check_density_matrix(stack), stack)
    stack[2, 1] = bad
    with pytest.raises(ValueError, match=message):
        check_density_matrix(stack)


def test_closed_form_eigenvalues_match_solver_oracle(rng):
    for _ in range(1000):
        rho = random_density(rng)
        ours = np.array(density_eigenvalues(rho))
        oracle = np.sort(np.linalg.eigvalsh(rho))[::-1]
        np.testing.assert_allclose(ours, oracle, atol=1e-12)


def test_entropy_from_decomposition_matches_reduced(rng):
    state = random_walk_state(rng, 12)
    dec = site_decomposition(state)
    s_mix = von_neumann_entropy(np.einsum("j,jkl->kl", dec.probabilities, dec.local_states))
    assert abs(s_mix - state_entropy(state)) < 1e-12


def test_entropy_invariant_under_global_phase(rng):
    state = random_walk_state(rng, 8)
    phased = WalkState(t=8, amps=np.exp(1j * 0.8123) * state.amps)
    assert abs(state_entropy(state) - state_entropy(phased)) < 1e-12


def test_entropy_curve_starts_at_zero():
    curve = entropy_curve(InitialCoin(51, 90), Ordered(hadamard_coin()), 5)
    assert curve[0] == (0, pytest.approx(0.0, abs=1e-12))
    assert [t for t, _ in curve] == list(range(6))


def test_entropy_bounds_on_random_states(rng):
    for t in (2, 5, 11):
        s = state_entropy(random_walk_state(rng, t))
        assert 0.0 <= s <= 1.0


def leaky(scale):
    """A kernel wrapper that yields `scale` times the kernel's rows: the |up> rows alone for a nan scale."""

    def propagate(plan, spinor):
        for up, dn, q in _propagate(plan, spinor):
            yield scale * up, dn if np.isnan(scale) else scale * dn, q

    return propagate


@pytest.mark.parametrize(
    "scale,message", [(0.9, "trace"), (1 + 1e-7, "trace"), (np.nan, "non-finite")]
)
def test_coin_density_curve_rejects_unnormalized_steps(monkeypatch, scale, message):
    # A nan scale fills only the |up> rows; its trace is nan, which no
    # comparison with a tolerance refuses, so the finiteness check must.
    monkeypatch.setattr(dtqw.walk, "_propagate", leaky(scale))
    with pytest.raises(ValueError, match=message):
        coin_density_curve(InitialCoin(51, 0), Ordered(hadamard_coin()), 4)


def test_a_kernel_wrapper_leaves_the_kernels_own_last_state(monkeypatch):
    # The record of a walk's last run copies the kernel's rows, not what a
    # caller of the kernel saw, so the final state after the refused curve
    # is the walk's, byte for byte.
    init, policy = InitialCoin(51, 0), Ordered(hadamard_coin())
    fresh = final_state(init, policy, 4)
    with monkeypatch.context() as patched:
        patched.setattr(dtqw.walk, "_propagate", leaky(0.9))
        with pytest.raises(ValueError, match="trace"):
            coin_density_curve(init, policy, 4)
    assert dtqw.walk._last_run is not None
    assert final_state(init, policy, 4).amps.tobytes() == fresh.amps.tobytes()


def test_asymptotic_entropy_memory_grows_linearly():
    # The dense trajectory of 4096 steps alone takes 0.5 GB; the streamed
    # reduction keeps one 2x2 matrix per step and the current amplitudes.
    tracemalloc.start()
    try:
        asymptotic_entropy(InitialCoin(51, 0), Ordered(hadamard_coin()), steps=4096)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_asymptotic_entropy_tail_validation():
    with pytest.raises(ValueError):
        asymptotic_entropy(InitialCoin(51, 0), Ordered(hadamard_coin()), steps=10, tail=11)


@pytest.mark.parametrize("steps,tail", [(200, 17), (64, 64), (100, 1)])
def test_asymptotic_entropy_is_the_mean_of_the_curves_last_tail_entries(steps, tail):
    init, policy = InitialCoin(33, 270), StaticAndDynamic(7, 2)
    curve = entropy_curve(init, policy, steps)
    assert asymptotic_entropy(init, policy, steps, tail) == np.mean([s for _, s in curve[-tail:]])


@pytest.mark.parametrize("theta,phi", [(51, 0), (51, 90), (51, 180), (0, 0), (120, 45)])
def test_tail_average_matches_momentum_space_limit(theta, phi):
    """Two independent routes to the long-time entropy agree.

    The time-domain tail average over t in [961, 1024] and the
    frequency-domain dephased mixture must land on the same value; this
    pins down the long-time entanglement of the ordered Hadamard walk
    without reference to either route's internals.
    """
    init = InitialCoin(theta, phi)
    time_domain = asymptotic_entropy(init, Ordered(hadamard_coin()), steps=1024, tail=64)
    frequency_domain = dephased_limit_entropy(init.spinor)
    assert abs(time_domain - frequency_domain) < 1e-3


LONG_TEXT = "".join(np.random.default_rng(11).choice(["H", "F"], 4096))


@pytest.mark.parametrize(
    "policy",
    [
        Ordered(hadamard_coin()),
        Ordered(fourier_coin()),
        DynamicSequence(LONG_TEXT),
        DynamicRandom(5),
        StaticRandom(6),
        StaticAndDynamic(7, 8),
    ],
    ids=["Ordered-H", "Ordered-F", "DynamicSequence", "DynamicRandom", "StaticRandom", "StaticAndDynamic"],
)
def test_norm_does_not_drift(policy):
    """tr rho_C stays 1 at every step of a 4096-step {H, F} walk.

    The unit coins' fl(1/sqrt(2))^2 = 1/2 - 8.9e-17 shrank it by 1.77e-16
    a step, to 1 - 7.3e-13 here.  With the exact-entry coins a walk rounds
    only once its Gaussian integers pass 2^53, without bias, so the trace
    wanders instead: up to 4.0e-15 over 20 walks of 4096 steps, under
    StaticRandom, whose localized amplitudes average fewest roundings.
    The ordered H and F walks read 8.9e-16 and 6.7e-16.
    """
    rho = coin_density_curve(InitialCoin(51, 30), policy, 4096)
    assert np.max(np.abs(rho[:, 0, 0].real + rho[:, 1, 1].real - 1.0)) < 1e-14


@pytest.mark.parametrize("init", [InitialCoin(51, 30), InitialCoin(90, 270)], ids=["51-30", "90-270"])
@pytest.mark.parametrize("policy", [Ordered(hadamard_coin()), DynamicRandom(3)], ids=["Ordered-H", "DynamicRandom"])
def test_coin_density_curve_matches_momentum_space_reference(policy, init):
    # 4096 steps: past the kernel's rescales and the light cone's first
    # subnormals.  With the unit coins in both, the curves agreed within
    # 1.15e-14.
    steps = 4096
    reference = momentum_coin_densities(plan_coins(policy, steps), init.spinor)
    np.testing.assert_allclose(coin_density_curve(init, policy, steps), reference, rtol=0, atol=1.5e-14)


@pytest.mark.parametrize("init", [InitialCoin(51, 30), InitialCoin(90, 270)], ids=["51-30", "90-270"])
@pytest.mark.parametrize(
    "policy,bound",
    [(Ordered(hadamard_coin()), 1e-15), (DynamicRandom(3), 1e-15), (StaticRandom(4), 2e-15)],
    ids=["Ordered-H", "DynamicRandom", "StaticRandom"],
)
def test_coin_density_curve_stays_near_extended_precision(policy, bound, init):
    """rho_C over 2048 steps, past four rescales, against the same plan stepped and reduced in np.clongdouble.

    `oracles.reference_propagate` replays the exact coins in extended
    precision, so its rho_C is far closer to the walk's than the kernel's
    rounding.  Every 4th step the kernel reads within 6.9e-16 (Ordered H),
    6.3e-16 (DynamicRandom) and 1.29e-15 (StaticRandom) of it; at 4096
    steps, 8.0e-16, 8.0e-16 and 2.5e-15.  The bounds leave room for
    other summation orders, not for a tenfold loss.
    """
    steps = 2048
    plan = plan_coins(policy, steps)
    rho = coin_density_curve(init, policy, steps)
    unscale = np.ldexp(np.longdouble(1), -plan.scales())
    worst = 0.0
    for t, (up, dn) in enumerate(reference_propagate(plan, init.spinor, np.clongdouble), 1):
        if t % 4 == 0:
            r01 = np.sum(up * np.conj(dn))
            reference = np.array([[np.vdot(up, up), r01], [np.conj(r01), np.vdot(dn, dn)]]) * unscale[t]
            worst = max(worst, float(np.max(np.abs(rho[t] - reference))))
    assert worst < bound
