import math

import numpy as np
import pytest
from scipy.linalg import sqrtm

from dtqw.coins import SIGMA_X, SIGMA_Y, SIGMA_Z, hadamard_coin
from dtqw.entanglement import state_entropy
from dtqw.tomography import (
    PROJECTOR_LABELS,
    fidelity,
    reconstruct_site,
    similarity,
    simulate_counts,
    tomographic_entropy,
)
from dtqw.transport import PositionDistribution
from dtqw.walk import DynamicSequence, InitialCoin, Ordered, WalkState, final_state, initial_state
from oracles import as_dict, project_to_physical, random_density, reference_similarity

SC0 = "FFHFHFHHFFFFFHFHHHHH"
UP_STATE = initial_state(InitialCoin(0, 0))


def dist(mapping: dict[int, float]) -> PositionDistribution:
    sites = np.array(sorted(mapping))
    return PositionDistribution(
        sites=sites, probabilities=np.array([mapping[j] for j in sites])
    )


# --- projector probabilities -------------------------------------------------


def outcome_probabilities(state: WalkState, j: int) -> dict[str, float]:
    """Joint probabilities of the six outcomes at site j: noiseless counts of a budget of 3."""
    row = simulate_counts(state, 3, noiseless=True).counts[j + state.t]
    return dict(zip(PROJECTOR_LABELS, row.tolist()))


def test_projectors_on_up_spinor():
    probs = outcome_probabilities(UP_STATE, 0)
    assert probs["H"] == pytest.approx(1.0)
    assert probs["V"] == pytest.approx(0.0)
    for label in ("D", "A", "L", "R"):
        assert probs[label] == pytest.approx(0.5)


def test_projectors_on_circular_spinor():
    state = WalkState(
        t=0, amps=np.array([[1.0], [1.0j]], dtype=complex) / np.sqrt(2.0)
    )
    probs = outcome_probabilities(state, 0)
    assert probs["L"] == pytest.approx(1.0)
    assert probs["R"] == pytest.approx(0.0, abs=1e-15)
    assert probs["H"] == pytest.approx(0.5)
    assert probs["V"] == pytest.approx(0.5)
    assert probs["D"] == pytest.approx(0.5)
    assert probs["A"] == pytest.approx(0.5)


def test_projectors_after_one_hadamard_step():
    state = final_state(InitialCoin(0, 0), Ordered(hadamard_coin()), 1)
    probs = outcome_probabilities(state, 1)
    assert probs["H"] == pytest.approx(0.5)
    assert probs["V"] == pytest.approx(0.0, abs=1e-15)


# --- simulated counts ---------------------------------------------------------


def test_noiseless_counts_are_exact_expectations():
    state = final_state(InitialCoin(0, 0), Ordered(hadamard_coin()), 1)
    counts = simulate_counts(state, 24000, noiseless=True)
    row = dict(zip([int(j) for j in counts.sites], counts.counts))
    np.testing.assert_allclose(row[1], [4000, 0, 2000, 2000, 2000, 2000], atol=1e-9)
    np.testing.assert_allclose(row[-1], [0, 4000, 2000, 2000, 2000, 2000], atol=1e-9)


def test_multinomial_counts_near_expectation():
    state = final_state(InitialCoin(0, 0), Ordered(hadamard_coin()), 1)
    counts = simulate_counts(state, 24000, seed=123)
    total = counts.counts.sum()
    assert total == 24000
    idx = list(counts.sites).index(1)
    h_counts = counts.counts[idx, 0]
    # five-sigma multinomial band around N p with N = 8000, p = 1/2
    sigma = np.sqrt(8000 * 0.5 * 0.5)
    assert abs(h_counts - 4000) < 5 * sigma
    d_counts = counts.counts[idx, 2]
    sigma_d = np.sqrt(8000 * 0.25 * 0.75)
    assert abs(d_counts - 2000) < 5 * sigma_d


def test_counts_reject_empty_budget():
    """An empty budget, and one past the multinomial's int64 range, in both modes."""
    for total_counts in (0, 2**63):
        for noiseless in (False, True):
            with pytest.raises(ValueError, match="total_counts must lie in"):
                simulate_counts(UP_STATE, total_counts, noiseless=noiseless)


def test_pair_totals_estimate_site_weight():
    state = final_state(InitialCoin(51, 0), DynamicSequence(SC0[:6]), 6)
    counts = simulate_counts(state, 9000, noiseless=True)
    probs = state.probabilities()
    for row in range(len(counts.sites)):
        for pair_total in counts.counts[row].reshape(3, 2).sum(axis=1):
            assert pair_total == pytest.approx(3000 * probs[row], abs=1e-9)


def test_counts_reproducible_under_seed():
    state = final_state(InitialCoin(51, 0), DynamicSequence(SC0), 20)
    a = simulate_counts(state, 5000, seed=7)
    b = simulate_counts(state, 5000, seed=7)
    np.testing.assert_array_equal(a.counts, b.counts)


# --- reconstruction ------------------------------------------------------------


def test_reconstruct_pure_up_from_exact_counts():
    rho = reconstruct_site([1000.0, 0.0, 500.0, 500.0, 500.0, 500.0])
    np.testing.assert_allclose(rho, [[1, 0], [0, 0]], atol=1e-12)


def test_reconstruct_random_spinor_round_trip(rng):
    for _ in range(50):
        spinor = rng.normal(size=2) + 1j * rng.normal(size=2)
        spinor /= np.linalg.norm(spinor)
        state = WalkState(t=0, amps=spinor.reshape(2, 1))
        counts = simulate_counts(state, 3000, noiseless=True)
        rho = reconstruct_site(counts.counts[0])
        truth = np.outer(spinor, spinor.conj())
        assert fidelity(rho, truth) > 1.0 - 1e-10


def test_reconstruct_projects_outside_bloch_ball():
    # Stokes estimates (0.9, 0.9, 0.9): |r| > 1, must come back physical
    counts = [95.0, 5.0, 95.0, 5.0, 95.0, 5.0]
    rho = reconstruct_site(counts)
    vals = np.linalg.eigvalsh(rho)
    assert vals.min() >= -1e-12
    assert abs(np.trace(rho).real - 1.0) < 1e-12
    assert abs(np.trace(rho).imag) < 1e-15


def test_reconstruct_rejects_zero_pair():
    with pytest.raises(ValueError):
        reconstruct_site([10.0, 5.0, 0.0, 0.0, 3.0, 2.0])
    with pytest.raises(ValueError, match=r"expected 6 projector counts, got shape \(2, 3\)"):
        reconstruct_site([[10.0, 5.0, 1.0], [2.0, 3.0, 2.0]])


def test_project_to_physical_clamps_negative_eigenvalue():
    rho = np.diag([1.2, -0.2]).astype(complex)
    out = project_to_physical(rho)
    np.testing.assert_allclose(out, [[1, 0], [0, 0]], atol=1e-12)


# --- fidelity and similarity ----------------------------------------------------


def test_fidelity_of_identical_states(rng):
    for _ in range(20):
        rho = random_density(rng)
        assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-12)


def test_fidelity_of_orthogonal_pure_states():
    up = np.diag([1.0, 0.0]).astype(complex)
    down = np.diag([0.0, 1.0]).astype(complex)
    assert fidelity(up, down) == pytest.approx(0.0, abs=1e-15)


def test_fidelity_pure_versus_mixed():
    up = np.diag([1.0, 0.0]).astype(complex)
    assert fidelity(up, np.eye(2, dtype=complex) / 2) == pytest.approx(0.5, abs=1e-12)


def test_fidelity_matches_matrix_sqrt_oracle(rng):
    for _ in range(200):
        a, b = random_density(rng), random_density(rng)
        ra = sqrtm(a)
        oracle = float(np.real(np.trace(sqrtm(ra @ b @ ra))) ** 2)
        assert abs(fidelity(a, b) - oracle) < 1e-10
        assert abs(fidelity(a, b) - fidelity(b, a)) < 1e-12


def test_fidelity_is_one_only_for_equal_states(rng):
    # Fuchs-van de Graaf: F <= 1 - T^2, and the trace distance T of 2x2
    # Hermitian matrices is at least their largest entrywise difference.
    for _ in range(200):
        a, b = random_density(rng), random_density(rng)
        gap = float(np.max(np.abs(a - b)))
        if gap > 0.05:
            assert fidelity(a, b) < 1.0 - 1e-3


def test_similarity_is_one_only_for_equal_distributions():
    base = dist({0: 0.5, 2: 0.5})
    assert similarity(base, dist({0: 0.5, 2: 0.5})) == pytest.approx(1.0, abs=1e-12)
    assert similarity(base, dist({0: 0.4, 2: 0.6})) < 1.0 - 1e-3


def test_fidelity_rejects_invalid_input():
    with pytest.raises(ValueError):
        fidelity(np.diag([0.7, 0.7]).astype(complex), np.eye(2, dtype=complex) / 2)
    with pytest.raises(ValueError, match=r"must be 2x2, got shape \(3, 2, 2\)"):
        fidelity(np.stack([np.eye(2) / 2] * 3), np.eye(2) / 2)
    nan = np.full((2, 2), np.nan, dtype=complex)
    for a, b in ((nan, np.eye(2) / 2), (np.eye(2) / 2, nan)):
        with pytest.raises(ValueError, match="non-finite"):
            fidelity(a, b)


def test_similarity_identical_and_disjoint():
    assert similarity(dist({0: 0.5, 2: 0.5}), dist({0: 0.5, 2: 0.5})) == pytest.approx(1.0)
    assert similarity(dist({0: 1.0}), dist({2: 1.0})) == 0.0


def test_similarity_partial_overlap():
    value = similarity(dist({0: 1.0}), dist({0: 0.5, 2: 0.5}))
    assert value == pytest.approx(np.sqrt(0.5), abs=1e-12)


def test_similarity_symmetric_and_validates(rng):
    a = dist({0: 0.3, 1: 0.7})
    b = dist({0: 0.6, 3: 0.4})
    assert similarity(a, b) == pytest.approx(similarity(b, a), abs=1e-15)
    with pytest.raises(ValueError):
        similarity(dist({0: 0.5}), b)
    with pytest.raises(ValueError, match="second distribution has negative entries"):
        similarity(a, dist({0: 1.1, 1: -0.1}))
    for p in (dist({0: np.nan, 1: 1.0}), dist({0: 0.3, 1: 0.7, 2: np.nan})):
        with pytest.raises(ValueError, match="non-finite"):
            similarity(p, b)
        with pytest.raises(ValueError, match="non-finite"):
            similarity(a, p)


def random_distribution(rng, sites) -> PositionDistribution:
    """Normalized weights on `sites`, one of them a rounding-size negative entry."""
    p = rng.uniform(size=len(sites))
    k = rng.integers(len(sites))
    p[k] = 0.0
    p /= p.sum()
    p[k] = -1e-13
    return PositionDistribution(sites=np.asarray(sites), probabilities=p)


@pytest.mark.parametrize(
    "first,second",
    [
        (np.arange(-50, 51, 2), np.arange(-50, 51, 2)),  # equal supports
        (np.arange(-50, 51, 2), np.arange(-20, 81, 2)),  # overlapping
        (np.arange(-50, 51, 2), np.arange(-49, 52, 2)),  # disjoint
        (np.arange(-8, 9, 2), np.arange(-300, 301, 2)),  # unequal lengths, one inside the other
        (np.array([-7, 3, 11]), np.arange(-10, 11)),  # unequal lengths, partly outside
    ],
    ids=["equal", "overlapping", "disjoint", "nested", "partial"],
)
def test_similarity_matches_the_support_union_loop(rng, first, second):
    for _ in range(5):
        a, b = random_distribution(rng, first), random_distribution(rng, second)
        for x, y in ((a, b), (b, a), (a, a)):
            assert abs(similarity(x, y) - reference_similarity(x, y)) <= 1e-15


def test_similarity_of_a_long_reconstruction_is_the_rounded_exact_sum():
    # Over 4097 sites the support-union loop is 2.3e-15 off the exact sum;
    # numpy's pairwise sum stays within a rounding unit of it.
    state = final_state(InitialCoin(51, 30), Ordered(hadamard_coin()), 2048)
    result = tomographic_entropy(state, 10**6, seed=1)
    estimated = PositionDistribution(sites=result.sites, probabilities=result.p_hat)
    truth = PositionDistribution(sites=state.sites, probabilities=state.probabilities())
    a, b = as_dict(estimated), as_dict(truth)
    exact = math.fsum(math.sqrt(max(a[j], 0.0) * max(b[j], 0.0)) for j in a.keys() & b.keys())
    assert result.distribution_similarity == similarity(estimated, truth)
    assert abs(result.distribution_similarity - exact) <= np.finfo(float).eps


# --- end-to-end ----------------------------------------------------------------


@pytest.mark.parametrize("policy", [Ordered(hadamard_coin()), DynamicSequence(SC0)])
def test_noiseless_round_trip(policy):
    state = final_state(InitialCoin(51, 0), policy, 20)
    result = tomographic_entropy(state, 24000, noiseless=True)
    assert abs(result.entropy_hat - state_entropy(state)) < 1e-9
    assert result.rho_c_fidelity > 1.0 - 1e-9
    assert result.site_fidelities.min() > 1.0 - 1e-9
    assert result.distribution_similarity > 1.0 - 1e-9
    assert abs(result.p_hat.sum() - 1.0) < 1e-9


def test_noisy_reconstruction_stays_physical():
    state = final_state(InitialCoin(51, 0), DynamicSequence(SC0), 20)
    for seed in range(10):
        result = tomographic_entropy(state, 1000, seed=seed)
        for rho in result.rho_hat:
            vals = np.linalg.eigvalsh(rho)
            assert vals.min() >= -1e-12
            assert abs(np.trace(rho).real - 1.0) < 1e-12
        assert 0.0 <= result.entropy_hat <= 1.0


def test_tomography_reproducible_under_seed():
    state = final_state(InitialCoin(51, 0), Ordered(hadamard_coin()), 10)
    a = tomographic_entropy(state, 6000, seed=3)
    b = tomographic_entropy(state, 6000, seed=3)
    assert a.entropy_hat == b.entropy_hat
    assert a.rho_c_fidelity == b.rho_c_fidelity


def test_vectorized_sites_match_per_site_references():
    """rho_hat is the projected linear inversion; site fidelities are Uhlmann's."""
    state = final_state(InitialCoin(51, 0), DynamicSequence(SC0), 20)
    for seed in range(5):
        # Few counts: empty x/y pairs and Stokes vectors outside the ball occur.
        result = tomographic_entropy(state, 300, seed=seed)
        kept = result.counts.counts[np.isin(result.counts.sites, result.sites)]
        for row, c in enumerate(kept):
            rho = np.eye(2, dtype=complex) / 2.0
            for plus, sigma in zip((0, 2, 4), (SIGMA_Z, SIGMA_X, SIGMA_Y)):
                if c[plus] + c[plus + 1] > 0.0:
                    rho = rho + 0.5 * (c[plus] - c[plus + 1]) / (c[plus] + c[plus + 1]) * sigma
            rho = project_to_physical(rho)
            np.testing.assert_allclose(result.rho_hat[row], rho, rtol=0, atol=1e-12)
            spinor = state.amps[:, result.sites[row] + state.t]
            truth = np.outer(spinor, spinor.conj()) / np.vdot(spinor, spinor).real
            assert abs(result.site_fidelities[row] - fidelity(rho, truth)) < 1e-8


def test_site_with_subnormal_weight_is_reconstructed():
    # Site -1 holds |down> with weight 1e-320: its noiseless counts are
    # subnormal but nonzero, so the site is kept and must score finitely.
    amps = np.zeros((2, 3), dtype=complex)
    amps[:, 2] = np.array([1.0, 1.0j]) / np.sqrt(2.0)
    amps[1, 0] = 1e-160j
    state = WalkState(t=1, amps=amps)
    result = tomographic_entropy(state, 10**6, noiseless=True)
    assert list(result.sites) == [-1, 1]
    assert np.all(np.isfinite(result.site_fidelities))
    assert result.site_fidelities.min() > 1.0 - 1e-9
    np.testing.assert_allclose(result.rho_hat[0], [[0, 0], [0, 1]], atol=1e-15)
    assert abs(result.entropy_hat - state_entropy(state)) < 1e-9
