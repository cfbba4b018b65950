"""Simulated measurement chain: projective counts, state reconstruction, scores.

Mirrors how an experiment would estimate the coin-position entanglement of a
walker state: split a photon-count budget equally over the three Pauli bases,
draw multinomial counts over (site, outcome) cells, reconstruct each site's
coin state by linear inversion of the Stokes parameters, and reassemble the
reduced coin matrix as sum_j p_j rho_j.  A noiseless mode replaces counts by
their exact expected values, making the round trip exact wherever those are
normal floats; subnormal expected counts keep only a few bits.

Projector labels follow the polarization convention H/V (z basis), D/A
(x basis), L/R (y basis) with L = (|up> + i|down>)/sqrt(2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .entanglement import _one_density_matrix, reduced_coin_density, von_neumann_entropy
from .transport import PositionDistribution, position_distribution
from .walk import WalkState

__all__ = [
    "PROJECTOR_LABELS",
    "BASIS_PAIRS",
    "ProjectionCounts",
    "TomographyResult",
    "simulate_counts",
    "reconstruct_site",
    "fidelity",
    "similarity",
    "tomographic_entropy",
]

PROJECTOR_LABELS = ("H", "V", "D", "A", "L", "R")
BASIS_PAIRS = (("H", "V"), ("D", "A"), ("L", "R"))
#: Largest photon budget: numpy's multinomial draw takes an int64 count.
_MAX_COUNTS = 2**63 - 1


def _joint_probabilities(state: WalkState) -> NDArray[np.float64]:
    """(n_sites, 6) joint probabilities of (site, projector outcome).

    Each basis pair's column block sums to 1 over all sites.
    """
    a, b = state.amps
    half = 0.5
    cols = [
        np.abs(a) ** 2,                      # H
        np.abs(b) ** 2,                      # V
        half * np.abs(a + b) ** 2,           # D
        half * np.abs(a - b) ** 2,           # A
        half * np.abs(a - 1j * b) ** 2,      # L
        half * np.abs(a + 1j * b) ** 2,      # R
    ]
    return np.stack(cols, axis=1)


@dataclass(frozen=True)
class ProjectionCounts:
    """Counts per (site, projector), columns ordered H, V, D, A, L, R.

    `counts` holds integers after a multinomial draw and real expected
    values in noiseless mode.
    """

    sites: NDArray[np.int64]
    counts: NDArray[np.float64]


def _check_total_counts(total_counts: int) -> None:
    """Raise ValueError unless the photon budget lies in [1, 2^63 - 1]."""
    if not 1 <= total_counts <= _MAX_COUNTS:
        raise ValueError(f"total_counts must lie in [1, {_MAX_COUNTS}], got {total_counts}")


def simulate_counts(
    state: WalkState, total_counts: int, seed: int = 0, noiseless: bool = False
) -> ProjectionCounts:
    """Projective count record for `state` with a global photon budget.

    The budget splits as evenly as possible over the three basis pairs (any
    remainder goes to the earliest pairs in H/V, D/A, L/R order).  Within a
    pair the counts follow one multinomial draw over the (site, outcome)
    cells; with ``noiseless=True`` the draw is replaced by its expectation.

    Raises
    ------
    ValueError
        If `total_counts` lies outside [1, 2^63 - 1], in either mode.
    """
    _check_total_counts(total_counts)
    probs = _joint_probabilities(state)
    n_sites = probs.shape[0]
    budgets = [total_counts // 3] * 3
    for k in range(total_counts % 3):
        budgets[k] += 1
    counts = np.zeros((n_sites, 6), dtype=np.float64)
    rng = np.random.default_rng(seed)
    for pair, budget in enumerate(budgets):
        block = probs[:, 2 * pair : 2 * pair + 2]
        if noiseless:
            counts[:, 2 * pair : 2 * pair + 2] = budget * block
            continue
        flat = block.reshape(-1)
        drawn = rng.multinomial(budget, flat / flat.sum())
        counts[:, 2 * pair : 2 * pair + 2] = drawn.reshape(n_sites, 2)
    return ProjectionCounts(sites=state.sites, counts=counts)


def _site_states(c: NDArray[np.float64]) -> tuple[NDArray[np.float64], NDArray[np.complex128]]:
    """Bloch vectors (n, 3) and density matrices (n, 2, 2) from (n, 6) count rows.

    Stokes components r_k = (N_plus - N_minus) / (N_plus + N_minus) in x, y,
    z order; an empty x or y pair carries no data and gives r_k = 0, while
    every row needs z counts.  The eigenvalues of (I + r . sigma)/2 are
    (1 +- |r|)/2, so scaling r by 1 / max(1, |r|) is exactly clamping a
    negative eigenvalue to 0 and renormalizing the trace.  The diagonal
    (1 +- r_z)/2 is taken from the H/V counts themselves, so an entry near 0
    keeps its digits.
    """
    plus, minus = c[:, [2, 4, 0]], c[:, [3, 5, 1]]
    total = plus + minus
    r = np.divide(plus - minus, total, out=np.zeros_like(total), where=total > 0.0)
    n = np.maximum(1.0, np.linalg.norm(r, axis=1))
    r = r / n[:, None]
    h, v = c[:, 0], c[:, 1]
    rho = np.empty((len(c), 2, 2), dtype=np.complex128)
    rho[:, 0, 0] = ((n + 1.0) * h + (n - 1.0) * v) / (2.0 * n * total[:, 2])
    rho[:, 1, 1] = ((n - 1.0) * h + (n + 1.0) * v) / (2.0 * n * total[:, 2])
    rho[:, 0, 1] = (r[:, 0] - 1j * r[:, 1]) / 2.0
    rho[:, 1, 0] = np.conj(rho[:, 0, 1])
    return r, rho


def _pure_bloch(spinors: NDArray[np.complex128]) -> NDArray[np.float64]:
    """Bloch vectors of (2, n) nonzero spinors, scaled first so no subnormal is squared."""
    a, b = spinors / np.max(np.abs(spinors), axis=0)
    ab = 2.0 * np.conj(a) * b
    pa, pb = np.abs(a) ** 2, np.abs(b) ** 2
    return np.stack([ab.real, ab.imag, pa - pb], axis=1) / (pa + pb)[:, None]


def reconstruct_site(site_counts) -> NDArray[np.complex128]:
    """Linear-inversion estimate of one site's coin state from its six counts.

    Stokes components r_k = (N_plus - N_minus) / (N_plus + N_minus) for the
    z (H/V), x (D/A) and y (L/R) pairs give rho = (I + r . sigma)/2, which is
    then projected back to the physical set if count noise pushed the Stokes
    vector outside the Bloch ball.

    Raises
    ------
    ValueError
        If any basis-pair total is zero.
    """
    c = np.asarray(site_counts, dtype=np.float64)
    if c.shape != (6,):
        raise ValueError(f"expected 6 projector counts, got shape {c.shape}")
    for plus in (0, 2, 4):
        if c[plus] + c[plus + 1] <= 0.0:
            raise ValueError(
                f"basis pair {PROJECTOR_LABELS[plus]}/{PROJECTOR_LABELS[plus + 1]} "
                "has zero counts"
            )
    return _site_states(c[None])[1][0]


def fidelity(a: NDArray[np.complex128], b: NDArray[np.complex128]) -> float:
    """Uhlmann fidelity of two qubit states via the closed form.

    F = Tr(a b) + 2 sqrt(det(a) det(b)), equal to (Tr sqrt(sqrt(a) b sqrt(a)))^2
    for 2x2 density matrices.  Symmetric, in [0, 1], and 1 exactly when the
    states coincide.
    """
    a = _one_density_matrix(a)
    b = _one_density_matrix(b)
    det_term = max(np.linalg.det(a).real, 0.0) * max(np.linalg.det(b).real, 0.0)
    value = np.trace(a @ b).real + 2.0 * np.sqrt(det_term)
    return float(np.clip(value, 0.0, 1.0))


def similarity(p_exp: PositionDistribution, p_th: PositionDistribution) -> float:
    """Bhattacharyya coefficient sum_x sqrt(p_exp(x) p_th(x)) over the support union.

    A site listed by one distribution only adds 0, so the sum runs over the
    sites both list, each site taken to be listed once.
    """
    for name, dist in (("first", p_exp), ("second", p_th)):
        if not np.all(np.isfinite(dist.probabilities)):
            raise ValueError(f"{name} distribution has a non-finite entry")
        total = float(np.sum(dist.probabilities))
        if abs(total - 1.0) > 1e-6:
            raise ValueError(f"{name} distribution is not normalized (sum = {total})")
        if np.any(dist.probabilities < -1e-12):
            raise ValueError(f"{name} distribution has negative entries")
    _, i, j = np.intersect1d(p_exp.sites, p_th.sites, assume_unique=True, return_indices=True)
    a = np.maximum(p_exp.probabilities[i], 0.0)
    b = np.maximum(p_th.probabilities[j], 0.0)
    return float(min(np.sum(np.sqrt(a * b)), 1.0))


@dataclass(frozen=True)
class TomographyResult:
    """Reconstruction of a walker state from simulated projective counts."""

    sites: NDArray[np.int64]
    p_hat: NDArray[np.float64]
    rho_hat: NDArray[np.complex128]            # (n_sites, 2, 2)
    rho_c_hat: NDArray[np.complex128]
    entropy_hat: float
    exact_entropy: float
    site_fidelities: NDArray[np.float64]
    rho_c_fidelity: float
    distribution_similarity: float
    counts: ProjectionCounts
    total_counts: int
    seed: int
    noiseless: bool


def tomographic_entropy(
    state: WalkState, total_counts: int, seed: int = 0, noiseless: bool = False
) -> TomographyResult:
    """Estimate the coin-position entanglement the way a counting experiment would.

    Site weights p_hat_j come from the H/V counts alone; every occupied
    site's coin state is reconstructed at once by linear inversion in closed
    form, and the estimated reduced matrix is sum_j p_hat_j rho_hat_j.  At
    sites where count noise left an x or y basis pair empty, that Stokes
    component is taken as zero (no data, no inferred polarization); the z
    pair defines which sites exist at all.  Reports per-site and whole-matrix
    fidelities against the exact state and the Bhattacharyya similarity of
    the estimated position distribution.  A site's truth is pure, with Bloch
    vector s, so its fidelity is (1 + r . s)/2 (Jozsa, J. Mod. Opt. 41, 2315
    (1994)); s is taken from the spinor scaled to max(|a|, |b|) = 1, so
    sites of subnormal weight score finitely.
    """
    counts = simulate_counts(state, total_counts, seed=seed, noiseless=noiseless)
    z_totals = counts.counts[:, 0] + counts.counts[:, 1]
    keep = z_totals > 0.0
    sites = state.sites[keep]
    p_hat = z_totals[keep] / z_totals.sum()

    r, rho_hat = _site_states(counts.counts[keep])
    rho_c_hat = np.einsum("j,jkl->kl", p_hat, rho_hat)
    rho_c_hat = 0.5 * (rho_c_hat + rho_c_hat.conj().T)  # shave numerical dust

    truth_rho_c = reduced_coin_density(state)
    s = _pure_bloch(state.amps[:, keep])
    site_fid = np.clip((1.0 + np.sum(r * s, axis=1)) / 2.0, 0.0, 1.0)

    estimated_dist = PositionDistribution(sites=sites, probabilities=p_hat)
    return TomographyResult(
        sites=sites,
        p_hat=p_hat,
        rho_hat=rho_hat,
        rho_c_hat=rho_c_hat,
        entropy_hat=von_neumann_entropy(rho_c_hat),
        exact_entropy=von_neumann_entropy(truth_rho_c),
        site_fidelities=site_fid,
        rho_c_fidelity=fidelity(rho_c_hat, truth_rho_c),
        distribution_similarity=similarity(estimated_dist, position_distribution(state)),
        counts=counts,
        total_counts=total_counts,
        seed=seed,
        noiseless=noiseless,
    )
