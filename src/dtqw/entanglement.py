"""Reduced coin density matrices and the coin-position entanglement entropy.

For a pure walker state the entanglement between coin and position is the
von Neumann entropy of the reduced 2x2 coin matrix, measured in bits, so it
ranges from 0 (product state) to 1 (maximally entangled).  Eigenvalues of
the 2x2 Hermitian matrix are computed in closed form; no iterative solver
is involved.  Per-step curves come from :func:`coin_density_curve`, which
reduces the walk kernel's arrays step by step and keeps one 2x2 matrix per
step, never the trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .walk import CoinPolicy, InitialCoin, WalkState, _coin_curve, _coin_density, plan_coins

__all__ = [
    "SiteDecomposition",
    "check_density_matrix",
    "density_eigenvalues",
    "reduced_coin_density",
    "site_decomposition",
    "von_neumann_entropy",
    "state_entropy",
    "coin_density_curve",
    "entropy_curve",
    "asymptotic_entropy",
]

#: Sites with probability at or below this weight are omitted from
#: decompositions (their local state is undefined).
NEGLIGIBLE_SITE_PROBABILITY = 1e-14

#: Absolute tolerance of every density-matrix check: Hermiticity, unit
#: trace and the smaller eigenvalue.
DENSITY_ATOL = 1e-8


def check_density_matrix(rho: NDArray[np.complex128]) -> NDArray[np.complex128]:
    """Validate (..., 2, 2) density matrices: finite, Hermitian, unit trace, PSD within :data:`DENSITY_ATOL`.

    Returns `rho` as complex128; raises ValueError otherwise (a trace error names the worst trace).
    """
    rho = np.asarray(rho, dtype=np.complex128)
    if rho.shape[-2:] != (2, 2):
        raise ValueError(f"density matrix must be 2x2, got shape {rho.shape}")
    if not np.all(np.isfinite(rho)):
        raise ValueError("density matrix has a non-finite entry")
    if np.any(np.abs(rho - rho.conj().swapaxes(-1, -2)) > DENSITY_ATOL):
        raise ValueError("density matrix is not Hermitian")
    trace = np.trace(rho, axis1=-2, axis2=-1)
    error = np.maximum(np.abs(trace.real - 1.0), np.abs(trace.imag))
    if np.any(error > DENSITY_ATOL):
        raise ValueError(f"density matrix trace {trace.flat[np.argmax(error)]} is not 1")
    if np.any(density_eigenvalues(rho)[1] < -DENSITY_ATOL):
        raise ValueError("density matrix has a significantly negative eigenvalue")
    return rho


def _one_density_matrix(rho: NDArray[np.complex128]) -> NDArray[np.complex128]:
    """:func:`check_density_matrix` for exactly one 2x2 matrix, the input of the scalar functions."""
    if np.shape(rho) != (2, 2):
        raise ValueError(f"density matrix must be 2x2, got shape {np.shape(rho)}")
    return check_density_matrix(rho)


def density_eigenvalues(rho: NDArray[np.complex128]) -> tuple[float, float]:
    """Closed-form eigenvalues (descending) of a 2x2 Hermitian trace-1 matrix.

    lambda = 1/2 +- sqrt((rho00 - rho11)^2 / 4 + |rho01|^2).  Leading axes of
    `rho` are independent matrices and carry through to both results.
    """
    half_gap = np.sqrt(
        ((rho[..., 0, 0].real - rho[..., 1, 1].real) / 2.0) ** 2 + np.abs(rho[..., 0, 1]) ** 2
    )
    return 0.5 + half_gap, 0.5 - half_gap


def reduced_coin_density(state: WalkState) -> NDArray[np.complex128]:
    """Trace out the position register: rho_C = sum_j (a, b)_j (a, b)_j^dagger.

    Raises
    ------
    ValueError
        If the state norm is off by more than 1e-6.
    """
    norm = state.norm()
    if abs(norm - 1.0) > 1e-6:
        raise ValueError(f"state is not normalized (norm^2 = {norm})")
    return _coin_density(*state.amps)


@dataclass(frozen=True)
class SiteDecomposition:
    """Per-site weights and local coin states: rho_C = sum_j p_j rho_j.

    Only sites with p_j above :data:`NEGLIGIBLE_SITE_PROBABILITY` appear.
    """

    sites: NDArray[np.int64]
    probabilities: NDArray[np.float64]
    local_states: NDArray[np.complex128]  # (n_sites, 2, 2)


def site_decomposition(state: WalkState) -> SiteDecomposition:
    """Decompose the coin state by lattice site.

    p_j = |a(j)|^2 + |b(j)|^2 and rho_j is the normalized spinor projector at
    site j.  Mixing the records with weights p_j reproduces
    :func:`reduced_coin_density` up to numerical dust.
    """
    reduced_coin_density(state)  # normalization check
    probs = state.probabilities()
    keep = probs > NEGLIGIBLE_SITE_PROBABILITY
    spinors = state.amps[:, keep].T  # (n, 2)
    p = probs[keep]
    rhos = spinors[:, :, None] * spinors.conj()[:, None, :] / p[:, None, None]
    return SiteDecomposition(
        sites=state.sites[keep], probabilities=p, local_states=rhos
    )


def _entropy_bits(rho: NDArray[np.complex128]) -> NDArray[np.float64]:
    """Von Neumann entropy in bits of 2x2 density matrices over any leading axes.

    The larger closed-form eigenvalue is clamped to [0, 1] before the
    logarithm (0 log 0 := 0); no validation.
    """
    return _eigenvalue_entropy(density_eigenvalues(rho)[0])


def _eigenvalue_entropy(lam: NDArray[np.float64]) -> NDArray[np.float64]:
    """Entropy in bits of trace-1 2x2 density matrices from their larger eigenvalues `lam`."""
    lam = np.clip(lam, 0.0, 1.0)
    rest = 1.0 - lam
    return 0.0 - lam * np.log2(lam) - rest * np.log2(np.where(rest > 0.0, rest, 1.0))


def von_neumann_entropy(rho: NDArray[np.complex128]) -> float:
    """Von Neumann entropy -Tr[rho log2 rho] of a 2x2 density matrix, in bits.

    Eigenvalues come from the closed form and are clamped to [0, 1] before
    the logarithm (0 log 0 := 0).  Invalid input (non-Hermitian, trace far
    from 1, or significantly negative spectrum) raises ValueError.
    """
    return float(_entropy_bits(_one_density_matrix(rho)))


def state_entropy(state: WalkState) -> float:
    """Coin-position entanglement entropy of a walker state."""
    return von_neumann_entropy(reduced_coin_density(state))


def coin_density_curve(
    init: InitialCoin, policy: CoinPolicy, steps: int
) -> NDArray[np.complex128]:
    """Reduced coin matrix at every step of a walk, as a (steps+1, 2, 2) array.

    Row t is rho_C(t) for t = 0 .. steps, reduced from the kernel's
    parity-compressed amplitudes as they stream (`walk._coin_curve`), so
    memory stays O(steps).

    Raises
    ------
    ValueError
        If a step's matrix fails :func:`check_density_matrix`: a norm off
        by more than its 1e-8 shows as a trace that is not 1.
    """
    return check_density_matrix(_coin_curve(plan_coins(policy, steps), init.spinor))


def entropy_curve(
    init: InitialCoin, policy: CoinPolicy, steps: int
) -> list[tuple[int, float]]:
    """Entanglement entropy at every step of a walk.

    Returns (t, S_E) pairs for t = 0 .. steps; S_E(0) = 0 for the localized
    product initial state.
    """
    return list(enumerate(_entropy_bits(coin_density_curve(init, policy, steps)).tolist()))


def asymptotic_entropy(
    init: InitialCoin,
    policy: CoinPolicy,
    steps: int = 1024,
    tail: int = 64,
) -> float:
    """Long-time entanglement estimate: mean S_E over the final `tail` steps.

    The entropy oscillates around its limiting value with decaying
    amplitude; averaging the last `tail` steps of a long run (default
    t in [961, 1024]) gives a stable estimate of that limit.
    """
    if not 1 <= tail <= steps:
        raise ValueError(f"tail must lie in [1, steps], got tail={tail} steps={steps}")
    rho = coin_density_curve(init, policy, steps)
    return float(np.mean(_entropy_bits(rho[steps - tail + 1 :])))
