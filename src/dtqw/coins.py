"""2x2 unitary coin operators for discrete-time quantum walks on the line.

Every constructor returns a (2, 2) complex128 array acting on the coin basis
{|up>, |down>}.  The two wave-plate constructors reproduce the optical
realizations of the Hadamard and Fourier coins: a half-wave plate at pi/8
equals the Hadamard coin and a quarter-wave plate at -pi/4 equals the
Fourier coin, both exactly (global phase +1).
"""

from __future__ import annotations

import numpy as np
from numpy.typing import NDArray

__all__ = [
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "hadamard_coin",
    "fourier_coin",
    "identity_coin",
    "hwp_coin",
    "qwp_coin",
    "coin_from_name",
    "is_unitary",
    "require_unitary",
    "phase_invariant_distance",
]

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)

_INV_SQRT2 = 1.0 / np.sqrt(2.0)


def hadamard_coin() -> NDArray[np.complex128]:
    """Return the Hadamard coin (1/sqrt(2)) * [[1, 1], [1, -1]]."""
    return np.array([[1, 1], [1, -1]], dtype=np.complex128) * _INV_SQRT2


def fourier_coin() -> NDArray[np.complex128]:
    """Return the Fourier coin (1/sqrt(2)) * [[1, i], [i, 1]]."""
    return np.array([[1, 1j], [1j, 1]], dtype=np.complex128) * _INV_SQRT2


def identity_coin() -> NDArray[np.complex128]:
    """Return the 2x2 identity coin."""
    return np.eye(2, dtype=np.complex128)


def hwp_coin(angle: float) -> NDArray[np.complex128]:
    """
    Coin implemented by a half-wave plate with its optical axis at `angle`.

    Evaluates exp(-2i*angle*sigma_y) @ sigma_z through the closed form
    exp(-i*x*sigma_y) = cos(x) I - i sin(x) sigma_y.

    Parameters
    ----------
    angle : float
        Wave-plate rotation angle in radians.  Must be finite.

    Returns
    -------
    NDArray[np.complex128]
        Unitary (2, 2) matrix.  ``hwp_coin(pi/8)`` equals ``hadamard_coin()``.
    """
    if not np.isfinite(angle):
        raise ValueError(f"wave-plate angle must be finite, got {angle!r}")
    c, s = np.cos(2.0 * angle), np.sin(2.0 * angle)
    rot = np.array([[c, -s], [s, c]], dtype=np.complex128)  # cos I - i sin sigma_y
    return rot @ SIGMA_Z


def qwp_coin(angle: float) -> NDArray[np.complex128]:
    """
    Coin implemented by a quarter-wave plate with its optical axis at `angle`.

    Evaluates exp(-i*angle*sigma_y) @ exp(-i*(pi/4)*sigma_z) @ exp(i*angle*sigma_y).

    Parameters
    ----------
    angle : float
        Wave-plate rotation angle in radians.  Must be finite.

    Returns
    -------
    NDArray[np.complex128]
        Unitary (2, 2) matrix.  ``qwp_coin(-pi/4)`` equals ``fourier_coin()``.
    """
    if not np.isfinite(angle):
        raise ValueError(f"wave-plate angle must be finite, got {angle!r}")
    c, s = np.cos(angle), np.sin(angle)
    rot = np.array([[c, -s], [s, c]], dtype=np.complex128)
    mid = np.diag([np.exp(-1j * np.pi / 4), np.exp(1j * np.pi / 4)])
    return rot @ mid @ rot.conj().T


_NAMED_COINS = {
    "H": hadamard_coin,
    "F": fourier_coin,
    "I": identity_coin,
}


def coin_from_name(name: str) -> NDArray[np.complex128]:
    """Look up a named coin: 'H' (Hadamard), 'F' (Fourier) or 'I' (identity)."""
    try:
        return _NAMED_COINS[name.upper()]()
    except KeyError:
        raise ValueError(
            f"unknown coin name {name!r}; expected one of {sorted(_NAMED_COINS)}"
        ) from None


#: Entrywise tolerance of the unitarity check on u u^dagger - I.
UNITARY_TOL = 1e-9


def is_unitary(u: NDArray[np.complex128]) -> bool:
    """Check that `u` is a 2x2 unitary within entrywise tolerance :data:`UNITARY_TOL`."""
    u = np.asarray(u, dtype=np.complex128)
    if u.shape != (2, 2):
        return False
    return bool(np.max(np.abs(u @ u.conj().T - np.eye(2))) <= UNITARY_TOL)


def require_unitary(u: NDArray[np.complex128], what: str = "coin") -> NDArray[np.complex128]:
    """Return `u` as complex128, raising ValueError if it is not unitary."""
    u = np.asarray(u, dtype=np.complex128)
    if not is_unitary(u):
        raise ValueError(f"{what} is not unitary within tolerance {UNITARY_TOL}")
    return u


def phase_invariant_distance(u: NDArray[np.complex128], v: NDArray[np.complex128]) -> float:
    """
    Frobenius distance between two unitaries minimized over a global phase.

    Computes min over |c| = 1 of ||u - c*v||_F, equal to the closed form
    sqrt(||u||_F^2 + ||v||_F^2 - 2*|Tr(u^dagger v)|).  The minimum is
    attained at c = conj(Tr(u^dagger v)) / |Tr(u^dagger v)| and is evaluated
    there directly; unlike the closed form, the difference norm does not
    cancel catastrophically when the inputs already agree up to a phase.

    Parameters
    ----------
    u, v : NDArray[np.complex128]
        (2, 2) unitary matrices (checked with :data:`UNITARY_TOL`).

    Returns
    -------
    float
        Non-negative phase-invariant distance.
    """
    u = require_unitary(u, what="first argument")
    v = require_unitary(v, what="second argument")
    overlap = np.trace(u.conj().T @ v)
    best_phase = np.conj(overlap) / abs(overlap) if abs(overlap) > 0.0 else 1.0
    return float(np.linalg.norm(u - best_phase * v, ord="fro"))
