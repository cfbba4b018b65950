"""Walker state and the coin-shift propagation kernel for one-dimensional quantum walks.

The walker lives on the integer lattice with a two-level internal coin.  One
step applies a 2x2 coin to every site's spinor and then shifts the |up>
component to j+1 and the |down> component to j-1, so an n-step walk consumes
exactly n coins.  A single kernel does all stepping.  It stores parity-compressed
amplitudes ``up``, ``dn`` of shape (..., t+1), column m holding site j = 2m - t
(the only sites that can carry amplitude), and treats leading axes as
independent walks: one walk, a batch of coin sequences, or a random ensemble.
The kernel owns its buffers and allocates nothing per step: two flat arrays
alternate as each step's output and a third holds the coin products, every
step using a reshaped prefix of them, and per-site coins are resolved once
into tables that each step slices.  A yielded step therefore lives for two
steps.  The per-step reductions live beside it, the reduced coin matrix and the
second moment about the origin, and read those arrays as they stream; this
module alone knows the column-to-site map.  :class:`WalkState` is the dense
view of one walk: a (2, 2t+1) array with the |up> amplitudes a(j) in row 0,
the |down> amplitudes b(j) in row 1, and site j at column j + t.  `evolve`
expands every step to it and `final_state` only the last.

Coin policies cover the ordered walk (one fixed coin), a prescribed coin
sequence, and randomly drawn coins, H (bit 0) or F (bit 1), that vary per
step (dynamic disorder), per site of the light cone -steps..steps (static
disorder), or both.  Random draws use numpy's seeded PCG64 generator, so
runs are reproducible bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np
from numpy.typing import NDArray

from .coins import fourier_coin, hadamard_coin, require_unitary

__all__ = [
    "WalkState",
    "InitialCoin",
    "Ordered",
    "DynamicSequence",
    "DynamicRandom",
    "StaticRandom",
    "StaticAndDynamic",
    "CoinPolicy",
    "CoinPlan",
    "initial_state",
    "evolve",
    "final_state",
    "plan_coins",
]


@dataclass(frozen=True, eq=False)
class WalkState:
    """Walker wave function after `t` steps.

    Attributes
    ----------
    t : int
        Number of steps taken so far.
    amps : NDArray[np.complex128]
        Array of shape (2, 2t+1); ``amps[0, j + t]`` is the |up> amplitude
        a(j) and ``amps[1, j + t]`` the |down> amplitude b(j).
    """

    t: int
    amps: NDArray[np.complex128]

    def __post_init__(self) -> None:
        if self.t < 0:
            raise ValueError(f"step count must be non-negative, got {self.t}")
        if self.amps.shape != (2, 2 * self.t + 1):
            raise ValueError(
                f"amplitude array has shape {self.amps.shape}, "
                f"expected (2, {2 * self.t + 1}) at t={self.t}"
            )

    @property
    def sites(self) -> NDArray[np.int64]:
        """Lattice sites j = -t .. t in ascending order."""
        return np.arange(-self.t, self.t + 1)

    def spinor(self, j: int) -> NDArray[np.complex128]:
        """(a(j), b(j)) at site j; zero outside the support window."""
        if abs(j) > self.t:
            return np.zeros(2, dtype=np.complex128)
        return self.amps[:, j + self.t].copy()

    def probabilities(self) -> NDArray[np.float64]:
        """Per-site probabilities |a(j)|^2 + |b(j)|^2, ascending j."""
        return np.sum(np.abs(self.amps) ** 2, axis=0)

    def norm(self) -> float:
        """Total probability (1 for a valid state)."""
        return float(np.sum(np.abs(self.amps) ** 2))


@dataclass(frozen=True)
class InitialCoin:
    """Initial coin state cos(theta/2)|up> + e^{i phi} sin(theta/2)|down>.

    Angles are in degrees: theta in [0, 180], phi in [0, 360).
    """

    theta_deg: float
    phi_deg: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.theta_deg <= 180.0):
            raise ValueError(f"theta must lie in [0, 180] degrees, got {self.theta_deg}")
        if not (0.0 <= self.phi_deg < 360.0):
            raise ValueError(f"phi must lie in [0, 360) degrees, got {self.phi_deg}")

    @property
    def spinor(self) -> NDArray[np.complex128]:
        th = np.deg2rad(self.theta_deg)
        ph = np.deg2rad(self.phi_deg)
        return np.array(
            [np.cos(th / 2.0), np.exp(1j * ph) * np.sin(th / 2.0)],
            dtype=np.complex128,
        )


@dataclass(frozen=True)
class Ordered:
    """Same coin at every step."""

    coin: NDArray[np.complex128]


@dataclass(frozen=True)
class DynamicSequence:
    """Coins prescribed by a symbol sequence over {H, F}, first symbol first.

    `sequence` may be a text string like ``"FFHFH"`` or any object with a
    ``text`` attribute holding one (e.g. :class:`dtqw.sequences.CoinSequence`).
    """

    sequence: Union[str, object]

    @property
    def text(self) -> str:
        seq = self.sequence
        return seq if isinstance(seq, str) else seq.text


@dataclass(frozen=True)
class DynamicRandom:
    """A fresh uniform draw of H (bit 0) or F (bit 1) at every step."""

    seed: int


@dataclass(frozen=True)
class StaticRandom:
    """One uniform draw of H (bit 0) or F (bit 1) per site of the light cone, drawn once."""

    seed: int


@dataclass(frozen=True)
class StaticAndDynamic:
    """Static per-site pattern combined with a fresh per-step pattern.

    The coin at site j on step t is H if ``s_j XOR d_t`` is 0, else F; the
    bits s_j come from `static_seed` (one per site, drawn once) and the bits
    d_t from `dynamic_seed` (one per step).  Holding either stream constant
    recovers the pure static or pure dynamic policy.
    """

    static_seed: int
    dynamic_seed: int


CoinPolicy = Union[Ordered, DynamicSequence, DynamicRandom, StaticRandom, StaticAndDynamic]


class CoinPlan:
    """Resolved coin assignment for walks of a fixed number of steps.

    The coin applied at site j on step t is
    ``alphabet[step_bits[..., t] ^ site_bits[j + steps]]``: `site_bits`
    holds one bit per site of the light cone -steps..steps, and a missing
    bit stream reads as 0, so a plan with neither applies ``alphabet[0]``
    everywhere.  Leading axes of `step_bits` index independent walks that
    share the alphabet and the site pattern.  All randomness is consumed at
    construction, so applying the plan is deterministic.
    """

    def __init__(
        self,
        steps: int,
        alphabet: NDArray[np.complex128],
        site_bits: NDArray[np.int64] | None = None,
        step_bits: NDArray[np.int64] | None = None,
    ) -> None:
        self.steps = steps
        self.alphabet = alphabet
        self.site_bits = site_bits
        self.step_bits = step_bits
        # Coins resolved once per site of the light cone, row b holding
        # alphabet[site_bits ^ b]; without site bits, one column that
        # broadcasts over every site.
        if site_bits is None:
            self._table = alphabet[:, None]
        else:
            self._table = alphabet[site_bits ^ np.arange(1 if step_bits is None else 2)[:, None]]

    def coins(self, t: int) -> NDArray[np.complex128]:
        """Coins of step t at sites -t, -t+2, .., t.

        Broadcasts as (..., 2, 2) against (..., t+1) amplitudes: one coin, one
        per walk, one per site, or both.  For a single walk this is a view.
        """
        table = self._table
        if self.site_bits is not None:
            lo = self.steps - t  # site -t in a table that starts at site -steps
            table = table[:, lo : lo + 2 * t + 1 : 2]
        if self.step_bits is None:
            return table[0]
        bits = self.step_bits[..., t]
        return table[bits] if bits.ndim else table[int(bits)]  # an int index keeps the view


def _sequence_alphabet() -> NDArray[np.complex128]:
    """The {H, F} coins indexed by bit: F -> 0, H -> 1."""
    return np.stack([fourier_coin(), hadamard_coin()])


def _sequence_plan(step_bits: NDArray[np.int64]) -> CoinPlan:
    """Plan for (..., n) bit-packed {H, F} sequences: H -> 1, F -> 0, first coin in column 0."""
    return CoinPlan(step_bits.shape[-1], alphabet=_sequence_alphabet(), step_bits=step_bits)


def plan_coins(policy: CoinPolicy, steps: int) -> CoinPlan:
    """Resolve `policy` into the explicit coin assignment for `steps` steps.

    An `Ordered` coin is checked for unitarity here; the kernel does not re-check.

    Raises
    ------
    ValueError
        If a prescribed sequence length differs from `steps` or an ordered
        coin is not unitary.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")

    if isinstance(policy, Ordered):
        return CoinPlan(steps, alphabet=require_unitary(policy.coin)[None])

    if isinstance(policy, DynamicSequence):
        text = policy.text.upper()
        if len(text) != steps:
            raise ValueError(
                f"sequence length {len(text)} does not match steps={steps}"
            )
        bad = set(text) - {"H", "F"}
        if bad:
            raise ValueError(f"sequence contains symbols outside {{H, F}}: {sorted(bad)}")
        return _sequence_plan(np.array([c == "H" for c in text], dtype=np.int64))

    if not isinstance(policy, (DynamicRandom, StaticRandom, StaticAndDynamic)):
        raise TypeError(f"unsupported coin policy: {policy!r}")
    alphabet = np.stack([hadamard_coin(), fourier_coin()])  # bit 0 -> H, bit 1 -> F

    def bits(seed: int, size: int) -> NDArray[np.int64]:
        return np.random.default_rng(seed).integers(0, 2, size=size)

    if isinstance(policy, DynamicRandom):
        return CoinPlan(steps, alphabet, step_bits=bits(policy.seed, steps))
    if isinstance(policy, StaticRandom):
        return CoinPlan(steps, alphabet, site_bits=bits(policy.seed, 2 * steps + 1))
    return CoinPlan(
        steps,
        alphabet,
        site_bits=bits(policy.static_seed, 2 * steps + 1),
        step_bits=bits(policy.dynamic_seed, steps),
    )


def _coin_shift(up, dn, c, out=None, scratch=None):
    """One step of parity-compressed walks: coin `c` on every site, then the shift.

    `c` broadcasts as (..., 2, 2): its leading axes broadcast against those
    of `up`/`dn` (..., t+1), one coin per walk, per site, or a single coin.
    Writes into `out`, a (2, ..., t+2) array, and returns its two rows:
    |up> moves one column right and |down> stays, which is j -> j+1 and
    j -> j-1 on the lattice.  `scratch`, a (2, ..., t+1) array, holds the
    coin products, which are summed in place and then copied into `out`.
    Both are allocated when not given.
    """
    if out is None:
        shape = np.broadcast_shapes(up.shape, c.shape[:-2])
        out = np.empty((2,) + shape[:-1] + (shape[-1] + 1,), dtype=np.complex128)
    if scratch is None:
        scratch = np.empty(out[:, ..., 1:].shape, dtype=np.complex128)

    def row(i, dest):
        np.multiply(c[..., i, 0], up, out=scratch[0])
        np.multiply(c[..., i, 1], dn, out=scratch[1])
        np.add(scratch[0], scratch[1], out=scratch[0])
        dest[...] = scratch[0]

    row(0, out[0, ..., 1:])
    out[0, ..., 0] = 0
    row(1, out[1, ..., :-1])
    out[1, ..., -1] = 0
    return out[0], out[1]


def _propagate(plan: CoinPlan, spinor: NDArray[np.complex128]):
    """Run every walk of `plan` from `spinor` at the origin; yield (up, dn) after each step.

    After step t the arrays have shape (..., t+1), leading axes those of
    ``plan.step_bits[..., 0]``, and column m holds site j = 2m - t.  The
    kernel allocates its buffers once: two flat ones that alternate as each
    step's output and one scratch, whose reshaped prefixes serve every step.
    A yielded pair is therefore overwritten two steps later; reduce or copy
    it before then.
    """
    batch = () if plan.step_bits is None else plan.step_bits.shape[:-1]
    column = 2 * math.prod(batch)  # elements per column of a (2, ..., width) array
    buffers = np.empty((3, column * (plan.steps + 1)), dtype=np.complex128)
    up = np.full(batch + (1,), spinor[0], dtype=np.complex128)
    dn = np.full(batch + (1,), spinor[1], dtype=np.complex128)
    for t in range(plan.steps):
        out = buffers[t % 2, : column * (t + 2)].reshape((2,) + batch + (t + 2,))
        scratch = buffers[2, : column * (t + 1)].reshape((2,) + batch + (t + 1,))
        up, dn = _coin_shift(up, dn, plan.coins(t), out, scratch)
        yield up, dn


def _coin_density(up, dn):
    """Reduced coin matrix sum_j (a, b)_j (a, b)_j^dagger over the last axis.

    Works on dense rows and on parity-compressed ones alike; leading axes
    carry through to a (..., 2, 2) result.  One walk reduces with three
    BLAS dot products.
    """
    if up.ndim == 1:
        r01 = np.vdot(dn, up)
        return np.array([[np.vdot(up, up).real, r01], [np.conj(r01), np.vdot(dn, dn).real]])
    r00 = np.sum(np.abs(up) ** 2, axis=-1)
    r01 = np.sum(up * np.conj(dn), axis=-1)
    r11 = np.sum(np.abs(dn) ** 2, axis=-1)
    return np.stack([r00, r01, np.conj(r01), r11], axis=-1).reshape(r01.shape + (2, 2))


def _second_moment(up, dn):
    """Second moment sum_j (|a_j|^2 + |b_j|^2) j^2 of parity-compressed walks.

    Column m of the (..., t+1) arrays holds site j = 2m - t; leading axes
    carry through.
    """
    t = up.shape[-1] - 1
    return (np.abs(up) ** 2 + np.abs(dn) ** 2) @ np.arange(-t, t + 1, 2.0) ** 2


def _dense(up, dn):
    """The dense (2, 2t+1) state of one walk from its (t+1,) compressed arrays."""
    t = up.shape[-1] - 1
    amps = np.zeros((2, 2 * t + 1), dtype=np.complex128)
    amps[0, ::2] = up
    amps[1, ::2] = dn
    return WalkState(t=t, amps=amps)


def initial_state(init: InitialCoin) -> WalkState:
    """Localized t=0 state: the coin spinor of `init` at the origin."""
    return WalkState(t=0, amps=init.spinor.reshape(2, 1))


def evolve(init: InitialCoin, policy: CoinPolicy, steps: int) -> list[WalkState]:
    """Run the walk and return the whole trajectory.

    Parameters
    ----------
    init : InitialCoin
        Initial coin state, placed at the origin.
    policy : CoinPolicy
        How coins are chosen; random policies are resolved once up front from
        their seeds, so identical arguments give bit-identical trajectories.
    steps : int
        Number of coin-shift applications (>= 1).  Exactly `steps` coins are
        consumed: the one-step operator is applied once per step, and
        ``trajectory[k]`` is the state after k applications.

    Returns
    -------
    list[WalkState]
        States for t = 0 .. steps.
    """
    trajectory = [initial_state(init)]
    for up, dn in _propagate(plan_coins(policy, steps), init.spinor):
        trajectory.append(_dense(up, dn))
    return trajectory


def final_state(init: InitialCoin, policy: CoinPolicy, steps: int) -> WalkState:
    """The state after `steps` steps, equal to ``evolve(init, policy, steps)[-1]``.

    Only the last step is expanded to the dense view, so memory stays
    O(steps) instead of the trajectory's O(steps^2).
    """
    for up, dn in _propagate(plan_coins(policy, steps), init.spinor):
        pass
    return _dense(up, dn)
