"""Walker state and the coin-shift propagation kernel for one-dimensional quantum walks.

The walker lives on the integer lattice with a two-level internal coin.  One
step applies a 2x2 coin to every site's spinor and then shifts the |up>
component to j+1 and the |down> component to j-1, so an n-step walk consumes
exactly n coins.  A single kernel does all stepping.  It stores parity-compressed
amplitudes as rows up and dn of shape (t+1, ...), row m holding site
j = 2m - t (the only sites that can carry amplitude), and treats trailing
axes as independent walks: one walk, a batch of coin sequences, or a random
ensemble.  Callers with many walks step them in batches of one budget of
amplitude rows, walks x (steps + 1), so that a batch's buffers stay in a
core's cache.

The {H, F} coins of every policy, an `Ordered` H or F too, have exact
entries, sqrt(2) H = [[1, 1], [1, -1]] and sqrt(2) F = [[1, i], [i, 1]], and
their 1/sqrt(2) is carried as an exact power of two: after step t the rows
hold 2^(s/2) times the walk's amplitudes, with the integer scale s_t from
`CoinPlan.scales`.  From a basis spinor such a walk holds Gaussian
integers, exact in float64 until they pass 2^53 (after about 106 steps);
later steps round without bias, so the norm does not drift, as it would by
1.8e-16 a step with fl(1/sqrt(2)).  So that |a|^2 stays in range, the
kernel multiplies its rows by the exact 2^-_RESCALE every 2 * _RESCALE
steps, and s_t = t mod 2 * _RESCALE.  The reductions, the reduced coin
matrix and the second moment, take the scale out with an exact 2^-s; a
dense state is multiplied by 2^(-s/2), one rounding when s is odd.  An
`Ordered` coin other than H or F is used as given, with s = 0.

The coin kind picks the step.  With w = 1 for H and w = i for F, sqrt(2) C
= [[1, w], [w, -w^2]] maps (a, b) to (a + u, w (a - u)) with u = w b.  The
kernel keeps the |down> rows in a phase frame, b / q: q_0 = 1, and after
step t, q is that step's w at the site the amplitude came from, so the
trailing w is never multiplied in.  An {H, F} step is then u = x (b / q),
up = a + u, dn = a - u with x = w q in {1, i, -1}: one complex multiply
(`_phase_shift`), for one walk, a site pattern or a batch alike, on the
(x, q) that `CoinPlan.phases` resolves from the plan's bits.  Multiplying
by 1, i or -1 is exact, so every value read after applying q is the one
that multiplying w in at every step gives; only the sign of a zero can
differ.  Any other coin steps with `_coin_shift`, its two columns times
(a, b) and one add, in the frame q = 1.  All else a step needs is resolved
once per run: two zeroed buffers, checked against a size limit first,
alternate as each step's output, and their edge rows stay zero because no
step writes them; a `_coin_shift` plan adds a third for its scratch.  One
walk steps on 1-D slices of the buffers' rows, a batch on flat blocks
reshaped per step.  The kernel yields views (up, dn) with their frame q,
the rows 1-D and contiguous for one walk, that live for two steps.  The
per-step reductions live beside it and read those arrays as they
stream.  The second moment about the origin (float-view squares and
one dot product) and the diagonal of the reduced coin matrix read only
|b|^2, so they ignore q; the matrix's rho01 (three BLAS dot products for
one walk, einsums over the sites for a batch) takes one exact multiply by
conj(q).  The loops that finish them over a run, scale taken out, live
here too: other modules read finished matrices, moments and states, and
only the exhaustive sweep's prefix tree (:mod:`dtqw.sequences`) reads the
row-to-site map, frame and scale.  Every coin plan is built here and
resolved into coins by `CoinPlan.phases`, for the exhaustive sweep's
prefix tree too, so no other module reads a coin alphabet.  :class:`WalkState` is the dense view of one walk: a (2, 2t+1)
array with the |up> amplitudes a(j) in row 0, the |down> amplitudes b(j)
in row 1, and site j at column j + t.  `evolve` returns a trajectory whose
states are expanded to this view as they are read, so a walk costs
O(steps) memory however much of it is read; reading step t by index
re-runs the walk up to t, so a caller that needs many states iterates.

Coin policies cover the ordered walk (one fixed coin), a prescribed coin
sequence, and randomly drawn coins, H (bit 0) or F (bit 1), that vary per
step (dynamic disorder), per site of the light cone -steps..steps (static
disorder), or both.  Random draws use numpy's seeded PCG64 generator, so
runs are reproducible bit for bit.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator, Sequence
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
    share the alphabet.  An alphabet of exact {H, F} coins, sqrt(2) times
    unitary ones of the form [[1, w], [w, -w^2]], is `scaled`: each step then
    grows the rows by sqrt(2), which :meth:`scales` books, and the kernel
    steps it with `_phase_shift` on the (x, q) of :meth:`phases`.  Any other
    alphabet is used as given, one coin with no bits, by `_coin_shift`.  All
    randomness is consumed at construction, so applying the plan is
    deterministic.  Only this module builds plans.

    Raises
    ------
    ValueError
        For plans the kernel cannot step: a batch of walks with site bits,
        or bits on an alphabet that is not scaled.
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
        # The exact {H, F} coins are [[1, w], [w, -w^2]] with |w| = 1, sqrt(2) times unitary ones.
        w = alphabet[:, 1, 0]
        form = np.stack([np.ones_like(w), w, w, -w * w], -1).reshape(-1, 2, 2)
        self.scaled = bool(np.array_equal(alphabet, form) and np.all(np.abs(w) == 1))
        if self.batch and site_bits is not None:
            raise ValueError("a batch of walks cannot have site bits")
        if not self.scaled and (site_bits is not None or step_bits is not None):
            raise ValueError("only an alphabet of exact {H, F} coins takes coin bits")

    @property
    def batch(self) -> tuple[int, ...]:
        """Shape of the walk axes: those of ``step_bits[..., 0]``, () for one walk."""
        return () if self.step_bits is None else self.step_bits.shape[:-1]

    def scales(self) -> NDArray[np.int64]:
        """The scale s_t of every t = 0 .. steps: the kernel's rows after step t hold 2^(s_t / 2) times the amplitudes.

        A scaled plan's steps add 1 each, and the kernel's rescale every
        2 * _RESCALE steps takes 2 * _RESCALE off, so s_t = t mod 2 * _RESCALE;
        any other plan keeps s_t = 0.
        """
        t = np.arange(self.steps + 1)
        return t % (2 * _RESCALE) if self.scaled else np.zeros_like(t)

    def phases(self) -> Iterator:
        """Yield (x_t, q_{t+1}) for each step t = 0 .. steps-1 of a scaled plan, for `_phase_shift` and the kernel's frame.

        With w_t = 1 for H and i for F, the kernel holds the |down> rows
        divided by their frame q_t: q_0 = 1, and q_{t+1} = w_t at site
        j + 1, where the amplitude at j came from.  Step t multiplies those
        rows by x_t = w_t q_t, which is 1, i or -1.  A batch's x and q are
        (walks...) rows, x a product of two rows of one table of w.  One
        walk's are 0-d arrays, or with site bits rows over the sites -t,
        -t+2, .., t, each a contiguous slice of a table built here once:
        q_{t+1}, of t + 2 entries, of a copy of the w per step bit and per
        parity of the first site's index, and x_t, of t + 1 entries, of
        that copy for t = 0, else of its product with the copy of the other
        parity under the previous bit, one per parity for each pair of step
        bits (b_t, b_{t-1}) that occurs.  The top entry of each q
        multiplies the zero top row of |down>.
        """
        w = self.alphabet[:, 1, 0]
        if self.batch:
            # Indexed by contiguous bits, the table is contiguous too.
            q = np.ones((), dtype=w.dtype)
            for row in w[np.ascontiguousarray(np.moveaxis(self.step_bits, -1, 0))]:
                yield row * q, row
                q = row
            return
        bits = [0] * self.steps if self.step_bits is None else self.step_bits.tolist()
        if self.site_bits is None:
            frames = np.concatenate([[1], w])  # q_t: 1, then the w of bit b at frames[b + 1]
            products = w[:, None] * frames
            # 0-d arrays: numpy's cheapest scalar operand.
            xs = [[products[b, f, ...] for f in range(len(frames))] for b in range(len(w))]
            qs = [frames[b + 1, ...] for b in range(len(w))]
            frame = 0
            for b in bits:
                yield xs[b][frame], qs[b]
                frame = b + 1
            return
        # Step t reads every other site from index steps - t; the bit past
        # the light cone gives the last q its top entry.  copies[b][p] holds
        # the w of bit b at the sites of parity p, and xs[b][f][p] the x of
        # bit b in frame f from those sites: the copy itself for q_0 = 1
        # (f = 0), else its product with the copy of bit f - 1 from the next
        # site, of the other parity.
        padded = np.append(self.site_bits, 0)
        copies = [[w[padded[p::2] ^ b] for p in (0, 1)] for b in (0, 1)]
        xs = [[copies[b], None, None] for b in (0, 1)]
        for b, c in set(zip(bits[1:], bits)):
            xs[b][c + 1] = [copies[b][p][: self.steps + 1 - p] * copies[c][1 - p][p:] for p in (0, 1)]
        frame = 0
        for t, b in enumerate(bits):
            p, k = (self.steps - t) % 2, (self.steps - t) // 2
            yield xs[b][frame][p][k : k + t + 1], copies[b][p][k : k + t + 2]
            frame = b + 1


def _sequence_alphabet() -> NDArray[np.complex128]:
    """The {H, F} coins with exact entries, sqrt(2) F and sqrt(2) H, indexed by bit: F -> 0, H -> 1."""
    return np.array([[[1, 1j], [1j, 1]], [[1, 1], [1, -1]]], dtype=np.complex128)


def _packed_plan(ints: NDArray[np.integer], n: int) -> CoinPlan:
    """Plan whose walk k runs the length-n sequence packed in ``ints[k]`` (< 2^62), unpacked step-major."""
    bits = (ints.astype(np.intp) >> np.arange(n)[:, None]) & 1
    return CoinPlan(n, _sequence_alphabet(), step_bits=bits.T)


def plan_coins(policy: CoinPolicy, steps: int) -> CoinPlan:
    """Resolve `policy` into the explicit coin assignment for `steps` steps.

    An `Ordered` coin is checked for unitarity here; the kernel does not
    re-check.  One equal to `hadamard_coin()` or `fourier_coin()`, entry for
    entry, is planned as its exact sqrt(2) H or sqrt(2) F.

    Raises
    ------
    ValueError
        If a prescribed sequence length differs from `steps`, an ordered
        coin is not unitary, or one walk of `steps` steps would pass the
        kernel's buffer limit; the last is checked before any coin is drawn.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    _check_buffers(1, steps)

    if isinstance(policy, Ordered):
        coin = require_unitary(policy.coin)
        units = (fourier_coin(), hadamard_coin())
        exact = [e for u, e in zip(units, _sequence_alphabet()) if np.array_equal(coin, u)]
        return CoinPlan(steps, alphabet=(exact[0] if exact else coin)[None])

    if isinstance(policy, DynamicSequence):
        text = policy.text.upper()
        if len(text) != steps:
            raise ValueError(
                f"sequence length {len(text)} does not match steps={steps}"
            )
        bad = set(text) - {"H", "F"}
        if bad:
            raise ValueError(f"sequence contains symbols outside {{H, F}}: {sorted(bad)}")
        bits = np.array([c == "H" for c in text], dtype=np.int64)
        return CoinPlan(steps, _sequence_alphabet(), step_bits=bits)

    if not isinstance(policy, (DynamicRandom, StaticRandom, StaticAndDynamic)):
        raise TypeError(f"unsupported coin policy: {policy!r}")
    alphabet = _random_alphabet()
    if isinstance(policy, DynamicRandom):
        return CoinPlan(steps, alphabet, step_bits=_random_bits(policy.seed, steps))
    if isinstance(policy, StaticRandom):
        return CoinPlan(steps, alphabet, site_bits=_random_bits(policy.seed, 2 * steps + 1))
    return CoinPlan(
        steps,
        alphabet,
        site_bits=_random_bits(policy.static_seed, 2 * steps + 1),
        step_bits=_random_bits(policy.dynamic_seed, steps),
    )


def _random_alphabet() -> NDArray[np.complex128]:
    """The exact-entry coins of the random policies indexed by bit: H -> 0, F -> 1."""
    return _sequence_alphabet()[::-1]


def _random_bits(seed: int, size: int) -> NDArray[np.int64]:
    """The `size` uniform coin bits a random policy draws from `seed`."""
    return np.random.default_rng(seed).integers(0, 2, size=size)


def _dynamic_plan(seeds: Sequence[int], steps: int) -> CoinPlan:
    """Plan whose walk k is ``plan_coins(DynamicRandom(seeds[k]), steps)``, stacked on the walk axis."""
    bits = np.stack([_random_bits(seed, steps) for seed in seeds])
    return CoinPlan(steps, _random_alphabet(), step_bits=bits)


#: Bytes the kernel may take for one run, counted as three buffers: the
#: two outputs of every plan and the scratch that only `_coin_shift` plans
#: allocate, so that a walk's limit does not depend on its coins.
_BUFFER_LIMIT = 1 << 28

#: A scaled walk's rows are multiplied by 2^-_RESCALE after every
#: 2 * _RESCALE steps, so they hold at most 2^(_RESCALE - 1/2) times the
#: amplitudes and |a|^2 j^2 stays far inside the float range (it would pass
#: it near step 1025 unscaled).
_RESCALE = 256


def _check_buffers(walks: int, steps: int) -> None:
    """Raise ValueError if `walks` walks of `steps` steps would pass :data:`_BUFFER_LIMIT`."""
    if (size := 3 * 2 * walks * (steps + 1) * 16) > _BUFFER_LIMIT:
        raise ValueError(f"{walks} walks of steps={steps} need {size} bytes, over {_BUFFER_LIMIT}")


#: Amplitude rows, walks x (steps + 1), in one batch of the batched callers
#: (sampled sweeps, random ensembles).  A batch's two buffers then take
#: 64 B per row, 1 MB, and stay in a core's cache as they stream.
_BATCH_ROWS = 1 << 14


def _batch_walks(steps: int) -> int:
    """Walks of `steps` steps per batch: one budget of rows, and at least one walk."""
    return max(1, _BATCH_ROWS // (steps + 1))


def _destination(out):
    """The (2, width - 1, ...) view of `out`, a C-contiguous (2, width, ...) block [up, dn], that `_coin_shift` writes.

    |up> moves one row down (j -> j+1) and |down> stays (j -> j-1), so the
    destinations, |up> rows 1.. and |down> rows ..width-2, are one
    contiguous run of `out`; only the edge rows, |up> row 0 and |down> row
    width - 1, lie outside it.
    """
    n = out[0, 0].size  # elements per amplitude row: one per walk
    return out.reshape(-1)[n : out.size - n].reshape((2, out.shape[1] - 1) + out.shape[2:])


def _phase_shift(up, dn, x, new_up, new_dn):
    """One step of parity-compressed walks whose coins are sqrt(2) H (w = 1) or sqrt(2) F (w = i): coin, then shift.

    `up` holds the |up> amplitudes a and `dn` the |down> amplitudes b in
    their frame, b / q, as (width, ...) rows, and `x` = w q (`CoinPlan.phases`)
    broadcasts against them.  sqrt(2) C = [[1, w], [w, -w^2]] maps (a, b)
    to (a + u, w (a - u)) with u = w b = x (b / q).  The next frame is w,
    so the step writes a + u into `new_up` and a - u into `new_dn`, the
    (width, ...) rows of the next output that take |up> rows 1.. and
    |down> rows ..width-1, after one complex multiply.  u is written into
    `new_dn` first, where a - u then replaces it element by element.  The
    edge rows are never written, so a caller zeroes each output buffer once.
    """
    np.multiply(dn, x, out=new_dn)
    np.add(up, new_dn, out=new_up)
    np.subtract(up, new_dn, out=new_dn)


def _coin_shift(up, dn, columns, dest, scratch):
    """One step of a walk under one coin of any kind, an `Ordered` coin other than H or F: coin, then shift.

    With the coin's columns c0, c1 = `columns` as (2, 1), c0 * up + c1 * dn
    is written into `dest`, the (2, width, ...) `_destination` view of the
    next output, and `scratch` holds the c1 products.  Its frame stays q = 1.
    """
    c0, c1 = columns
    np.multiply(c0, up, out=dest)
    np.multiply(c1, dn, out=scratch)
    np.add(dest, scratch, out=dest)


def _rescale(rows):
    """Multiply kernel rows by the exact 2^-_RESCALE through their float views."""
    for row in rows:
        floats = row.view(np.float64)
        np.multiply(floats, 2.0**-_RESCALE, out=floats)


def _propagate(plan: CoinPlan, spinor: NDArray[np.complex128]):
    """Run every walk of `plan` from `spinor` at the origin; yield (up, dn, q) after each step.

    After step t, `up` and `dn` are (t+2, ...) views with trailing axes
    ``plan.batch``, row m holding site j = 2m - t, and 2^(s_t / 2) times
    the amplitudes (`CoinPlan.scales`); one walk's are 1-D and contiguous.
    `dn` holds the |down> amplitudes in their frame: ``dn * q`` are the
    amplitudes, with q, in {1, i}, the 0-d frame of one walk, a (walks...)
    row for a batch, or a site pattern's (t+2,) row (`CoinPlan.phases`).
    A scaled plan steps with `_phase_shift` on its phases, any other with
    `_coin_shift` on its one coin's columns, in the frame q = 1.  Two
    zeroed buffers, allocated once per run, alternate as each step's output
    [up, dn], whose edge rows stay zero because no step writes them; a
    third holds `_coin_shift`'s scratch, for its plans only.  One walk's
    buffer holds its |up> row and then its |down> row, each steps + 1
    long, and a step writes and yields 1-D slices of them.  A batch's
    output is a prefix of its buffer, half rows per part, reshaped per
    step, so that each part is one contiguous run and numpy buffers only
    the broadcast product by x.  A scaled plan's rows are multiplied by
    2^-_RESCALE after every 2 * _RESCALE steps, exactly but for results
    below the normal range.  The yielded views are overwritten two steps
    later: reduce or copy them before then.  The buffers are allocated
    once, or ValueError raised if :func:`_check_buffers` refuses them.
    """
    batch, steps, scaled = plan.batch, plan.steps, plan.scaled
    walks = math.prod(batch)
    _check_buffers(walks, steps)
    buffers = np.zeros((2 if scaled else 3, 2 * (steps + 1) * walks), dtype=np.complex128)
    phi = np.empty((2, 1) + batch, dtype=np.complex128)
    phi[0], phi[1] = spinor
    up, dn = phi
    if scaled:
        coins = plan.phases()  # (x, q)
    else:
        columns = np.ascontiguousarray(plan.alphabet[0].T[..., None])  # c0, c1 as (2, 1)
        coins = itertools.repeat((columns, np.ones((), dtype=np.complex128)), steps)
    if not batch:
        outs = buffers.reshape(-1, 2, steps + 1)
        rows = [tuple(out) for out in outs[:2]]
        dests = [_destination(out) for out in outs[:2]]  # `_coin_shift` writes (2, width) views
        for t, (coin, q) in enumerate(coins, 1):
            out_up, out_dn = rows[t % 2]
            if scaled:
                _phase_shift(up, dn, coin, out_up[1 : t + 1], out_dn[:t])
            else:
                _coin_shift(up, dn, coin, dests[t % 2][:, :t], outs[2][:, :t])
            up, dn = out_up[: t + 1], out_dn[: t + 1]
            if scaled and t % (2 * _RESCALE) == 0:
                _rescale((up, dn))
            yield up, dn, q
        return
    # A batch's plan has step bits, so it is scaled.
    flats = list(buffers)
    for t, (x, q) in enumerate(coins, 1):
        block, half = flats[t % 2], (t + 1) * walks
        out_up = block[:half].reshape((t + 1,) + batch)
        out_dn = block[half : 2 * half].reshape((t + 1,) + batch)
        _phase_shift(up, dn, x, out_up[1:], out_dn[:-1])
        up, dn = out_up, out_dn
        if t % (2 * _RESCALE) == 0:
            _rescale((up, dn))
        yield up, dn, q


def _coin_dots(up, dn):
    """The entries rho00, rho01, rho11 of one walk's reduced coin matrix, by three BLAS dot products."""
    return np.vdot(up, up).real, np.vdot(dn, up), np.vdot(dn, dn).real


def _coin_density(up, dn, q=1):
    """Reduced coin matrix sum_j (a, b)_j (a, b)_j^dagger over the first axis, with b = dn * q.

    Works on dense rows and on parity-compressed ones alike; trailing axes
    carry through to a (..., 2, 2) result, and the frame `q` (see
    `_propagate`) is a scalar or one entry per walk.  One walk reduces with
    `_coin_dots`.  A batch, whose last axis must be contiguous, sums the
    squares of its float views (re, im), each walk's two sums then added,
    and the products a conj(dn), each by one einsum over the sites.  Only
    rho01 reads q: it is multiplied by conj(q), which is exact.
    """
    out = np.empty(up.shape[1:] + (2, 2), dtype=np.complex128)
    if up.ndim == 1:
        out[0, 0], out[0, 1], out[1, 1] = _coin_dots(up, dn)
    else:
        for k, rows in enumerate((up, dn)):
            sums = np.einsum("j...,j...->...", floats := rows.view(np.float64), floats)
            out[..., k, k] = sums[..., 0::2] + sums[..., 1::2]
        out[..., 0, 1] = np.einsum("j...,j...->...", up, np.conj(dn))
    out[..., 0, 1] *= np.conj(q)
    out[..., 1, 0] = np.conj(out[..., 0, 1])
    return out


def _moment_rows(steps: int, batch: tuple[int, ...] = ()):
    """The rows (squares, scratch) that `_second_moment` reads and writes, resolved once per run of `steps` steps.

    squares[r] holds the squared sites up to `steps`, each twice: j^2, j^2
    for j = r - steps, r - steps + 2, .., r + steps.  Doubled, a run of a
    row lines up with the float view (re, im, re, im, ..) of one walk's
    amplitudes.  The two scratch rows are as wide as the float view of
    (steps+1, *batch) amplitudes, `batch` the walk axes.
    """
    squares = (np.arange(-steps, steps + 2.0) ** 2).reshape(-1, 2).T
    scratch = np.empty((2, steps + 1) + batch, dtype=np.complex128).view(np.float64)
    return tuple(np.repeat(squares, 2, axis=1)), tuple(scratch)


def _second_moment(up, dn, rows):
    """Second moment sum_j (|a_j|^2 + |b_j|^2) j^2 of parity-compressed walks.

    Row m of the (t+1,) or (t+1, walks) arrays holds site j = 2m - t, and
    their last axis must be contiguous.  Each amplitude's float view (re,
    im) is squared into the scratch of `rows`, `_moment_rows(steps,
    batch)`, so no |z| = hypot(re, im) is taken and squared again, and
    summed against a run of its squares[(steps - t) % 2] by one dot
    product.  One walk's floats pair up along the sites, which the doubled
    weights take; a batch's pair up along its last axis, so every other
    weight is taken there and each walk's two sums are added.  The result
    differs from the sum of |a_j|^2 + |b_j|^2 only in the last bits.
    """
    squares, (sq, dn_sq) = rows
    n = len(up)
    rest = len(squares[0]) // 2 - n  # steps - t
    weights = squares[rest % 2][rest - rest % 2 : rest - rest % 2 + 2 * n]
    up, dn = up.view(np.float64), dn.view(np.float64)
    sq, dn_sq = sq[: len(up)], dn_sq[: len(up)]
    np.square(up, out=sq)
    np.square(dn, out=dn_sq)
    sq += dn_sq
    if sq.ndim == 1:
        return weights.dot(sq)
    sums = weights[::2] @ sq
    return sums[0::2] + sums[1::2]


def _dense(up, dn, q, scale):
    """The dense (2, 2t+1) state of one walk from its (t+1,) compressed arrays in frame `q` at scale s = `scale`.

    The |down> row is multiplied by its frame q (`_propagate`), exactly.
    The rows hold 2^(s/2) times the amplitudes, so each is multiplied by
    2^(-s/2): exact for even s, one rounding for odd s.  Before that the
    state gets +0 added, which turns the -0 that the multiplies by 1, i
    or -1 can leave into the +0 a written state shows.
    """
    t = len(up) - 1
    amps = np.zeros((2, 2 * t + 1), dtype=np.complex128)
    amps[0, ::2] = up
    np.multiply(dn, q, out=amps[1, ::2])
    amps += 0.0
    if scale:
        floats = amps.view(np.float64)
        np.multiply(floats, 2.0 ** (-scale / 2), out=floats)
    return WalkState(t=t, amps=amps)


def _coin_curve(plan: CoinPlan, spinor: NDArray[np.complex128]) -> NDArray[np.complex128]:
    """The reduced coin matrix of one walk at every t = 0 .. steps, (steps+1, 2, 2), unscaled by the exact 2^-s_t."""
    steps = plan.steps
    # Each step's three dot products, rho00, rho01, rho11, go into one flat
    # list, and the |down> rows' frame q_t into another: rho01 is multiplied
    # by conj(q_t) at the end.  A site pattern's row of frames instead
    # multiplies the |down> row, into a scratch row, before the dots.
    dots, frames = list(_coin_dots(spinor[:1], spinor[1:])), [1]
    framed = np.empty(steps + 1, dtype=np.complex128)
    for up, dn, q in _propagate(plan, spinor):
        if q.ndim:
            dn, q = np.multiply(dn, q, out=framed[: len(dn)]), 1
        dots.extend(_coin_dots(up, dn))
        frames.append(q)
    # Flat rows (rho00, rho01, rho10, rho11), rho10 = conj(rho01).
    flat = np.empty((steps + 1, 4), dtype=np.complex128)
    flat[:, [0, 1, 3]] = np.fromiter(dots, np.complex128, 3 * (steps + 1)).reshape(-1, 3)
    flat[:, 1] *= np.conj(np.array(frames, dtype=np.complex128))
    np.conjugate(flat[:, 1], out=flat[:, 2])
    # Row t sums products of rows at scale s_t: an exact 2^-s_t takes it out.
    floats = flat.view(np.float64)
    floats *= np.ldexp(1.0, -plan.scales())[:, None]
    return flat.reshape(steps + 1, 2, 2)


def _final_coin_density(plan: CoinPlan, spinor: NDArray[np.complex128]) -> NDArray[np.complex128]:
    """The reduced coin matrix of every walk of `plan` after its last step, (..., 2, 2), unscaled by the exact 2^-s."""
    for up, dn, q in _propagate(plan, spinor):
        pass
    return _coin_density(up, dn, q) * np.ldexp(1.0, -plan.scales()[-1])


def _moments(plan: CoinPlan, spinor: NDArray[np.complex128]) -> NDArray[np.float64]:
    """m2 after each step of every walk of `plan`, shape (steps, ...), unscaled by the exact 2^-s_t."""
    rows = _moment_rows(plan.steps, plan.batch)
    m2 = np.empty((plan.steps,) + plan.batch)
    for t, (up, dn, _) in enumerate(_propagate(plan, spinor)):  # |b|^2 does not read the frame
        m2[t] = _second_moment(up, dn, rows)
    m2 *= np.ldexp(1.0, -plan.scales()[1:]).reshape((-1,) + (1,) * len(plan.batch))
    return m2


def _states_and_moments(plan: CoinPlan, spinor: NDArray[np.complex128]) -> Iterator[tuple[WalkState, np.float64]]:
    """(state, m2) of one walk after each step t = 1 .. steps, from one kernel run.

    m2 is reduced from the rows, as in `_moments`, not from the state, which an odd scale rounds.
    """
    rows, scales = _moment_rows(plan.steps), plan.scales()
    for t, (up, dn, q) in enumerate(_propagate(plan, spinor), 1):
        yield _dense(up, dn, q, scales[t]), _second_moment(up, dn, rows) * np.ldexp(1.0, -scales[t])


def initial_state(init: InitialCoin) -> WalkState:
    """Localized t=0 state: the coin spinor of `init` at the origin."""
    return WalkState(t=0, amps=init.spinor.reshape(2, 1))


class _Trajectory(Sequence):
    """The states t = 0 .. steps of one walk, expanded from a kernel run as they are read; none is kept."""

    def __init__(self, init: InitialCoin, plan: CoinPlan) -> None:
        self._init = init
        self._plan = plan

    def __len__(self) -> int:
        return self._plan.steps + 1

    def _states(self, ts: range) -> Iterator[tuple[int, WalkState]]:
        """(t, state) for every t of `ts`, ascending, from one kernel run up to max(ts)."""
        if 0 in ts:
            yield 0, initial_state(self._init)
        blocks = _propagate(self._plan, self._init.spinor)
        scales = self._plan.scales()
        for t, (up, dn, q) in zip(range(1, max(ts, default=0) + 1), blocks):
            if t in ts:
                yield t, _dense(up, dn, q, scales[t])

    def __iter__(self) -> Iterator[WalkState]:
        for _, state in self._states(range(len(self))):
            yield state

    def __getitem__(self, index):
        ts = range(len(self))[index]  # IndexError out of range; negative indices count from the end
        if isinstance(ts, int):
            ((_, state),) = self._states(range(ts, ts + 1))
            return state
        states = dict(self._states(ts))
        return [states[t] for t in ts]


def evolve(init: InitialCoin, policy: CoinPolicy, steps: int) -> Sequence[WalkState]:
    """Run the walk and return its trajectory, the states t = 0 .. steps.

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
    Sequence[WalkState]
        A read-only sequence of ``steps + 1`` states, computed as they are
        read; memory stays O(steps).  Iterating runs the walk once and
        yields a new state per step.  An index (negative ones too) re-runs
        the walk up to that step, and a slice returns a list of the states
        it selects, so a caller that needs many states should iterate.

    Raises
    ------
    ValueError
        At the call, as :func:`plan_coins` does for a bad `steps` or sequence.
    """
    return _Trajectory(init, plan_coins(policy, steps))


def final_state(init: InitialCoin, policy: CoinPolicy, steps: int) -> WalkState:
    """The state after `steps` steps, ``evolve(init, policy, steps)[-1]``; O(steps) memory."""
    return evolve(init, policy, steps)[-1]
