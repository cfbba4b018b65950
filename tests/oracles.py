"""Independent reference implementations used to cross-check the library.

The dense oracle materializes the full one-step operator on a truncated
lattice (shift matrix times block-diagonal coin) and evolves by explicit
matrix-vector products, sharing nothing with the engine's sliced stepping
except the resolved coin plan.  The table oracle writes a CLI table row by
row, the CSV through `csv.writer` (`reference_csv`) and the JSON mirror
through `io.write_json`, from rows built one tuple at a time: the route the
column-wise `io.write_table` must reproduce byte for byte.  The Kaspar-Schuster counter reaches the Lempel-Ziv complexity by
pointer arithmetic, sharing nothing with the library's substring parse.
The prefix-tree oracle is the exhaustive sweep before its last coins were
applied in closed form: it steps every sequence to depth n with the kernel,
so the closed form is checked against a route with another summation order
and another step, and `reference_propagate` also runs in np.clongdouble to give entropies
with rounding far below float64's.  `evolve` is the eager trajectory, every
state of one kernel run kept in a list, that the library's lazy one must
equal bit for bit.  `reference_similarity` is the Bhattacharyya
coefficient as a loop over the union of two supports, which the
library's intersection of site arrays must match.  Two more references
share no code with the kernel: `exact_sequence_densities` walks the
basis spinors of {H, F} sequences in Python-int Gaussian integers, and
`momentum_coin_densities` steps one translation-invariant walk on
2 steps + 2 momenta, past the sizes the dense oracle reaches.
`backward_walk` reverses a walk of any policy in np.clongdouble, so a
final state is checked against the initial spinor it came from.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from dtqw import io
from dtqw.entanglement import _entropy_bits
from dtqw.tomography import BASIS_PAIRS
from dtqw.walk import (
    CoinPlan,
    InitialCoin,
    WalkState,
    _coin_density,
    _coin_shift,
    _dense,
    _destination,
    _packed_plan,
    _propagate,
    initial_state,
    plan_coins,
)


def random_unitary(rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random 2x2 unitary via QR of a complex Ginibre matrix."""
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    return q * (r.diagonal() / np.abs(r.diagonal()))[None, :]


def random_density(rng: np.random.Generator, pure: bool = False) -> np.ndarray:
    """Random qubit density matrix from a Bloch vector (unit length if pure)."""
    v = rng.normal(size=3)
    v /= np.linalg.norm(v)
    if not pure:
        v *= rng.uniform() ** (1.0 / 3.0)
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    return 0.5 * (np.eye(2, dtype=complex) + v[0] * sx + v[1] * sy + v[2] * sz)


def random_walk_state(rng: np.random.Generator, t: int) -> WalkState:
    """Random normalized walker state honoring the parity structure."""
    amps = rng.normal(size=(2, 2 * t + 1)) + 1j * rng.normal(size=(2, 2 * t + 1))
    parity_ok = (np.arange(-t, t + 1) - t) % 2 == 0
    amps[:, ~parity_ok] = 0.0
    amps /= np.linalg.norm(amps)
    return WalkState(t=t, amps=amps)


def _index(spin: int, j: int, w: int) -> int:
    return spin * (2 * w + 1) + (j + w)


def dense_shift_matrix(w: int) -> np.ndarray:
    """Conditional displacement on the truncated lattice [-w, w].

    Moves that would leave the window are dropped; they are never exercised
    when the walk starts at the origin and runs at most w steps.
    """
    dim = 2 * (2 * w + 1)
    s = np.zeros((dim, dim), dtype=complex)
    for j in range(-w, w):
        s[_index(0, j + 1, w), _index(0, j, w)] = 1.0
    for j in range(-w + 1, w + 1):
        s[_index(1, j - 1, w), _index(1, j, w)] = 1.0
    return s


def dense_coin_block(plan: CoinPlan, t: int, w: int) -> np.ndarray:
    """Block matrix applying plan's step-t coin at every site of [-w, w]."""
    dim = 2 * (2 * w + 1)
    block = np.zeros((dim, dim), dtype=complex)
    step_bit = 0 if plan.step_bits is None else plan.step_bits[t]
    for j in range(-w, w + 1):
        site_bit = 0 if plan.site_bits is None else plan.site_bits[j + plan.steps]
        coin = plan.alphabet[step_bit ^ site_bit] / np.sqrt(2.0) ** plan.scaled  # unit coins
        for sp_out in range(2):
            for sp_in in range(2):
                block[_index(sp_out, j, w), _index(sp_in, j, w)] = coin[sp_out, sp_in]
    return block


def dense_trajectory(init: InitialCoin, policy, steps: int) -> list[np.ndarray]:
    """Evolve by explicit dense operator products on the [-steps, steps] window."""
    w = steps
    plan = plan_coins(policy, steps)
    shift = dense_shift_matrix(w)
    vec = np.zeros(2 * (2 * w + 1), dtype=complex)
    spinor = init.spinor
    vec[_index(0, 0, w)] = spinor[0]
    vec[_index(1, 0, w)] = spinor[1]
    out = [vec]
    for t in range(steps):
        vec = shift @ (dense_coin_block(plan, t, w) @ vec)
        out.append(vec)
    return out


def evolve(init: InitialCoin, policy, steps: int) -> list[WalkState]:
    """The eager trajectory: the states t = 0 .. steps of one kernel run, all kept in a list."""
    plan = plan_coins(policy, steps)
    blocks = zip(_propagate(plan, init.spinor), plan.scales()[1:])
    return [initial_state(init)] + [_dense(up, dn, q, scale) for (up, dn, q), scale in blocks]


def reference_propagate(plan: CoinPlan, spinor: np.ndarray, dtype=complex):
    """Yield (up, dn) after each step, allocating fresh arrays at every step.

    `_coin_shift`'s arithmetic written plainly: gather each site's coin from
    the plan's bits (the exact entries of a scaled plan), form c00*up +
    c01*dn and c10*up + c11*dn, and pad with a zero column to shift.  Where
    the plan's scale falls by more than a step adds, the rows are multiplied
    by the power of two that takes it off, as the kernel's rescale does.
    The engine must reproduce its values bit for bit, `_phase_shift` too,
    whose multiplies by 1 or i are exact; only the sign of a zero may
    differ.  With `dtype` np.clongdouble
    the same coins and spinor, promoted exactly, are stepped in extended
    precision.
    """
    batch = () if plan.step_bits is None else plan.step_bits.shape[:-1]
    alphabet = plan.alphabet.astype(dtype)
    scales = plan.scales()
    up = np.full(batch + (1,), spinor[0], dtype=dtype)
    dn = np.full(batch + (1,), spinor[1], dtype=dtype)
    for t in range(plan.steps):
        idx = 0 if plan.step_bits is None else plan.step_bits[..., t, None]
        if plan.site_bits is not None:
            lo = plan.steps - t
            idx = idx ^ plan.site_bits[lo : lo + 2 * t + 1 : 2]
        c = alphabet[idx]
        row0, row1 = c[..., 0, 0] * up + c[..., 0, 1] * dn, c[..., 1, 0] * up + c[..., 1, 1] * dn
        zero = np.zeros(row0.shape[:-1] + (1,), dtype=dtype)
        up, dn = np.concatenate([zero, row0], axis=-1), np.concatenate([row1, zero], axis=-1)
        if drop := scales[t] + plan.scaled - scales[t + 1]:
            up, dn = up * 2.0 ** (-drop / 2), dn * 2.0 ** (-drop / 2)
        yield up, dn


def extended_entropies(plan: CoinPlan, spinor: np.ndarray) -> np.ndarray:
    """Final entropies of every walk of `plan`, stepped and reduced in np.clongdouble."""
    for up, dn in reference_propagate(plan, spinor, np.clongdouble):
        pass
    unscale = np.ldexp(np.longdouble(1), -plan.scales()[-1])
    r00 = np.sum(np.abs(up) ** 2, axis=-1) * unscale
    r11 = np.sum(np.abs(dn) ** 2, axis=-1) * unscale
    r01 = np.sum(up * np.conj(dn), axis=-1) * unscale
    lam = 0.5 + np.sqrt(((r00 - r11) / 2) ** 2 + np.abs(r01) ** 2)
    rest = 1 - lam
    return (-lam * np.log2(lam) - rest * np.log2(np.where(rest > 0, rest, 1))).astype(np.float64)


def exact_sequence_densities(ints, n: int, spinor: np.ndarray) -> np.ndarray:
    """Final reduced coin matrices of the {H, F} sequences packed in `ints` (bit k is 1 where coin k is H), as (walks, 2, 2) np.clongdouble.

    The two basis spinors are stepped in Python-int Gaussian integers, held
    as real and imaginary parts, with sqrt(2) H = [[1, 1], [1, -1]] and
    sqrt(2) F = [[1, i], [i, 1]], so after n steps their amplitudes are
    exactly 2^(n/2) psi_e(j).  Their Gram blocks G_xy[c, d] = sum_j
    psi_x(j)[c] conj(psi_y(j)[d]) are then exact integers, and rho = 2^-n
    sum_xy s_x conj(s_y) G_xy is formed in np.clongdouble from the initial
    spinor s: the only rounding is extended precision's.
    """
    h = np.array([[(int(v) >> k) & 1 for k in range(n)] for v in ints], dtype=bool)
    zero = np.zeros((len(h), 1), dtype=object)
    walks = []
    for e in (0, 1):
        # Real and imaginary parts of the |up> rows a and the |down> rows b, each (walks, sites) of Python ints.
        ar, br = (np.full((len(h), 1), int(e == c), dtype=object) for c in (0, 1))
        ai = bi = zero
        for k in range(n):
            is_h = h[:, k, None]
            # sqrt(2) H: (a + b, a - b); sqrt(2) F: (a + i b, i a + b).
            up = (ar + np.where(is_h, br, -bi), ai + np.where(is_h, bi, br))
            dn = (np.where(is_h, ar - br, br - ai), np.where(is_h, ai - bi, ar + bi))
            (ar, ai), (br, bi) = (np.hstack([zero, x]) for x in up), (np.hstack([x, zero]) for x in dn)
        walks.append(((ar, ai), (br, bi)))
    rho = np.zeros((len(h), 2, 2), dtype=np.clongdouble)
    for x, psi_x in enumerate(walks):
        for y, psi_y in enumerate(walks):
            weight = np.clongdouble(spinor[x]) * np.conj(np.clongdouble(spinor[y]))
            for c, (xr, xi) in enumerate(psi_x):
                for d, (yr, yi) in enumerate(psi_y):
                    re = np.sum(xr * yr + xi * yi, axis=1).astype(np.longdouble)
                    im = np.sum(xi * yr - xr * yi, axis=1).astype(np.longdouble)
                    rho[:, c, d] += weight * (re + 1j * im)
    return rho * np.ldexp(np.longdouble(1), -n)


def exact_entropies(rho: np.ndarray) -> np.ndarray:
    """Entropies in bits of (..., 2, 2) density matrices, computed in the precision of `rho`."""
    lam = 0.5 + np.sqrt(((rho[..., 0, 0].real - rho[..., 1, 1].real) / 2) ** 2 + np.abs(rho[..., 0, 1]) ** 2)
    rest = 1 - lam
    return -lam * np.log2(lam) - rest * np.log2(np.where(rest > 0, rest, 1))


def momentum_coin_densities(plan: CoinPlan, spinor: np.ndarray) -> np.ndarray:
    """rho_C(t), t = 0 .. steps, of one translation-invariant walk (no site bits), from momentum space.

    psi_k(t+1) = diag(e^{-ik}, e^{ik}) C_t psi_k(t) on N = 2 steps + 2
    momenta k = 2 pi m / N, and by Parseval rho_C(t) = (1/N) sum_k psi_k
    psi_k^dagger: exact, since the amplitudes are trigonometric polynomials
    of degree at most steps.  The coins are the plan's own (the exact-entry
    table of a scaled plan), and its scale is read as the kernel's is: the
    rows are multiplied by a power of two where the scale falls by more
    than a step adds, and rho_C(t) by 2^-s_t.  The sums over k run in
    np.clongdouble, so that no BLAS dot product, whose summation order
    depends on the CPU kernel, rounds them.
    """
    n = 2 * plan.steps + 2
    k = 2 * np.pi * np.arange(n) / n
    shift = np.exp(-1j * k), np.exp(1j * k)
    up, dn = np.full(n, spinor[0]), np.full(n, spinor[1])
    scales = plan.scales()
    rho = np.empty((plan.steps + 1, 2, 2), dtype=complex)
    for t in range(plan.steps + 1):
        if t:
            c = plan.alphabet[0 if plan.step_bits is None else plan.step_bits[t - 1]]
            up, dn = shift[0] * (c[0, 0] * up + c[0, 1] * dn), shift[1] * (c[1, 0] * up + c[1, 1] * dn)
            if drop := scales[t - 1] + plan.scaled - scales[t]:
                up, dn = up * 2.0 ** (-drop / 2), dn * 2.0 ** (-drop / 2)
        r00, r01, r11 = (np.sum(x * np.conj(y), dtype=np.clongdouble) for x, y in ((up, up), (up, dn), (dn, dn)))
        rho[t] = np.array([[r00, r01], [np.conj(r01), r11]]) * 2.0 ** -scales[t] / n
    return rho


def prefix_tree_entropies(n: int, spinor: np.ndarray) -> list[np.ndarray]:
    """Final entropies of all {H, F} sequences of each length t = 0..n, stepping each to its end.

    Entry t holds the 2^t sequences of length t, sequence v at index v (first
    coin in the least significant bit).  The first 10 coins are stepped as
    one kernel batch of every prefix, a leaf block of walks; every later
    coin is stepped depth-first on that block by `_coin_shift`, with the
    columns of the plan's exact coins, and each node writes the slice of
    the enumeration that its coins select.  Every entry is what the
    exhaustive sweep of its length computed before the closed form.
    """
    out = [np.empty(1 << t) for t in range(n + 1)]
    breadth = min(n, 10)
    # Walk v of one batch is prefix v, so after step t its first 2^t walks are every prefix.
    plan = _packed_plan(np.arange(1 << breadth), breadth)
    columns = [coin.T[..., None, None] for coin in plan.alphabet]  # by bit: [c0, c1], each [i, site, walk]
    up, dn = np.reshape(spinor, (2, 1, 1))
    out[0][:] = _entropy_bits(_coin_density(up, dn))
    # Rows after t exact-entry steps hold 2^(t/2) times the amplitudes.
    for t, (up, dn, q) in enumerate(_propagate(plan, spinor), 1):
        out[t][:] = _entropy_bits(_coin_density(up[..., : 1 << t], dn[..., : 1 << t], q[: 1 << t]) * 2.0**-t)
    phi = np.stack([up, dn * q])  # out of the kernel's phase frame
    # One zeroed state buffer per depth, which its two children fill in turn.
    level = {t: np.zeros((2, t + 1, phi.shape[2]), dtype=np.complex128) for t in range(breadth + 1, n + 1)}
    scratch = np.empty((2, n, phi.shape[2]), dtype=np.complex128)

    def descend(phi, t, offset):
        out[t][offset : offset + phi.shape[2]] = _entropy_bits(_coin_density(*phi) * 2.0**-t)
        for bit in (0, 1) if t < n else ():
            _coin_shift(*phi, columns[bit], _destination(level[t + 1]), scratch[:, : t + 1])
            descend(level[t + 1], t + 1, offset + (bit << t))

    descend(phi, breadth, 0)
    del descend
    return out


def backward_walk(plan: CoinPlan, state: WalkState) -> tuple[np.ndarray, float]:
    """Step `state`, a walk's state after the `plan.steps` steps of `plan`, back to t = 0 in np.clongdouble.

    Each step back is the inverse shift (|up> from j to j - 1, |down> from
    j to j + 1), then C_t^dagger at every site.  A scaled plan's exact
    coins give sqrt(2) C^dagger, whose growth is taken out by an exact 1/2
    every other step (and one sqrt(1/2) for an odd count), so the only
    rounding is extended precision's.  Only the sites of the walk's parity
    are stepped, within the light cone, which shrinks by one site a side
    per step.  Returns the spinor at the origin and the norm of the
    amplitude that left the light cone: for the exact state after the
    plan's steps these are the initial spinor and 0, and the unitary
    steps back keep the distance from them to the state's error.
    """
    steps, scaled = plan.steps, plan.scaled
    coins = np.conj(plan.alphabet.astype(np.clongdouble)).swapaxes(-1, -2)
    up, dn = (np.asarray(row[::2], dtype=np.clongdouble) for row in state.amps)  # sites -steps, .., steps
    lost = np.longdouble(0)
    for k, t in enumerate(reversed(range(steps))):
        lost += (abs(up[0]) ** 2 + abs(dn[-1]) ** 2) / 2 ** (scaled * (k % 2))  # leave sites -t-2 and t+2
        a, b = up[1:], dn[:-1]
        bits = 0 if plan.step_bits is None else plan.step_bits[t]
        if plan.site_bits is not None:
            bits = bits ^ plan.site_bits[steps - t : steps + t + 1 : 2]
        c = coins[bits]
        up, dn = c[..., 0, 0] * a + c[..., 0, 1] * b, c[..., 1, 0] * a + c[..., 1, 1] * b
        if scaled and k % 2:
            up, dn = up / 2, dn / 2
    if scaled and steps % 2:
        up, dn = up * np.sqrt(np.longdouble(0.5)), dn * np.sqrt(np.longdouble(0.5))
    return np.array([up[0], dn[0]]), float(np.sqrt(lost))


def as_dict(dist) -> dict[int, float]:
    """A position distribution as {site: probability}."""
    return {int(j): float(p) for j, p in zip(dist.sites, dist.probabilities)}


def reference_similarity(p_exp, p_th) -> float:
    """Bhattacharyya coefficient by a Python loop over the union of the two supports, unvalidated."""
    a = as_dict(p_exp)
    b = as_dict(p_th)
    overlap = 0.0
    for site in set(a) | set(b):
        overlap += np.sqrt(max(a.get(site, 0.0), 0.0) * max(b.get(site, 0.0), 0.0))
    return float(min(overlap, 1.0))


def project_to_physical(rho: np.ndarray) -> np.ndarray:
    """Nearest physical state: negative eigenvalues clamped, trace renormalized."""
    vals, vecs = np.linalg.eigh(rho)
    vals = np.clip(vals, 0.0, None)
    if vals.sum() <= 0.0:
        return np.eye(2, dtype=np.complex128) / 2.0
    vals = vals / vals.sum()
    return (vecs * vals) @ vecs.conj().T


def packed(text: str) -> int:
    """A coin sequence's packed integer: bit k is 1 where symbol k is H."""
    return sum(1 << k for k, symbol in enumerate(text) if symbol == "H")


def kaspar_schuster_complexity(bits: str) -> int:
    """Lempel-Ziv (1976) complexity by the Kaspar-Schuster scan, PRA 36, 842 (1987).

    Pointer arithmetic over one string, with no substring search: `l` is the
    length of the parsed prefix, and the current component is extended while
    it matches, at some start `i` < `l`, a copy that may overlap it.  A
    trailing component that never turned novel still counts.
    """
    n = len(bits)
    if n == 1:
        return 1
    c, l, i, k, k_max = 1, 1, 0, 1, 1
    while True:
        if bits[i + k - 1] == bits[l + k - 1]:
            k += 1
            if l + k > n:
                return c + 1
        else:
            k_max = max(k, k_max)
            i += 1
            if i == l:  # no earlier start reproduces the component: it ends here
                c += 1
                l += k_max
                if l + 1 > n:
                    return c
                i, k, k_max = 0, 1, 1
            else:
                k = 1


def embed_state(state: WalkState, w: int) -> np.ndarray:
    """Embed a WalkState into the dense oracle's vector layout."""
    vec = np.zeros(2 * (2 * w + 1), dtype=complex)
    for idx, j in enumerate(state.sites):
        vec[_index(0, int(j), w)] = state.amps[0, idx]
        vec[_index(1, int(j), w)] = state.amps[1, idx]
    return vec


def dephased_limit_entropy(spinor: np.ndarray, n_momenta: int = 2001) -> float:
    """Long-time entanglement entropy of the ordered Hadamard walk, in bits.

    Independent frequency-domain route: diagonalize the one-step operator in
    momentum space, U(k) = diag(e^{-ik}, e^{ik}) H; the reduced coin matrix
    converges (Riemann-Lebesgue on the oscillating cross terms) to the
    band-diagonal mixture integrated over the Brillouin zone.
    """
    h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
    rho = np.zeros((2, 2), dtype=complex)
    momenta = np.linspace(-np.pi, np.pi, n_momenta, endpoint=False)
    for k in momenta:
        u_k = np.diag([np.exp(-1j * k), np.exp(1j * k)]) @ h
        _, vecs = np.linalg.eig(u_k)
        for s in range(2):
            v = vecs[:, s] / np.linalg.norm(vecs[:, s])
            rho += (abs(np.vdot(v, spinor)) ** 2) * np.outer(v, v.conj())
    rho /= n_momenta
    lam = np.clip(np.linalg.eigvalsh(rho), 0.0, 1.0)
    return float(-sum(x * np.log2(x) for x in lam if x > 0.0))


def reference_csv(path: Path, header, rows) -> None:
    """Write rows under a header with `csv.writer` (excel dialect), floats in 12 digits."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(
                [io.fmt_float(v) if isinstance(v, (float, np.floating)) else v for v in row]
            )


def reference_table(
    directory: Path, stem: str, header, rows: list[tuple], head: dict, kept=("csv", "json")
) -> None:
    """Write ``stem.csv`` and ``stem.json`` (those whose suffix is `kept`) from whole rows."""
    if "csv" in kept:
        reference_csv(directory / f"{stem}.csv", header, rows)
    if "json" in kept:
        io.write_json(directory / f"{stem}.json", {**head, "columns": header, "records": rows})


def reference_trajectory_rows(trajectory: list[WalkState]) -> list[tuple]:
    """One (t, j, re_a, im_a, re_b, im_b, probability) tuple per site of every state."""
    rows = []
    for state in trajectory:
        probs = state.probabilities()
        for idx, j in enumerate(state.sites):
            a, b = state.amps[0, idx], state.amps[1, idx]
            rows.append((state.t, int(j), a.real, a.imag, b.real, b.imag, float(probs[idx])))
    return rows


def reference_counts_rows(counts) -> list[tuple]:
    """One (j, basis, outcome, count) tuple per site and projector outcome."""
    rows = []
    for row, j in enumerate(counts.sites):
        for pair, (plus, minus) in enumerate(BASIS_PAIRS):
            rows.append((int(j), plus + minus, plus, float(counts.counts[row, 2 * pair])))
            rows.append((int(j), plus + minus, minus, float(counts.counts[row, 2 * pair + 1])))
    return rows
