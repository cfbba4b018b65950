"""Coin sequences over {H, F}: parsing, complexity, and sequence-space sweeps.

A length-n coin sequence packs into an integer (H -> 1, F -> 0, first-applied
symbol in the least significant bit), which makes exhausting all 2^n length-n
sequences cheap.  Sweeps evaluate the final-step entanglement entropy of
every sequence into one array, and the report is computed once from it,
summed in fixed blocks of 2^14 entries, so reports are bit-identical no
matter how the kernel batches the walks.

The exhaustive sweep applies the last k = 7 coins of every sequence in
closed form.  Those coins depend only on the step, so they act on the state
phi after the first n - k coins, the parent, as a fixed linear map: the
final reduced coin matrix of each of the 2^k sequences that share a parent
is linear in the parent's lag blocks R(d) = sum_c phi(c) phi(c + d)^dagger,
d = 0..k.  One real matrix, built once per process from the kernel run over
the 2^k suffixes, maps those 8(k+1) numbers to the Bloch vectors of all 2^k
leaves, and one BLAS product per chunk of parents gives them.  The suffixes
step with the exact-entry {H, F} coins of :mod:`dtqw.walk`, so their
amplitudes are Gaussian integers and the matrix is exact.  It and the
parents' rows carry the kernel's scale, 2^(n/2) in all, which one exact
multiply of the matrix by 2^-n per sweep takes out.  The parents
themselves are stepped by the kernel's {H, F} step, `walk._phase_shift`,
as a binary prefix tree: the first 10 coins breadth-first, both branches
at once, into a leaf block of 2^10 walks, and the later parent coins
depth-first on that block.  Like the kernel, the tree keeps each node's
|down> rows in the phase frame q of its last coin, so a step is one
complex multiply by x = w q, read from the node's last two coins, and a
leaf block takes q back out before its lag features.  Per sequence this
costs 24(k+1) multiply-adds of the product and about 2(n-k+1)/2^k site
updates of the tree, against about 2(n+1) site updates of a prefix tree
that steps every sequence to the end.  Random
sequences share no prefixes, so the sampled sweep steps each batch from the
origin into its own slice of the result; a batch holds as many walks as the
kernel's row budget allows, so its buffers stay in cache.  Both sweeps run
in the calling thread.

Sequence complexity uses the classic left-to-right vocabulary parse: a word
keeps growing while it still occurs as a substring of the sequence read so
far (up to, and including self-overlap with, everything before the word's
last character); the first character that makes the word novel ends it, and
a still-reproducible tail counts as a final word.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from importlib import resources

import numpy as np
from numpy.typing import NDArray

from .entanglement import (
    _eigenvalue_entropy,
    _entropy_bits,
    coin_density_curve,
    von_neumann_entropy,
)
from .walk import (
    DynamicSequence,
    InitialCoin,
    _batch_walks,
    _destination,
    _final_coin_density,
    _packed_plan,
    _phase_shift,
    _propagate,
)

__all__ = [
    "CoinSequence",
    "SweepReport",
    "ENHANCER_20",
    "parse_sequence",
    "parse_sequence_lines",
    "to_bits",
    "vocabulary",
    "lz_parse",
    "lz_complexity",
    "entropy_of_sequence",
    "exhaustive_sweep",
    "sampled_sweep",
    "best_sequences",
    "interval_weighted_mean",
    "reference_sequences",
]

#: The 20-symbol sequence used throughout as the reference entanglement
#: enhancer for the {51 deg, 0 deg} initial state (applied left to right).
ENHANCER_20 = "FFHFHFHHFFFFFHFHHHHH"

#: Sequences whose final entropy is within this distance of the sweep
#: maximum are reported as maximizers, each once.
ARGMAX_TOL = 1e-12

#: Entries per partial sum of a sweep report, independent of the kernel's
#: batches.  It fixes the summation order, so a different block would move
#: reported means and stds in the last bit.
_SUM_BLOCK = 1 << 14

#: The exhaustive sweep applies the last _SUFFIX_BITS coins of every
#: sequence in closed form, from its parent's lag features.
_SUFFIX_BITS = 7

#: The exhaustive sweep's prefix tree steps its first _LEAF_BITS parent
#: coins breadth-first; every later one advances a leaf block of
#: 2^_LEAF_BITS walks.
_LEAF_BITS = 10

#: Parents per product with the suffix map: smaller than a leaf block,
#: which keeps each product's leaves small beside the sweep's result.
_CHUNK = 128

#: A sweep holds at most 2^_SWEEP_BITS entropies: all 2^n sequences for
#: n <= _SWEEP_BITS, or as many samples.
_SWEEP_BITS = 24


@dataclass(frozen=True)
class CoinSequence:
    """Ordered coin symbols over the alphabet {H, F}, first-applied first."""

    text: str

    def __post_init__(self) -> None:
        if not self.text:
            raise ValueError("coin sequence must contain at least one symbol")
        for k, ch in enumerate(self.text):
            if ch not in ("H", "F"):
                raise ValueError(
                    f"illegal symbol {ch!r} at index {k}; alphabet is {{H, F}}"
                )

    def __len__(self) -> int:
        return len(self.text)

    @classmethod
    def from_int(cls, value: int, n: int) -> "CoinSequence":
        """The length-n sequence packed in `value`, first-applied symbol in bit 0."""
        if not 0 <= value < (1 << n):
            raise ValueError(f"value {value} does not fit in {n} bits")
        return cls("".join("H" if (value >> k) & 1 else "F" for k in range(n)))


def parse_sequence(text: str) -> CoinSequence:
    """Parse a coin-sequence string (case-insensitive) over {H, F}.

    The first character is the coin applied on step 1.  Raises ValueError
    naming the offending position for any other character.
    """
    return CoinSequence(text.upper())


def _as_sequence(seq: CoinSequence | str) -> CoinSequence:
    return seq if isinstance(seq, CoinSequence) else parse_sequence(seq)


# ---------------------------------------------------------------------------
# Lempel-Ziv complexity
# ---------------------------------------------------------------------------


def to_bits(seq: CoinSequence | str) -> str:
    """Binary text form of a coin sequence (H -> '1', F -> '0')."""
    return _as_sequence(seq).text.replace("H", "1").replace("F", "0")


def vocabulary(bits: str) -> set[str]:
    """All (contiguous, non-empty) substrings of a binary string."""
    n = len(bits)
    return {bits[i:j] for i in range(n) for j in range(i + 1, n + 1)}


def lz_parse(seq: CoinSequence | str) -> list[str]:
    """Left-to-right vocabulary parse of a sequence, in binary form.

    Scanning from the left, the current word ``s[i..j]`` keeps extending
    while it occurs as a substring of ``s[1..j-1]`` (occurrences may overlap
    the word itself); the character that first makes it novel completes the
    word.  A trailing word that never turned novel still counts.

    Accepts a coin sequence or a raw '0'/'1' string.
    """
    if isinstance(seq, str) and set(seq) <= {"0", "1"} and seq:
        bits = seq
    else:
        bits = to_bits(seq)
    n = len(bits)
    words: list[str] = []
    i = 0
    while i < n:
        length = 1
        while i + length <= n and bits[i : i + length] in bits[: i + length - 1]:
            length += 1
        length = min(length, n - i)
        words.append(bits[i : i + length])
        i += length
    return words


def lz_complexity(seq: CoinSequence | str) -> int:
    """Number of words in the left-to-right vocabulary parse of `seq`."""
    return len(lz_parse(seq))


# ---------------------------------------------------------------------------
# Entropy of single sequences
# ---------------------------------------------------------------------------


def entropy_of_sequence(init: InitialCoin, seq: CoinSequence | str) -> float:
    """Final-step entanglement entropy of the walk driven by `seq`."""
    seq = _as_sequence(seq)
    return von_neumann_entropy(coin_density_curve(init, DynamicSequence(seq), len(seq))[-1])


@functools.lru_cache(maxsize=None)
def _suffix_map(k):
    """The (3 * 2^k, 8(k+1)) real map from a parent's lag features to its leaves.

    The last k coins of a sequence walk depend only on the step, so suffix s
    maps a parent state phi to the final state psi(c) = sum_m T_m phi(c - m),
    with 2x2 transfer blocks T_m[:, e] the amplitudes at column m after
    stepping basis spinor e through s.  The final reduced coin matrix is then
    rho = sum_{m,m'} T_m R(m - m') T_{m'}^dagger, linear in the lag blocks
    R(d) = sum_c phi(c) phi(c + d)^dagger, where R(-d) = R(d)^dagger.  Column
    f of the map is the real linear coefficient of feature f (the real and
    imaginary parts of R(d)[c, e], d = 0..k, in `_lag_features` order);
    row (o, s) gives suffix s's Bloch components (rho00 - rho11)/2,
    Re rho01, Im rho01 for o = 0, 1, 2.  The suffixes step with the
    exact-entry coins, so the blocks are Gaussian integers, 2^(k/2) times
    the amplitudes, and the map is exact: it gives 2^k times the Bloch
    components.  It is read-only: every sweep of a process shares it.
    """
    plan = _packed_plan(np.arange(1 << k), k)
    blocks = np.empty((1 << k, k + 1, 2, 2), dtype=np.complex128)  # [s, m, a, e]
    for e, spinor in enumerate(np.eye(2, dtype=np.complex128)):
        for up, dn, q in _propagate(plan, spinor):
            pass
        blocks[..., e] = np.stack([up, dn * q]).T
    # coef[part, d, c, e, s, a, b]: rho_ab of suffix s per unit real (part 0)
    # or imaginary (part 1) part of R(d)[c, e].  Lag d pairs T_{m+d} with
    # T_m; lag -d enters as the adjoint of R(d), with c and e swapped.
    coef = np.empty((2, k + 1, 2, 2, 1 << k, 2, 2), dtype=np.complex128)
    for d in range(k + 1):
        late, early = blocks[:, d:], blocks[:, : k + 1 - d]
        ahead = np.einsum("smac,smbe->cesab", late, early.conj())
        behind = np.einsum("smae,smbc->cesab", early, late.conj()) if d else 0.0
        coef[0, d] = ahead + behind
        coef[1, d] = 1j * (ahead - behind)
    bloch = np.stack(
        [(coef[..., 0, 0].real - coef[..., 1, 1].real) / 2, coef[..., 0, 1].real, coef[..., 0, 1].imag],
        axis=-2,
    )
    kmap = bloch.reshape(8 * (k + 1), 3 << k).T
    kmap.flags.writeable = False
    return kmap


def _lag_features(phi, k):
    """Lag blocks R(d) = sum_c phi(c) phi(c + d)^dagger, d = 0..k, of each walk, as real columns.

    `phi` is a kernel block [c, column, walk], so each sum runs over whole
    rows of walks.  Column r of the (8(k+1), rows) result holds the real
    parts of R(d)[c, e] in (d, c, e) order, then the imaginary parts.
    """
    _, width, rows = phi.shape
    conj = phi.conj()
    lags = np.zeros((k + 1, 2, 2, rows), dtype=np.complex128)
    for d in range(min(k, width - 1) + 1):
        np.einsum("csr,esr->cer", phi[:, : width - d], conj[:, d:], out=lags[d])
    return np.concatenate([lags.real, lags.imag]).reshape(8 * (k + 1), -1)


def _tree_entropies(n, spinor, out):
    """Write the final entropies of all 2^n sequences into `out`, indexed by packed integer.

    The last k = min(_SUFFIX_BITS, n) coins are applied in closed form; the
    first n - k, the parent coins, are stepped as a prefix tree.  Sequence
    ``parent + (s << (n - k))``, with last coins s, lands at ``leaves[s,
    parent]`` of the (2^k, 2^(n-k)) view of `out`.  The first
    min(n - k, _LEAF_BITS) coins are stepped breadth-first, the rest
    depth-first on leaf blocks; each leaf block's lag features meet the
    suffix map in products of _CHUNK parents.  The parents step with
    `_phase_shift` on the w of F and H that the plan of one step resolves,
    so their rows hold 2^(depth/2) times the amplitudes, and with the map's
    2^k the leaves' scale is 2^n.  Their |down> rows are kept in the
    kernel's phase frame q, the w of each node's last coin, so a step's
    x = w q is read from the node's last two coins; a leaf block's rows are
    multiplied by q before its lag features.
    """
    k = min(_SUFFIX_BITS, n)
    depth = n - k
    kmap = np.ldexp(_suffix_map(k), -n)
    _, w = next(_packed_plan(np.arange(2), 1).phases())  # q_1 = w = [i, 1]: F is bit 0, H bit 1
    leaves = out.reshape(1 << k, -1)
    breadth = min(depth, _LEAF_BITS)
    phi, q = np.array(spinor).reshape(2, 1, 1), np.ones(1, dtype=w.dtype)
    for t in range(breadth):
        # The F walks, then the H walks: walk index = old walk + (bit << t),
        # so the last coin of walk v is bit t of v.
        block = np.zeros((2, t + 2, 2, 1 << t), dtype=np.complex128)
        _phase_shift(*phi[:, :, None], w[:, None] * q, *_destination(block))
        phi, q = block.reshape(2, t + 2, -1), np.repeat(w, 1 << t)

    # One zeroed state buffer per depth, which its two children fill in
    # turn: leaf states allocated and freed on every step made malloc
    # return memory to the system and fault it in again, which about
    # doubled the first sweep in a fresh process.
    rows = phi.shape[2]
    chunk = min(_CHUNK, rows)
    level = {t: np.zeros((2, t + 1, rows), dtype=np.complex128) for t in range(breadth + 1, depth + 1)}
    dests = {t: tuple(_destination(block)) for t, block in level.items()}  # (new_up, new_dn) rows

    def descend(phi, t, offset, q):
        if t == depth:
            np.multiply(phi[1], q, out=phi[1])  # out of the frame, in place: no step reads a leaf block
            features = _lag_features(phi, k)
            for c in range(offset, offset + rows, chunk):
                z, x, y = (kmap @ features[:, c - offset : c - offset + chunk]).reshape(3, -1, chunk)
                leaves[:, c : c + chunk] = _eigenvalue_entropy(0.5 + np.sqrt(z * z + x * x + y * y))
        else:
            for bit in (0, 1):
                _phase_shift(phi[0], phi[1], w[bit] * q, *dests[t + 1])
                descend(level[t + 1], t + 1, offset + (bit << t), w[bit])

    descend(phi, breadth, 0, q)
    # `descend` refers to itself through its closure; breaking that cycle
    # frees `level` by reference count instead of at the next garbage
    # collection, which repeated in-process sweeps would wait on.
    del descend


@dataclass(frozen=True)
class SweepReport:
    """Entropy statistics over a set of coin sequences of one length.

    The field order is the key order of ``sweep_report.json``
    (`io.sweep_report_dict`), which leaves out `entropies`.
    """

    n: int
    init: InitialCoin
    count: int
    mean_entropy: float
    std_entropy: float
    std_error: float | None
    threshold: float
    fraction_above: float
    bin_edges: NDArray[np.float64]
    bin_counts: NDArray[np.int64]
    max_entropy: float
    argmax_sequences: list[str]
    sampled: bool
    seed: int | None
    samples: int | None
    wall_time_s: float
    entropies: NDArray[np.float64] | None


def _sweep_edges(bins, threshold: float, workers: int) -> NDArray[np.float64]:
    """Histogram edges for `bins`, after checking the options both sweeps share."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if not np.isfinite(threshold):
        raise ValueError(f"threshold must be finite, got {threshold}")
    if isinstance(bins, (int, np.integer)):
        if bins < 1:
            raise ValueError(f"bin count must be >= 1, got {bins}")
        return np.linspace(0.0, 1.0, int(bins) + 1)
    edges = np.asarray(bins, dtype=np.float64)
    finite = edges.ndim == 1 and len(edges) >= 2 and np.all(np.isfinite(edges))
    if not finite or np.any(np.diff(edges) <= 0):
        raise ValueError("bin edges must be a finite, strictly increasing 1-D sequence")
    return edges


def _report(
    entropies, n, init, edges, threshold, started, ints=None, seed=None, samples=None
) -> SweepReport:
    """The report of a sweep's final entropies; `ints[i]` packs sequence i (None: i itself)."""
    count = entropies.size
    # One float sum per block, added in block order, keeps the reported mean
    # and std bit for bit; one np.sum of the array rounds differently (from
    # n = 17 on).
    total = total_sq = 0.0
    for k in range(0, count, _SUM_BLOCK):
        block = entropies[k : k + _SUM_BLOCK]
        total += float(np.sum(block))
        total_sq += float(np.sum(block**2))
    mean = total / count
    std = float(np.sqrt(max(total_sq / count - mean * mean, 0.0)))
    top = float(entropies.max())
    winners = np.flatnonzero(entropies >= top - ARGMAX_TOL)
    sampled = ints is not None
    if sampled:
        # Samples are drawn with replacement: list each maximizer once.
        winners = np.unique(ints[winners])
    return SweepReport(
        n=n,
        init=init,
        count=count,
        mean_entropy=mean,
        std_entropy=std,
        threshold=threshold,
        fraction_above=int(np.count_nonzero(entropies > threshold)) / count,
        bin_edges=edges,
        bin_counts=np.histogram(entropies, bins=edges)[0],
        max_entropy=top,
        argmax_sequences=sorted(CoinSequence.from_int(int(v), n).text for v in winners),
        sampled=sampled,
        std_error=(std / np.sqrt(count)) if sampled else None,
        seed=seed,
        samples=samples,
        wall_time_s=time.perf_counter() - started,
        entropies=None if sampled else entropies,
    )


def exhaustive_sweep(
    init: InitialCoin,
    n: int,
    bins=12,
    threshold: float = 0.9,
    workers: int = 1,
) -> SweepReport:
    """Final-step entropy statistics over all 2^n coin sequences.

    Parameters
    ----------
    init : InitialCoin
        Initial coin state for every walk.
    n : int
        Sequence length; must satisfy 1 <= n <= 24 (the full enumeration has
        2^n walks).  For longer sequences use :func:`sampled_sweep`.
    bins : int or sequence of float
        Histogram bin count (uniform on [0, 1]) or explicit finite, strictly
        increasing edges.
    threshold : float
        `fraction_above` reports the fraction of sequences with entropy
        strictly above this finite value.
    workers : int
        Checked (>= 1) and otherwise unused: the sweep runs in the calling
        thread.

    Returns
    -------
    SweepReport
        With `entropies[v]` holding the entropy of the sequence whose packed
        integer form is v.
    """
    if n < 1:
        raise ValueError(f"sequence length must be >= 1, got {n}")
    if n > _SWEEP_BITS:
        raise ValueError(
            f"exhaustive enumeration of 2^{n} sequences refused (limit n <= "
            f"{_SWEEP_BITS}); use sampled_sweep instead"
        )
    edges = _sweep_edges(bins, threshold, workers)
    started = time.perf_counter()
    entropies = np.empty(1 << n)
    _tree_entropies(n, init.spinor, entropies)
    return _report(entropies, n, init, edges, threshold, started)


def sampled_sweep(
    init: InitialCoin,
    n: int,
    samples: int,
    seed: int,
    bins=12,
    threshold: float = 0.9,
    workers: int = 1,
) -> SweepReport:
    """Monte Carlo version of :func:`exhaustive_sweep` for long sequences.

    Draws `samples` sequences i.i.d. uniformly (with replacement) from the
    2^n possibilities using the seeded PCG64 generator, so runs reproduce
    bit for bit.  The report carries the standard error of the mean.
    `samples` must lie in [1, 2^24], the most entropies an exhaustive sweep
    holds; a larger count is refused before any draw.  The samples run in
    the calling thread, in batches of one kernel row budget, 2^14 // (n + 1)
    walks, each stepped from the origin into its own slice of one result
    array.  `workers` is checked (>= 1) and otherwise unused.
    The other parameters are as in the exhaustive sweep.
    """
    if not 1 <= n <= 62:
        raise ValueError(f"sequence length must lie in [1, 62], got {n}")
    if not 1 <= samples <= 1 << _SWEEP_BITS:
        raise ValueError(f"samples must lie in [1, 2^{_SWEEP_BITS}], got {samples}")
    edges = _sweep_edges(bins, threshold, workers)
    spinor = init.spinor
    started = time.perf_counter()
    ints = np.random.default_rng(seed).integers(
        0, 1 << n, size=samples, dtype=np.uint64
    )
    entropies = np.empty(samples)
    size = _batch_walks(n)
    for start in range(0, samples, size):
        stop = start + size
        plan = _packed_plan(ints[start:stop], n)
        entropies[start:stop] = _entropy_bits(_final_coin_density(plan, spinor))
    return _report(entropies, n, init, edges, threshold, started, ints, seed, samples)


def best_sequences(report: SweepReport, k: int) -> list[CoinSequence]:
    """The k sequences with the highest final entropy in an exhaustive report.

    Ties are broken by lexicographic text order ('F' sorts before 'H').
    """
    if report.sampled or report.entropies is None:
        raise ValueError("best_sequences needs a report from exhaustive_sweep")
    if not 1 <= k <= report.count:
        raise ValueError(f"k must lie in [1, {report.count}], got {k}")
    entropies = report.entropies
    # Every entry tied with the k-th largest stays a candidate; only they are sorted.
    kth = np.partition(entropies, entropies.size - k)[entropies.size - k]
    ints = np.flatnonzero(entropies >= kth).astype(np.uint64)
    # Text order reads the first-applied symbol first, i.e. the packed word
    # with its bits reversed.
    rank = np.zeros_like(ints)
    for b in range(report.n):
        rank |= ((ints >> np.uint64(b)) & np.uint64(1)) << np.uint64(report.n - 1 - b)
    order = ints[np.lexsort((rank, -entropies[ints]))]
    return [CoinSequence.from_int(int(v), report.n) for v in order[:k]]


def interval_weighted_mean(
    entropies, interval_rates, samples_per_interval: int = 2
) -> float:
    """Average entanglement from per-interval measurements.

    Each measured entropy is weighted by the occupancy rate of the histogram
    interval it belongs to, divided by the number of measurements taken per
    interval: sum_i S_i * P_i / samples_per_interval.
    """
    entropies = np.asarray(entropies, dtype=np.float64)
    rates = np.asarray(interval_rates, dtype=np.float64)
    if entropies.shape != rates.shape:
        raise ValueError("entropies and interval_rates must have equal length")
    if samples_per_interval < 1:
        raise ValueError("samples_per_interval must be >= 1")
    return float(np.sum(entropies * rates) / samples_per_interval)


def parse_sequence_lines(text: str, source: str) -> list[tuple[CoinSequence, int | None]]:
    """Parse ``SEQUENCE [expected]`` lines: one sequence and an optional count each.

    Blank lines and lines starting with ``#`` are skipped.  Raises ValueError
    prefixed ``source:line:`` for a malformed line, and when no line holds a
    sequence.
    """
    entries = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) > 2:
            raise ValueError(f"{source}:{lineno}: expected 'SEQUENCE [expected]'")
        try:
            seq = parse_sequence(parts[0])
        except ValueError as exc:
            raise ValueError(f"{source}:{lineno}: {exc}") from exc
        try:
            expected = int(parts[1]) if len(parts) == 2 else None
        except ValueError as exc:
            raise ValueError(f"{source}:{lineno}: bad expected count: {exc}") from exc
        entries.append((seq, expected))
    if not entries:
        raise ValueError(f"{source}: no sequences found")
    return entries


def reference_sequences() -> list[tuple[CoinSequence, int]]:
    """The bundled 12 benchmark sequences with their quoted complexities."""
    name = "benchmark_sequences.txt"
    return parse_sequence_lines(resources.files(f"{__package__}.data").joinpath(name).read_text(), name)
