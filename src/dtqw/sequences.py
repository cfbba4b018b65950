"""Coin sequences over {H, F}: parsing, complexity, and sequence-space sweeps.

A length-n coin sequence packs into an integer (H -> 1, F -> 0, first-applied
symbol in the least significant bit), which makes exhausting all 2^n length-n
sequences cheap.  Sweeps evaluate the final-step entanglement entropy of
every sequence with the coin-and-shift step of :mod:`dtqw.walk`, advancing
many sequences as independent walks in one call, and reduce the results in
fixed batches of 2^14 consecutive packed integers, so reports are
bit-identical no matter how many worker processes share the job.

The exhaustive sweep walks the enumeration as a binary prefix tree, so
sequences that share their first coins share that work.  The first 10 coins
are stepped breadth-first, both branches at once, which leaves 2^10 walks
whose row index packs those coins.  The later coins are stepped depth-first
on that leaf block of 2^10 walks, one coin per call, and each finished leaf
writes its entropies to the slice of the enumeration that its later coins
select.  This costs about 2(n+1) site updates per sequence instead of the
n^2/2 of stepping every sequence from the origin.  A task is an aligned
power-of-two range of whole batches; a sweep with one task (one worker, or
fewer than 2^17 sequences, where a pool costs more than it saves) runs in
process without a worker pool.  Random sequences share no
prefixes, so the sampled sweep steps each batch from the origin.

Sequence complexity uses the classic left-to-right vocabulary parse: a word
keeps growing while it still occurs as a substring of the sequence read so
far (up to, and including self-overlap with, everything before the word's
last character); the first character that makes the word novel ends it, and
a still-reproducible tail counts as a final word.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from importlib import resources

import numpy as np
from numpy.typing import NDArray

from .entanglement import _entropy_bits, coin_density_curve, von_neumann_entropy
from .walk import (
    DynamicSequence,
    InitialCoin,
    _coin_density,
    _coin_shift,
    _propagate,
    _sequence_alphabet,
    _sequence_plan,
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
#: maximum are reported as maximizers.
ARGMAX_TOL = 1e-12

#: Fixed work-unit size for sweeps; independent of the worker count so that
#: partial reductions merge identically for any parallel layout.
_BATCH_SIZE = 1 << 14

#: The exhaustive sweep's prefix tree steps its first _LEAF_BITS coins
#: breadth-first; every later coin advances a leaf block of 2^_LEAF_BITS walks.
_LEAF_BITS = 10

_EXHAUSTIVE_LIMIT = 24

#: Exhaustive sweeps of fewer sequences run in process whatever `workers`
#: says: below 2^17 sequences two workers take longer than one.  (A
#: process's first pool pays ~0.1 s more to start, which moves that
#: crossover to ~2^19 for a one-sweep process such as `dtqw sweep`.)
_POOL_MIN_SEQUENCES = 1 << 17


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

    def __iter__(self):
        return iter(self.text)

    @property
    def bits(self) -> NDArray[np.int64]:
        """Symbols as bits, H -> 1 and F -> 0, in application order."""
        return np.fromiter((1 if c == "H" else 0 for c in self.text), dtype=np.int64)

    def to_int(self) -> int:
        """Bit-packed form: first-applied symbol in the least significant bit."""
        return int(sum(b << k for k, b in enumerate(self.bits)))

    @classmethod
    def from_int(cls, value: int, n: int) -> "CoinSequence":
        """Inverse of :meth:`to_int` for a length-n sequence."""
        if not 0 <= value < (1 << n):
            raise ValueError(f"value {value} does not fit in {n} bits")
        return cls("".join("H" if (value >> k) & 1 else "F" for k in range(n)))


def parse_sequence(text: str) -> CoinSequence:
    """Parse a coin-sequence string (case-insensitive) over {H, F}.

    The first character is the coin applied on step 1.  Raises ValueError
    naming the offending position for any other character.
    """
    if not text:
        raise ValueError("coin sequence must contain at least one symbol")
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


def _batch_stats(entropies, ints, edges, threshold):
    """Summary stats of one batch: `entropies[i]` belongs to packed sequence `ints[i]`."""
    top = float(entropies.max())
    near = entropies >= top - ARGMAX_TOL
    candidates = [(float(e), int(v)) for e, v in zip(entropies[near], ints[near])]
    return {
        "count": int(entropies.size),
        "sum": float(np.sum(entropies)),
        "sum_sq": float(np.sum(entropies**2)),
        "above": int(np.sum(entropies > threshold)),
        "bins": np.histogram(entropies, bins=edges)[0],
        "max": top,
        "candidates": candidates,
        "entropies": entropies,
    }


def _sampled_batch(args):
    """Evaluate one batch of packed sequences from the origin and reduce it."""
    ints, n, spinor, edges, threshold = args
    # Bit k of each integer is the coin of step k+1; the batch runs as one kernel call.
    bits = (ints[:, None] >> np.arange(n, dtype=np.uint64)) & np.uint64(1)
    for up, dn in _propagate(_sequence_plan(bits), spinor):
        pass
    return _batch_stats(_entropy_bits(_coin_density(up, dn)), ints, edges, threshold)


def _tree_entropies(n, spinor, varying, high):
    """Final entropies of the 2^varying sequences ``high + r``, in the order of r.

    The low `varying` bits of `high` are zero; its higher bits fix coins
    `varying` .. n-1.  The first min(varying, _LEAF_BITS) coins are stepped
    breadth-first, the rest depth-first on leaf blocks, each finished leaf
    writing to the slice its coins select.
    """
    alphabet = _sequence_alphabet()
    out = np.empty(1 << varying)
    up = np.full((1, 1), spinor[0], dtype=np.complex128)
    dn = np.full((1, 1), spinor[1], dtype=np.complex128)
    breadth = min(varying, _LEAF_BITS)
    for t in range(breadth):
        # The F walks, then the H walks: row index = old row + (bit << t).
        up, dn = (x.reshape(-1, t + 2) for x in _coin_shift(up, dn, alphabet[:, None, None]))

    # One state buffer per depth, which its two children fill in turn: leaf
    # states allocated and freed on every step made malloc return memory to
    # the system and fault it in again, which about doubled the first sweep
    # in a fresh process.
    rows = len(up)
    level = {t: np.empty((2, rows, t + 1), dtype=np.complex128) for t in range(breadth + 1, n + 1)}

    def descend(up, dn, t, offset):
        if t == n:
            out[offset : offset + len(up)] = _entropy_bits(_coin_density(up, dn))
        elif t < varying:
            for bit in (0, 1):
                state = _coin_shift(up, dn, alphabet[bit], level[t + 1])
                descend(*state, t + 1, offset + (bit << t))
        else:
            state = _coin_shift(up, dn, alphabet[(high >> t) & 1], level[t + 1])
            descend(*state, t + 1, offset)

    descend(up, dn, breadth, 0)
    # `descend` refers to itself through its closure; breaking that cycle
    # frees `level` and `out` by reference count instead of at the next
    # garbage collection, which repeated in-process sweeps would wait on.
    del descend
    return out


def _tree_task(args):
    """Per-batch stats, in batch order, for `count` batches from batch `first` on."""
    n, spinor, edges, threshold, first, count = args
    size = min(_BATCH_SIZE, 1 << n)
    start = first * size
    entropies = _tree_entropies(n, spinor, (count * size).bit_length() - 1, start)
    ints = np.arange(start, start + count * size, dtype=np.uint64)
    return [
        _batch_stats(entropies[k : k + size], ints[k : k + size], edges, threshold)
        for k in range(0, count * size, size)
    ]


@dataclass(frozen=True)
class SweepReport:
    """Entropy statistics over a set of coin sequences of one length."""

    n: int
    init: InitialCoin
    count: int
    mean_entropy: float
    std_entropy: float
    threshold: float
    fraction_above: float
    bin_edges: NDArray[np.float64]
    bin_counts: NDArray[np.int64]
    max_entropy: float
    argmax_sequences: list[str]
    sampled: bool
    std_error: float | None
    seed: int | None
    samples: int | None
    wall_time_s: float
    entropies: NDArray[np.float64] | None


def _resolve_bins(bins) -> NDArray[np.float64]:
    if isinstance(bins, (int, np.integer)):
        if bins < 1:
            raise ValueError(f"bin count must be >= 1, got {bins}")
        return np.linspace(0.0, 1.0, int(bins) + 1)
    edges = np.asarray(bins, dtype=np.float64)
    if edges.ndim != 1 or len(edges) < 2 or np.any(np.diff(edges) <= 0):
        raise ValueError("bin edges must be a strictly increasing 1-D sequence")
    return edges


def _check_workers(workers: int) -> None:
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")


def _run_tasks(fn, tasks, workers: int) -> list:
    """`fn` over `tasks`, results in task order; a pool only for several tasks and workers."""
    if workers == 1 or len(tasks) == 1:
        return [fn(task) for task in tasks]
    with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
        return list(pool.map(fn, tasks))


def _merge_report(
    partials,
    n: int,
    init: InitialCoin,
    edges: NDArray[np.float64],
    threshold: float,
    sampled: bool,
    seed: int | None,
    samples: int | None,
    keep_entropies: bool,
    wall_time_s: float,
) -> SweepReport:
    # Partials arrive in batch order; scalar accumulation below is the single
    # float reduction, so the result cannot depend on the worker layout.
    count = 0
    total = 0.0
    total_sq = 0.0
    above = 0
    bin_counts = np.zeros(len(edges) - 1, dtype=np.int64)
    top = -np.inf
    candidates: list[tuple[float, int]] = []
    chunks = []
    for part in partials:
        count += part["count"]
        total += part["sum"]
        total_sq += part["sum_sq"]
        above += part["above"]
        bin_counts += part["bins"]
        top = max(top, part["max"])
        candidates.extend(part["candidates"])
        if keep_entropies:
            chunks.append(part["entropies"])
    mean = total / count
    var = max(total_sq / count - mean * mean, 0.0)
    std = float(np.sqrt(var))
    argmax = sorted(
        CoinSequence.from_int(v, n).text
        for e, v in candidates
        if e >= top - ARGMAX_TOL
    )
    return SweepReport(
        n=n,
        init=init,
        count=count,
        mean_entropy=mean,
        std_entropy=std,
        threshold=threshold,
        fraction_above=above / count,
        bin_edges=edges,
        bin_counts=bin_counts,
        max_entropy=top,
        argmax_sequences=argmax,
        sampled=sampled,
        std_error=(std / np.sqrt(count)) if sampled else None,
        seed=seed,
        samples=samples,
        wall_time_s=wall_time_s,
        entropies=np.concatenate(chunks) if keep_entropies else None,
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
        Histogram bin count (uniform on [0, 1]) or explicit monotone edges.
    threshold : float
        `fraction_above` reports the fraction of sequences with entropy
        strictly above this value.
    workers : int
        Upper bound on the worker processes (>= 1).  The report is
        bit-identical for any value.  Below 2^17 sequences the sweep runs in
        process as one task whatever the value; otherwise the work splits
        into at most `workers` tasks of 2^k whole batches of 2^14 sequences.

    Returns
    -------
    SweepReport
        With `entropies[v]` holding the entropy of the sequence whose packed
        integer form is v.
    """
    if n < 1:
        raise ValueError(f"sequence length must be >= 1, got {n}")
    if n > _EXHAUSTIVE_LIMIT:
        raise ValueError(
            f"exhaustive enumeration of 2^{n} sequences refused (limit n <= "
            f"{_EXHAUSTIVE_LIMIT}); use sampled_sweep instead"
        )
    _check_workers(workers)
    if (1 << n) < _POOL_MIN_SEQUENCES:
        workers = 1
    edges = _resolve_bins(bins)
    spinor = init.spinor
    started = time.perf_counter()
    batches = max((1 << n) // _BATCH_SIZE, 1)
    # The largest power of two <= min(workers, batches): aligned, equal ranges.
    count = batches >> (min(workers, batches).bit_length() - 1)
    tasks = [
        (n, spinor, edges, threshold, first, count) for first in range(0, batches, count)
    ]
    partials = [p for part in _run_tasks(_tree_task, tasks, workers) for p in part]
    return _merge_report(
        partials,
        n,
        init,
        edges,
        threshold,
        sampled=False,
        seed=None,
        samples=None,
        keep_entropies=True,
        wall_time_s=time.perf_counter() - started,
    )


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
    """
    if not 1 <= n <= 62:
        raise ValueError(f"sequence length must lie in [1, 62], got {n}")
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    _check_workers(workers)
    edges = _resolve_bins(bins)
    spinor = init.spinor
    started = time.perf_counter()
    ints = np.random.default_rng(seed).integers(
        0, 1 << n, size=samples, dtype=np.uint64
    )
    size = min(_BATCH_SIZE, samples)
    batches = [
        (ints[start : start + size], n, spinor, edges, threshold)
        for start in range(0, samples, size)
    ]
    partials = _run_tasks(_sampled_batch, batches, workers)
    return _merge_report(
        partials,
        n,
        init,
        edges,
        threshold,
        sampled=True,
        seed=seed,
        samples=samples,
        keep_entropies=False,
        wall_time_s=time.perf_counter() - started,
    )


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
    return parse_sequence_lines(resources.files("dtqw.data").joinpath(name).read_text(), name)
