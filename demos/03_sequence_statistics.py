#!/usr/bin/env python3
"""Statistics over the whole space of coin sequences.

For sequences of length n there are 2^n ways to intersperse the two coins.
Sweeping all of them shows that high entanglement is the rule, not the
exception, and that the entanglement a sequence generates correlates with
its Lempel-Ziv complexity.

Usage: 03_sequence_statistics.py [n]

The headline statistics use n = 20: the sweep takes under 0.1 s and the
demo about 10 s, nearly all of it the LZ parse of every sequence (3 runs,
10.2-10.7 s, on one core of a 2-core Xeon VM, Python 3.11.7, numpy 2.4.6).
The default here is n = 16 so the demo stays quick.
"""

import sys

import numpy as np

from dtqw import (
    CoinSequence,
    InitialCoin,
    best_sequences,
    entropy_of_sequence,
    exhaustive_sweep,
    lz_complexity,
)


def average_ranks(x: np.ndarray) -> np.ndarray:
    """Ranks 1..len(x), tied values sharing the mean of their ranks."""
    order = np.argsort(x, kind="stable")
    ordered = x[order]
    first = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    last = np.r_[first[1:], len(x)] - 1
    ranks = np.empty(len(x))
    ranks[order] = np.repeat((first + last) / 2 + 1, last - first + 1)
    return ranks


def spearman(x: np.ndarray, y: np.ndarray) -> float:
    """Spearman rank correlation: Pearson's r of the average ranks."""
    return float(np.corrcoef(average_ranks(x), average_ranks(y))[0, 1])


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 16
    init = InitialCoin(51, 0)

    print(f"Exhaustive sweep over all 2^{n} = {1 << n} sequences, theta=51, phi=0 ...")
    report = exhaustive_sweep(init, n, bins=12, threshold=0.9)
    print(f"  mean final entropy   : {report.mean_entropy:.4f}")
    print(f"  std                  : {report.std_entropy:.4f}")
    print(f"  fraction above 0.9   : {report.fraction_above:.4f}")
    print(f"  maximum              : {report.max_entropy:.6f}")
    print(f"  wall time            : {report.wall_time_s:.1f} s")
    print()

    print("Histogram (12 uniform bins on [0, 1]):")
    peak = report.bin_counts.max()
    for lo, hi, count in zip(report.bin_edges[:-1], report.bin_edges[1:], report.bin_counts):
        bar = "#" * int(round(50 * count / peak))
        print(f"  [{lo:.3f}, {hi:.3f}) {count:8d} {bar}")
    print()

    top = best_sequences(report, 5)
    print("Five best sequences:")
    for seq in top:
        print(f"  {seq.text}  S_E = {entropy_of_sequence(init, seq):.6f}")
    worst = entropy_of_sequence(init, "H" * n)
    print(f"For comparison, the all-H (ordered) sequence reaches {worst:.4f}.")
    print()

    print("Does sequence complexity predict entanglement power?")
    entropies = report.entropies
    complexities = np.array(
        [lz_complexity(CoinSequence.from_int(v, n)) for v in range(1 << n)]
    )
    rho = spearman(complexities, entropies)
    mean_by_c = {
        int(c): float(entropies[complexities == c].mean())
        for c in np.unique(complexities)
    }
    print(f"  Spearman rank correlation (complexity vs entropy): {rho:.3f}")
    print("  mean entropy by complexity class:")
    for c, m in sorted(mean_by_c.items()):
        print(f"    c = {c:2d}: <S_E> = {m:.4f}")


if __name__ == "__main__":
    main()
