import gc
import importlib
import itertools
import pickle
import re
import shutil
import sys
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtqw import sequences
from dtqw.entanglement import _coin_density, _entropy_bits, state_entropy
from dtqw.sequences import (
    ARGMAX_TOL,
    ENHANCER_20,
    CoinSequence,
    SweepReport,
    best_sequences,
    entropy_of_sequence,
    exhaustive_sweep,
    interval_weighted_mean,
    lz_complexity,
    lz_parse,
    parse_sequence,
    parse_sequence_lines,
    reference_sequences,
    sampled_sweep,
    to_bits,
    vocabulary,
)
from dtqw.walk import _BATCH_ROWS, InitialCoin, Ordered, _final_coin_density, _packed_plan, _propagate, final_state
from dtqw.coins import hadamard_coin
from oracles import exact_entropies, exact_sequence_densities, extended_entropies
from oracles import kaspar_schuster_complexity, packed, prefix_tree_entropies

INIT = InitialCoin(51, 0)

# Computed complexities of the twelve bundled sequences under the
# left-to-right vocabulary parse implemented here.  Entry 4 disagrees with
# the value quoted alongside the fixture (7 vs 8): its parse would need the
# word "00" to stop even though "00" already occurs (self-overlapping) in
# the scanned prefix "10110100", while the other parses do count such
# occurrences, so no single membership rule reproduces all twelve quotes.
# The independent Kaspar-Schuster counter gives the same twelve values.
PARSER_COMPLEXITIES = (3, 3, 5, 7, 7, 7, 6, 6, 6, 7, 7, 6)


# --- parsing -----------------------------------------------------------------


def test_parse_simple():
    assert parse_sequence("HF").text == "HF"
    assert parse_sequence("hf").text == "HF"


def test_parse_enhancer_sequence():
    seq = parse_sequence(ENHANCER_20)
    assert len(seq) == 20
    assert seq.text == ENHANCER_20


def test_parse_rejects_illegal_symbol_with_position():
    with pytest.raises(ValueError, match="index 1"):
        parse_sequence("HXH")
    with pytest.raises(ValueError):
        parse_sequence("")


@given(st.text(alphabet="HF", min_size=1, max_size=40))
@settings(max_examples=200, deadline=None)
def test_text_roundtrip(text):
    seq = parse_sequence(text)
    assert seq.text == text
    assert CoinSequence.from_int(packed(seq.text), len(seq)).text == text


def test_bit_packing_is_lsb_first():
    assert CoinSequence.from_int(1, 2).text == "HF"
    assert CoinSequence.from_int(2, 2).text == "FH"
    assert CoinSequence.from_int(7, 3).text == "HHH"
    assert CoinSequence.from_int(4, 3).text == "FFH"


@pytest.mark.parametrize("value, n", [(4, 2), (-1, 3), (1, 0)])
def test_from_int_rejects_values_that_do_not_fit(value, n):
    with pytest.raises(ValueError, match=f"value {value} does not fit in {n} bits"):
        CoinSequence.from_int(value, n)


# --- Lempel-Ziv --------------------------------------------------------------


def test_vocabulary_of_010():
    assert vocabulary("010") == {"0", "1", "01", "10", "010"}
    assert len(vocabulary("010")) == 5


def test_alternating_sequence_parses_to_three_words():
    assert lz_parse("HFHFHFHFHFHFHFHFHFHF") == ["1", "0", "101010101010101010"]
    assert lz_complexity("HFHFHFHFHFHFHFHFHFHF") == 3


def test_single_symbol_sequences():
    assert lz_complexity("H") == 1
    assert lz_complexity("F") == 1
    assert lz_complexity("HH") == 2  # parses as 1.1


def test_parses_of_bundled_sequences():
    """Full word-by-word parses for a representative subset."""
    expected = {
        "HHHHFHHHHFHHHHFHHHHF": ["1", "1110", "111101111011110"],
        "HHHHHHHFFFFHHHHHFHHH": ["1", "1111110", "0001", "111101", "11"],
        "HHHFFHHFHFFFHHHFFFHH": ["1", "110", "01", "101", "000", "111000", "11"],
        "FFHFHFHHFFFFFHFHHHHH": ["0", "01", "01011", "000", "001011", "111"],
        "FFHHFFFHFFHFHHFHHFHH": ["0", "01", "10", "0010", "0101", "1011011"],
    }
    for text, words in expected.items():
        assert lz_parse(text) == words


def test_complexities_of_bundled_sequences():
    computed = [lz_complexity(seq) for seq, _ in reference_sequences()]
    assert tuple(computed) == PARSER_COMPLEXITIES


def test_lz_complexity_matches_kaspar_schuster_counter():
    """Every binary string of length 1-12, then the bundled sequences."""
    strings = ["".join(b) for n in range(1, 13) for b in itertools.product("01", repeat=n)]
    for bits in strings:
        assert lz_complexity(bits) == kaspar_schuster_complexity(bits), bits
    counted = [kaspar_schuster_complexity(to_bits(seq)) for seq, _ in reference_sequences()]
    assert tuple(counted) == PARSER_COMPLEXITIES


def test_fixture_carries_twelve_sequences():
    entries = reference_sequences()
    assert len(entries) == 12
    assert all(len(seq) == 20 for seq, _ in entries)
    assert entries[-1][0].text == ENHANCER_20


def test_a_renamed_copy_of_the_package_reads_its_own_sequences(tmp_path, monkeypatch):
    """The bundled file is found relative to the package, so a copy loaded under another name reads its own."""
    copy = tmp_path / "dtqw_copy"
    shutil.copytree(Path(sequences.__file__).parent, copy, ignore=shutil.ignore_patterns("__pycache__"))
    (copy / "data" / "benchmark_sequences.txt").write_text("HFHFHFHFHFHFHFHFHFHF 4\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    try:
        entries = importlib.import_module("dtqw_copy.sequences").reference_sequences()
    finally:
        for name in [name for name in sys.modules if name.split(".")[0] == "dtqw_copy"]:
            del sys.modules[name]
    assert [(seq.text, quoted) for seq, quoted in entries] == [("HFHFHFHFHFHFHFHFHFHF", 4)]


def test_lz_accepts_raw_binary_text():
    assert lz_complexity("10") == 2
    assert to_bits("HFH") == "101"


@given(st.text(alphabet="HF", min_size=2, max_size=48), st.data())
@settings(max_examples=200, deadline=None)
def test_lz_prefix_monotone(text, data):
    cut = data.draw(st.integers(min_value=1, max_value=len(text) - 1))
    assert lz_complexity(text[:cut]) <= lz_complexity(text)


# --- entropy of sequences ----------------------------------------------------


def test_all_hadamard_sequence_equals_ordered_walk():
    via_seq = entropy_of_sequence(INIT, "H" * 20)
    via_ordered = state_entropy(final_state(INIT, Ordered(hadamard_coin()), 20))
    assert abs(via_seq - via_ordered) < 1e-12


def test_enhancer_sequence_entropy():
    assert 0.96 <= entropy_of_sequence(INIT, ENHANCER_20) <= 1.0


@pytest.mark.parametrize(
    "theta,phi",
    [(90, 90), (51, 0), (30, 200), (0, 0)],
)
def test_one_step_entropy_matches_binary_entropy(theta, phi):
    init = InitialCoin(theta, phi)
    rotated = hadamard_coin() @ init.spinor
    p = abs(rotated[0]) ** 2
    expected = 0.0
    for x in (p, 1 - p):
        if x > 0:
            expected -= x * np.log2(x)
    assert abs(entropy_of_sequence(init, "H") - expected) < 1e-12


def test_one_step_entropy_balanced_state_is_maximal():
    assert entropy_of_sequence(InitialCoin(90, 90), "H") == pytest.approx(1.0, abs=1e-12)


# --- sweeps ------------------------------------------------------------------


def test_exhaustive_base_case_n_1():
    report = exhaustive_sweep(INIT, 1)
    assert report.count == 2
    mean = (entropy_of_sequence(INIT, "F") + entropy_of_sequence(INIT, "H")) / 2
    assert abs(report.mean_entropy - mean) < 1e-12


def test_exhaustive_matches_single_walk_route():
    report = exhaustive_sweep(INIT, 8)
    for value in (0, 1, 17, 100, 255):
        seq = CoinSequence.from_int(value, 8)
        assert abs(report.entropies[value] - entropy_of_sequence(INIT, seq)) < 1e-12


def test_exhaustive_refuses_oversized_enumeration():
    with pytest.raises(ValueError, match="sampled_sweep"):
        exhaustive_sweep(INIT, 25)
    with pytest.raises(ValueError):
        exhaustive_sweep(INIT, 0)


@pytest.mark.parametrize("n", [0, 63])
def test_sampled_sweep_refuses_lengths_outside_1_to_62(n):
    with pytest.raises(ValueError, match=rf"sequence length must lie in \[1, 62\], got {n}"):
        sampled_sweep(INIT, n, samples=10, seed=0)


def test_sampled_sweep_refuses_more_samples_than_a_sweep_holds(monkeypatch):
    monkeypatch.setattr(sequences, "_SWEEP_BITS", 4)
    assert sampled_sweep(INIT, 30, samples=16, seed=0).count == 16
    with pytest.raises(ValueError, match="samples must lie in"):
        sampled_sweep(INIT, 30, samples=17, seed=0)
    monkeypatch.undo()
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="samples must lie in"):
            sampled_sweep(INIT, 40, samples=2**24 + 1, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def _assert_same_report(a, b):
    """Every field but the wall time agrees bit for bit (and in type)."""
    for field in fields(SweepReport):
        if field.name != "wall_time_s":
            assert pickle.dumps(getattr(a, field.name)) == pickle.dumps(getattr(b, field.name)), (
                field.name
            )


def test_exhaustive_worker_counts_agree_bit_for_bit():
    # The sweep runs in the calling thread whatever `workers` says.
    # n = 10 is one leaf block of parents; n = 18 and 19 are two and four.
    for n, counts in ((10, (2, 8)), (18, (2, 3)), (19, (2, 3, 4))):
        base = exhaustive_sweep(INIT, n, workers=1)
        for w in counts:
            _assert_same_report(exhaustive_sweep(INIT, n, workers=w), base)


def test_sampled_worker_counts_agree_bit_for_bit():
    # The sweep runs in the calling thread whatever `workers` says: three full
    # batches of the kernel's row budget and a fourth of 5 samples.
    samples = 3 * (_BATCH_ROWS // 25) + 5
    base = sampled_sweep(INIT, 24, samples, seed=5, workers=1)
    for w in (2, 3):
        _assert_same_report(sampled_sweep(INIT, 24, samples, seed=5, workers=w), base)


def test_exhaustive_sweep_leaves_no_reference_cycles():
    # Buffers held by a cycle outlive the sweep until the next collection:
    # back-to-back in-process sweeps then pile them up.
    exhaustive_sweep(INIT, 12)
    gc.collect()
    gc.disable()
    try:
        exhaustive_sweep(INIT, 12)
        assert gc.collect() == 0
    finally:
        gc.enable()


def _batch_plan(n, first, size):
    """The sequence plan of the `size` sequences packed as first, first + 1, ..."""
    return _packed_plan(np.arange(first, first + size), n)


def test_exhaustive_tree_matches_batch_propagation():
    # The closed form sums in another order than stepping each sequence, so
    # the two agree to rounding, not bit for bit.
    n, size = 16, 1 << 14
    report = exhaustive_sweep(INIT, n)
    for up, dn, q in _propagate(_batch_plan(n, 2 * size, size), INIT.spinor):
        pass
    direct = _entropy_bits(_coin_density(up, dn, q) * 2.0**-n)  # rows at scale n
    np.testing.assert_allclose(report.entropies[2 * size : 3 * size], direct, rtol=0, atol=1e-14)
    # First and last sequences of parents (2^9 at n = 16) and of suffixes.
    for value in (0, 511, 512, 1023, 1024, 2047, size - 1, size, 2 * size + 1023, 3 * size - 1, (1 << n) - 1):
        seq = CoinSequence.from_int(value, n)
        assert abs(report.entropies[value] - entropy_of_sequence(INIT, seq)) < 1e-12


def test_exhaustive_sweep_matches_extended_precision():
    # The same coins and spinor stepped and reduced in np.clongdouble: the
    # closed form's rounding stays within a few float64 ulps of 1.
    n, size = 16, 1 << 14
    report = exhaustive_sweep(INIT, n)
    exact = extended_entropies(_batch_plan(n, 2 * size, size), INIT.spinor)
    np.testing.assert_allclose(report.entropies[2 * size : 3 * size], exact, rtol=0, atol=4e-15)


@pytest.mark.parametrize(
    "init",
    [INIT, InitialCoin(0, 0), InitialCoin(90, 90), InitialCoin(135, 300)],
    ids=lambda c: f"{c.theta_deg:g}-{c.phi_deg:g}",
)
def test_closed_form_sweep_matches_prefix_tree(init):
    # No entropy of these sweeps lies within 1e-14 of a bin edge or of the
    # threshold, so every field read through a comparison agrees exactly.
    references = prefix_tree_entropies(20, init.spinor)
    for n in range(8, 21):
        report = exhaustive_sweep(init, n)
        np.testing.assert_allclose(report.entropies, references[n], rtol=0, atol=1e-14)
        expected = sequences._report(references[n], n, init, report.bin_edges, report.threshold, 0.0)
        assert report.argmax_sequences == expected.argmax_sequences
        np.testing.assert_array_equal(report.bin_counts, expected.bin_counts)
        assert report.fraction_above == expected.fraction_above


@pytest.mark.parametrize("n", range(1, 12))
def test_exhaustive_matches_every_single_walk(n):
    report = exhaustive_sweep(INIT, n)
    for value in range(1 << n):
        seq = CoinSequence.from_int(value, n)
        assert abs(report.entropies[value] - entropy_of_sequence(INIT, seq)) < 1e-12


def test_sweeps_reject_nonpositive_worker_counts():
    for workers in (0, -2):
        with pytest.raises(ValueError, match=f"workers must be >= 1, got {workers}"):
            exhaustive_sweep(INIT, 3, workers=workers)
        with pytest.raises(ValueError, match=f"workers must be >= 1, got {workers}"):
            sampled_sweep(INIT, 3, samples=10, seed=0, workers=workers)


def test_histogram_refinement_consistency():
    coarse = exhaustive_sweep(INIT, 8, bins=12)
    fine = exhaustive_sweep(INIT, 8, bins=24)
    np.testing.assert_array_equal(
        coarse.bin_counts, fine.bin_counts.reshape(12, 2).sum(axis=1)
    )


def test_bins_accept_explicit_edges():
    report = exhaustive_sweep(INIT, 6, bins=[0.0, 0.5, 0.9, 1.0])
    assert report.bin_counts.sum() == report.count
    with pytest.raises(ValueError):
        exhaustive_sweep(INIT, 6, bins=[0.5, 0.5, 1.0])
    with pytest.raises(ValueError, match="bin count must be >= 1, got 0"):
        exhaustive_sweep(INIT, 6, bins=0)


@pytest.mark.parametrize(
    "bins,threshold",
    [([0.0, np.nan, 1.0], 0.9), ([0.0, 1.0, np.inf], 0.9), (12, np.nan), (12, np.inf), (12, -np.inf)],
)
def test_sweeps_reject_non_finite_bins_and_threshold(bins, threshold):
    with pytest.raises(ValueError, match="finite"):
        exhaustive_sweep(INIT, 6, bins=bins, threshold=threshold)
    with pytest.raises(ValueError, match="finite"):
        sampled_sweep(INIT, 6, samples=10, seed=0, bins=bins, threshold=threshold)


@pytest.mark.parametrize("init", [INIT, InitialCoin(0, 0)])  # theta = 0 ties many sequences
@pytest.mark.parametrize("bins", [12, [0.0, 0.3, 0.6, 0.9, 0.99, 1.0]])
def test_report_fields_match_entropy_array(init, bins):
    n, threshold = 12, 0.9
    report = exhaustive_sweep(init, n, bins=bins, threshold=threshold)
    e = report.entropies
    np.testing.assert_array_equal(report.bin_counts, np.histogram(e, report.bin_edges)[0])
    assert report.fraction_above == np.mean(e > threshold)
    assert report.max_entropy == e.max()
    winners = np.flatnonzero(e >= e.max() - ARGMAX_TOL)
    assert report.argmax_sequences == sorted(CoinSequence.from_int(int(v), n).text for v in winners)
    assert abs(report.mean_entropy - e.mean()) <= 1e-15
    assert abs(report.std_entropy - e.std()) <= 1e-12
    # `fraction_above` counts entropies strictly above the threshold.
    assert exhaustive_sweep(init, n, bins=bins, threshold=report.max_entropy).fraction_above == 0.0


def test_argmax_lists_the_sequences_within_1e_12_of_the_maximum():
    # Packed sequences 1 and 3 are listed; 0, 1e-9 below the maximum, is not.
    entropies = np.array([0.9 - 1e-9, 0.9, 0.5, 0.9 - 1e-13])
    report = sequences._report(entropies, 2, INIT, np.linspace(0.0, 1.0, 13), 0.9, 0.0)
    assert report.argmax_sequences == sorted(CoinSequence.from_int(v, 2).text for v in (1, 3))


def test_exhaustive_report_sums_its_entropies_in_blocks_of_2_14():
    """The mean and std are taken from float sums of blocks of 2^14 entropies, added in order.

    At n = 18 blocks of 2^13 or 2^15 move the mean and the std in the last bit.
    """
    e = (report := exhaustive_sweep(INIT, 18)).entropies
    total = total_sq = 0.0
    for k in range(0, e.size, 1 << 14):
        total += float(np.sum(e[k : k + (1 << 14)]))
        total_sq += float(np.sum(e[k : k + (1 << 14)] ** 2))
    mean = total / e.size
    assert report.mean_entropy == mean
    assert report.std_entropy == np.sqrt(total_sq / e.size - mean * mean)


def test_sampled_sweep_lists_each_maximizer_once():
    # 100 draws with replacement of the 8 sequences of length 3 repeat every maximizer.
    report = sampled_sweep(INIT, 3, samples=100, seed=0)
    assert report.argmax_sequences == exhaustive_sweep(INIT, 3).argmax_sequences


def test_single_task_exhaustive_sweep_does_not_copy_its_entropies():
    # At n = 21 the prefix tree's buffers and one product with the suffix
    # map take about 4 MB next to the 16 MB result.
    tracemalloc.start()
    try:
        report = exhaustive_sweep(INIT, 21, workers=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * report.entropies.nbytes


def test_sampled_sweep_memory_is_one_batch_beside_its_results():
    # 2^13 samples of n = 62 run as batches of 2^14 // 63 = 260 walks; one
    # batch of all of them would take 50 MB of buffers.
    n, samples = 62, 1 << 13
    walks = _BATCH_ROWS // (n + 1)
    tracemalloc.start()
    try:
        sampled_sweep(INIT, n, samples, seed=3, workers=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    buffers = 2 * 2 * walks * (n + 1) * 16  # the kernel's two buffers
    results = 2 * samples * 8  # the packed sequences and their entropies
    bits = 2 * walks * n * 8  # a batch's bit table, shifted and then masked
    # The last step's up * conj(dn) with its conj, and numpy's two ufunc buffers.
    slack = 2 * walks * (n + 1) * 16 + 2 * np.getbufsize() * 16 + 2**16
    assert peak < buffers + results + bits + slack


def test_sampled_sweep_deterministic_under_seed():
    a = sampled_sweep(INIT, 5, samples=10_000, seed=42)
    b = sampled_sweep(INIT, 5, samples=10_000, seed=42)
    assert a.mean_entropy == b.mean_entropy
    assert a.std_error == b.std_error
    np.testing.assert_array_equal(a.bin_counts, b.bin_counts)


def test_sampled_sweep_tracks_exhaustive_mean():
    exact = exhaustive_sweep(INIT, 10)
    sampled = sampled_sweep(INIT, 10, samples=1 << 14, seed=9)
    assert abs(sampled.mean_entropy - exact.mean_entropy) <= 3 * sampled.std_error
    assert sampled.std_error == sampled.std_entropy / np.sqrt(sampled.count)


def test_sampled_sweep_long_sequences_complete():
    report = sampled_sweep(INIT, 30, samples=2_000, seed=1)
    assert report.count == 2_000
    assert 0.0 <= report.mean_entropy <= 1.0


def test_best_sequences_tie_breaks_lexicographically():
    # theta = 0: one H step and one F step give the same (maximal) entropy
    report = exhaustive_sweep(InitialCoin(0, 0), 1)
    assert [s.text for s in best_sequences(report, 1)] == ["F"]
    assert abs(entropy_of_sequence(InitialCoin(0, 0), "F") - report.max_entropy) < 1e-12


def test_best_sequences_full_small_case():
    report = exhaustive_sweep(INIT, 3)
    ranked = best_sequences(report, 8)
    assert len(ranked) == 8
    values = [entropy_of_sequence(INIT, s) for s in ranked]
    assert all(values[i] >= values[i + 1] - 1e-12 for i in range(7))
    texts = [s.text for s in ranked]
    assert len(set(texts)) == 8
    for a, b, va, vb in zip(texts, texts[1:], values, values[1:]):
        if abs(va - vb) < 1e-15:
            assert a < b


def test_best_sequences_equals_full_sort():
    # theta = 0 makes many entropies tie, also across the k-th place.
    for init in (INIT, InitialCoin(0, 0)):
        report = exhaustive_sweep(init, 8)
        texts = [CoinSequence.from_int(v, 8).text for v in range(report.count)]
        ranked = sorted(range(report.count), key=lambda v: (-report.entropies[v], texts[v]))
        for k in (1, 2, 3, 5, 16, 100, 256):
            assert [s.text for s in best_sequences(report, k)] == [texts[v] for v in ranked[:k]]


def test_best_sequences_validates_inputs():
    report = exhaustive_sweep(INIT, 3)
    with pytest.raises(ValueError):
        best_sequences(report, 9)
    sampled = sampled_sweep(INIT, 3, samples=10, seed=0)
    with pytest.raises(ValueError):
        best_sequences(sampled, 1)


def test_interval_weighted_mean():
    # two measurements per interval, both intervals equally occupied
    assert interval_weighted_mean([0.8, 0.9, 0.5, 0.6], [0.5, 0.5, 0.5, 0.5]) == (
        pytest.approx((0.8 + 0.9 + 0.5 + 0.6) * 0.5 / 2)
    )
    with pytest.raises(ValueError):
        interval_weighted_mean([0.5], [0.5, 0.5])
    with pytest.raises(ValueError, match="samples_per_interval must be >= 1"):
        interval_weighted_mean([0.5], [0.5], samples_per_interval=0)


@pytest.mark.parametrize("text, message", [
    ("HFH 3\nHH 2 7\n", "seqs.txt:2: expected 'SEQUENCE [expected]'"),
    ("# only a comment\n\n", "seqs.txt: no sequences found"),
    ("", "seqs.txt: no sequences found"),
])
def test_parse_sequence_lines_rejects_extra_fields_and_empty_input(text, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        parse_sequence_lines(text, "seqs.txt")


@pytest.mark.parametrize("n", [16, 32, 48, 62])
def test_sampled_batches_match_the_exact_oracle(n):
    # Walks of the unit coins, whose fl(1/sqrt(2))^2 = 1/2 - 8.9e-17 shrank
    # the norm every step, were off by 2.3e-15 at n = 16 to 8.0e-15 at 62;
    # these read 3.5e-16 to 6.3e-16.
    ints = np.random.default_rng(n).integers(0, 1 << n, size=256, dtype=np.uint64)
    for init in (INIT, InitialCoin(33, 270)):
        exact = exact_sequence_densities(ints, n, init.spinor)
        assert np.max(np.abs(_final_coin_density(_packed_plan(ints, n), init.spinor) - exact)) < 1e-15


def test_exhaustive_sweep_matches_the_exact_oracle():
    # 1022 of the 2^16 sequences, the first and last of parents and suffixes
    # among them: the unit coins read 3.5e-15 here, the exact ones 5.4e-16.
    n = 16
    report = exhaustive_sweep(INIT, n)
    ints = np.unique(np.r_[np.random.default_rng(3).integers(0, 1 << n, 1024), 0, 511, 512, 1 << 9, (1 << n) - 1])
    exact = exact_entropies(exact_sequence_densities(ints, n, INIT.spinor))
    assert np.max(np.abs(report.entropies[ints] - exact)) < 1e-15
