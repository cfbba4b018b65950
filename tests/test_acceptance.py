"""Acceptance suite: every headline quantitative claim, one PASS/FAIL line each.

Run as ``pytest tests/test_acceptance.py -s`` to see the lines while the
suite runs.  Two checks pin benchmark values that the simulated dynamics
provably cannot reproduce (the long-time entropy for phi = 180 deg and the
complexity of benchmark sequence 4); they fail by design rather than being
loosened, and the assertion messages state the measured values.  The
analysis lives in the project notes.
"""

import time

import numpy as np
import pytest

from dtqw.coins import hadamard_coin
from dtqw.entanglement import (
    asymptotic_entropy,
    reduced_coin_density,
    site_decomposition,
    state_entropy,
    von_neumann_entropy,
)
from dtqw.sequences import (
    ENHANCER_20,
    entropy_of_sequence,
    exhaustive_sweep,
    lz_complexity,
    lz_parse,
    reference_sequences,
    vocabulary,
)
from dtqw.tomography import reconstruct_site, tomographic_entropy
from dtqw.transport import classical_baseline, fit_power_law, moment_series, second_moment, position_distribution
from dtqw.walk import (
    DynamicRandom,
    DynamicSequence,
    InitialCoin,
    Ordered,
    StaticAndDynamic,
    StaticRandom,
    evolve,
    final_state,
)
from oracles import dense_trajectory, embed_state, random_density, random_unitary, random_walk_state

INIT = InitialCoin(51, 0)
ORDERED_H = Ordered(hadamard_coin())


def check(num: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"acceptance {num}: {detail}"


# -- 1. long-time entanglement of the ordered Hadamard walk --------------------


@pytest.mark.parametrize("phi,target", [(0.0, 0.739), (90.0, 0.867), (180.0, 0.977)])
def test_1_asymptotic_ordered_entropies(phi, target):
    started = time.perf_counter()
    value = asymptotic_entropy(InitialCoin(51, phi), ORDERED_H, steps=1024, tail=64)
    elapsed = time.perf_counter() - started
    ok = abs(value - target) <= 0.01 and elapsed < 5.0
    check(
        f"1 [phi={phi:g}]",
        ok,
        f"tail-average over t in [961, 1024] = {value:.4f}, benchmark {target} "
        f"+- 0.01, {elapsed:.2f}s",
    )


# -- 2. disorder enhancement is initial-state independent -----------------------


def test_2_enhancer_sequence_beats_ordered_walk_for_all_inits():
    started = time.perf_counter()
    phis = (0.0, 90.0, 180.0, 270.0)
    enhanced = {}
    ordered = {}
    for phi in phis:
        init = InitialCoin(51, phi)
        enhanced[phi] = float(entropy_of_sequence(init, ENHANCER_20))
        ordered[phi] = float(state_entropy(final_state(init, ORDERED_H, 20)))
    elapsed = time.perf_counter() - started
    in_band = all(0.96 <= enhanced[p] <= 1.0 for p in phis)
    spread = max(enhanced.values()) - min(enhanced.values())
    beats = all(enhanced[p] > ordered[p] for p in phis)
    ok = in_band and spread <= 0.02 and beats and elapsed < 1.0
    check(
        "2",
        ok,
        f"20-step entropies {[round(enhanced[p], 4) for p in phis]} all in "
        f"[0.96, 1.0], spread {spread:.4f} <= 0.02, each above the ordered "
        f"values {[round(ordered[p], 4) for p in phis]}, {elapsed:.2f}s",
    )


# -- 3. statistics over all 2^20 sequences --------------------------------------


def test_3_exhaustive_sequence_statistics():
    started = time.perf_counter()
    report = exhaustive_sweep(INIT, 20)
    elapsed = time.perf_counter() - started

    mean_ok = abs(report.mean_entropy - 0.924) <= 0.005
    frac_ok = abs(report.fraction_above - 0.73) <= 0.02
    runtime_ok = elapsed < 300.0
    check(
        "3 [statistics]",
        mean_ok and frac_ok and runtime_ok,
        f"mean = {report.mean_entropy:.4f} (0.924 +- 0.005), fraction above "
        f"0.9 = {report.fraction_above:.4f} (0.73 +- 0.02), {elapsed:.1f}s",
    )

    again = exhaustive_sweep(INIT, 20, workers=2)
    identical = (
        again.mean_entropy == report.mean_entropy
        and again.std_entropy == report.std_entropy
        and again.fraction_above == report.fraction_above
        and again.max_entropy == report.max_entropy
        and again.argmax_sequences == report.argmax_sequences
        and np.array_equal(again.bin_counts, report.bin_counts)
        and np.array_equal(again.entropies, report.entropies)
    )
    check(
        "3 [determinism]",
        identical,
        "two runs (workers=1 and workers=2) give reports identical bit for bit",
    )

    e_enhancer = entropy_of_sequence(INIT, ENHANCER_20)
    members_ok = all(
        entropy_of_sequence(INIT, text) >= e_enhancer - 1e-9
        for text in report.argmax_sequences
    )
    top_bin = report.bin_edges[-2]
    e_all_h = entropy_of_sequence(INIT, "H" * 20)
    check(
        "3 [optimum]",
        members_ok and e_enhancer >= top_bin and e_all_h < report.mean_entropy,
        f"maximizers reach {report.max_entropy:.6f} >= reference sequence "
        f"{e_enhancer:.6f}, which lies in the top bin [{top_bin:.3f}, 1]; "
        f"all-H value {e_all_h:.4f} < mean {report.mean_entropy:.4f}",
    )


# -- 4. sequence complexities ----------------------------------------------------


def test_4_twelve_benchmark_complexities():
    computed = [lz_complexity(seq) for seq, _ in reference_sequences()]
    quoted = [expected for _, expected in reference_sequences()]
    diffs = [
        f"#{k + 1}: computed {c} vs quoted {q}"
        for k, (c, q) in enumerate(zip(computed, quoted))
        if c != q
    ]
    check(
        "4 [twelve sequences]",
        computed == quoted,
        f"computed {tuple(computed)}, quoted {tuple(quoted)}"
        + (f"; mismatches: {'; '.join(diffs)}" if diffs else ""),
    )


def test_4_worked_examples():
    vocab_ok = len(vocabulary("010")) == 5
    alternating = lz_parse("HFHFHFHFHFHFHFHFHFHF")
    check(
        "4 [worked examples]",
        vocab_ok and len(alternating) == 3,
        f"vocabulary('010') has {len(vocabulary('010'))} entries (expect 5); "
        f"alternating sequence parses into {len(alternating)} words (expect 3)",
    )


# -- 5. transport fits ------------------------------------------------------------


def test_5_transport_fits():
    started = time.perf_counter()
    fit_ordered = fit_power_law(moment_series(INIT, ORDERED_H, 20))
    fit_disordered = fit_power_law(moment_series(INIT, DynamicSequence(ENHANCER_20), 20))
    fit_classical = fit_power_law(classical_baseline(20))
    elapsed = time.perf_counter() - started

    ordered_ok = (
        abs(fit_ordered.exponent - 2.0) <= 0.1
        and abs(fit_ordered.prefactor - 0.29) <= 0.03
    )
    disordered_ok = (
        abs(fit_disordered.exponent - 1.54) <= 0.12
        and abs(fit_disordered.prefactor - 0.6) <= 0.12
    )
    classical_ok = abs(fit_classical.exponent - 1.0) < 1e-12
    ok = ordered_ok and disordered_ok and classical_ok and elapsed < 1.0
    check(
        "5",
        ok,
        f"ordered (c, a) = ({fit_ordered.prefactor:.4f}, {fit_ordered.exponent:.4f}) "
        f"vs (0.29 +- 0.03, 2.0 +- 0.1); disordered "
        f"({fit_disordered.prefactor:.4f}, {fit_disordered.exponent:.4f}) vs "
        f"(0.6 +- 0.12, 1.54 +- 0.12); classical |a - 1| = "
        f"{abs(fit_classical.exponent - 1.0):.1e} (tolerance 1e-12); {elapsed:.2f}s",
    )


# -- 6. transport ordering ---------------------------------------------------------


def test_6_second_moment_ordering():
    m_classical = classical_baseline(20).m2[-1]
    m_disordered = second_moment(
        position_distribution(final_state(INIT, DynamicSequence(ENHANCER_20), 20))
    )
    m_ordered = second_moment(position_distribution(final_state(INIT, ORDERED_H, 20)))
    ok = m_classical < m_disordered < m_ordered
    check(
        "6",
        ok,
        f"m2(20): classical {m_classical:.1f} < disordered {m_disordered:.2f} "
        f"< ordered {m_ordered:.2f}",
    )


# -- 7. sparse stepping equals the dense operator product ---------------------------


def test_7_dense_oracle_equivalence():
    rng = np.random.default_rng(7)
    worst = 0.0
    for case in range(50):
        steps = int(rng.integers(1, 7))
        init = InitialCoin(rng.uniform(0, 180), rng.uniform(0, 360))
        kind = case % 5
        if kind == 0:
            policy = Ordered(random_unitary(rng))
        elif kind == 1:
            policy = DynamicSequence(
                "".join(rng.choice(["H", "F"], size=steps).tolist())
            )
        elif kind == 2:
            policy = DynamicRandom(seed=int(rng.integers(1 << 31)))
        elif kind == 3:
            policy = StaticRandom(seed=int(rng.integers(1 << 31)))
        else:
            policy = StaticAndDynamic(
                static_seed=int(rng.integers(1 << 31)),
                dynamic_seed=int(rng.integers(1 << 31)),
            )
        states = evolve(init, policy, steps)
        oracle = dense_trajectory(init, policy, steps)
        for state, vec in zip(states, oracle):
            worst = max(worst, float(np.max(np.abs(embed_state(state, steps) - vec))))
    check(
        "7",
        worst <= 1e-10,
        f"50 random policies/initial states, steps <= 6: max deviation from the "
        f"dense operator product = {worst:.2e} (tolerance 1e-10)",
    )


# -- 8. tomography round trip and fidelity floors ------------------------------------


def test_8_tomography():
    started = time.perf_counter()
    walks = {
        "ordered": final_state(INIT, ORDERED_H, 20),
        "disordered": final_state(INIT, DynamicSequence(ENHANCER_20), 20),
    }

    round_trip_ok = True
    for state in walks.values():
        res = tomographic_entropy(state, 24000, noiseless=True)
        round_trip_ok &= abs(res.entropy_hat - state_entropy(state)) <= 1e-9
        round_trip_ok &= res.rho_c_fidelity >= 1.0 - 1e-9
        round_trip_ok &= res.site_fidelities.min() >= 1.0 - 1e-9

    medians = {}
    for name, state in walks.items():
        fids = [
            tomographic_entropy(state, 24000, seed=s).rho_c_fidelity
            for s in range(100)
        ]
        medians[name] = float(np.median(fids))
    floors_ok = medians["ordered"] >= 0.986 and medians["disordered"] >= 0.968

    budget_medians = []
    for budget in (1_000, 10_000, 100_000):
        fids = [
            tomographic_entropy(walks["disordered"], budget, seed=s).rho_c_fidelity
            for s in range(100)
        ]
        budget_medians.append(float(np.median(fids)))
    monotone_ok = budget_medians[0] <= budget_medians[1] <= budget_medians[2]

    elapsed = time.perf_counter() - started
    ok = round_trip_ok and floors_ok and monotone_ok and elapsed < 30.0
    check(
        "8",
        ok,
        f"noiseless round trip exact to 1e-9: {round_trip_ok}; median fidelities "
        f"at 24000 counts: ordered {medians['ordered']:.4f} >= 0.986, disordered "
        f"{medians['disordered']:.4f} >= 0.968; medians over budgets 1e3/1e4/1e5 "
        f"= {[round(m, 5) for m in budget_medians]} non-decreasing; {elapsed:.1f}s",
    )


# -- 9. invariant property suites (>= 1000 randomized cases each) --------------------


def test_9_norm_parity_support_on_long_run():
    trajectory = evolve(InitialCoin(51, 0), DynamicRandom(seed=99), 1000)
    ok = True
    for state in trajectory[1:]:
        ok &= abs(state.norm() - 1.0) <= 1e-10
        sites = state.sites
        forbidden = (sites - state.t) % 2 != 0
        ok &= bool(np.all(np.abs(state.amps[:, forbidden]) < 1e-14))
    check("9 [norm/parity/support]", ok, "1000-step random-coin run, checked at every step")


def test_9_entropy_bounds_and_purity():
    rng = np.random.default_rng(3)
    ok = True
    for k in range(1000):
        pure = k % 2 == 0
        rho = random_density(rng, pure=pure)
        s = von_neumann_entropy(rho)
        ok &= 0.0 <= s <= 1.0
        lam = np.sort(np.linalg.eigvalsh(rho))[::-1]
        if lam[1] > 1e-10:  # genuinely mixed
            ok &= s > 0.0
        if pure:
            ok &= s < 1e-6
    check("9 [entropy bounds]", ok, "1000 random density matrices, S in [0, 1], S = 0 iff pure")


def test_9_phase_reflection_symmetry():
    rng = np.random.default_rng(5)
    ok = True
    for _ in range(1000):
        theta = rng.uniform(0, 180)
        phi = rng.uniform(0.5, 359.5)
        a = evolve(InitialCoin(theta, phi), ORDERED_H, 12)
        b = evolve(InitialCoin(theta, 360.0 - phi), ORDERED_H, 12)
        for sa, sb in zip(a, b):
            ok &= bool(np.max(np.abs(sa.amps - np.conj(sb.amps))) < 1e-12)
        ok &= abs(state_entropy(a[-1]) - state_entropy(b[-1])) < 1e-12
    check(
        "9 [phi reflection]",
        ok,
        "1000 random initial states: the phi -> 360 - phi trajectory is the "
        "sitewise conjugate, entropies equal",
    )


def test_9_density_matrices_always_physical():
    rng = np.random.default_rng(11)
    ok = True
    for _ in range(700):
        state = random_walk_state(rng, int(rng.integers(1, 12)))
        rho = reduced_coin_density(state)
        ok &= bool(np.max(np.abs(rho - rho.conj().T)) < 1e-12)
        ok &= abs(np.trace(rho).real - 1.0) < 1e-12
        ok &= float(np.min(np.linalg.eigvalsh(rho))) >= -1e-10
        dec = site_decomposition(state)
        ok &= abs(dec.probabilities.sum() - 1.0) < 1e-10
    for _ in range(300):
        counts = rng.integers(1, 500, size=6).astype(float)
        rho = reconstruct_site(counts)
        ok &= float(np.min(np.linalg.eigvalsh(rho))) >= -1e-12
        ok &= abs(np.trace(rho).real - 1.0) < 1e-12
    check(
        "9 [density matrices]",
        ok,
        "1000 random states/count records: Hermitian, trace 1, PSD throughout",
    )


def test_9_lz_prefix_monotone():
    rng = np.random.default_rng(13)
    ok = True
    for _ in range(1000):
        n = int(rng.integers(2, 49))
        text = "".join(rng.choice(["H", "F"], size=n).tolist())
        cut = int(rng.integers(1, n))
        ok &= lz_complexity(text[:cut]) <= lz_complexity(text)
    check("9 [prefix monotone]", ok, "1000 random sequences: complexity of a prefix never exceeds the whole")
