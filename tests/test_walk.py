import tracemalloc

import numpy as np
import pytest

import dtqw.walk
from dtqw.coins import fourier_coin, hadamard_coin, hwp_coin, identity_coin
from dtqw.entanglement import coin_density_curve, reduced_coin_density
from dtqw.transport import moment_series, position_distribution, second_moment
from dtqw.walk import (
    _RESCALE,
    CoinPlan,
    DynamicRandom,
    DynamicSequence,
    InitialCoin,
    Ordered,
    StaticAndDynamic,
    StaticRandom,
    WalkState,
    _coin_density,
    _final_coin_density,
    _moment_rows,
    _moments,
    _packed_plan,
    _propagate,
    _second_moment,
    evolve,
    final_state,
    initial_state,
    plan_coins,
)
from oracles import backward_walk, dense_trajectory, embed_state, reference_propagate
from oracles import evolve as eager_evolve

SC0 = "FFHFHFHHFFFFFHFHHHHH"


# --- initial_state -----------------------------------------------------------


def test_initial_state_north_pole():
    for phi in (0, 45, 321):
        s = initial_state(InitialCoin(0, phi))
        np.testing.assert_allclose(s.amps[:, 0], [1, 0], atol=1e-15)


def test_initial_state_51_0():
    s = initial_state(InitialCoin(51, 0))
    a, b = s.amps[:, 0]
    # direct scalar-trig evaluation
    assert abs(a - np.cos(np.deg2rad(25.5))) < 1e-15
    assert abs(b - np.sin(np.deg2rad(25.5))) < 1e-15
    assert abs(a - 0.9026) < 5e-5
    assert abs(b - 0.4305) < 5e-5


def test_initial_state_south_pole_with_phase():
    s = initial_state(InitialCoin(180, 90))
    np.testing.assert_allclose(s.amps[:, 0], [0, 1j], atol=1e-15)


@pytest.mark.parametrize("theta,phi", [(-1, 0), (181, 0), (90, -5), (90, 360), (90, 400)])
def test_initial_coin_rejects_out_of_range(theta, phi):
    with pytest.raises(ValueError):
        InitialCoin(theta, phi)


# --- one step ----------------------------------------------------------------


def test_step_hadamard_from_origin():
    out = final_state(InitialCoin(0, 0), Ordered(hadamard_coin()), 1)
    np.testing.assert_allclose(out.amps[:, 2], [1 / np.sqrt(2), 0], atol=1e-15)  # site 1
    np.testing.assert_allclose(out.amps[:, 0], [0, 1 / np.sqrt(2)], atol=1e-15)  # site -1


def test_step_fourier_from_origin():
    out = final_state(InitialCoin(0, 0), Ordered(fourier_coin()), 1)
    np.testing.assert_allclose(out.amps[:, 2], [1 / np.sqrt(2), 0], atol=1e-15)  # site 1
    np.testing.assert_allclose(out.amps[:, 0], [0, 1j / np.sqrt(2)], atol=1e-15)  # site -1


def test_step_rejects_non_unitary_coin():
    with pytest.raises(ValueError):
        final_state(InitialCoin(0, 0), Ordered(np.array([[1, 0], [0, 2]], dtype=complex)), 1)


def test_six_hadamard_steps_match_dense_oracle():
    init = InitialCoin(51, 0)
    policy = Ordered(hadamard_coin())
    states = evolve(init, policy, 6)
    oracle = dense_trajectory(init, policy, 6)
    for state, vec in zip(states, oracle):
        np.testing.assert_allclose(embed_state(state, 6), vec, atol=1e-10)


# --- evolve ------------------------------------------------------------------

FIVE_POLICIES = [
    Ordered(hadamard_coin()),
    DynamicSequence(SC0),
    DynamicRandom(seed=7),
    StaticRandom(seed=7),
    StaticAndDynamic(static_seed=3, dynamic_seed=11),
]


#: The length of the bench's long walks, and their coin policies.
LONG = 2048
LONG_WALK_POLICIES = [p for p in FIVE_POLICIES if not isinstance(p, DynamicSequence)]
#: FIVE_POLICIES for walks of LONG steps: the sequence is SC0 repeated.
FIVE_LONG_POLICIES = [
    DynamicSequence((SC0 * LONG)[:LONG]) if isinstance(p, DynamicSequence) else p for p in FIVE_POLICIES
]


@pytest.mark.parametrize("policy", FIVE_POLICIES)
def test_final_state_equals_last_evolve_state_bit_for_bit(policy):
    init = InitialCoin(33, 120)
    final = final_state(init, policy, 20)
    expected = evolve(init, policy, 20)[-1]
    assert final.t == expected.t
    np.testing.assert_array_equal(final.amps, expected.amps)


@pytest.mark.parametrize("policy", FIVE_POLICIES)
def test_streamed_reductions_equal_dense_states(policy):
    """rho_C(t) and m2(t) reduced from the compressed arrays match the dense states."""
    init = InitialCoin(51, 30)
    states = evolve(init, policy, 20)
    rho = coin_density_curve(init, policy, 20)
    assert rho.shape == (21, 2, 2)
    for t, state in enumerate(states):
        np.testing.assert_allclose(rho[t], reduced_coin_density(state), rtol=0, atol=1e-12)
    dense_m2 = [second_moment(position_distribution(s)) for s in states[1:]]
    np.testing.assert_allclose(moment_series(init, policy, 20).m2, dense_m2, rtol=1e-12, atol=0)


@pytest.mark.parametrize("policy", FIVE_LONG_POLICIES, ids=[type(p).__name__ for p in FIVE_POLICIES])
def test_long_moment_series_stays_near_extended_precision(policy):
    """m2 over 2048 steps against the same walk stepped and reduced in np.clongdouble.

    The |z|^2 route (np.abs(z) ** 2 summed against j^2) reads at most
    2.73e-15 relative on these walks, under StaticRandom; the bound leaves
    room for other summation orders only.
    """
    init = InitialCoin(51, 30)
    reference = []
    plan = plan_coins(policy, LONG)
    for (up, dn), scale in zip(reference_propagate(plan, init.spinor, np.clongdouble), plan.scales()[1:]):
        j = np.arange(-(len(up) - 1), len(up), 2).astype(np.longdouble)
        reference.append(np.ldexp(np.sum(j * j * (np.abs(up) ** 2 + np.abs(dn) ** 2)), -scale))
    m2 = moment_series(init, policy, LONG).m2
    assert np.max(np.abs(m2 - np.array(reference)) / np.array(reference)) < 3e-15


def dynamic_batch(steps: int, walks: int = 4) -> CoinPlan:
    """One plan whose leading axis runs the walks of DynamicRandom(seed=0 .. walks-1)."""
    plans = [plan_coins(DynamicRandom(seed=k), steps) for k in range(walks)]
    return CoinPlan(steps, plans[0].alphabet, step_bits=np.stack([p.step_bits for p in plans]))


def test_streamed_reductions_carry_batch_axes():
    init = InitialCoin(51, 30)
    batch = dynamic_batch(20)
    walks = [evolve(init, DynamicRandom(seed=k), 20) for k in range(4)]
    rows = _moment_rows(20, batch.batch)
    for t, (up, dn, q) in enumerate(_propagate(batch, init.spinor), 1):
        unscale = 2.0 ** -batch.scales()[t]
        rho, m2 = _coin_density(up, dn, q) * unscale, _second_moment(up, dn, rows) * unscale
        assert rho.shape == (4, 2, 2) and m2.shape == (4,)
        for k, states in enumerate(walks):
            np.testing.assert_allclose(rho[k], reduced_coin_density(states[t]), rtol=0, atol=1e-12)
            dense = second_moment(position_distribution(states[t]))
            np.testing.assert_allclose(m2[k], dense, rtol=1e-12, atol=0)


KERNEL_IDS = [type(p).__name__ for p in FIVE_POLICIES]
#: A batch of 32 packed sequences of 40 coins, as sampled sweeps step them.
PACKED_BATCH = _packed_plan(np.arange(7, 1 << 40, 3 << 30), 40)


@pytest.mark.parametrize(
    "plan",
    [plan_coins(p, 20) for p in FIVE_POLICIES]
    + [dynamic_batch(20), PACKED_BATCH]
    + [plan_coins(p, LONG) for p in LONG_WALK_POLICIES],
    ids=KERNEL_IDS + ["batch", "packed-batch"] + [f"{type(p).__name__}-{LONG}" for p in LONG_WALK_POLICIES],
)
def test_kernel_matches_reference_bit_for_bit(plan):
    """The buffered kernel equals the allocate-per-step reference after every step.

    The reference does `_coin_shift`'s arithmetic, so this checks that
    `_phase_shift` gives its values for one walk, a site pattern and a
    batch of walks, that of packed sequences included, once the |down>
    rows are taken out of their phase frame: (up, q dn).
    """
    spinor = InitialCoin(51, 30).spinor
    steps = 0
    # Compare before advancing: the kernel overwrites a yielded pair two steps later.
    kernel, reference = _propagate(plan, spinor), reference_propagate(plan, spinor)
    for (up, dn, q), (ref_up, ref_dn) in zip(kernel, reference):
        # The kernel keeps the walks innermost; the reference keeps them first.
        np.testing.assert_array_equal(np.moveaxis(up, 0, -1), ref_up)
        np.testing.assert_array_equal(np.moveaxis(dn * q, 0, -1), ref_dn)
        steps += 1
    assert steps == plan.steps


@pytest.mark.parametrize("policy", FIVE_POLICIES, ids=KERNEL_IDS)
def test_evolve_matches_reference_bit_for_bit(policy):
    init = InitialCoin(33, 120)
    states = evolve(init, policy, 20)
    plan = plan_coins(policy, 20)
    reference = zip(reference_propagate(plan, init.spinor), plan.scales()[1:])
    for state, ((up, dn), scale) in zip(states[1:], reference, strict=True):
        # The reference rows unscaled as the dense states are: their floats times 2^(-s/2).
        rows = np.stack([up, dn]).view(np.float64) * 2.0 ** (-scale / 2)
        np.testing.assert_array_equal(state.amps[:, ::2], rows.view(np.complex128))
        assert not state.amps[:, 1::2].any()


def assert_same_states(got, expected):
    assert len(got) == len(expected)
    for state, want in zip(got, expected):
        assert state.t == want.t
        np.testing.assert_array_equal(state.amps, want.amps)


@pytest.mark.parametrize("policy", FIVE_POLICIES, ids=KERNEL_IDS)
def test_lazy_trajectory_equals_eager_list_bit_for_bit(policy):
    init, steps = InitialCoin(33, 120), 20
    trajectory, eager = evolve(init, policy, steps), eager_evolve(init, policy, steps)
    n = len(trajectory)
    assert n == steps + 1
    kept = []
    for state in trajectory:
        kept.append(state)
    # Compared only after the loop: a kept state is never overwritten by later steps.
    assert_same_states(kept, eager)
    assert_same_states([trajectory[t] for t in range(n)], eager)
    assert_same_states([trajectory[-t] for t in range(1, n + 1)], [eager[-t] for t in range(1, n + 1)])
    for index in (slice(1, None), slice(None, None, 3), slice(3, 1)):
        assert_same_states(trajectory[index], eager[index])
    assert trajectory[3:1] == []
    for index in (n, -n - 1):
        with pytest.raises(IndexError):
            trajectory[index]


def _read_last(trajectory):
    trajectory[-1]


def _read_all(trajectory):
    for state in trajectory:
        pass


@pytest.mark.parametrize("read", [_read_last, _read_all], ids=["index", "iterate"])
def test_evolve_memory_stays_linear(read):
    # Indexing and iterating keep at most two dense states, O(steps); the
    # eager list of all 2049 states took about 134 MB.
    tracemalloc.start()
    try:
        read(evolve(InitialCoin(51, 0), DynamicRandom(seed=1), 2048))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


@pytest.mark.parametrize("batch", [dynamic_batch(20)], ids=["batch"])
def test_batch_walks_equal_single_walks_bit_for_bit(batch):
    """Walk k of a batch, the trailing axis, equals the single-walk kernel run of its bits."""
    spinor = InitialCoin(51, 30).spinor
    walks = batch.step_bits.shape[0]
    singles = [
        _propagate(CoinPlan(batch.steps, batch.alphabet, batch.site_bits, batch.step_bits[k]), spinor)
        for k in range(walks)
    ]
    steps = 0
    for (up, dn, q), *single in zip(_propagate(batch, spinor), *singles, strict=True):
        for k, (one_up, one_dn, one_q) in enumerate(single):
            np.testing.assert_array_equal(up[:, k], one_up)
            np.testing.assert_array_equal(dn[:, k] * q[k], one_dn * one_q)
        steps += 1
    assert steps == batch.steps


@pytest.mark.parametrize("plan", [PACKED_BATCH, dynamic_batch(40, 32)], ids=["sequence-alphabet", "random-alphabet"])
@pytest.mark.parametrize("phi", [0, 270])
@pytest.mark.parametrize("theta", [0, 51, 180])
def test_phase_shift_equals_coin_shift(plan, theta, phi):
    """A batch's one-multiply steps give the values of `_coin_shift`'s arithmetic, `reference_propagate`, at basis and mixed spinors.

    Out of the phase frame, (up, q dn) is compared.  Multiplying by 1, i or
    -1 is exact, so they differ at most in the sign of a zero.
    """
    spinor = InitialCoin(theta, phi).spinor
    steps = 0
    for (up, dn, q), (ref_up, ref_dn) in zip(_propagate(plan, spinor), reference_propagate(plan, spinor), strict=True):
        np.testing.assert_array_equal(np.moveaxis(up, 0, -1), ref_up)
        np.testing.assert_array_equal(np.moveaxis(dn * q, 0, -1), ref_dn)
        steps += 1
    assert steps == plan.steps


def test_batched_kernel_allocates_nothing_per_step():
    # Its two step buffers, the table of phases w with the bits that
    # index it, and slack for numpy's two ufunc buffers (which the one
    # product by a broadcast row of x fills), one step's (walks,) row x and
    # views and scalars; anything kept per step would add 256 steps' worth.
    walks, steps = 256, 256
    plan = dynamic_batch(steps, walks)
    buffers = 2 * 2 * walks * (steps + 1) * 16
    phases = (16 + 8) * steps * walks
    slack = 2 * np.getbufsize() * 16 + 2**16
    tracemalloc.start()
    try:
        for _ in _propagate(plan, InitialCoin(51, 30).spinor):
            pass
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < buffers + phases + slack


@pytest.mark.parametrize("policy", FIVE_LONG_POLICIES, ids=KERNEL_IDS)
def test_single_walk_kernel_allocates_nothing_per_step(policy):
    # It allocates two step buffers and the phases resolved once: a list of
    # the step bits and, with site bits, per-bit and per-parity copies of
    # the light cone's phases w, one entry past it, and the x tables, one
    # per parity for each pair of step bits that occurs, up to four pairs.
    # Its 1-D steps fill no ufunc buffer, so StaticAndDynamic peaks at
    # 580 KB under the bound below, which counts three step buffers, the
    # copies, the bits and the batched test's slack; anything kept per step
    # would add 2048 steps' worth.
    plan = plan_coins(policy, LONG)
    buffers = 3 * 2 * (LONG + 1) * 16
    phases = 2 * (2 * LONG + 1) * 16
    tracemalloc.start()
    try:
        for _ in _propagate(plan, InitialCoin(51, 30).spinor):
            pass
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    slack = 2 * np.getbufsize() * 16 + 2**16
    assert peak < buffers + phases + 8 * LONG + slack


def test_plan_refuses_what_the_kernel_cannot_step():
    """A batch steps per-walk phases only, and only exact {H, F} coins take bits."""
    static = plan_coins(StaticRandom(seed=9), 20)
    with pytest.raises(ValueError, match="a batch of walks cannot have site bits"):
        CoinPlan(20, static.alphabet, static.site_bits, dynamic_batch(20).step_bits)
    unit = np.stack([hadamard_coin(), fourier_coin()])
    for bits in ({"step_bits": static.site_bits[:20]}, {"site_bits": static.site_bits}):
        with pytest.raises(ValueError, match="only an alphabet of exact"):
            CoinPlan(20, unit, **bits)


@pytest.mark.parametrize("policy", FIVE_POLICIES, ids=KERNEL_IDS)
def test_states_hold_no_negative_zero(policy):
    """A basis spinor's states after t >= 1 steps print no -0: `_dense` adds +0 to the kernel's rows."""
    for state in evolve(InitialCoin(0, 0), policy, 20)[1:]:
        floats = state.amps.view(np.float64)
        assert not np.any(np.signbit(floats[floats == 0]))


@pytest.mark.parametrize(
    "policy,steps,bound",
    [
        (FIVE_LONG_POLICIES[0], LONG, 4e-15),
        (FIVE_LONG_POLICIES[1], LONG, 4e-15),
        (FIVE_LONG_POLICIES[2], LONG, 4e-15),
        (FIVE_LONG_POLICIES[3], 2 * LONG, 5e-15),
        (FIVE_LONG_POLICIES[4], 2 * LONG, 5e-15),
    ],
    ids=KERNEL_IDS,
)
def test_final_state_walks_back_to_the_initial_spinor(policy, steps, bound):
    """The walk reversed in extended precision (`oracles.backward_walk`) ends at the initial spinor.

    The steps back are unitary, so the distance, the spinor's error with
    the norm that left the light cone, is the final state's error.  On the
    exact {H, F} coins it reads 2.5e-15, 2.3e-15 and 2.4e-15 at 2048 steps
    under Ordered H, DynamicSequence and DynamicRandom, and 3.1e-15 and
    3.0e-15 at 4096 steps under StaticRandom and StaticAndDynamic, which
    have no momentum-space reference.
    """
    init = InitialCoin(51, 30)
    spinor, lost = backward_walk(plan_coins(policy, steps), final_state(init, policy, steps))
    assert np.hypot(np.linalg.norm(spinor - init.spinor), lost) < bound


@pytest.mark.parametrize("steps", [20, 600, 4096])
@pytest.mark.parametrize("symbol,coin", [("H", hadamard_coin()), ("F", fourier_coin())], ids=["H", "F"])
def test_ordered_walk_equals_its_sequence_bit_for_bit(symbol, coin, steps):
    """An ordered H or F walk is the sequence of that one symbol: same plan, same bytes, past the rescale at 512 steps too."""
    init, ordered, sequence = InitialCoin(51, 30), Ordered(coin), DynamicSequence(symbol * steps)
    for reduce in (coin_density_curve, lambda *args: moment_series(*args).m2, lambda *args: final_state(*args).amps):
        assert reduce(init, ordered, steps).tobytes() == reduce(init, sequence, steps).tobytes()


def test_only_the_h_and_f_coins_are_stepped_exactly():
    """`Ordered` H and F plan their exact sqrt(2) coins; any other coin, even one within an ulp of H, is used as given."""
    for coin, exact in ((hadamard_coin(), [[1, 1], [1, -1]]), (fourier_coin(), [[1, 1j], [1j, 1]])):
        plan = plan_coins(Ordered(coin), 5)
        assert plan.scaled
        np.testing.assert_array_equal(plan.alphabet[0], exact)
    for coin in (identity_coin(), hwp_coin(np.pi / 8)):
        plan = plan_coins(Ordered(coin), 5)
        assert not plan.scaled
        np.testing.assert_array_equal(plan.alphabet[0], coin)


def test_kernel_refuses_oversized_buffers_before_allocating():
    # 2^20 walks of 100 steps would take 10 GB of buffers; the step bits
    # are a broadcast view, so the plan itself takes no memory.
    steps, walks = 100, 1 << 20
    bits = np.broadcast_to(np.int64(0), (walks, steps))
    plan = CoinPlan(steps, plan_coins(DynamicRandom(seed=0), steps).alphabet, step_bits=bits)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"{walks} walks of steps={steps} need"):
            next(_propagate(plan, InitialCoin(51, 30).spinor))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize(
    "policy",
    [DynamicRandom(seed=0), StaticRandom(seed=0), StaticAndDynamic(static_seed=0, dynamic_seed=1)],
    ids=["dynamic", "static", "both"],
)
def test_plan_refuses_a_walk_past_the_buffer_limit_before_drawing(policy):
    # 2,796,201 steps is the longest walk whose three kernel buffers fit in
    # 256 MiB; one step more is refused before its coins are drawn.
    steps = 2_796_202
    plan_coins(Ordered(hadamard_coin()), steps - 1)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"1 walks of steps={steps} need"):
            plan_coins(policy, steps)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_single_walk_coin_density_matches_batched_rows():
    """One walk's rho_C (BLAS dot products) and its row of a batch agree at every step.

    The sweep reports batched entropies and `entropy_of_sequence` re-checks
    one sequence through the single-walk path.
    """
    init = InitialCoin(51, 30)
    curves = [coin_density_curve(init, DynamicRandom(seed=k), 200) for k in range(4)]
    for t, (up, dn, q) in enumerate(_propagate(dynamic_batch(200), init.spinor), 1):
        unscale = 2.0**-t
        rho = _coin_density(up, dn, q) * unscale
        for k, curve in enumerate(curves):
            np.testing.assert_allclose(_coin_density(up[:, k], dn[:, k], q[k]) * unscale, rho[k], rtol=0, atol=1e-15)
            np.testing.assert_allclose(curve[t], rho[k], rtol=0, atol=1e-15)


@pytest.mark.parametrize(
    "policy,steps",
    [(StaticAndDynamic(1, 2), 4096), (StaticRandom(seed=3), 4096)],
    ids=["StaticAndDynamic", "StaticRandom-wide-range"],
)
def test_final_state_memory_stays_linear_for_static_plans(policy, steps):
    # Step buffers and coin tables are O(steps), and nothing may grow per step.
    tracemalloc.start()
    try:
        final_state(InitialCoin(51, 0), policy, steps)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


# --- the record of the last run ----------------------------------------------

#: A walk past the kernel's rescale at 512 steps to an odd scale, s = 89,
#: whose dense state `_dense` rounds once.
RECORD_STEPS = 601
RECORD_POLICIES = [
    Ordered(hadamard_coin()),
    Ordered(hwp_coin(0.3)),
    DynamicSequence((SC0 * RECORD_STEPS)[:RECORD_STEPS]),
    DynamicRandom(seed=7),
    StaticRandom(seed=7),
    StaticAndDynamic(static_seed=3, dynamic_seed=11),
]
RECORD_IDS = ["Ordered-H", "Ordered-hwp", "DynamicSequence", "DynamicRandom", "StaticRandom", "StaticAndDynamic"]


def no_kernel(plan, spinor):
    """Stands in for `_propagate` where a walk must be read from the record."""
    raise AssertionError("the kernel ran again")
    yield


@pytest.mark.parametrize("reduce", [coin_density_curve, moment_series], ids=["curve", "moments"])
@pytest.mark.parametrize("init", [InitialCoin(51, 30), InitialCoin(180, 90)], ids=["51-30", "180-90"])
@pytest.mark.parametrize("policy", RECORD_POLICIES, ids=RECORD_IDS)
def test_last_state_after_a_reduction_is_read_from_the_record(monkeypatch, policy, init, reduce):
    """After a reduction of a walk, its last state comes from the run's record, byte-identical to a fresh run."""
    reduce(init, policy, RECORD_STEPS)
    with monkeypatch.context() as patched:
        patched.setattr(dtqw.walk, "_propagate", no_kernel)
        hits = [final_state(init, policy, RECORD_STEPS)]
        hits += [evolve(init, policy, RECORD_STEPS)[t] for t in (-1, RECORD_STEPS)]
    monkeypatch.setattr(dtqw.walk, "_last_run", None)
    fresh = final_state(init, policy, RECORD_STEPS)
    for hit in hits:
        assert hit.t == RECORD_STEPS
        assert hit.amps.tobytes() == fresh.amps.tobytes()


def test_only_the_last_state_alone_is_read_from_the_record(monkeypatch):
    init, policy = InitialCoin(51, 30), DynamicRandom(seed=7)
    coin_density_curve(init, policy, 40)
    monkeypatch.setattr(dtqw.walk, "_propagate", no_kernel)
    assert [state.t for state in evolve(init, policy, 40)[-1:]] == [40]
    for read in (lambda states: states[-2], lambda states: states[-2:], list):
        with pytest.raises(AssertionError, match="the kernel ran again"):
            read(evolve(init, policy, 40))


def phase_coin(phi):
    """diag(1, e^{i phi}): phase coins of two phi differ in one entry."""
    return np.diag([1, np.exp(1j * phi)])


INIT, DYNAMIC = InitialCoin(51, 30), DynamicRandom(seed=3)


@pytest.mark.parametrize(
    "recorded,asked",
    [
        ((INIT, DYNAMIC, 40), (INIT, DYNAMIC, 41)),
        ((INIT, DYNAMIC, 40), (INIT, DynamicRandom(seed=4), 40)),
        ((INIT, StaticAndDynamic(4, 3), 40), (INIT, StaticAndDynamic(5, 3), 40)),
        ((INIT, Ordered(phase_coin(0.3)), 40), (INIT, Ordered(phase_coin(0.31)), 40)),
        ((INIT, DYNAMIC, 40), (InitialCoin(51, 31), DYNAMIC, 40)),
    ],
    ids=["steps", "seed", "site-seed", "coin-entry", "spinor"],
)
def test_a_walk_with_another_input_misses_the_record(monkeypatch, recorded, asked):
    """A walk that differs from the recorded one in one part of the key steps the kernel again."""
    coin_density_curve(*recorded)
    monkeypatch.setattr(dtqw.walk, "_propagate", no_kernel)
    final_state(*recorded)
    with pytest.raises(AssertionError, match="the kernel ran again"):
        final_state(*asked)


def test_batches_and_walks_past_the_row_budget_leave_no_record(monkeypatch):
    init = InitialCoin(51, 30)
    _moments(dynamic_batch(20), init.spinor)
    _final_coin_density(PACKED_BATCH, init.spinor)
    assert dtqw.walk._last_run is None
    # A budget of 64 rows: a walk of 63 steps takes them all, one of 64 steps one more.
    monkeypatch.setattr(dtqw.walk, "_BATCH_ROWS", 64)
    moment_series(init, DynamicRandom(seed=1), 64)
    assert dtqw.walk._last_run is None
    moment_series(init, DynamicRandom(seed=1), 63)
    assert dtqw.walk._last_run is not None


def test_evolve_identity_coin_marches_right():
    states = evolve(InitialCoin(0, 0), Ordered(identity_coin()), 7)
    final = states[-1]
    np.testing.assert_allclose(final.amps[:, -1], [1, 0], atol=1e-15)  # site 7
    assert final.probabilities()[-1] == pytest.approx(1.0, abs=1e-15)


def test_evolve_identity_coin_never_splits():
    init = InitialCoin(51, 120)
    final = evolve(init, Ordered(identity_coin()), 5)[-1]
    a0, b0 = init.spinor
    assert final.amps[0, -1] == pytest.approx(a0, abs=1e-15)  # site 5
    assert final.amps[1, 0] == pytest.approx(b0, abs=1e-15)  # site -5
    assert np.count_nonzero(final.probabilities() > 1e-14) == 2


def test_evolve_three_steps_matches_dense_oracle():
    init = InitialCoin(51, 0)
    states = evolve(init, Ordered(hadamard_coin()), 3)
    oracle = dense_trajectory(init, Ordered(hadamard_coin()), 3)
    np.testing.assert_allclose(embed_state(states[-1], 3), oracle[-1], atol=1e-10)


def test_evolve_enhancer_sequence_entropy_band():
    from dtqw.entanglement import state_entropy

    final = evolve(InitialCoin(51, 0), DynamicSequence(SC0), 20)[-1]
    assert 0.96 <= state_entropy(final) <= 1.0


def test_evolve_rejects_bad_steps():
    with pytest.raises(ValueError):
        evolve(InitialCoin(51, 0), Ordered(hadamard_coin()), 0)


def test_plan_coins_rejects_an_unsupported_policy():
    with pytest.raises(TypeError, match="unsupported coin policy: 'H'"):
        plan_coins("H", 3)


def test_evolve_rejects_sequence_length_mismatch():
    with pytest.raises(ValueError):
        evolve(InitialCoin(51, 0), DynamicSequence("HFH"), 4)


def test_evolve_rejects_bad_sequence_symbols():
    with pytest.raises(ValueError):
        evolve(InitialCoin(51, 0), DynamicSequence("HXH"), 3)


@pytest.mark.parametrize(
    "policy",
    [
        DynamicRandom(seed=7),
        StaticRandom(seed=7),
        StaticAndDynamic(static_seed=3, dynamic_seed=11),
    ],
)
def test_evolve_is_deterministic_under_seed(policy):
    a = evolve(InitialCoin(33, 120), policy, 15)
    b = evolve(InitialCoin(33, 120), policy, 15)
    for sa, sb in zip(a, b):
        np.testing.assert_array_equal(sa.amps, sb.amps)


def test_plan_matches_engine_for_static_policy():
    """The per-(t, j) coin lookup and the vectorized engine agree."""
    init = InitialCoin(77, 10)
    policy = StaticAndDynamic(static_seed=5, dynamic_seed=6)
    states = evolve(init, policy, 5)
    oracle = dense_trajectory(init, policy, 5)
    np.testing.assert_allclose(embed_state(states[-1], 5), oracle[-1], atol=1e-12)


@pytest.mark.parametrize("steps", [1, 7, 64])
@pytest.mark.parametrize("seed", [0, 3, 17])
def test_random_plans_keep_the_seed_to_coin_mapping(seed, steps):
    """Bit 0 is H and bit 1 is F; a seed's first draws are the step bits or the light cone's site bits.

    Every step's coins are read as one walk steps with them: the phases w
    of its exact coins [[1, w], [w, -w^2]], which `CoinPlan.phases` yields
    as the next frame q_{t+1} (its first t + 1 entries for a site pattern).
    """

    def draw(seed, size):
        return np.random.default_rng(seed).integers(0, 2, size)

    alphabet = np.round(np.sqrt(2.0) * np.stack([hadamard_coin(), fourier_coin()]))  # exact entries
    dynamic = plan_coins(DynamicRandom(seed), steps)
    static = plan_coins(StaticRandom(seed), steps)
    both = plan_coins(StaticAndDynamic(static_seed=seed, dynamic_seed=seed + 1), steps)
    np.testing.assert_array_equal(dynamic.step_bits, draw(seed, steps))
    np.testing.assert_array_equal(static.site_bits, draw(seed, 2 * steps + 1))
    np.testing.assert_array_equal(both.site_bits, draw(seed, 2 * steps + 1))
    np.testing.assert_array_equal(both.step_bits, draw(seed + 1, steps))
    assert dynamic.site_bits is None and static.step_bits is None
    for plan in (dynamic, static, both):
        np.testing.assert_array_equal(plan.alphabet, alphabet)
        assert plan.scaled
        step_bits = np.zeros(steps, int) if plan.step_bits is None else plan.step_bits
        site_bits = np.zeros(2 * steps + 1, int) if plan.site_bits is None else plan.site_bits
        phases = list(plan.phases())
        assert len(phases) == steps
        for t, (_, q) in enumerate(phases):
            want = alphabet[step_bits[t] ^ site_bits[steps - t : steps + t + 1 : 2], 1, 0]
            light_cone = q if plan.site_bits is None else q[: t + 1]
            np.testing.assert_array_equal(np.broadcast_to(light_cone, want.shape), want)


@pytest.mark.parametrize(
    "plan",
    [plan_coins(p, 9) for p in (Ordered(hadamard_coin()), Ordered(fourier_coin()), DynamicRandom(seed=2))]
    + [plan_coins(p, 9) for p in (StaticRandom(seed=5), StaticAndDynamic(static_seed=3, dynamic_seed=4))]
    + [plan_coins(p, 520) for p in (StaticRandom(seed=6), StaticAndDynamic(static_seed=8, dynamic_seed=9))]
    + [dynamic_batch(9, 8)],
    ids=["Ordered-H", "Ordered-F", "DynamicRandom", "StaticRandom", "StaticAndDynamic"]
    + ["StaticRandom-520", "StaticAndDynamic-520", "batch"],
)
def test_phases_carry_the_frame_of_the_last_coin(plan):
    """`CoinPlan.phases` gives x_t = w_t q_t and q_{t+1} = w_t, from q_0 = 1.

    w_t is the phase of each site's coin on step t (1 for H, i for F).  A
    site pattern's rows run over the sites -t, -t+2, .., t, so entry m of
    q_t, from step t - 1, is the w of site j + 1 for the site j of entry m
    of x_t; its q_{t+1} has one more entry, for the zero top |down> row.
    The first site's index steps - t takes both parities over the steps,
    so over 520 steps, past the rescale at 512, every x table of a site
    pattern, one per parity and pair of step bits (b_t, b_{t-1}), is read.
    """
    steps, w = plan.steps, plan.alphabet[:, 1, 0]
    bits = np.zeros(steps, int) if plan.step_bits is None else plan.step_bits
    phases = list(plan.phases())
    assert len(phases) == steps
    q = np.ones(plan.batch, dtype=complex)
    for t, (x, q_next) in enumerate(phases):
        index = bits[..., t]
        if plan.site_bits is not None:
            index = index ^ plan.site_bits[steps - t : steps + t + 1 : 2]
            q = q if t else np.ones(1, dtype=complex)
            assert q_next.shape == (t + 2,)
        w_t = w[index]
        np.testing.assert_array_equal(x, w_t * q, strict=True)
        np.testing.assert_array_equal(q_next if plan.site_bits is None else q_next[: t + 1], w_t, strict=True)
        assert set(np.ravel(x).tolist()) <= {1, 1j, -1}
        q = q_next
    if plan.site_bits is not None and steps > 2 * _RESCALE:
        tables = {(bits[t], bits[t - 1], (steps - t) % 2) for t in range(1, steps)}
        assert len(tables) == (2 if plan.step_bits is None else 8)
    if plan.step_bits is None and plan.site_bits is None:
        # One coin: x = w at t = 0 and w^2 after it, the frame w throughout.
        xs, qs = zip(*phases)
        np.testing.assert_array_equal(xs, [w[0]] + [w[0] ** 2] * (steps - 1))
        np.testing.assert_array_equal(qs, [w[0]] * steps)


def test_walk_state_validates_shape():
    with pytest.raises(ValueError):
        WalkState(t=1, amps=np.zeros((2, 2), dtype=complex))
    with pytest.raises(ValueError):
        WalkState(t=-1, amps=np.zeros((2, 1), dtype=complex))
