"""Tests for the synchronization protocol: closed forms and simulator."""

import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from heraldsync.config import N_WRITE_MAX_CAP
from heraldsync.photon_stats import FockDistribution, SourceParams
from heraldsync.protocol import (
    _CHUNK_SIZE,
    _GRID_BLOCK,
    _four_fold_table,
    _heralds,
    _holds,
    _retrieved,
    _wait_success,
    CampaignRecords,
    CoincidenceStats,
    DecayModel,
    ProtocolParams,
    default_params,
    enhancement_factor,
    memory_retrieval_efficiency,
    p4c_feedback_by_n,
    p4c_feedback_closed_form,
    p4c_no_feedback,
    run_protocol_trial,
    simulate_campaign,
    simulate_campaign_records,
)

# ---------------------------------------------------------------------------
# independent oracle: full joint enumeration over herald-attempt pairs


def p4c_brute_force(params: ProtocolParams) -> float:
    """Four-fold probability by enumerating every (i, j) herald pair."""
    pa = params.source_a.herald_prob
    pb = params.source_b.herald_prob
    if pa == 0.0 or pb == 0.0:
        return 0.0
    shape_a = params.source_a.heralded_shape()
    shape_b = params.source_b.heralded_shape()

    def read_success(shape, source, hold_ns):
        g = memory_retrieval_efficiency(
            source.gamma0, hold_ns, params.decay_model, params.tau_c_us
        )
        return shape[1] * g + shape[2] * (1.0 - (1.0 - g) ** 2)

    total = 0.0
    for i in range(params.n_write_max):
        for j in range(params.n_write_max):
            weight = pa * (1.0 - pa) ** i * pb * (1.0 - pb) ** j
            later = max(i, j)
            overhead = 2.0 * params.latency_ns + params.dt_read_ns
            hold_a = (later - i) * params.dt_write_ns + overhead
            hold_b = (later - j) * params.dt_write_ns + overhead
            total += (
                weight
                * read_success(shape_a, params.source_a, hold_a)
                * read_success(shape_b, params.source_b, hold_b)
            )
    return total


def make_params(p_a=2.0e-3, p_b=2.0e-3, gamma0=0.08, **kwargs) -> ProtocolParams:
    return ProtocolParams(
        source_a=SourceParams(gamma0=gamma0, p_as=p_a),
        source_b=SourceParams(gamma0=gamma0, p_as=p_b),
        **kwargs,
    )


# ---------------------------------------------------------------------------
# memory_retrieval_efficiency


def test_decay_at_zero_hold():
    for model in DecayModel:
        assert memory_retrieval_efficiency(0.08, 0.0, model, 12.0) == 0.08


def test_decay_frozen_values():
    gauss = memory_retrieval_efficiency(0.08, 12_000.0, DecayModel.GAUSSIAN_HALF, 12.0)
    expo = memory_retrieval_efficiency(0.08, 12_000.0, DecayModel.EXPONENTIAL, 12.0)
    assert gauss == pytest.approx(0.08 * math.exp(-0.5), abs=1e-12)
    assert expo == pytest.approx(0.08 * math.exp(-1.0), abs=1e-12)


def test_decay_rejects_negative_hold():
    with pytest.raises(ValueError):
        memory_retrieval_efficiency(0.08, -1.0, DecayModel.GAUSSIAN_HALF, 12.0)


@pytest.mark.parametrize("model", list(DecayModel))
@pytest.mark.parametrize(
    "gamma0,hold,tau_c_us,name",
    [
        (0.08, 100.0, math.nan, "tau_c_us"),
        (0.08, 100.0, math.inf, "tau_c_us"),
        (math.nan, 100.0, 12.0, "gamma0"),
        (math.inf, 100.0, 12.0, "gamma0"),
        (0.08, math.nan, 12.0, "hold_time_ns"),
        (0.08, math.inf, 12.0, "hold_time_ns"),
        (0.08, np.array([0.0, math.nan]), 12.0, "hold_time_ns"),
    ],
    ids=["tau-nan", "tau-inf", "gamma0-nan", "gamma0-inf", "hold-nan", "hold-inf",
         "hold-array-nan"],
)
def test_decay_rejects_non_finite(model, gamma0, hold, tau_c_us, name):
    with pytest.raises(ValueError, match=name):
        memory_retrieval_efficiency(gamma0, hold, model, tau_c_us)


@pytest.mark.parametrize("model", list(DecayModel))
def test_decay_extremes(model):
    # 2*tau_c**2 underflowing to 0 would make the Gaussian exponent 0/0
    with pytest.raises(ValueError, match="tau_c_us"):
        memory_retrieval_efficiency(0.08, 0.0, model, 5e-324)
    # an exponent overflowing to -inf gives the exact limit 0, with no warning
    assert memory_retrieval_efficiency(0.08, 1e300, model, 12.0) == 0.0
    assert memory_retrieval_efficiency(0.08, 1e300, model, 1e-150) == 0.0


def test_decay_bounded_by_gamma0():
    rng = np.random.default_rng(0)
    holds = rng.uniform(0.0, 1e5, size=100)
    for model in DecayModel:
        values = memory_retrieval_efficiency(0.08, holds, model, 12.0)
        assert np.all(values <= 0.08) and np.all(values >= 0.0)


# ---------------------------------------------------------------------------
# p4c_no_feedback


def test_p4c_no_feedback_frozen_product():
    # gamma evaluated exactly at gamma0: zero read delay
    params = make_params(dt_read_ns=0.0)
    assert p4c_no_feedback(params) == pytest.approx(2.56e-8, rel=1e-12)


def test_p4c_no_feedback_zero_rate():
    params = make_params(p_a=0.0)
    assert p4c_no_feedback(params) == 0.0


def test_p4c_no_feedback_certainty():
    params = make_params(p_a=1.0, p_b=1.0, gamma0=1.0, dt_read_ns=0.0)
    assert p4c_no_feedback(params) == 1.0


# ---------------------------------------------------------------------------
# p4c_feedback_closed_form / enhancement_factor

BRUTE_FORCE_CASES = [
    make_params(),
    make_params(p_a=0.05, p_b=0.01, n_write_max=7),
    make_params(p_a=0.3, p_b=0.5, gamma0=0.6, n_write_max=4, dt_write_ns=500.0),
    make_params(decay_model=DecayModel.EXPONENTIAL, tau_c_us=3.0),
    make_params(p_a=1.0, p_b=1.0, gamma0=1.0, n_write_max=1),
    # microscopic sources exercise the two-excitation feed-down
    ProtocolParams(
        source_a=SourceParams(gamma0=0.5, chi=0.3, eta_as=0.8),
        source_b=SourceParams(gamma0=0.4, chi=0.1, eta_as=0.6),
        n_write_max=5,
    ),
    ProtocolParams(
        source_a=SourceParams(gamma0=0.5, p_as=0.1, eta_as=0.9),
        source_b=SourceParams(gamma0=0.5, p_as=0.2, dark_click_prob=0.05),
        n_write_max=6,
    ),
]


LATENCY_CASES = [
    make_params(p_a=0.3, p_b=0.5, gamma0=0.6, n_write_max=4, latency_ns=1500.0, tau_c_us=4.0),
    ProtocolParams(
        source_a=SourceParams(gamma0=0.5, p_as=0.2, eta_as=0.5, dark_click_prob=1e-3),
        source_b=SourceParams(gamma0=0.45, p_as=0.25, eta_as=0.6, dark_click_prob=2e-3),
        tau_c_us=8.0,
        decay_model=DecayModel.EXPONENTIAL,
        latency_ns=250.0,
    ),
]


@pytest.mark.parametrize("params", BRUTE_FORCE_CASES + LATENCY_CASES)
def test_closed_form_matches_brute_force(params):
    assert p4c_feedback_closed_form(params) == pytest.approx(
        p4c_brute_force(params), rel=1e-12
    )


@pytest.mark.parametrize("params", LATENCY_CASES)
def test_closed_form_latency_adds_rendezvous_to_every_hold(params):
    # every hold includes the message round-trip; the single-shot baseline
    # has no rendezvous and pays none
    single = replace(params, n_write_max=1)
    overhead = 2.0 * params.latency_ns + params.dt_read_ns
    shifted = replace(single, latency_ns=0.0, dt_read_ns=overhead)
    assert p4c_feedback_closed_form(single) == pytest.approx(p4c_no_feedback(shifted), rel=1e-14)
    assert p4c_no_feedback(params) == p4c_no_feedback(replace(params, latency_ns=0.0))
    assert p4c_feedback_closed_form(params) < p4c_feedback_closed_form(
        replace(params, latency_ns=0.0)
    )


@pytest.mark.parametrize("params", BRUTE_FORCE_CASES)
def test_closed_form_reduces_at_n1(params):
    single = replace(params, n_write_max=1)
    assert p4c_feedback_closed_form(single) == pytest.approx(
        p4c_no_feedback(single), rel=1e-14
    )


def test_closed_form_bounded():
    for params in BRUTE_FORCE_CASES + LATENCY_CASES:
        assert 0.0 <= p4c_feedback_closed_form(params) <= 1.0


def test_enhancement_default_profile_band():
    assert 129.0 <= enhancement_factor(default_params()) <= 143.0


def test_enhancement_exponential_variant():
    value = enhancement_factor(replace(default_params(), decay_model=DecayModel.EXPONENTIAL))
    assert value == pytest.approx(110.0, abs=2.0)


def test_enhancement_n_squared_limit():
    params = make_params(p_a=1e-6, p_b=1e-6, tau_c_us=1e9)
    assert enhancement_factor(params) == pytest.approx(144.0, rel=1e-3)


def test_enhancement_long_memory_depletion():
    # depletion factors pull the ideal N**2 slightly down at p = 2e-3
    params = make_params(tau_c_us=1e9)
    assert enhancement_factor(params) == pytest.approx(144.0, rel=0.03)
    assert enhancement_factor(params) < 144.0


def test_enhancement_trivial_n1():
    assert enhancement_factor(make_params(n_write_max=1)) == pytest.approx(1.0, rel=1e-14)


@pytest.mark.parametrize(
    "field", ["dt_write_ns", "dt_read_ns", "tau_c_us", "latency_ns"]
)
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_params_reject_non_finite(field, value):
    with pytest.raises(ValueError, match=field):
        make_params(**{field: value})


@pytest.mark.parametrize("value", [2.5, 12.0, "12", None, 0, np.int64(-1)])
def test_params_reject_non_integer_budget(value):
    with pytest.raises(ValueError, match="n_write_max"):
        make_params(n_write_max=value)


def test_params_accept_numpy_integer_budget():
    params = make_params(n_write_max=np.int64(6))
    assert p4c_feedback_closed_form(params) == p4c_feedback_closed_form(make_params(n_write_max=6))


def test_enhancement_zero_baseline_rejected():
    with pytest.raises(ValueError):
        enhancement_factor(make_params(p_a=0.0))


def test_enhancement_monotone_in_tau_and_n():
    rng = np.random.default_rng(42)
    for _ in range(50):
        params = make_params(
            p_a=10 ** rng.uniform(-3, -0.5),
            p_b=10 ** rng.uniform(-3, -0.5),
            gamma0=rng.uniform(0.05, 1.0),
            n_write_max=int(rng.integers(1, 12)),
            tau_c_us=10 ** rng.uniform(0, 2),
            decay_model=rng.choice(list(DecayModel)),
        )
        base = enhancement_factor(params)
        assert base >= 1.0 - 1e-12
        longer = enhancement_factor(replace(params, tau_c_us=params.tau_c_us * 1.5))
        more = enhancement_factor(replace(params, n_write_max=params.n_write_max + 1))
        assert longer >= base - 1e-12
        assert more >= base - 1e-12


gamma0s = st.floats(min_value=0.05, max_value=1.0)
# sparse and dense idealized sources (at p = 0.9 the depletion (qa*qb)**d
# underflows within a few hundred gaps), chi-specified shapes, dark counts
column_sources = st.one_of(
    st.builds(SourceParams, gamma0=gamma0s, p_as=st.floats(min_value=1e-4, max_value=0.05)),
    st.builds(SourceParams, gamma0=gamma0s, p_as=st.floats(min_value=0.05, max_value=0.9)),
    st.builds(
        SourceParams,
        gamma0=gamma0s,
        chi=st.floats(min_value=0.0, max_value=0.3),
        eta_as=st.floats(min_value=0.2, max_value=1.0),
    ),
    st.builds(
        SourceParams,
        gamma0=gamma0s,
        p_as=st.floats(min_value=0.01, max_value=0.3),
        eta_as=st.floats(min_value=0.5, max_value=1.0),
        dark_click_prob=st.floats(min_value=0.0, max_value=0.05),
    ),
)


@given(
    source_a=column_sources,
    source_b=column_sources,
    taus=st.lists(st.floats(min_value=0.5, max_value=300.0), min_size=1, max_size=4),
    latency_ns=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=3000.0)),
    decay_model=st.sampled_from(list(DecayModel)),
    ns=st.lists(st.integers(min_value=1, max_value=3000), min_size=1, max_size=6),
    extra_tau=st.floats(min_value=0.5, max_value=300.0),
    extra=st.integers(min_value=1, max_value=3000),
)
@settings(derandomize=True, max_examples=60, deadline=None)
def test_column_entries_bit_identical(
    source_a, source_b, taus, latency_ns, decay_model, ns, extra_tau, extra
):
    # each grid entry is the same float whichever other tau and N share the
    # grid, and in whatever order, and equals the scalar closed form there
    params = ProtocolParams(
        source_a=source_a,
        source_b=source_b,
        latency_ns=latency_ns,
        decay_model=decay_model,
    )
    grid = p4c_feedback_by_n(params, taus, ns)
    assert grid.shape == (len(taus), len(ns))
    widened = p4c_feedback_by_n(params, [extra_tau, *reversed(taus)], [extra, *reversed(ns)])
    assert widened[1:, 1:].tolist() == grid[::-1, ::-1].tolist()
    for tau, row in zip(taus, grid.tolist()):
        for n, value in zip(ns, row):
            assert value == p4c_feedback_closed_form(replace(params, tau_c_us=tau, n_write_max=n))
    small = min(ns)
    if small <= 20:
        point = replace(params, tau_c_us=taus[0], n_write_max=small)
        assert grid[0, ns.index(small)] == pytest.approx(p4c_brute_force(point), rel=1e-12)


@pytest.mark.parametrize("count", [1, _GRID_BLOCK - 1, _GRID_BLOCK, _GRID_BLOCK + 1])
@pytest.mark.parametrize("model", list(DecayModel))
def test_grid_rows_bit_identical_across_block_boundaries(count, model):
    # a row does not depend on the block it falls in, nor on its place there
    source = SourceParams(gamma0=0.3, p_as=0.02, eta_as=0.6)
    params = ProtocolParams(source_a=source, source_b=source, latency_ns=700.0, decay_model=model)
    taus = np.geomspace(0.7, 90.0, count).tolist()
    ns = (2000, 1, 17, 300)
    grid = p4c_feedback_by_n(params, taus, ns).tolist()
    assert grid == [p4c_feedback_by_n(params, [tau], ns)[0].tolist() for tau in taus]
    assert p4c_feedback_by_n(params, taus[::-1], ns).tolist() == grid[::-1]
    for tau, row in zip(taus, grid):
        for n, value in zip(ns, row):
            assert value == p4c_feedback_closed_form(replace(params, tau_c_us=tau, n_write_max=n))


def test_grid_memory_is_bounded_by_the_block():
    # 200 tau rows at the largest budget: the grid builds _GRID_BLOCK of them
    # at a time (gap terms, then their products), never all 200 at once
    params = default_params()
    taus = np.linspace(1.0, 200.0, 200).tolist()
    n = N_WRITE_MAX_CAP
    block_bytes = 2 * _GRID_BLOCK * n * 8
    tracemalloc.start()
    try:
        grid = p4c_feedback_by_n(params, taus, (n,))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert grid.shape == (200, 1)
    assert peak < 2 * block_bytes + 16 * n * 8 < len(taus) * 2 * n * 8
    assert grid[-1, 0] == p4c_feedback_closed_form(replace(params, tau_c_us=200.0, n_write_max=n))


def test_column_rejects_empty_budget():
    with pytest.raises(ValueError, match="n_write_max"):
        p4c_feedback_by_n(default_params(), [12.0], [12, 0])


# ---------------------------------------------------------------------------
# run_protocol_trial


def test_retrieved_counts_surviving_excitations():
    # draw 0 picks the excitation number, draws 1 and 2 the survival of the
    # first and second; arrays and scalars give the same counts
    draws = np.array([[0.5, 0.5, 0.5, 0.1], [0.1, 0.1, 0.9, 0.1], [0.1, 0.9, 0.1, 0.1]])
    for shape, expected in (
        (FockDistribution((0.0, 0.0, 1.0)), [2, 1, 1, 2]),
        (FockDistribution((0.2, 0.8, 0.0)), [1, 1, 0, 0]),
    ):
        assert _retrieved(shape, 0.5, draws).tolist() == expected
        assert [int(_retrieved(shape, 0.5, column)) for column in draws.T] == expected


def test_trial_certain_coincidence():
    params = make_params(p_a=1.0, p_b=1.0, gamma0=1.0, n_write_max=1, tau_c_us=1e9)
    assert run_protocol_trial(params, np.random.default_rng(0)) == (0, 0, True)
    assert _holds(params, 0, 0) == (params.dt_read_ns, params.dt_read_ns)


def test_trial_dead_source_never_coincides():
    params = make_params(p_a=0.0, p_b=1.0, gamma0=1.0)
    for seed in range(20):
        herald_a, _, four_fold = run_protocol_trial(params, np.random.default_rng(seed))
        assert not four_fold
        assert herald_a is None


@pytest.mark.parametrize("dead", ["a", "b", "both"])
@pytest.mark.parametrize(
    "dead_source",
    [SourceParams(gamma0=0.6, p_as=0.0), SourceParams(gamma0=0.6, chi=0.0, eta_as=0.5)],
    ids=["p_as", "chi"],
)
@pytest.mark.parametrize("latency_ns", [0.0, 700.0])
@pytest.mark.parametrize("model", list(DecayModel))
def test_dead_source_never_coincides_in_any_layer(dead, dead_source, latency_ns, model):
    # _wait_success is the one rule for a source that never heralds
    live = SourceParams(gamma0=0.6, p_as=0.3)
    params = ProtocolParams(
        source_a=dead_source if dead in ("a", "both") else live,
        source_b=dead_source if dead in ("b", "both") else live,
        n_write_max=5,
        latency_ns=latency_ns,
        decay_model=model,
    )
    assert dead_source.herald_prob == 0.0
    with pytest.raises(ValueError, match="herald probability is zero"):
        dead_source.heralded_shape()
    assert p4c_no_feedback(params) == 0.0
    assert p4c_feedback_by_n(params, (12.0, 3.0), (1, 3, 5)).tolist() == [[0.0] * 3] * 2
    n_trials = _CHUNK_SIZE + 100
    assert simulate_campaign(params, n_trials, seed=2).four_fold_count == 0
    blocks = list(CampaignRecords(params, n_trials, seed=2))
    assert sum(block.size for block in blocks) == n_trials
    assert not any(block["four_fold"].any() for block in blocks)


def test_trial_deterministic_for_seed():
    params = make_params(p_a=0.4, p_b=0.3, gamma0=0.9, n_write_max=5)
    runs = [
        [run_protocol_trial(params, np.random.default_rng(99)) for _ in range(50)]
        for _ in range(2)
    ]
    assert runs[0] == runs[1]


def test_trial_causality_and_hold_accounting():
    rng = np.random.default_rng(7)
    for _ in range(200):
        params = make_params(
            p_a=rng.uniform(0.1, 1.0),
            p_b=rng.uniform(0.1, 1.0),
            gamma0=rng.uniform(0.1, 1.0),
            n_write_max=int(rng.integers(1, 8)),
            dt_write_ns=rng.uniform(100.0, 1000.0),
            dt_read_ns=rng.uniform(0.0, 500.0),
            latency_ns=rng.uniform(0.0, 300.0),
        )
        herald_a, herald_b, four_fold = run_protocol_trial(params, rng)
        if four_fold:
            assert herald_a is not None and herald_b is not None
        if herald_a is not None and herald_b is not None:
            # the trial reads both memories after these holds
            holds = tuple(float(hold) for hold in _holds(params, herald_a, herald_b))
            overhead = 2.0 * params.latency_ns + params.dt_read_ns
            early, late = sorted(holds)
            assert early == pytest.approx(overhead)
            assert late >= early
            gap = abs(herald_a - herald_b) * params.dt_write_ns
            assert late - early == pytest.approx(gap)
            assert min(holds) >= params.dt_read_ns
        for herald in (herald_a, herald_b):
            assert herald is None or 0 <= herald < params.n_write_max


# ---------------------------------------------------------------------------
# simulate_campaign


def test_campaign_single_certain_trial():
    params = make_params(p_a=1.0, p_b=1.0, gamma0=1.0, n_write_max=1, tau_c_us=1e9)
    stats = simulate_campaign(params, 1, seed=0)
    assert stats == CoincidenceStats(trials=1, four_fold_count=1, p4c_hat=1.0, std_err=0.0)


def test_campaign_rejects_zero_trials():
    with pytest.raises(ValueError):
        simulate_campaign(default_params(), 0, seed=0)


def test_campaign_deterministic():
    params = make_params(p_a=0.05, p_b=0.08, gamma0=0.5, n_write_max=6)
    a = simulate_campaign(params, 200_000, seed=123)
    b = simulate_campaign(params, 200_000, seed=123)
    assert a == b
    c = simulate_campaign(params, 200_000, seed=124)
    assert c != a  # different stream actually moves the count


def check_records(params, stats, records, n_trials):
    """Invariants every record array holds, whatever the parameters."""
    assert records.shape == (n_trials,)
    assert int(records["four_fold"].sum()) == stats.four_fold_count
    assert np.array_equal(records["trial"], np.arange(n_trials))
    for column in ("herald_a", "herald_b"):
        assert np.all((records[column] >= -1) & (records[column] < params.n_write_max))
    heralded = (records["herald_a"] >= 0) & (records["herald_b"] >= 0)
    assert np.all(records["four_fold"] <= heralded)
    assert np.all(np.isnan(records["hold_a_ns"]) == ~heralded)
    assert np.all(np.isnan(records["hold_b_ns"]) == ~heralded)
    overhead = 2.0 * params.latency_ns + params.dt_read_ns
    assert np.all(records["hold_a_ns"][heralded] >= overhead - 1e-9)
    assert np.all(records["hold_b_ns"][heralded] >= overhead - 1e-9)
    assert np.allclose(
        np.minimum(records["hold_a_ns"], records["hold_b_ns"])[heralded], overhead
    )
    gap = np.abs(records["herald_a"] - records["herald_b"]) * params.dt_write_ns
    spread = np.abs(records["hold_a_ns"] - records["hold_b_ns"])
    assert np.allclose(spread[heralded], gap[heralded])


def test_campaign_records_consistent():
    params = make_params(p_a=0.1, p_b=0.2, gamma0=0.6, n_write_max=4, latency_ns=50.0)
    stats_plain = simulate_campaign(params, 70_000, seed=5)
    stats, records = simulate_campaign_records(params, 70_000, seed=5)
    assert stats == stats_plain
    check_records(params, stats, records, 70_000)

    # byte-exact reproducibility
    _, records2 = simulate_campaign_records(params, 70_000, seed=5)
    assert records.tobytes() == records2.tobytes()


# three full chunks and a partial one
HERALD_TRIALS = 3 * _CHUNK_SIZE + 1234

DENSE_DARK = ProtocolParams(
    source_a=SourceParams(gamma0=0.5, p_as=0.2, eta_as=0.5, dark_click_prob=1e-3),
    source_b=SourceParams(gamma0=0.45, p_as=0.25, eta_as=0.6, dark_click_prob=2e-3),
    tau_c_us=8.0,
)


def herald_within(p: float, n_max: int) -> float:
    """P = 1 - (1-p)**N: a node heralds within its write budget."""
    return -math.expm1(n_max * math.log1p(-p))


def p_for_herald_within(big_p: float, n_max: int) -> float:
    """The per-attempt probability at which a node heralds with ``big_p``."""
    return -math.expm1(math.log1p(-big_p) / n_max)


def assert_heralds_follow_law(records, column, p, n_max):
    # herald count ~ Binomial(n, 1-(1-p)^N), attempt index ~ the geometric
    # law truncated to N attempts; 1e-3 level
    big_p = herald_within(p, n_max)
    attempts = records[column][records[column] >= 0]
    k, n = attempts.size, records.size
    tail = min(sps.binom.cdf(k, n, big_p), sps.binom.sf(k - 1, n, big_p))
    assert 2.0 * tail > 1e-3, (column, k, n * big_p)
    if n_max > 1:
        law = p * (1.0 - p) ** np.arange(n_max) / big_p
        observed = np.bincount(attempts, minlength=n_max)
        assert sps.chisquare(observed, k * law / law.sum()).pvalue > 1e-3, column


# pairs whose P = 1-(1-p)^N sits just below 1/2, just above it, and one
# of each
BELOW_HALF = p_for_herald_within(0.45, 6)
ABOVE_HALF = p_for_herald_within(0.55, 6)


@pytest.mark.parametrize(
    "params",
    [
        pytest.param(default_params(), id="sparse"),
        pytest.param(DENSE_DARK, id="dense-dark"),
        pytest.param(make_params(p_a=0.3, p_b=0.05, n_write_max=1), id="n1"),
        pytest.param(make_params(p_a=BELOW_HALF, p_b=BELOW_HALF, n_write_max=6), id="below-half"),
        pytest.param(make_params(p_a=ABOVE_HALF, p_b=ABOVE_HALF, n_write_max=6), id="above-half"),
        pytest.param(make_params(p_a=ABOVE_HALF, p_b=BELOW_HALF, n_write_max=6), id="mixed"),
    ],
)
def test_herald_sampler_matches_binomial_and_truncated_geometric(params):
    # per node, on a fixed seed, at the 1e-3 level
    stats, records = simulate_campaign_records(params, HERALD_TRIALS, seed=77)
    check_records(params, stats, records, HERALD_TRIALS)
    for source, column in ((params.source_a, "herald_a"), (params.source_b, "herald_b")):
        assert_heralds_follow_law(records, column, source.herald_prob, params.n_write_max)


def test_herald_sampler_extremes():
    # p = 1 heralds every trial at attempt 0, p = 0 (and a p too small for
    # any chunk) never heralds; nothing is jointly heralded
    for never in (0.0, 1e-300):
        params = make_params(p_a=1.0, p_b=never)
        stats, records = simulate_campaign_records(params, HERALD_TRIALS, seed=3)
        assert np.all(records["herald_a"] == 0)
        assert np.all(records["herald_b"] == -1)
        assert np.all(np.isnan(records["hold_a_ns"]) & np.isnan(records["hold_b_ns"]))
        assert stats.four_fold_count == 0 and not records["four_fold"].any()
    certain = make_params(p_a=1.0, p_b=1.0, gamma0=1.0, tau_c_us=1e9)
    assert simulate_campaign(certain, HERALD_TRIALS, seed=3).four_fold_count == HERALD_TRIALS
    # the same extremes beside a partner that heralds in most trials
    # (P = 0.986), on either node
    partner = 0.3
    for extreme, attempt in ((1.0, 0), (0.0, -1), (1e-300, -1)):
        for tag, pair in (("a", (extreme, partner)), ("b", (partner, extreme))):
            params = make_params(p_a=pair[0], p_b=pair[1])
            stats, records = simulate_campaign_records(params, HERALD_TRIALS, seed=3)
            check_records(params, stats, records, HERALD_TRIALS)
            assert np.all(records[f"herald_{tag}"] == attempt)
            other = "herald_b" if tag == "a" else "herald_a"
            assert_heralds_follow_law(records, other, partner, params.n_write_max)
            if attempt < 0:
                assert stats.four_fold_count == 0


@pytest.mark.parametrize("p", [5e-324, 1e-310, 1e-300, 1e-17])
def test_tiny_herald_probabilities_never_herald_and_never_warn(p):
    # lambda = -log(1 - p) is as tiny as p: E / lambda would overflow
    # without the cap
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for m in (1, 3, _CHUNK_SIZE):
            positions, attempts = _heralds(np.random.default_rng(5), p, 12, m)
            assert positions.size == attempts.size == 0
        for pair, tiny in (((p, 0.3), "herald_a"), ((0.3, p), "herald_b"), ((p, p), "herald_a")):
            params = make_params(p_a=pair[0], p_b=pair[1])
            assert simulate_campaign(params, HERALD_TRIALS, seed=6).four_fold_count == 0
            records = np.concatenate([*CampaignRecords(params, HERALD_TRIALS, seed=6)])
            assert np.all(records[tiny] == -1) and not records["four_fold"].any()


@pytest.mark.parametrize("p", [0.0, 5e-324, 1e-17, 0.3, 1.0])
def test_heralds_on_an_empty_index_space(p):
    # node B is drawn over A's heralded trials and, for records, over A's
    # empty ones; either space can be empty
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        positions, attempts = _heralds(np.random.default_rng(5), p, 12, 0)
        assert positions.dtype == attempts.dtype == np.int64
        assert positions.size == attempts.size == 0
        for pair in ((0.0, p), (1.0, p)):
            params = make_params(p_a=pair[0], p_b=pair[1])
            stats = simulate_campaign(params, 1000, seed=6)
            records = np.concatenate([*CampaignRecords(params, 1000, seed=6)])
            check_records(params, stats, records, 1000)


@pytest.mark.parametrize(
    "p_a,p_b",
    [
        pytest.param(2.0e-3, 2.0e-3, id="sparse"),
        pytest.param(0.2, 0.25, id="dense"),
        pytest.param(2.0e-3, 0.25, id="a-sparse-b-dense"),
        pytest.param(0.2, 2.0e-3, id="a-dense-b-sparse"),
    ],
)
def test_node_b_follows_its_law_where_a_heralded_and_where_not(p_a, p_b):
    # B is drawn over A's heralded trials for the count, and over A's empty
    # trials for records only: on each side its herald count and attempt
    # histogram follow B's own law
    params = make_params(p_a=p_a, p_b=p_b)
    _, records = simulate_campaign_records(params, HERALD_TRIALS, seed=77)
    a_heralded = records["herald_a"] >= 0
    assert 0 < np.count_nonzero(a_heralded) < HERALD_TRIALS
    for side in (a_heralded, ~a_heralded):
        assert_heralds_follow_law(records[side], "herald_b", p_b, params.n_write_max)


@pytest.mark.parametrize("params", BRUTE_FORCE_CASES + LATENCY_CASES)
def test_four_fold_table_is_the_closed_form_gap_terms(params):
    # the campaign's per-gap success is the closed form's r_a * r_b at that
    # gap, from the same helper, so equal to the last bit; weighted by the
    # attempt law it sums back to the closed form
    n = params.n_write_max
    ra_wait, rb_wait = _wait_success(params, np.arange(n, dtype=float))
    table = _four_fold_table(params)
    assert table.shape == (2 * n - 1,)
    for g in range(-(n - 1), n):
        expected = ra_wait[g] * rb_wait[0] if g >= 0 else ra_wait[0] * rb_wait[-g]
        assert table[g + n - 1] == expected, g
    pa, pb = params.source_a.herald_prob, params.source_b.herald_prob
    i = np.arange(n)
    weight_a, weight_b = pa * (1.0 - pa) ** i, pb * (1.0 - pb) ** i
    gaps = i[None, :] - i[:, None] + n - 1  # [attempt_a, attempt_b]
    total = (weight_a[:, None] * weight_b[None, :] * table[gaps]).sum()
    assert total == pytest.approx(p4c_feedback_closed_form(params), rel=1e-12)


# a two-excitation memory beside a single-excitation one, so that the
# table is not symmetric in the gap and a swapped orientation shows
ASYMMETRIC_DENSE = ProtocolParams(
    source_a=SourceParams(gamma0=0.9, chi=0.3, eta_as=1.0),
    source_b=SourceParams(gamma0=0.3, p_as=0.3),
    n_write_max=8,
    tau_c_us=2.0,
    decay_model=DecayModel.EXPONENTIAL,
)


@pytest.mark.parametrize(
    "params",
    [pytest.param(DENSE_DARK, id="dense-dark"), pytest.param(ASYMMETRIC_DENSE, id="asymmetric")],
)
def test_records_four_fold_per_gap_matches_table(params):
    # every signed-gap stratum with >= 500 joint trials has a four-fold
    # fraction consistent with its table entry: exact binomial tails,
    # Bonferroni over the strata at the 1e-3 level
    n = params.n_write_max
    _, records = simulate_campaign_records(params, HERALD_TRIALS, seed=41)
    joint = (records["herald_a"] >= 0) & (records["herald_b"] >= 0)
    gap = records["herald_b"][joint] - records["herald_a"][joint]
    hits = records["four_fold"][joint]
    table = _four_fold_table(params)
    strata = [g for g in range(-(n - 1), n) if np.count_nonzero(gap == g) >= 500]
    assert len(strata) >= 7
    for g in strata:
        size = np.count_nonzero(gap == g)
        k = np.count_nonzero(hits[gap == g])
        p = table[g + n - 1]
        tail = min(sps.binom.cdf(k, size, p), sps.binom.sf(k - 1, size, p))
        assert 2.0 * tail > 1e-3 / len(strata), (g, k, size * p)


herald_probs = st.one_of(
    st.sampled_from([0.0, 1.0]),
    st.floats(min_value=-4.0, max_value=0.0).map(lambda e: 10.0**e),
)


@given(
    p_a=herald_probs,
    p_b=herald_probs,
    n_write_max=st.integers(min_value=1, max_value=30),
    latency_ns=st.floats(min_value=0.0, max_value=3000.0),
    decay_model=st.sampled_from(list(DecayModel)),
    n_trials=st.integers(min_value=1, max_value=2).flatmap(
        lambda k: st.integers(k * _CHUNK_SIZE - 3, k * _CHUNK_SIZE + 3)
    ),
    seed=st.integers(min_value=0, max_value=2**63 - 1),
)
@settings(derandomize=True, max_examples=25, deadline=None)
def test_campaign_count_and_records_agree(
    p_a, p_b, n_write_max, latency_ns, decay_model, n_trials, seed
):
    params = make_params(
        p_a=p_a,
        p_b=p_b,
        gamma0=0.7,
        n_write_max=n_write_max,
        latency_ns=latency_ns,
        decay_model=decay_model,
        tau_c_us=3.0,
    )
    stats, records = simulate_campaign_records(params, n_trials, seed)
    assert simulate_campaign(params, n_trials, seed) == stats
    check_records(params, stats, records, n_trials)
    assert simulate_campaign_records(params, n_trials, seed)[1].tobytes() == records.tobytes()


def z_score(stats: CoincidenceStats, expected: float) -> float:
    se = math.sqrt(expected * (1.0 - expected) / stats.trials)
    return (stats.p4c_hat - expected) / se


@pytest.mark.parametrize(
    "params,n_trials",
    [
        (make_params(p_a=0.05, p_b=0.02, gamma0=0.5, n_write_max=8), 300_000),
        (
            ProtocolParams(
                source_a=SourceParams(gamma0=0.5, chi=0.3, eta_as=0.8),
                source_b=SourceParams(gamma0=0.4, chi=0.2, eta_as=0.6),
                n_write_max=5,
            ),
            200_000,
        ),
        (
            ProtocolParams(
                source_a=SourceParams(gamma0=0.7, p_as=0.15, dark_click_prob=0.02),
                source_b=SourceParams(gamma0=0.7, p_as=0.15, eta_as=0.5),
                n_write_max=4,
            ),
            200_000,
        ),
        (make_params(p_a=0.05, p_b=0.02, gamma0=0.5, n_write_max=8, latency_ns=350.0), 300_000),
        (
            ProtocolParams(
                source_a=SourceParams(gamma0=0.5, chi=0.3, eta_as=0.8),
                source_b=SourceParams(gamma0=0.4, chi=0.2, eta_as=0.6),
                n_write_max=5,
                tau_c_us=4.0,
                latency_ns=1500.0,
            ),
            200_000,
        ),
        (
            ProtocolParams(
                source_a=SourceParams(gamma0=0.7, p_as=0.15, dark_click_prob=0.02),
                source_b=SourceParams(gamma0=0.7, p_as=0.15, eta_as=0.5),
                n_write_max=4,
                tau_c_us=2.0,
                decay_model=DecayModel.EXPONENTIAL,
                latency_ns=800.0,
            ),
            200_000,
        ),
    ],
)
def test_campaign_matches_closed_form(params, n_trials):
    stats = simulate_campaign(params, n_trials, seed=2024)
    assert abs(z_score(stats, p4c_feedback_closed_form(params))) < 4.0


CAMPAIGN_PROPERTY_TRIALS = 300_000
# herald probabilities that put P = 1-(1-p)^N on both sides of 1/2, with
# memories and holds that leave most examples hundreds of expected counts
property_gamma0s = st.floats(min_value=0.3, max_value=1.0)
campaign_sources = st.one_of(
    st.builds(SourceParams, gamma0=property_gamma0s, p_as=st.floats(min_value=0.08, max_value=0.5)),
    st.builds(
        SourceParams,
        gamma0=property_gamma0s,
        chi=st.floats(min_value=0.15, max_value=0.3),
        eta_as=st.floats(min_value=0.4, max_value=1.0),
    ),
    st.builds(
        SourceParams,
        gamma0=property_gamma0s,
        p_as=st.floats(min_value=0.08, max_value=0.4),
        eta_as=st.floats(min_value=0.5, max_value=1.0),
        dark_click_prob=st.floats(min_value=0.0, max_value=0.05),
    ),
)


@given(
    source_a=campaign_sources,
    source_b=campaign_sources,
    tau_c_us=st.floats(min_value=1.0, max_value=30.0),
    n_write_max=st.integers(min_value=1, max_value=12),
    latency_ns=st.floats(min_value=0.0, max_value=1500.0),
    decay_model=st.sampled_from(list(DecayModel)),
)
# P below 1/2 on both nodes, above it on both, and one of each
@example(
    source_a=SourceParams(gamma0=0.6, p_as=0.05),
    source_b=SourceParams(gamma0=0.5, chi=0.1, eta_as=0.5),
    tau_c_us=6.0,
    n_write_max=8,
    latency_ns=300.0,
    decay_model=DecayModel.GAUSSIAN_HALF,
)
@example(
    source_a=SourceParams(gamma0=0.5, p_as=0.3, eta_as=0.7, dark_click_prob=0.02),
    source_b=SourceParams(gamma0=0.8, p_as=0.4),
    tau_c_us=4.0,
    n_write_max=6,
    latency_ns=900.0,
    decay_model=DecayModel.EXPONENTIAL,
)
@example(
    source_a=SourceParams(gamma0=0.9, p_as=0.4),
    source_b=SourceParams(gamma0=0.4, p_as=0.05, eta_as=0.6, dark_click_prob=0.01),
    tau_c_us=12.0,
    n_write_max=10,
    latency_ns=0.0,
    decay_model=DecayModel.GAUSSIAN_HALF,
)
@settings(derandomize=True, max_examples=40, deadline=None)
def test_campaign_property_matches_closed_form(
    source_a, source_b, tau_c_us, n_write_max, latency_ns, decay_model
):
    params = ProtocolParams(
        source_a=source_a,
        source_b=source_b,
        n_write_max=n_write_max,
        tau_c_us=tau_c_us,
        latency_ns=latency_ns,
        decay_model=decay_model,
    )
    stats = simulate_campaign(params, CAMPAIGN_PROPERTY_TRIALS, seed=2025)
    assert abs(z_score(stats, p4c_feedback_closed_form(params))) < 4.0


def test_campaign_matches_trial_loop():
    # the vectorized sampler and the single-trial reference implement the
    # same process: compare four-fold rates by a two-sample z test
    params = make_params(p_a=0.2, p_b=0.15, gamma0=0.7, n_write_max=4)
    n = 40_000
    rng = np.random.default_rng(11)
    loop_hits = sum(run_protocol_trial(params, rng)[2] for _ in range(n))
    stats = simulate_campaign(params, n, seed=12)
    p_pool = (loop_hits + stats.four_fold_count) / (2 * n)
    se = math.sqrt(2.0 * p_pool * (1.0 - p_pool) / n)
    assert abs(loop_hits / n - stats.p4c_hat) < 4.0 * se


# about 2 s of trials in all; derandomized, so the examples never change
TRIAL_LOOP_EXAMPLES = 20
TRIAL_LOOP_TRIALS = 2_500


@given(
    p_a=st.floats(min_value=0.05, max_value=0.9),
    p_b=st.floats(min_value=0.05, max_value=0.9),
    gamma0=st.floats(min_value=0.3, max_value=1.0),
    tau_c_us=st.floats(min_value=0.5, max_value=30.0),
    n_write_max=st.integers(min_value=1, max_value=8),
    latency_ns=st.floats(min_value=0.0, max_value=2000.0),
    decay_model=st.sampled_from(list(DecayModel)),
)
@settings(derandomize=True, max_examples=TRIAL_LOOP_EXAMPLES, deadline=None)
def test_trial_loop_matches_closed_form(
    p_a, p_b, gamma0, tau_c_us, n_write_max, latency_ns, decay_model
):
    # the single-trial reference across latencies and both decay models
    params = make_params(
        p_a=p_a,
        p_b=p_b,
        gamma0=gamma0,
        n_write_max=n_write_max,
        tau_c_us=tau_c_us,
        latency_ns=latency_ns,
        decay_model=decay_model,
    )
    rng = np.random.default_rng(31)
    hits = sum(run_protocol_trial(params, rng)[2] for _ in range(TRIAL_LOOP_TRIALS))
    stats = CoincidenceStats.from_counts(TRIAL_LOOP_TRIALS, hits)
    assert abs(z_score(stats, p4c_feedback_closed_form(params))) < 4.0


def test_campaign_sweep_tracks_closed_form():
    # randomized sweep: the empirical rate stays within 4 binomial standard
    # errors of the closed form in >= 99% of configurations
    rng = np.random.default_rng(314)
    n_trials = 20_000
    passes = 0
    sweeps = 100
    for k in range(sweeps):
        params = make_params(
            p_a=10 ** rng.uniform(-3, math.log10(0.5)),
            p_b=10 ** rng.uniform(-3, math.log10(0.5)),
            gamma0=rng.uniform(0.3, 1.0),
            n_write_max=int(rng.integers(1, 13)),
            tau_c_us=10 ** rng.uniform(0, 2),
        )
        expected = p4c_feedback_closed_form(params)
        stats = simulate_campaign(params, n_trials, seed=9000 + k)
        se = math.sqrt(expected * (1.0 - expected) / n_trials)
        if abs(stats.p4c_hat - expected) < 4.0 * se:
            passes += 1
    assert passes >= 99


def test_campaign_latency_shifts_rate():
    # a long rendezvous overhead decays both memories before the read
    base = make_params(p_a=0.5, p_b=0.5, gamma0=1.0, n_write_max=2, tau_c_us=2.0)
    slow = replace(base, latency_ns=4_000.0)
    fast_stats = simulate_campaign(base, 50_000, seed=1)
    slow_stats = simulate_campaign(slow, 50_000, seed=1)
    assert slow_stats.p4c_hat < fast_stats.p4c_hat
