"""Tests for the HOM and CHSH measurement models."""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from heraldsync.interference import (
    TIME_BANDWIDTH_PRODUCT,
    AnalyzerSettings,
    EffectiveTwoPhotonState,
    HOMResult,
    ScanDomain,
    TemporalMode,
    chsh_from_correlations,
    correlation,
    effective_state,
    hom_coincidence,
    hom_scan,
    joint_outcome_probabilities,
    mode_overlap,
    predicted_S,
    sample_chsh_experiment,
)

ROOT2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# mode_overlap


def test_overlap_identical_modes():
    m = TemporalMode()
    assert mode_overlap(m, m) == 1.0


def test_overlap_half_at_half_width_delay():
    m1 = TemporalMode(arrival_offset_ns=12.5, coherence_fwhm_ns=25.0)
    m2 = TemporalMode(arrival_offset_ns=0.0, coherence_fwhm_ns=25.0)
    assert mode_overlap(m1, m2) == pytest.approx(0.5, abs=1e-12)


def test_overlap_half_at_half_width_detuning():
    half_mhz = TIME_BANDWIDTH_PRODUCT / 25.0 * 1e3 / 2.0  # 17.6508 MHz
    m1 = TemporalMode(frequency_offset_mhz=half_mhz)
    m2 = TemporalMode()
    assert mode_overlap(m1, m2) == pytest.approx(0.5, abs=1e-12)


def test_overlap_symmetric_bounded_and_peaked():
    rng = np.random.default_rng(5)
    for _ in range(200):
        m1 = TemporalMode(rng.normal(0, 30), 25.0, rng.normal(0, 30))
        m2 = TemporalMode(rng.normal(0, 30), 25.0, rng.normal(0, 30))
        o12 = mode_overlap(m1, m2)
        assert o12 == mode_overlap(m2, m1)
        assert 0.0 < o12 <= 1.0
        distinct = (
            m1.arrival_offset_ns != m2.arrival_offset_ns
            or m1.frequency_offset_mhz != m2.frequency_offset_mhz
        )
        assert (o12 < 1.0) == distinct


def test_overlap_rejects_unequal_widths():
    with pytest.raises(ValueError):
        mode_overlap(TemporalMode(coherence_fwhm_ns=25.0), TemporalMode(coherence_fwhm_ns=30.0))


def test_mode_rejects_nonpositive_width():
    with pytest.raises(ValueError):
        TemporalMode(coherence_fwhm_ns=0.0)


@pytest.mark.parametrize("width", [math.nan, math.inf])
def test_mode_rejects_non_finite_width(width):
    with pytest.raises(ValueError, match="coherence_fwhm_ns"):
        TemporalMode(coherence_fwhm_ns=width)


@pytest.mark.parametrize("width", [1e-200, 5e-324])
def test_mode_rejects_width_whose_sigma_squared_underflows(width):
    # the time overlap would be 0/0 at zero delay
    with pytest.raises(ValueError, match="coherence_fwhm_ns"):
        TemporalMode(coherence_fwhm_ns=width)


def test_overlap_of_huge_width_reaches_zero_silently():
    # the frequency exponent overflows to -inf, and exp(-inf) = 0 is the limit
    wide = TemporalMode(coherence_fwhm_ns=1e300)
    detuned = TemporalMode(coherence_fwhm_ns=1e300, frequency_offset_mhz=1.0)
    assert mode_overlap(wide, detuned) == 0.0


def test_time_bandwidth_identity():
    assert TIME_BANDWIDTH_PRODUCT == pytest.approx(0.88254, abs=5e-6)
    for fwhm in np.linspace(1.0, 200.0, 40):
        _, dip_fwhm = hom_scan(0.0, 0.0, 1.0, 1.0, fwhm, ScanDomain.FREQUENCY, [0.0])
        fwhm_ghz = dip_fwhm * 1e-3
        assert fwhm * fwhm_ghz == pytest.approx(TIME_BANDWIDTH_PRODUCT, rel=1e-12)


# ---------------------------------------------------------------------------
# hom_coincidence


def test_hom_ideal_photons():
    result = hom_coincidence(0.0, 0.0, 1.0, 1.0, overlap=1.0)
    assert result.c_dip == 0.0
    assert result.visibility == 1.0


def test_hom_measured_alpha_pair_visibility():
    result = hom_coincidence(0.12, 0.17, 1.0, 1.0, overlap=1.0)
    assert result.visibility == pytest.approx(1.0 / 1.145, abs=1e-12)


def test_hom_no_overlap_keeps_plateau():
    result = hom_coincidence(0.12, 0.17, 1.0, 1.0, overlap=0.0)
    assert result.c_dip == result.c_plat
    assert result.visibility == 0.0


def test_hom_symmetric_visibility_formula():
    for alpha in np.linspace(0.0, 1.0, 21):
        result = hom_coincidence(alpha, alpha, 0.3, 0.3, overlap=1.0)
        assert result.visibility == pytest.approx(1.0 / (1.0 + alpha), abs=1e-12)


def test_hom_visibility_decreasing_in_alpha():
    previous = None
    for alpha in np.linspace(0.0, 1.0, 11):
        vis = hom_coincidence(alpha, 0.1, 1.0, 1.0).visibility
        if previous is not None:
            assert vis < previous
        previous = vis
    previous = None
    for alpha in np.linspace(0.0, 1.0, 11):
        vis = hom_coincidence(0.1, alpha, 1.0, 1.0).visibility
        if previous is not None:
            assert vis < previous
        previous = vis


def test_hom_zero_plateau_rejected():
    with pytest.raises(ValueError, match="plateau"):
        hom_coincidence(0.0, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError, match="plateau"):
        hom_scan(0.0, 0.0, 0.0, 0.0, 25.0, ScanDomain.TIME, [-10.0, 0.0, 10.0])


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -0.1])
@pytest.mark.parametrize("position,name", enumerate(["alpha1", "alpha2", "p_i1", "p_i2"]))
def test_hom_names_bad_source_parameter(position, name, value):
    args = [0.12, 0.17, 1.0, 1.0]
    args[position] = value
    with pytest.raises(ValueError, match=name):
        hom_coincidence(*args)


@pytest.mark.parametrize(
    "args,name",
    [
        ((0.12, 0.17, 1.0, 1e300), "p_i2"),
        ((0.12, 0.17, 1e300, 1.0), "p_i1"),
        ((1e300, 0.17, 1e10, 1.0), "p_i1"),
        ((0.0, 0.0, 1e200, 1e200), "p_i2"),
    ],
)
def test_two_photon_rate_overflow_names_a_rate(args, name):
    # every input is finite; the rates built from them are not
    for stage in (hom_coincidence, effective_state):
        with pytest.raises(ValueError, match=f"^{name} overflows"):
            stage(*args)


def test_hom_result_invariant():
    with pytest.raises(ValueError):
        HOMResult(c_plat=0.1, c_dip=0.2, visibility=-1.0)


# ---------------------------------------------------------------------------
# hom_scan


def crossing_fwhm(scan_fn, plateau, floor):
    """Half-depth crossing of an analytic dip, found numerically."""
    half_level = (plateau + floor) / 2.0
    right = brentq(lambda x: scan_fn(x) - half_level, 0.0, 1e4, xtol=1e-10)
    return 2.0 * right


def test_scan_time_fwhm_matches_numeric_crossing():
    fwhm = 25.0
    coincidence, dip_fwhm = hom_scan(
        0.12, 0.17, 1.0, 1.0, fwhm, ScanDomain.TIME, np.linspace(-60, 60, 241)
    )
    floor = coincidence.min()

    def curve(x):
        return float(hom_scan(0.12, 0.17, 1.0, 1.0, fwhm, ScanDomain.TIME, [x])[0][0])

    numeric = crossing_fwhm(curve, hom_coincidence(0.12, 0.17, 1.0, 1.0).c_plat, curve(0.0))
    assert dip_fwhm == 25.0  # identity by construction
    assert numeric == pytest.approx(25.0, abs=1e-6)
    assert floor == pytest.approx(curve(0.0), abs=1e-15)


def test_scan_frequency_fwhm_matches_numeric_crossing():
    fwhm = 25.0
    _, dip_fwhm = hom_scan(
        0.0, 0.0, 1.0, 1.0, fwhm, ScanDomain.FREQUENCY, np.linspace(-30, 30, 121)
    )

    def curve(x):
        return float(hom_scan(0.0, 0.0, 1.0, 1.0, fwhm, ScanDomain.FREQUENCY, [x])[0][0])

    numeric = crossing_fwhm(curve, hom_coincidence(0.0, 0.0, 1.0, 1.0).c_plat, curve(0.0))
    assert dip_fwhm == pytest.approx(35.3017, abs=1e-3)
    assert numeric == pytest.approx(dip_fwhm, abs=1e-6)


@pytest.mark.parametrize("field", ["arrival_offset_ns", "frequency_offset_mhz"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_mode_rejects_non_finite_offset(field, value):
    with pytest.raises(ValueError, match=field):
        TemporalMode(**{field: value})


def test_scan_tails_reach_plateau():
    plateau = hom_coincidence(0.12, 0.17, 1.0, 1.0).c_plat
    for domain, far in ((ScanDomain.TIME, 1e4), (ScanDomain.FREQUENCY, 1e4)):
        coincidence, _ = hom_scan(0.12, 0.17, 1.0, 1.0, 25.0, domain, [-far, 0.0, far])
        assert coincidence[0] == pytest.approx(plateau, rel=1e-12)
        assert coincidence[-1] == pytest.approx(plateau, rel=1e-12)
        assert coincidence[1] < plateau


def test_scan_rejects_bad_grid():
    with pytest.raises(ValueError):
        hom_scan(0.1, 0.1, 1.0, 1.0, 25.0, ScanDomain.TIME, [])
    with pytest.raises(ValueError):
        hom_scan(0.1, 0.1, 1.0, 1.0, 25.0, ScanDomain.TIME, [1.0, -1.0])


@pytest.mark.parametrize("domain", list(ScanDomain))
@pytest.mark.parametrize(
    "grid",
    [[math.nan], [math.inf], [-math.inf], [0.0, math.nan], [0.0, math.inf], [-math.inf, 0.0]],
)
def test_scan_rejects_non_finite_grid(domain, grid):
    # each grid passes the ascending-order check, which NaN and a rising
    # infinity get through
    with pytest.raises(ValueError, match="grid values must be finite"):
        hom_scan(0.12, 0.17, 1.0, 1.0, 25.0, domain, grid)


# ---------------------------------------------------------------------------
# effective_state


def test_effective_state_pure_singlet():
    state = effective_state(0.0, 0.0, 1.0, 1.0)
    assert state.w_singlet == 1.0
    assert state.w_hh == state.w_vv == 0.0


def test_effective_state_frozen_weights():
    state = effective_state(0.12, 0.17, 1.0, 1.0)
    assert state.w_singlet == pytest.approx(0.8733624454148472, abs=1e-12)
    assert state.w_hh == pytest.approx(0.05240174672489083, abs=1e-12)
    assert state.w_vv == pytest.approx(0.07423580786026202, abs=1e-12)


def test_effective_state_symmetric_singlet_weight():
    for alpha in np.linspace(0.0, 1.0, 15):
        state = effective_state(alpha, alpha, 0.2, 0.2)
        assert state.w_singlet == pytest.approx(1.0 / (1.0 + alpha), abs=1e-12)


def test_effective_state_rejects_empty():
    with pytest.raises(ValueError):
        effective_state(0.1, 0.1, 0.0, 0.0)


def test_effective_state_weight_validation():
    with pytest.raises(ValueError):
        EffectiveTwoPhotonState(0.5, 0.2, 0.2)


@pytest.mark.parametrize("field", ["w_singlet", "w_hh", "w_vv"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -0.25])
def test_effective_state_rejects_bad_weight(field, value):
    weights = {"w_singlet": 0.5, "w_hh": 0.25, "w_vv": 0.25, field: value}
    with pytest.raises(ValueError, match=field):
        EffectiveTwoPhotonState(**weights)


# ---------------------------------------------------------------------------
# correlation


def test_correlation_singlet_anticorrelated():
    singlet = effective_state(0.0, 0.0, 1.0, 1.0)
    assert correlation(singlet, 30.0, 30.0) == pytest.approx(-1.0, abs=1e-15)
    assert correlation(singlet, 0.0, 22.5) == pytest.approx(-ROOT2 / 2.0, abs=1e-12)


def test_correlation_frozen_mixed_state():
    state = effective_state(0.12, 0.17, 1.0, 1.0)
    assert correlation(state, 0.0, 22.5) == pytest.approx(-0.5280142339864613, abs=1e-12)


def test_correlation_bounded():
    rng = np.random.default_rng(17)
    for _ in range(500):
        w = rng.dirichlet((1.0, 1.0, 1.0))
        state = EffectiveTwoPhotonState(*w)
        e = correlation(state, rng.uniform(-180, 180), rng.uniform(-180, 180))
        assert -1.0 - 1e-12 <= e <= 1.0 + 1e-12


def test_correlation_consistent_with_outcome_probabilities():
    # independent route: E = P(++) + P(--) - P(+-) - P(-+)
    rng = np.random.default_rng(23)
    for _ in range(200):
        state = EffectiveTwoPhotonState(*rng.dirichlet((1.0, 1.0, 1.0)))
        t1 = rng.uniform(-180, 180)
        t2 = rng.uniform(-180, 180)
        probs = joint_outcome_probabilities(state, t1, t2)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(probs >= -1e-15)
        e_from_probs = probs[0] + probs[3] - probs[1] - probs[2]
        assert correlation(state, t1, t2) == pytest.approx(e_from_probs, abs=1e-12)


# ---------------------------------------------------------------------------
# chsh_from_correlations


def test_chsh_measured_fixture():
    s, sigma_s, n_sigma = chsh_from_correlations(
        -0.613, 0.606, 0.575, 0.579, sigmas=(0.037, 0.038, 0.039, 0.039)
    )
    assert s == pytest.approx(2.373, abs=1e-12)
    assert sigma_s == pytest.approx(0.07651797174520505, abs=1e-12)
    assert n_sigma == pytest.approx(4.874671812290602, abs=1e-12)


def test_chsh_zero_correlations():
    assert chsh_from_correlations(0.0, 0.0, 0.0, 0.0)[0] == 0.0


@pytest.mark.parametrize(
    "es,s,n_sigma",
    [
        ((0.0, 0.0, 0.0, 0.0), 0.0, -math.inf),
        ((1.0, 0.0, 0.0, -1.0), 2.0, 0.0),
        ((-1.0, 1.0, 1.0, 1.0), 4.0, math.inf),
    ],
)
def test_chsh_exact_s_lies_on_its_own_side_of_two(es, s, n_sigma):
    # zero standard errors: S is exact, so only its side of 2 is significant
    assert chsh_from_correlations(*es, sigmas=(0.0, 0.0, 0.0, 0.0)) == (s, 0.0, n_sigma)


def test_chsh_rejects_out_of_range():
    with pytest.raises(ValueError):
        chsh_from_correlations(1.2, 0.0, 0.0, 0.0)


@pytest.mark.parametrize("position", range(4))
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_chsh_rejects_non_finite_correlation(position, value):
    es = [-0.6, 0.6, 0.6, 0.6]
    es[position] = value
    with pytest.raises(ValueError, match=("e11", "e12", "e21", "e22")[position]):
        chsh_from_correlations(*es)


@pytest.mark.parametrize("value", [math.nan, math.inf, -0.04])
def test_chsh_rejects_bad_sigma(value):
    with pytest.raises(ValueError, match=r"sigmas\[2\]"):
        chsh_from_correlations(-0.6, 0.6, 0.6, 0.6, sigmas=(0.04, 0.04, value, 0.04))


def test_chsh_without_sigmas():
    assert chsh_from_correlations(-0.5, 0.5, 0.5, 0.5) == (2.0, None, None)


# ---------------------------------------------------------------------------
# predicted_S


def test_predicted_s_tsirelson_at_zero():
    assert abs(predicted_S(0.0) - 2.0 * ROOT2) <= 1e-12


def test_predicted_s_frozen_point():
    assert predicted_S(0.145) == pytest.approx(2.291149483145931, abs=1e-12)


def test_predicted_s_violation_threshold():
    root = brentq(lambda a: predicted_S(a) - 2.0, 0.0, 1.0, xtol=1e-12)
    assert root == pytest.approx(3.0 * ROOT2 - 4.0, abs=1e-10)
    assert root == pytest.approx(0.24264, abs=5e-6)


def test_predicted_s_rejects_negative():
    with pytest.raises(ValueError):
        predicted_S(-0.01)


@pytest.mark.parametrize("alpha_bar", [math.nan, math.inf, -math.inf])
def test_predicted_s_rejects_non_finite(alpha_bar):
    with pytest.raises(ValueError, match="alpha_bar"):
        predicted_S(alpha_bar)


def test_predicted_s_matches_compositional_route():
    settings = AnalyzerSettings()
    for alpha in np.linspace(0.0, 1.0, 41):
        state = effective_state(alpha, alpha, 1.0, 1.0)
        es = [correlation(state, t1, t2) for t1, t2 in settings.pairs()]
        s = chsh_from_correlations(*es)[0]
        assert abs(s - predicted_S(alpha)) <= 1e-12


def test_tsirelson_bound_random_states_and_angles():
    rng = np.random.default_rng(1234)
    n = 10_000
    weights = rng.dirichlet((1.0, 1.0, 1.0), size=n)
    angles = rng.uniform(-180.0, 180.0, size=(n, 4))
    for i in range(n):
        state = EffectiveTwoPhotonState(*weights[i])
        t1, t1p, t2, t2p = angles[i]
        s = chsh_from_correlations(
            correlation(state, t1, t2),
            correlation(state, t1, t2p),
            correlation(state, t1p, t2),
            correlation(state, t1p, t2p),
        )[0]
        assert s <= 2.0 * ROOT2 + 1e-12


# ---------------------------------------------------------------------------
# sample_chsh_experiment


def test_sample_deterministic():
    state = effective_state(0.145, 0.145, 1.0, 1.0)
    a = sample_chsh_experiment(state, AnalyzerSettings(), 10_000, seed=77)
    b = sample_chsh_experiment(state, AnalyzerSettings(), 10_000, seed=77)
    assert a == b


def test_sample_singlet_equal_angles_exact():
    singlet = effective_state(0.0, 0.0, 1.0, 1.0)
    settings = AnalyzerSettings(
        theta1_deg=10.0, theta1_prime_deg=10.0, theta2_deg=10.0, theta2_prime_deg=10.0
    )
    counts, es, sigma_e = sample_chsh_experiment(singlet, settings, 5_000, seed=3)
    assert es == [-1.0, -1.0, -1.0, -1.0] and sigma_e == [0.0, 0.0, 0.0, 0.0]
    for n_pp, n_pm, n_mp, n_mm in counts:
        assert n_pp == 0 and n_mm == 0
        assert n_pm + n_mp == 5_000


def test_sample_converges_to_prediction():
    state = effective_state(0.145, 0.145, 1.0, 1.0)
    _, es, sigma_e = sample_chsh_experiment(state, AnalyzerSettings(), 10_000_000, seed=42)
    s, sigma_s, _ = chsh_from_correlations(*es, sigmas=sigma_e)
    assert abs(s - predicted_S(0.145)) < 4.0 * sigma_s


def test_sample_sigma_matches_bootstrap():
    state = effective_state(0.145, 0.145, 1.0, 1.0)
    n = 10_000
    counts_by_setting, es, sigma_e = sample_chsh_experiment(state, AnalyzerSettings(), n, seed=8)
    rng = np.random.default_rng(9)
    resampled = np.empty((1000, 4))
    for k, counts in enumerate(counts_by_setting):
        probs = np.asarray(counts, dtype=float) / n
        draws = rng.multinomial(n, probs, size=1000)
        resampled[:, k] = (draws[:, 0] + draws[:, 3] - draws[:, 1] - draws[:, 2]) / n
    s_boot = np.abs(
        resampled[:, 0] - resampled[:, 1] - resampled[:, 2] - resampled[:, 3]
    )
    sigma_s = chsh_from_correlations(*es, sigmas=sigma_e)[1]
    assert sigma_s == pytest.approx(float(s_boot.std(ddof=1)), rel=0.2)


def test_sample_rejects_zero_events():
    state = effective_state(0.1, 0.1, 1.0, 1.0)
    with pytest.raises(ValueError):
        sample_chsh_experiment(state, AnalyzerSettings(), 0, seed=0)
