"""Acceptance suite: one test per shipped criterion, at stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.
"""

import math
import time
from dataclasses import replace

import numpy as np
from scipy.optimize import brentq

from heraldsync.config import parse_config
from heraldsync.interference import (
    AnalyzerSettings,
    EffectiveTwoPhotonState,
    ScanDomain,
    TemporalMode,
    chsh_from_correlations,
    correlation,
    effective_state,
    hom_coincidence,
    hom_scan,
    mode_overlap,
    predicted_S,
    sample_chsh_experiment,
)
from heraldsync.photon_stats import (
    FockDistribution,
    SourceParams,
    emission_distribution,
    heralded_excitation_distribution,
    retrieve,
)
from heraldsync.protocol import (
    ProtocolParams,
    default_params,
    enhancement_factor,
    p4c_feedback_closed_form,
    simulate_campaign,
    simulate_campaign_records,
)
from heraldsync.runner import emit_outputs, run_scenario

ROOT2 = math.sqrt(2.0)


def report(number: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number} ({name}): {status} — {detail}")


def test_c1_enhancement_reproduction():
    start = time.perf_counter()
    value = enhancement_factor(default_params())
    elapsed = time.perf_counter() - start
    ok = 129.0 <= value <= 143.0 and elapsed < 1.0
    report(1, "enhancement reproduction", ok, f"enhancement={value:.2f}, {elapsed:.3f}s")
    assert ok


def test_c2_n_squared_limit():
    start = time.perf_counter()
    source = SourceParams(gamma0=0.08, p_as=1e-6)
    params = replace(default_params(), source_a=source, source_b=source, tau_c_us=1e9)
    value = enhancement_factor(params)
    elapsed = time.perf_counter() - start
    ok = abs(value - 144.0) / 144.0 < 1e-3 and elapsed < 1.0
    report(2, "N^2 limit", ok, f"enhancement={value:.4f}, {elapsed:.3f}s")
    assert ok


def test_c3_monte_carlo_matches_closed_form():
    params = default_params()
    expected = p4c_feedback_closed_form(params)
    n_trials = 10_000_000
    se = math.sqrt(expected * (1.0 - expected) / n_trials)
    start = time.perf_counter()
    passes = 0
    for seed in range(20):
        stats = simulate_campaign(params, n_trials, seed=seed)
        if abs(stats.p4c_hat - expected) < 3.0 * se:
            passes += 1
    elapsed = time.perf_counter() - start
    ok = passes >= 18 and elapsed < 120.0
    report(3, "Monte Carlo vs closed form", ok, f"{passes}/20 seeds within 3 SE, {elapsed:.1f}s")
    assert ok


def test_c4_hom_visibility():
    value = hom_coincidence(0.12, 0.17, 1.0, 1.0, overlap=1.0).visibility
    ok = abs(value - 0.8734) <= 5e-4
    report(4, "HOM visibility", ok, f"visibility={value:.5f}")
    assert ok


def test_c5_time_bandwidth_consistency():
    _, time_fwhm = hom_scan(0.12, 0.17, 1.0, 1.0, 25.0, ScanDomain.TIME, [0.0])
    _, freq_fwhm = hom_scan(0.12, 0.17, 1.0, 1.0, 25.0, ScanDomain.FREQUENCY, [0.0])
    ok = time_fwhm == 25.0 and abs(freq_fwhm - 35.31) <= 0.05
    report(
        5,
        "time-bandwidth consistency",
        ok,
        f"time fwhm={time_fwhm} ns, frequency fwhm={freq_fwhm:.4f} MHz",
    )
    assert ok


def test_c6_chsh_measured_fixture():
    s, sigma_s, n_sigma = chsh_from_correlations(
        -0.613, 0.606, 0.575, 0.579, sigmas=(0.037, 0.038, 0.039, 0.039)
    )
    ok = abs(s - 2.373) <= 1e-3 and abs(sigma_s - 0.0765) <= 5e-4 and abs(n_sigma - 4.87) <= 0.05
    report(6, "CHSH fixture", ok, f"S={s:.4f}, sigma_S={sigma_s:.5f}, n_sigma={n_sigma:.3f}")
    assert ok


def test_c7_model_prediction():
    s_mid = predicted_S(0.145)
    root = brentq(lambda a: predicted_S(a) - 2.0, 0.0, 1.0, xtol=1e-12)
    exact = abs(predicted_S(0.0) - 2.0 * ROOT2)
    ok = abs(s_mid - 2.2911) <= 5e-4 and abs(root - 0.2426) <= 5e-4 and exact <= 1e-12
    report(
        7,
        "model prediction",
        ok,
        f"S(0.145)={s_mid:.5f}, root={root:.5f}, |S(0)-2sqrt2|={exact:.1e}",
    )
    assert ok


def test_c8_sampled_chsh_consistency():
    start = time.perf_counter()
    state = effective_state(0.145, 0.145, 1.0, 1.0)
    n = 1_000_000
    counts_by_setting, es, sigma_e = sample_chsh_experiment(state, AnalyzerSettings(), n, seed=0)
    s, sigma_s, _ = chsh_from_correlations(*es, sigmas=sigma_e)
    rng = np.random.default_rng(1)
    resampled = np.empty((1000, 4))
    for k, counts in enumerate(counts_by_setting):
        draws = rng.multinomial(n, np.asarray(counts, dtype=float) / n, size=1000)
        resampled[:, k] = (draws[:, 0] + draws[:, 3] - draws[:, 1] - draws[:, 2]) / n
    s_boot = float(
        np.abs(resampled[:, 0] - resampled[:, 1] - resampled[:, 2] - resampled[:, 3]).std(ddof=1)
    )
    elapsed = time.perf_counter() - start
    close = abs(s - 2.2911) < 4.0 * sigma_s
    se_ok = abs(sigma_s - s_boot) / s_boot < 0.2
    ok = close and se_ok and elapsed < 30.0
    report(
        8,
        "sampled CHSH consistency",
        ok,
        f"S={s:.4f} (sigma_S={sigma_s:.5f}, bootstrap {s_boot:.5f}), {elapsed:.1f}s",
    )
    assert ok


def test_c9_property_suites(tmp_path):
    rng = np.random.default_rng(2718)
    checks: list[bool] = []

    # distribution normalization across the emission/herald/retrieve chain
    for chi in np.linspace(0.0, 0.9, 10):
        dists = [emission_distribution(chi)]
        if chi > 0.0:
            q = heralded_excitation_distribution(dists[0], 0.5)
            dists += [q, retrieve(q, 0.3)]
        checks.append(
            all(
                abs(math.fsum(d.p) - 1.0) <= 1e-12 and all(p >= 0.0 for p in d.p)
                for d in dists
            )
        )

    # loss composition: gamma1 then gamma2 equals gamma1*gamma2
    for _ in range(200):
        w = rng.dirichlet((1.0, 1.0, 1.0))
        q = FockDistribution(tuple(w))
        g1, g2 = rng.uniform(0.0, 1.0, 2)
        two = retrieve(retrieve(q, g1), g2)
        one = retrieve(q, g1 * g2)
        checks.append(all(abs(a - b) <= 1e-12 for a, b in zip(two.p, one.p)))

    # overlap symmetry and bounds
    for _ in range(200):
        m1 = TemporalMode(rng.normal(0, 40), 25.0, rng.normal(0, 40))
        m2 = TemporalMode(rng.normal(0, 40), 25.0, rng.normal(0, 40))
        o = mode_overlap(m1, m2)
        checks.append(o == mode_overlap(m2, m1) and 0.0 < o <= 1.0)

    # Tsirelson bound on 10^4 random states/angle quadruples
    weights = rng.dirichlet((1.0, 1.0, 1.0), size=10_000)
    angles = rng.uniform(-180.0, 180.0, size=(10_000, 4))
    tsirelson = True
    for i in range(10_000):
        state = EffectiveTwoPhotonState(*weights[i])
        t1, t1p, t2, t2p = angles[i]
        s = chsh_from_correlations(
            correlation(state, t1, t2),
            correlation(state, t1, t2p),
            correlation(state, t1p, t2),
            correlation(state, t1p, t2p),
        )[0]
        if s > 2.0 * ROOT2 + 1e-12:
            tsirelson = False
            break
    checks.append(tsirelson)

    # enhancement monotone in tau_c and n_write_max
    monotone = True
    for _ in range(30):
        source_a = SourceParams(gamma0=rng.uniform(0.05, 1.0), p_as=10 ** rng.uniform(-3, -0.5))
        source_b = SourceParams(gamma0=rng.uniform(0.05, 1.0), p_as=10 ** rng.uniform(-3, -0.5))
        params = ProtocolParams(
            source_a=source_a,
            source_b=source_b,
            n_write_max=int(rng.integers(1, 12)),
            tau_c_us=10 ** rng.uniform(0, 2),
        )
        base = enhancement_factor(params)
        if base < 1.0 - 1e-12:
            monotone = False
        if enhancement_factor(replace(params, tau_c_us=params.tau_c_us * 2.0)) < base - 1e-12:
            monotone = False
        if enhancement_factor(replace(params, n_write_max=params.n_write_max + 1)) < base - 1e-12:
            monotone = False
    checks.append(monotone)

    # byte-exact seed determinism: campaign arrays and emitted files
    params = default_params()
    s1, r1 = simulate_campaign_records(params, 100_000, seed=31)
    s2, r2 = simulate_campaign_records(params, 100_000, seed=31)
    checks.append(s1 == s2 and r1.tobytes() == r2.tobytes())
    checks.append(simulate_campaign(params, 100_000, seed=31) == s1)

    config_text = "scenario = chsh\nchsh.mode = sampled\nchsh.n_events = 10000\n"
    for sub in ("x", "y"):
        emit_outputs(*run_scenario(parse_config(config_text)), tmp_path / sub)
    checks.append(
        (tmp_path / "x" / "summary.json").read_bytes()
        == (tmp_path / "y" / "summary.json").read_bytes()
        and (tmp_path / "x" / "table.csv").read_bytes()
        == (tmp_path / "y" / "table.csv").read_bytes()
    )

    ok = all(checks)
    report(9, "property suites", ok, f"{sum(checks)}/{len(checks)} property groups passed")
    assert ok
