"""Tests of the benchmark's independent reference and of its output checks.

Run from the root of the repository:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import heraldsync  # noqa: E402
from heraldsync import cli  # noqa: E402
from heraldsync.protocol import DecayModel, ProtocolParams  # noqa: E402

import checks  # noqa: E402
import reference as ref  # noqa: E402
import workloads  # noqa: E402


def _program_params(proto: dict) -> ProtocolParams:
    def source(src):
        return heraldsync.SourceParams(gamma0=src["gamma0"], p_as=src["p_as"],
                                       eta_as=src["eta_as"], chi=src["chi"],
                                       dark_click_prob=src["dark"])

    return ProtocolParams(source_a=source(proto["a"]), source_b=source(proto["b"]),
                          n_write_max=proto["n"], dt_write_ns=proto["dt_write"],
                          dt_read_ns=proto["dt_read"], tau_c_us=proto["tau_us"],
                          decay_model=DecayModel(proto["decay"]),
                          latency_ns=proto["latency"])


ZERO_LATENCY = [
    workloads.DEFAULT_PROTOCOL,
    workloads._protocol(*workloads.DENSE_SOURCES, tau_us=8.0, decay="exponential"),
    workloads._protocol(*workloads.DENSE_SOURCES, tau_us=8.0),
    workloads._protocol(workloads._source(gamma0=0.1, p_as=3e-3, eta_as=0.4),
                        workloads._source(gamma0=0.06, chi=0.01, p_as=None, eta_as=0.5),
                        n=300, tau_us=3.0),
    dict(workloads.DEFAULT_PROTOCOL, n=1),
]


@pytest.mark.parametrize("proto", ZERO_LATENCY)
def test_double_sum_equals_closed_form_at_zero_latency(proto):
    params = _program_params(proto)
    assert ref.four_fold(proto) == pytest.approx(
        heraldsync.p4c_feedback_closed_form(params), rel=1e-12)
    assert ref.single_shot(proto) == pytest.approx(heraldsync.p4c_no_feedback(params), rel=1e-12)


def test_default_four_fold_value():
    assert ref.four_fold(workloads.DEFAULT_PROTOCOL) == pytest.approx(3.3941380e-6, rel=1e-7)


def test_double_sum_matches_campaign_with_latency():
    # Latency moves both hold times by 2*latency; a campaign holds the
    # memories that long, so the reference must agree with it.
    proto = workloads._protocol(*workloads.DENSE_SOURCES, tau_us=8.0, decay="exponential",
                                latency=workloads.DENSE_LATENCY_NS)
    trials = 4_000_000
    stats = heraldsync.simulate_campaign(_program_params(proto), trials, seed=20070314)
    p = ref.four_fold(proto)
    assert abs(stats.p4c_hat - p) < 5.0 * math.sqrt(p * (1.0 - p) / trials)
    assert ref.binomial_two_sided(stats.four_fold_count, trials, p) > 1e-6


def test_running_sum_equals_each_budget():
    proto = ZERO_LATENCY[3]
    ns = [1, 2, 7, 40, 300]
    each = [ref.four_fold(dict(proto, n=n)) for n in ns]
    np.testing.assert_allclose(ref.four_fold_by_n(proto, ns), each, rtol=1e-13)


@pytest.mark.parametrize("p_as,eta", [(1e-4, 0.3), (2e-3, 0.5), (0.2, 0.5), (0.25, 0.6)])
def test_bisection_chi_and_shape(p_as, eta):
    chi = ref.solve_chi(p_as, eta)
    assert ref.signal_herald(chi, eta) == pytest.approx(p_as, rel=1e-12)
    assert chi == pytest.approx(heraldsync.solve_chi_for_herald(p_as, eta), rel=1e-10)
    src = workloads._source(gamma0=0.3, p_as=p_as, eta_as=eta, dark=1e-3)
    program = heraldsync.SourceParams(gamma0=0.3, p_as=p_as, eta_as=eta, dark_click_prob=1e-3)
    np.testing.assert_allclose(ref.heralded_shape(src), program.heralded_shape().p, rtol=1e-9,
                               atol=1e-15)
    assert ref.herald_prob(src) == pytest.approx(program.herald_prob, rel=1e-14)


def test_hom_and_chsh_reference():
    plateau, interfering = ref.hom_levels(0.12, 0.17, 1.0, 1.0)
    program = heraldsync.hom_coincidence(0.12, 0.17, 1.0, 1.0)
    assert interfering / plateau == pytest.approx(program.visibility, rel=1e-14)
    assert ref.hom_overlap_time(25.0 / 2, 25.0) == pytest.approx(0.5)
    assert ref.hom_overlap_frequency(ref.hom_fwhm_frequency_mhz(25.0) / 2, 25.0) == (
        pytest.approx(0.5))
    weights = ref.state_weights(0.145, 0.145, 1.0, 1.0)
    es = [ref.correlation(weights, t1, t2) for t1, t2 in heraldsync.AnalyzerSettings().pairs()]
    assert ref.chsh_s(es) == pytest.approx(heraldsync.predicted_S(0.145), rel=1e-12)
    assert ref.correlation((1.0, 0.0, 0.0), 0.0, 0.0) == pytest.approx(-1.0)


def test_binomial_tail_against_scipy():
    stats = pytest.importorskip("scipy.stats")
    for k, n, p in [(34, 10**7, 3.4e-6), (80, 10**7, 3.4e-6), (0, 10**5, 3.4e-6),
                    (190_000, 10**6, 0.1915), (2, 1000, 0.01)]:
        want = min(1.0, 2.0 * min(stats.binom.cdf(k, n, p), stats.binom.sf(k - 1, n, p)))
        assert ref.binomial_two_sided(k, n, p) == pytest.approx(want, rel=1e-6, abs=1e-300)


def _run_op(op: dict, tmp_path: Path) -> Path:
    out = tmp_path / op["label"]
    config = tmp_path / f"{op['label']}.cfg"
    config.write_text(op["config"] + f"output_path = {out}\n", encoding="utf-8")
    assert cli.main([op["scenario"], "--config", str(config)]) == 0
    return out


def _small(op: dict, trials: int) -> dict:
    op = json.loads(json.dumps(op))
    op["config"] = op["config"].replace(f"trials = {op['expect']['trials']}",
                                        f"trials = {trials}")
    op["expect"]["trials"] = trials
    return op


def test_records_checks_pass_and_catch_a_bad_hold(tmp_path, capsys):
    op = _small(workloads.build("records", 5)[0], 3000)
    op["config"] = op["config"].replace("p_as = 0.002", "p_as = 0.2")
    src = workloads._source(p_as=0.2)
    op["expect"].update(p4c=ref.four_fold(workloads._protocol(src, src)),
                        herald_a=ref.node_herald_fraction(src, 12),
                        herald_b=ref.node_herald_fraction(src, 12))
    op["expect"]["closed_form"] = op["expect"]["p4c"]
    out = _run_op(op, tmp_path)
    assert checks.check(op, 0, out) == []
    table = (out / "table.csv").read_text().splitlines()
    row = next(k for k, line in enumerate(table) if ",-1," not in line and k > 0)
    fields = table[row].split(",")
    fields[3] = str(float(fields[3]) + 800.0)
    table[row] = ",".join(fields)
    (out / "table.csv").write_text("\n".join(table) + "\n")
    assert checks.check(op, 0, out)


def test_campaign_check_catches_a_wrong_rate(tmp_path, capsys):
    op = _small(workloads.build("campaign_dense", 5)[0], 20_000)
    out = _run_op(op, tmp_path)
    assert checks.check(op, 0, out) == []
    op["expect"]["p4c"] *= 1.1
    assert any("four-fold count" in p for p in checks.check(op, 0, out))


def test_latency_invocation_fails_only_on_the_closed_form(tmp_path, capsys):
    op = _small(workloads.build("campaign_dense", 5)[2], 200_000)
    out = _run_op(op, tmp_path)
    problems = checks.check(op, 0, out)
    params = _program_params(workloads._protocol(*workloads.DENSE_SOURCES, tau_us=8.0,
                                                 decay="exponential",
                                                 latency=workloads.DENSE_LATENCY_NS))
    if heraldsync.p4c_feedback_closed_form(params) == pytest.approx(op["expect"]["closed_form"]):
        assert problems == []
    else:
        assert len(problems) == 1 and problems[0].startswith("p4c_closed_form")


def test_analytic_checks_pass_and_catch_a_wrong_row(tmp_path, capsys):
    for op in workloads.build("analytic", 5):
        out = _run_op(op, tmp_path)
        assert checks.check(op, 0, out) == [], op["label"]
    sweep = workloads.build("analytic", 5)[0]
    sweep["expect"]["rows"][7][2] *= 1.0 + 1e-6
    assert checks.check(sweep, 0, tmp_path / "sweep")


def test_same_seed_same_inputs():
    for name in workloads.WORKLOADS:
        assert workloads.build(name, 11) == workloads.build(name, 11)
        assert [op["label"] for op in workloads.build(name, 11)] == [
            op["label"] for op in workloads.build(name, 12)]


def test_default_params_are_the_default_protocol():
    assert _program_params(workloads.DEFAULT_PROTOCOL) == heraldsync.default_params()
