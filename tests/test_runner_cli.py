"""Tests for scenario orchestration, output emission, and the CLI."""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import heraldsync
from heraldsync.cli import main
from heraldsync.config import parse_config
from heraldsync.protocol import TRIAL_RECORD_DTYPE
from heraldsync.runner import DataTable, _fmt, emit_outputs, run_scenario


def run_text(text: str):
    return run_scenario(parse_config(text))


def test_public_names_resolve():
    names = heraldsync.__all__
    assert len(set(names)) == len(names)
    for name in names:
        assert getattr(heraldsync, name) is not None, name


# ---------------------------------------------------------------------------
# run_scenario


def test_enhancement_scenario():
    summary, table = run_text("scenario = enhancement\n")
    assert 129.0 <= summary.metrics["enhancement"] <= 143.0
    assert summary.metrics["p4c_no_feedback"] == pytest.approx(2.557e-8, rel=1e-3)
    assert table.columns == ("tau_c_us", "n_write_max", "enhancement")
    assert len(table.rows) == 1


def test_enhancement_sweep_rows():
    _, table = run_text(
        "scenario = enhancement\n"
        "enhancement.tau_c_us_list = 6, 12\n"
        "enhancement.n_write_max_list = 4, 8, 12\n"
    )
    assert len(table.rows) == 6
    # enhancement grows along both sweep axes
    by_key = {(tau, n): e for tau, n, e in table.rows}
    assert by_key[(12.0, 12)] > by_key[(6.0, 12)] > by_key[(6.0, 4)]


def test_hom_scan_time_domain():
    summary, table = run_text("scenario = hom_scan\n")
    assert table.columns == ("delay_ns", "coincidence", "plateau")
    assert summary.metrics["fwhm_ns"] == 25.0
    assert summary.metrics["visibility"] == pytest.approx(1.0 / 1.145, abs=1e-12)
    assert len(table.rows) == 61


def test_hom_scan_frequency_domain():
    summary, table = run_text("scenario = hom_scan\nhom.domain = frequency\n")
    assert table.columns == ("detuning_mhz", "coincidence", "plateau")
    assert summary.metrics["fwhm_mhz"] == pytest.approx(35.3017, abs=1e-3)
    assert table.rows[0][0] == -30.0 and table.rows[-1][0] == 30.0


def test_chsh_analytic_scenario():
    summary, table = run_text("scenario = chsh\n")
    assert summary.metrics["s"] == pytest.approx(2.2911, abs=5e-4)
    assert table.columns == ("theta1_deg", "theta2_deg", "e")


def test_chsh_sampled_scenario():
    summary, table = run_text(
        "scenario = chsh\nchsh.mode = sampled\nchsh.n_events = 20000\nseed = 4\n"
    )
    assert table.columns == (
        "theta1_deg",
        "theta2_deg",
        "n_pp",
        "n_pm",
        "n_mp",
        "n_mm",
        "e",
        "sigma_e",
    )
    assert len(table.rows) == 4
    for row in table.rows:
        assert row[2] + row[3] + row[4] + row[5] == 20000
    assert summary.metrics["sigma_s"] > 0.0
    assert abs(summary.metrics["s"] - 2.2911) < 6.0 * summary.metrics["sigma_s"]


def test_protocol_sim_scenario():
    summary, table = run_text("scenario = protocol_sim\ntrials = 50000\nseed = 1\n")
    for key in ("p4c_hat", "p4c_closed_form", "std_err"):
        assert key in summary.metrics
    assert table is None


def test_protocol_sim_records_table():
    summary, table = run_text(
        "scenario = protocol_sim\n"
        "trials = 2000\n"
        "protocol_sim.record_trials = true\n"
        "protocol.source_a.p_as = 0.3\n"
        "protocol.source_b.p_as = 0.3\n"
        "protocol.source_a.gamma0 = 0.9\n"
        "protocol.source_b.gamma0 = 0.9\n"
    )
    assert table.columns == ("trial", "herald_a", "herald_b", "hold_a_ns", "hold_b_ns", "four_fold")
    assert sum(block.size for block in table.rows) == 2000
    assert summary.metrics["four_fold_count"] > 0


RECORD_SOURCES_DENSE = (
    "protocol.source_a.gamma0 = 0.5\n"
    "protocol.source_a.p_as = 0.2\n"
    "protocol.source_a.eta_as = 0.5\n"
    "protocol.source_a.dark_click_prob = 0.001\n"
    "protocol.source_b.gamma0 = 0.45\n"
    "protocol.source_b.p_as = 0.25\n"
    "protocol.source_b.eta_as = 0.6\n"
    "protocol.source_b.dark_click_prob = 0.002\n"
)


RECORDS = "scenario = protocol_sim\nprotocol_sim.record_trials = true\n"


# Golden corpus over every scenario: SHA-256 of table.csv (None where the
# scenario writes none) and of summary.json.  Each record table equals the
# per-cell _fmt rendering of its records.
@pytest.mark.parametrize(
    "text,table_sha,summary_sha",
    [
        pytest.param(
            RECORDS + "seed = 7\ntrials = 70000\n",
            "3f9bf23ec0b5b783e1e92236cf54ccfdb0d124c876366db0c58e8ef48d9efa6c",
            "cbcdaef2637fc4c72a9120ba40b62e10520b5cdb9e1a232b26f57f5658f53a19",
            id="default-across-chunk-boundary",
        ),
        pytest.param(
            RECORDS + "seed = 3\ntrials = 1\n",
            "c6e9b1f5e26909fbaf6a8223d0915207936a91985047bc0d1e1f3348bb0a1686",
            "c86971d2d47fdfd783dc58e33fe80e12da525622106ec8fabf6986b98f7c8de1",
            id="single-trial",
        ),
        pytest.param(
            RECORDS + "seed = 11\ntrials = 5000\nprotocol.tau_c_us = 8.0\n"
            "protocol.decay_model = exponential\n" + RECORD_SOURCES_DENSE,
            "6f31af2bfe08389f7a0265d5659d14b2e31edfc5fcef4fbf26f705f6edd48eb4",
            "a9dd8969314112787cbcbd93797eaf661aabeaca008b35123364dddd87d50550",
            id="dense-dark-exponential",
        ),
        pytest.param(
            RECORDS + "seed = 5\ntrials = 5000\nprotocol.latency_ns = 1500.0\n"
            "protocol.n_write_max = 4\n"
            "protocol.source_a.p_as = 0.1\nprotocol.source_b.p_as = 0.2\n"
            "protocol.source_a.gamma0 = 0.6\nprotocol.source_b.gamma0 = 0.6\n",
            "f574436f69a9de35c3efc677735cd14fced81f15a0d50a46851e9cbbe6cca8ea",
            "b7241777c897fd2c1869fe6509706deec4bf1eb62f7fb27ca1bac02d8f6ff163",
            id="latency",
        ),
        pytest.param(
            "scenario = enhancement\n"
            "enhancement.tau_c_us_list = 4, 12\n"
            "enhancement.n_write_max_list = 1, 6, 12\n"
            "protocol.latency_ns = 600.0\n"
            "protocol.source_a.chi = 0.05\nprotocol.source_a.eta_as = 0.7\n"
            "protocol.source_b.chi = 0.08\nprotocol.source_b.eta_as = 0.6\n"
            "protocol.source_b.gamma0 = 0.3\n",
            "42a09c67d3d303cfbde7f7c166b3e6fc077a584749847ad0da16498a58cc6483",
            "a60c9d6339ed97d9c7055b16cd1e9bb73dc240ecedb7b4a16ed8c2b2bff9a557",
            id="enhancement-sweep-chi-latency",
        ),
        pytest.param(
            "scenario = hom_scan\n",
            "3ad0f967bfb72bb7d7122f7337c0bac5adc1cc28ddc776a2824ecb7e61f90833",
            "e947da73dc068a22957309d818a5afb1a1bf157b9db1e124d8fc3a08eb5b6577",
            id="hom-time",
        ),
        pytest.param(
            "scenario = hom_scan\nhom.domain = frequency\nhom.points = 41\n"
            "hom.alpha1 = 0.05\nhom.alpha2 = 0.3\nhom.p_i1 = 0.8\nhom.p_i2 = 0.6\n",
            "982a0e5c57653c8dd4818b3b15a27516e8c6f51734a875c4b3f3f17fec0bf4ab",
            "17caebcb58228f3a7dbb60ee6e61317cbacd26f64c9404eeff17f2bebff071de",
            id="hom-frequency",
        ),
        pytest.param(
            "scenario = chsh\n",
            "d8f5e83c10c9f7ef7828b23291cb212ce1102f4962721c889122e907ad51725e",
            "29203dcaf563f865b0967cae02a763390bdcc00e5e3fa525f0edfc2391f10ad1",
            id="chsh-analytic",
        ),
        pytest.param(
            "scenario = chsh\nchsh.mode = sampled\nchsh.n_events = 20000\nseed = 4\n"
            "chsh.alpha1 = 0.2\nchsh.p_i2 = 0.7\n",
            "e0c58819b7c685a5100341e33c41066eb7a704b400e8a19e8f0bae390a845343",
            "68f54d96f52c9886b9e38b722224d46fe69c498c772c7043ca85c9a15ffb89de",
            id="chsh-sampled",
        ),
        pytest.param(
            "scenario = chsh\nchsh.mode = sampled\nchsh.p_i2 = 0\nchsh.n_events = 1000\n"
            "chsh.theta1_deg = 45\nchsh.theta1_prime_deg = 45\n"
            "chsh.theta2_deg = 90\nchsh.theta2_prime_deg = 90\n",
            "a07321697257d275565ed617d44b8edbe25c6ae6913ee430c8bab9ac4c99dc5e",
            "25e5727c965c5696bdcc31840808744df3b00636b1b47e869d4a3de7e9120b44",
            id="chsh-sampled-pure-hh",
        ),
        pytest.param(
            "scenario = protocol_sim\nseed = 9\ntrials = 300000\n"
            "protocol.source_a.p_as = 0.05\nprotocol.source_b.p_as = 0.03\n"
            "protocol.source_a.gamma0 = 0.5\nprotocol.source_b.gamma0 = 0.5\n"
            "protocol.latency_ns = 300.0\n",
            None,
            "b705372cfe4d49510f8ced99305230136c660b092c785f68d8e1d9bc3f99ec95",
            id="protocol-sim-summary",
        ),
    ],
)
def test_records_table_golden_bytes(tmp_path, text, table_sha, summary_sha):
    emit_outputs(*run_scenario(parse_config(text)), tmp_path)
    table = tmp_path / "table.csv"
    if table_sha is None:
        assert not table.exists()
    else:
        assert hashlib.sha256(table.read_bytes()).hexdigest() == table_sha
    summary = (tmp_path / "summary.json").read_bytes()
    assert hashlib.sha256(summary).hexdigest() == summary_sha


def test_record_table_matches_per_cell_formatting(tmp_path):
    # heralds far beyond any joint key a product of raw values could hold
    rng = np.random.default_rng(8)
    choices = np.array([-1, 0, 3, 2**40, 2**62])
    records = np.zeros(70_000, dtype=TRIAL_RECORD_DTYPE)
    records["trial"] = np.arange(records.size)
    records["herald_a"] = rng.choice(choices, records.size)
    records["herald_b"] = rng.choice(choices, records.size)
    joint = (records["herald_a"] >= 0) & (records["herald_b"] >= 0)
    later = np.maximum(records["herald_a"], records["herald_b"]).astype(float)
    for name, herald in (("hold_a_ns", "herald_a"), ("hold_b_ns", "herald_b")):
        records[name] = np.where(joint, (later - records[herald]) * 800.0 + 400.0, np.nan)
    records["four_fold"] = joint & (rng.random(records.size) < 0.5)
    table = DataTable(records.dtype.names, (records[:65_536], records[65_536:]))
    summary, _ = run_text("scenario = enhancement\n")
    emit_outputs(summary, table, tmp_path)
    expected = [",".join(table.columns)]
    expected += [",".join(_fmt(v) for v in row) for row in records.tolist()]
    assert (tmp_path / "table.csv").read_text() == "\n".join(expected) + "\n"


def test_record_table_emits_identically_twice(tmp_path):
    # the record blocks are re-drawn on every pass, not consumed by the first
    summary, table = run_text(RECORDS + "seed = 2\ntrials = 70000\n" + RECORD_SOURCES_DENSE)
    for directory in ("first", "second"):
        emit_outputs(summary, table, tmp_path / directory)
    first = (tmp_path / "first" / "table.csv").read_bytes()
    assert first.count(b"\n") == 70_001
    assert (tmp_path / "second" / "table.csv").read_bytes() == first


def test_generic_table_matches_per_cell_formatting(tmp_path):
    # columns of python and numpy ints, bools and floats, and one column
    # mixing ints and floats, which keeps per-cell formatting
    rng = np.random.default_rng(6)
    specials = [0.0, -0.0, 5e-324, -2.2e-310, 1e300, -1e300, 3.0, -7.0, 1e10, 2.0**53,
                123456789012.0, math.nan, math.inf, -math.inf]
    scales = 10.0 ** rng.integers(-300, 300, 2000)
    floats = specials + (rng.standard_normal(2000) * scales).tolist()
    ints = [0, -5, 7, 10**10, -(2**62), 2**63 - 1] + rng.integers(-(10**12), 10**12, 2008).tolist()
    n = len(floats)
    rows = [
        (
            ints[k],
            np.int64(ints[k]),
            k % 3 == 0,
            np.bool_(k % 2),
            floats[k],
            np.float64(floats[-1 - k]),
            ints[k] if k % 2 else floats[k],
        )
        for k in range(n)
    ]
    table = DataTable(tuple("abcdefg"), rows)
    summary, _ = run_text("scenario = enhancement\n")
    emit_outputs(summary, table, tmp_path)
    expected = [",".join(table.columns)] + [",".join(_fmt(v) for v in row) for row in rows]
    assert (tmp_path / "table.csv").read_bytes() == ("\n".join(expected) + "\n").encode()


def test_domain_error_carries_scenario_context():
    with pytest.raises(ValueError, match="hom_scan"):
        run_text("scenario = hom_scan\nhom.p_i1 = 0\nhom.p_i2 = 0\n")


# ---------------------------------------------------------------------------
# emit_outputs


def test_emit_outputs_files(tmp_path):
    summary, table = run_text("scenario = hom_scan\n")
    emit_outputs(summary, table, tmp_path / "run")
    summary_path = tmp_path / "run" / "summary.json"
    table_path = tmp_path / "run" / "table.csv"
    assert summary_path.exists() and table_path.exists()

    doc = json.loads(summary_path.read_text())
    assert set(doc) == {"scenario", "metrics", "config_hash", "seed", "version"}
    assert doc["scenario"] == "hom_scan"

    raw = table_path.read_bytes()
    assert b"\r" not in raw
    lines = raw.decode().splitlines()
    assert lines[0] == "delay_ns,coincidence,plateau"
    assert len(lines) == 62


def test_emitted_numbers_round_trip(tmp_path):
    summary, table = run_text("scenario = hom_scan\nhom.points = 11\n")
    emit_outputs(summary, table, tmp_path)
    lines = (tmp_path / "table.csv").read_text().splitlines()[1:]
    for line, row in zip(lines, table.rows):
        for printed, value in zip(line.split(","), row):
            assert float(printed) == pytest.approx(float(value), rel=1e-9)


def test_rerun_byte_identical(tmp_path):
    for directory in ("first", "second"):
        summary, table = run_text("scenario = chsh\nchsh.mode = sampled\nchsh.n_events = 5000\n")
        emit_outputs(summary, table, tmp_path / directory)
    first = tmp_path / "first"
    second = tmp_path / "second"
    assert (first / "summary.json").read_bytes() == (second / "summary.json").read_bytes()
    assert (first / "table.csv").read_bytes() == (second / "table.csv").read_bytes()


# ---------------------------------------------------------------------------
# CLI


def write_config(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_cli_success(tmp_path, capsys):
    cfg = write_config(tmp_path, "scenario = enhancement\n")
    code = main(["enhancement", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 0
    assert (tmp_path / "out" / "summary.json").exists()
    assert "enhancement" in capsys.readouterr().out


def test_cli_record_table_four_fold_sums_to_count(tmp_path):
    # a dense run across a chunk boundary: the table and the count come
    # from separate passes over the same substreams
    cfg = write_config(tmp_path, RECORDS + "seed = 13\ntrials = 70000\n" + RECORD_SOURCES_DENSE)
    assert main(["protocol_sim", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    lines = (tmp_path / "out" / "table.csv").read_text().splitlines()
    assert lines[0].endswith(",four_fold") and len(lines) == 70_001
    four_fold = sum(int(line.rsplit(",", 1)[1]) for line in lines[1:])
    doc = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert four_fold == doc["metrics"]["four_fold_count"] > 0


def test_cli_record_run_peak_rss_flat_in_trials(tmp_path):
    # A whole-table allocation adds 41 B per trial, about 37 MB between
    # these two sizes; streamed blocks add nothing.  A process's peak RSS
    # carries over from its forking parent, so a small launcher starts the
    # CLI and reports its child's peak.
    launcher = (
        "import resource, subprocess, sys\n"
        "subprocess.run(sys.argv[1:], check=True, stdout=subprocess.DEVNULL)\n"
        "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
    )
    cfg = write_config(tmp_path, RECORDS)
    env = {**os.environ, "PYTHONPATH": str(Path(heraldsync.__file__).parents[1])}
    cli = [sys.executable, "-m", "heraldsync.cli", "protocol_sim", "--config", cfg]
    peak_kib = []
    for trials in (100_000, 1_000_000):
        argv = [*cli, "--trials", str(trials), "--out", str(tmp_path)]
        done = subprocess.run([sys.executable, "-c", launcher, *argv], env=env, check=True,
                              capture_output=True, text=True, timeout=120)
        peak_kib.append(int(done.stdout))
    (tmp_path / "table.csv").unlink()
    assert abs(peak_kib[1] - peak_kib[0]) * 1024 <= 5e6, peak_kib


def test_cli_missing_config_file(tmp_path):
    assert main(["chsh", "--config", str(tmp_path / "nope.cfg")]) == 3


def test_cli_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, "scenario = chsh\nbogus = 1\n")
    assert main(["chsh", "--config", cfg]) == 2
    assert "bogus" in capsys.readouterr().err


def test_cli_scenario_mismatch(tmp_path):
    cfg = write_config(tmp_path, "scenario = chsh\n")
    assert main(["enhancement", "--config", cfg]) == 2


def test_cli_domain_error(tmp_path):
    cfg = write_config(tmp_path, "scenario = hom_scan\nhom.p_i1 = 0\nhom.p_i2 = 0\n")
    assert main(["hom_scan", "--config", cfg, "--out", str(tmp_path / "out")]) == 4


@pytest.mark.parametrize(
    "key,value",
    [
        ("hom.half_range_ns", "-5"),
        ("hom.half_range_mhz", "-1"),
        ("hom.coherence_fwhm_ns", "0"),
        ("hom.alpha1", "-1"),
        ("hom.p_i2", "-0.5"),
        ("chsh.alpha2", "-1"),
        ("chsh.p_i1", "-2"),
        # finite, but the two-photon rate alpha * p_i**2 / 2 overflows
        ("hom.p_i2", "1e300"),
        ("chsh.p_i2", "1e300"),
    ],
)
def test_cli_rejects_bad_hom_and_chsh_values(tmp_path, capsys, key, value):
    # Each value is a finite float, so only the section's own check rejects it.
    scenario = "chsh" if key.startswith("chsh.") else "hom_scan"
    rest = "hom.domain = frequency\n" if key == "hom.half_range_mhz" else ""
    cfg = write_config(tmp_path, f"scenario = {scenario}\n{key} = {value}\n{rest}")
    assert main([scenario, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert f"(key: {key} line: 2)" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("scenario", ["enhancement", "protocol_sim", "hom_scan"])
def test_cli_rejects_unreachable_p_as_in_every_scenario(tmp_path, capsys, scenario):
    # chi is solved when the source is built, so the parser rejects p_as
    # whether or not the scenario reads the source
    text = f"scenario = {scenario}\nprotocol.source_a.eta_as = 0.5\nprotocol.source_a.p_as = 0.9\n"
    cfg = write_config(tmp_path, text)
    assert main([scenario, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "(key: protocol.source_a.p_as line: 3)" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_chsh_exact_s_at_two_is_not_significant(tmp_path):
    cfg = write_config(
        tmp_path,
        "scenario = chsh\nchsh.mode = sampled\nchsh.p_i1 = 0\nchsh.n_events = 1000\n"
        "chsh.theta1_deg = 0\nchsh.theta1_prime_deg = 0\n"
        "chsh.theta2_deg = 0\nchsh.theta2_prime_deg = 0\n",
    )
    out = tmp_path / "out"
    assert main(["chsh", "--config", cfg, "--out", str(out)]) == 0
    metrics = json.loads((out / "summary.json").read_text())["metrics"]
    assert (metrics["s"], metrics["sigma_s"], metrics["n_sigma"]) == (2.0, 0.0, 0.0)


def test_cli_seed_override_changes_outputs(tmp_path):
    cfg = write_config(
        tmp_path, "scenario = chsh\nchsh.mode = sampled\nchsh.n_events = 5000\n"
    )
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    out_c = tmp_path / "c"
    assert main(["chsh", "--config", cfg, "--out", str(out_a), "--seed", "1"]) == 0
    assert main(["chsh", "--config", cfg, "--out", str(out_b), "--seed", "2"]) == 0
    assert main(["chsh", "--config", cfg, "--out", str(out_c), "--seed", "1"]) == 0
    assert (out_a / "table.csv").read_bytes() != (out_b / "table.csv").read_bytes()
    assert (out_a / "table.csv").read_bytes() == (out_c / "table.csv").read_bytes()
    # summaries differ only through seed and metrics, never the version block
    doc_a = json.loads((out_a / "summary.json").read_text())
    doc_b = json.loads((out_b / "summary.json").read_text())
    assert doc_a["config_hash"] != doc_b["config_hash"]


def test_cli_same_run_different_out_dirs_identical(tmp_path):
    cfg = write_config(
        tmp_path, "scenario = chsh\nchsh.mode = sampled\nchsh.n_events = 5000\n"
    )
    assert main(["chsh", "--config", cfg, "--out", str(tmp_path / "p")]) == 0
    assert main(["chsh", "--config", cfg, "--out", str(tmp_path / "q")]) == 0
    for name in ("summary.json", "table.csv"):
        assert (tmp_path / "p" / name).read_bytes() == (tmp_path / "q" / name).read_bytes()


def test_cli_trials_override(tmp_path):
    cfg = write_config(tmp_path, "scenario = protocol_sim\n")
    out = tmp_path / "out"
    assert main(["protocol_sim", "--config", cfg, "--out", str(out), "--trials", "1000"]) == 0
    doc = json.loads((out / "summary.json").read_text())
    assert doc["metrics"]["trials"] == 1000
    assert doc["metrics"]["p4c_hat"] <= 1.0
    assert not math.isnan(doc["metrics"]["std_err"])


@pytest.mark.parametrize(
    "key,value",
    [
        ("enhancement.n_write_max_list", "0"),
        ("enhancement.n_write_max_list", "-3"),
        ("enhancement.n_write_max_list", "5, 0"),
        ("enhancement.tau_c_us_list", "0"),
        ("enhancement.tau_c_us_list", "12, -1.5"),
    ],
)
def test_cli_rejects_bad_sweep_values(tmp_path, capsys, key, value):
    cfg = write_config(tmp_path, f"scenario = enhancement\n{key} = {value}\n")
    assert main(["enhancement", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert f"(key: {key} line: 2)" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "key,scenario",
    [
        ("protocol.tau_c_us", "enhancement"),
        ("protocol.latency_ns", "protocol_sim"),
        ("hom.alpha1", "hom_scan"),
        ("enhancement.tau_c_us_list", "enhancement"),
    ],
)
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_cli_rejects_non_finite_values(tmp_path, capsys, key, scenario, value):
    text = f"scenario = {scenario}\n{key} = {value}\n"
    if key.endswith("_list"):
        text = f"scenario = {scenario}\n{key} = 6.0, {value}\n"
    cfg = write_config(tmp_path, text)
    assert main([scenario, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
