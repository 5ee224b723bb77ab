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
from hypothesis import example, given, settings
from hypothesis import strategies as st

import heraldsync
from heraldsync.cli import main
from heraldsync.config import parse_config
from heraldsync.protocol import (
    N_WRITE_MAX_CAP,
    TRIAL_RECORD_DTYPE,
    simulate_campaign_records,
)
from heraldsync.runner import (
    _distinct,
    _float_frame,
    _int_frame,
    _lines,
    _record_blocks,
    emit_outputs,
    run_scenario,
)


def run_text(text: str):
    return run_scenario(parse_config(text))


def cell_text(value) -> str:
    """The reference text of one table cell: an int as ``str(int(v))``, a bool
    as 1 or 0, a float as ``'%.10g' % v``."""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return "%.10g" % value


def test_public_names_resolve():
    names = heraldsync.__all__
    assert len(set(names)) == len(names)
    for name in names:
        assert getattr(heraldsync, name) is not None, name


# ---------------------------------------------------------------------------
# run_scenario


def test_enhancement_scenario():
    doc, (names, columns) = run_text("scenario = enhancement\n")
    assert 129.0 <= doc["metrics"]["enhancement"] <= 143.0
    assert doc["metrics"]["p4c_no_feedback"] == pytest.approx(2.557e-8, rel=1e-3)
    assert names == ("tau_c_us", "n_write_max", "enhancement")
    assert [len(column) for column in columns] == [1, 1, 1]


def test_enhancement_sweep_rows():
    _, (_, columns) = run_text(
        "scenario = enhancement\n"
        "enhancement.tau_c_us_list = 6, 12\n"
        "enhancement.n_write_max_list = 4, 8, 12\n"
    )
    assert [len(column) for column in columns] == [6, 6, 6]
    # rows run over N within each tau; enhancement grows along both sweep axes
    taus, ns, enhancement = (column.tolist() for column in columns)
    assert taus == [6.0] * 3 + [12.0] * 3 and ns == [4, 8, 12] * 2
    by_key = {(tau, n): e for tau, n, e in zip(taus, ns, enhancement)}
    assert by_key[(12.0, 12)] > by_key[(6.0, 12)] > by_key[(6.0, 4)]


def test_hom_scan_time_domain():
    doc, (names, columns) = run_text("scenario = hom_scan\n")
    assert names == ("delay_ns", "coincidence", "plateau")
    assert doc["metrics"]["fwhm_ns"] == 25.0
    assert doc["metrics"]["visibility"] == pytest.approx(1.0 / 1.145, abs=1e-12)
    assert [len(column) for column in columns] == [61, 61, 61]
    assert set(columns[2]) == {doc["metrics"]["c_plat"]}


def test_hom_scan_frequency_domain():
    doc, (names, columns) = run_text("scenario = hom_scan\nhom.domain = frequency\n")
    assert names == ("detuning_mhz", "coincidence", "plateau")
    assert doc["metrics"]["fwhm_mhz"] == pytest.approx(35.3017, abs=1e-3)
    assert columns[0][0] == -30.0 and columns[0][-1] == 30.0


def test_chsh_analytic_scenario():
    doc, (names, columns) = run_text("scenario = chsh\n")
    assert doc["metrics"]["s"] == pytest.approx(2.2911, abs=5e-4)
    assert names == ("theta1_deg", "theta2_deg", "e")
    assert [len(column) for column in columns] == [4, 4, 4]


def test_chsh_sampled_scenario():
    doc, (names, columns) = run_text(
        "scenario = chsh\nchsh.mode = sampled\nchsh.n_events = 20000\nseed = 4\n"
    )
    assert names == (
        "theta1_deg",
        "theta2_deg",
        "n_pp",
        "n_pm",
        "n_mp",
        "n_mm",
        "e",
        "sigma_e",
    )
    assert [len(column) for column in columns] == [4] * 8
    for row in zip(*columns):
        assert row[2] + row[3] + row[4] + row[5] == 20000
    metrics = doc["metrics"]
    assert metrics["sigma_s"] > 0.0
    assert abs(metrics["s"] - 2.2911) < 6.0 * metrics["sigma_s"]


def test_protocol_sim_scenario():
    doc, table = run_text("scenario = protocol_sim\ntrials = 50000\nseed = 1\n")
    for key in ("p4c_hat", "p4c_closed_form", "std_err"):
        assert key in doc["metrics"]
    assert table is None


def test_protocol_sim_records_table():
    doc, (columns, rows) = run_text(
        "scenario = protocol_sim\n"
        "trials = 2000\n"
        "protocol_sim.record_trials = true\n"
        "protocol.source_a.p_as = 0.3\n"
        "protocol.source_b.p_as = 0.3\n"
        "protocol.source_a.gamma0 = 0.9\n"
        "protocol.source_b.gamma0 = 0.9\n"
    )
    assert columns == ("trial", "herald_a", "herald_b", "hold_a_ns", "hold_b_ns", "four_fold")
    assert sum(m for _, m, _ in rows.heralded()) == 2000
    assert doc["metrics"]["four_fold_count"] > 0


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

# Sources given by eta_as, for the sweep grid: N runs up to 2000, where a
# block of the closed-form grid holds 16 tau rows, so 37 tau values span three.
GRID_SOURCES = (
    "protocol.source_a.eta_as = 0.5\nprotocol.source_a.p_as = 0.01\n"
    "protocol.source_b.eta_as = 0.65\nprotocol.source_b.p_as = 0.004\n"
    "protocol.source_b.gamma0 = 0.2\n"
)
GRID_TAUS = ", ".join(str(round(0.5 + 1.37 * k, 2)) for k in range(37))
GRID_NS = "1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610, 987, 1597, 2000"


# Golden corpus over every scenario: SHA-256 of table.csv (None where the
# scenario writes none) and of summary.json.  Each record table equals the
# per-cell cell_text rendering of its records.
@pytest.mark.parametrize(
    "text,table_sha,summary_sha",
    [
        pytest.param(
            RECORDS + "seed = 7\ntrials = 70000\n",
            "3de6ae65b5ec72252122630dabe12fb131a85c6ddb74b176985366ab8d14a128",
            "c82289b238b1fbc2ccf0ee79ddd473a68f8a3da7b6c9f91eff2d531b71b42702",
            id="default-across-chunk-boundary",
        ),
        pytest.param(
            # P_max = 0.047 gives 2**17-trial substreams: this crosses a record
            # block boundary inside the first and then the substream boundary
            RECORDS + "seed = 17\ntrials = 140000\nprotocol.source_a.p_as = 0.004\n"
            "protocol.source_a.gamma0 = 0.6\nprotocol.source_b.gamma0 = 0.5\n",
            "0e6173e76bd117e01d3862cb4c5b4947aaecc266e69472480c4a2315faad66ef",
            "f9887807f42a268388239efd5dff1f86fd305942bd3bf560015dc095265f2684",
            id="across-substream-boundary",
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
            "ac9653f2652f4b2adbf65e5cf348b4022bcd3dd0598cc28ac5c0bf763c1acc75",
            id="dense-dark-exponential",
        ),
        pytest.param(
            RECORDS + "seed = 5\ntrials = 5000\nprotocol.latency_ns = 1500.0\n"
            "protocol.n_write_max = 4\n"
            "protocol.source_a.p_as = 0.1\nprotocol.source_b.p_as = 0.2\n"
            "protocol.source_a.gamma0 = 0.6\nprotocol.source_b.gamma0 = 0.6\n",
            "f574436f69a9de35c3efc677735cd14fced81f15a0d50a46851e9cbbe6cca8ea",
            "ecf961bf528794459ccc643d38e4456598edb0fe96f6a37bffc9d9148fa582cb",
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
            "scenario = enhancement\n"
            f"enhancement.tau_c_us_list = {GRID_TAUS}\n"
            f"enhancement.n_write_max_list = {GRID_NS}\n"
            "protocol.latency_ns = 450.0\n" + GRID_SOURCES,
            "50d128cc3ca27829fea04b181d8ac36e19892e488d159a818572e8025726d2d4",
            "6366d040728dc86e28f9c61ff8a60eaf9450825194645375dab9dfad09033849",
            id="enhancement-grid-gaussian",
        ),
        pytest.param(
            "scenario = enhancement\n"
            "enhancement.tau_c_us_list = "
            "30, 0.7, 3, 9.5, 1, 2, 4, 6, 8, 11, 14, 17, 21, 25, 40, 60, 99\n"
            "enhancement.n_write_max_list = 2000, 1, 7, 7, 300, 1999, 64\n"
            "protocol.decay_model = exponential\nprotocol.latency_ns = 1200.0\n"
            "protocol.dt_read_ns = 250.0\n" + GRID_SOURCES,
            "f8295e3c2719b9533f28631b85058d560269f18c2ba1d32f075a66ebdd85b55b",
            "59194f6af9340c1b4396eca8366f2ffc1add75828f5f93f1fb20543014a0d1a4",
            id="enhancement-grid-exponential",
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
            "scenario = hom_scan\nhom.points = 2001\nhom.half_range_ns = 80\n"
            "hom.coherence_fwhm_ns = 12.5\nhom.alpha1 = 0.09\nhom.alpha2 = 0.21\nhom.p_i1 = 0.9\n",
            "c06dd2da928a094e645fad6de61ce467b71439d1e6578d0556c702375e187935",
            "9027dbfb7edf171c9f958a8a87c0bc2c81371d656f7208a83f8d01a632ced127",
            id="hom-time-wide",
        ),
        pytest.param(
            "scenario = hom_scan\nhom.domain = frequency\nhom.points = 1001\n"
            "hom.half_range_mhz = 45\n",
            "8e0ae08062f4c14b6d2eb0cff9da47d614d913c0927da594d45d49dd331eab60",
            "d5485ac713c9bc9d56d81ddd4ffed77e9bfc2635fa08f95b4cb3dcfb3d925c56",
            id="hom-frequency-wide",
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
            "scenario = chsh\nchsh.alpha1 = 0.05\nchsh.alpha2 = 0.3\n"
            "chsh.theta1_deg = 10\nchsh.theta1_prime_deg = 55\nchsh.theta2_deg = 32.5\n"
            "chsh.theta2_prime_deg = 77.5\n",
            "725422870d9bb51647482fbc487f328224ba73bcf66d92fa22684fd80c22ee06",
            "a330b3470396d223771befc84ed8e1513f69fc0d8aea2e7edb687c150d13b129",
            id="chsh-analytic-angles",
        ),
        pytest.param(
            "scenario = chsh\nchsh.mode = sampled\nchsh.n_events = 100000\nseed = 12\n"
            "chsh.p_i1 = 0.8\n",
            "e030816979f855d959df89accd4203ada4abd67d45d51ba9d48754e3e08e78b8",
            "b17d12090f6e688cff239a5196ce000d56aaaf039c7dff965af1270171690967",
            id="chsh-sampled-seed",
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
            "f0437956514a83fc0e34cf97dc04ece7d0b9161a9d43e165dffe8ea31bb1023b",
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


def record_block(heralds_a, heralds_b, four_fold_draws, first_trial=0) -> np.ndarray:
    """Trial records with these heralds, holds following from them as in a campaign."""
    records = np.zeros(len(heralds_a), dtype=TRIAL_RECORD_DTYPE)
    records["trial"] = np.arange(first_trial, first_trial + records.size)
    records["herald_a"], records["herald_b"] = heralds_a, heralds_b
    joint = (records["herald_a"] >= 0) & (records["herald_b"] >= 0)
    later = np.maximum(records["herald_a"], records["herald_b"]).astype(float)
    for name, herald in (("hold_a_ns", "herald_a"), ("hold_b_ns", "herald_b")):
        records[name] = np.where(joint, (later - records[herald]) * 800.0 + 400.0, np.nan)
    records["four_fold"] = joint & np.asarray(four_fold_draws, dtype=bool)
    return records


def heralded_run(records) -> tuple:
    """The heralded rows of these records as the writer takes them: one run
    of the record columns, sorted by trial."""
    rows = records[(records["herald_a"] >= 0) | (records["herald_b"] >= 0)]
    return tuple(rows[name] for name in TRIAL_RECORD_DTYPE.names)


def written_records(records, spans) -> list:
    """The record writer's lines for these records, given one trial span
    ``(lo, m)`` at a time, split at each newline."""
    lines = []
    for lo, m in spans:
        span = records[(records["trial"] >= lo) & (records["trial"] < lo + m)]
        assert span["trial"].tolist() == list(range(lo, lo + m))
        lines += _record_blocks(lo, m, heralded_run(span))
    return b"".join(lines).decode().split("\n")


def per_cell_records(records) -> list:
    # as lists of lines, which pytest compares without a whole-text diff
    return [",".join(map(cell_text, row)) for row in records.tolist()] + [""]


def test_record_table_matches_per_cell_formatting():
    # heralds at both ends of the largest write budget, across a span edge
    # that is no multiple of a block of rows
    rng = np.random.default_rng(8)
    choices = np.array([-1, 0, 3, N_WRITE_MAX_CAP - 2, N_WRITE_MAX_CAP - 1])
    size = 70_000
    records = record_block(
        rng.choice(choices, size), rng.choice(choices, size), rng.random(size) < 0.5
    )
    spans = [(0, 65_537), (65_537, size - 65_537)]
    assert written_records(records, spans) == per_cell_records(records)


def test_record_table_emits_identically_twice(tmp_path):
    # the record blocks are re-drawn on every pass, not consumed by the first
    doc, table = run_text(RECORDS + "seed = 2\ntrials = 70000\n" + RECORD_SOURCES_DENSE)
    for directory in ("first", "second"):
        emit_outputs(doc, table, tmp_path / directory)
    first = (tmp_path / "first" / "table.csv").read_bytes()
    assert first.count(b"\n") == 70_001
    assert (tmp_path / "second" / "table.csv").read_bytes() == first


def widest_heralds(rng, size):
    # every attempt index a campaign can record, both ends included
    heralds = rng.integers(-1, N_WRITE_MAX_CAP, size)
    heralds[:2] = -1, N_WRITE_MAX_CAP - 1
    return heralds


def record_case(case: str) -> np.ndarray:
    rng = np.random.default_rng(11)
    if case == "empty":
        return record_block([], [], [])
    if case == "one-row":
        return record_block([4], [9], [True], first_trial=41)
    if case == "identical":
        return record_block([5] * 3000, [2] * 3000, [True] * 3000)
    if case == "distinct":
        heralds_a = np.arange(-1, 2999)
        return record_block(heralds_a, rng.permutation(heralds_a), rng.random(3000) < 0.5)
    if case == "edges":
        # unheralded but for A alone, B alone and both, on each side of a
        # window edge (2048 and 4096 into a span) and of the span edge at 5000
        heralds_a, heralds_b = np.full(9000, -1), np.full(9000, -1)
        for at, (a, b) in zip([2047, 2048, 4095, 4096, 4999, 5000, 7047, 7048, 8999],
                              [(3, -1), (-1, 7), (2, 5), (6, 6), (-1, 0), (0, -1), (1, 4),
                               (9, 2), (11, -1)]):
            heralds_a[at], heralds_b[at] = a, b
        return record_block(heralds_a, heralds_b, [True] * 9000, first_trial=10**6)
    size = 1 << 16  # a campaign chunk, whose heralds span the counting table's largest size
    return record_block(
        widest_heralds(rng, size), widest_heralds(rng, size), rng.random(size) < 0.5, 10**12
    )


@pytest.mark.parametrize("case", ["empty", "one-row", "identical", "distinct", "edges", "widest"])
def test_record_block_matches_per_cell_formatting(case):
    block = record_case(case)
    lo = int(block["trial"][0]) if block.size else 0
    spans = [(lo, block.size)] if case != "edges" else [(lo, 5000), (lo + 5000, 4000)]
    assert written_records(block, spans) == per_cell_records(block)


def test_dense_campaign_record_table_matches_per_cell_formatting(tmp_path):
    doc, (names, table) = run_text(RECORDS + "seed = 4\ntrials = 70000\n" + RECORD_SOURCES_DENSE)
    _, records = simulate_campaign_records(table.params, table.n_trials, table.seed)
    assert records.size == 70_000
    emit_outputs(doc, (names, table), tmp_path)
    lines = (tmp_path / "table.csv").read_bytes().decode().split("\n")
    assert lines == [",".join(names)] + per_cell_records(records)


@pytest.mark.parametrize(
    "case", ["empty", "one", "constant", "huge", "sorted", "reversed", "field", "wide", "widest"]
)
def test_distinct_matches_unique(case):
    # counting over a short span and the sort over a long one agree with np.unique
    rng = np.random.default_rng(12)
    values = {
        "empty": np.empty(0, dtype=np.int64),
        "one": np.array([-7]),
        "constant": np.full(500, 2**62),
        "huge": np.array([2**62, -1, 2**40, -1, 0]),
        "sorted": np.arange(-3, 1000),
        "reversed": np.arange(N_WRITE_MAX_CAP, -2, -1),
        "field": record_case("distinct")["herald_b"],
        "wide": rng.integers(-1, 10**9, 1000),
        "widest": widest_heralds(rng, 1 << 16),
    }[case]
    expected_values, expected_index = np.unique(values, return_inverse=True)
    distinct, index = _distinct(values)
    assert distinct.tolist() == expected_values.tolist()
    assert index.tolist() == expected_index.tolist()


def per_cell_table(names, columns) -> list:
    # as lists of lines, which pytest compares without a whole-text diff
    lines = [",".join(names)] + [",".join(map(cell_text, row)) for row in zip(*columns)]
    return lines + [""]


def emitted_table(tmp_path, names, columns) -> list:
    doc, _ = run_text("scenario = enhancement\n")
    emit_outputs(doc, (names, columns), tmp_path)
    return (tmp_path / "table.csv").read_bytes().decode().split("\n")


def test_generic_table_matches_per_cell_formatting(tmp_path):
    # columns of python and numpy ints, bools and floats
    rng = np.random.default_rng(6)
    specials = [0.0, -0.0, 5e-324, -2.2e-310, 1e300, -1e300, 3.0, -7.0, 1e10, 2.0**53,
                123456789012.0, math.nan, math.inf, -math.inf]
    scales = 10.0 ** rng.integers(-300, 300, 2000)
    floats = specials + (rng.standard_normal(2000) * scales).tolist()
    ints = [0, -5, 7, 10**10, -(2**62), 2**63 - 1] + rng.integers(-(10**12), 10**12, 2008).tolist()
    n = len(floats)
    columns = [
        ints,
        [np.int64(v) for v in ints],
        [k % 3 == 0 for k in range(n)],
        [np.bool_(k % 2) for k in range(n)],
        floats,
        [np.float64(v) for v in reversed(floats)],
    ]
    names = tuple("abcdef")
    assert emitted_table(tmp_path, names, columns) == per_cell_table(names, columns)


@pytest.mark.parametrize(
    "column",
    [
        pytest.param([0.1 + 0.2] * 5, id="float"),
        pytest.param([np.float64(-0.0)] * 5, id="numpy-negative-zero"),
        pytest.param([math.nan] * 5, id="nan"),
        pytest.param([10**12] * 5, id="int"),
        pytest.param([np.int64(-(2**62))] * 5, id="numpy-int"),
        pytest.param([True] * 5, id="bool"),
        pytest.param([np.bool_(False)] * 5, id="numpy-bool"),
        # equal cells that are different objects and format differently
        pytest.param([0.0, -0.0, 0.0, -0.0, 0.0], id="signed-zeros"),
        pytest.param([1, True, 1.0, np.bool_(True), np.int64(1)], id="ones"),
        # broadcast columns, formatted once: the padding strip keeps signs,
        # nan and every digit, and one column spans two blocks of rows
        pytest.param(np.broadcast_to(-0.0, 5), id="broadcast-negative-zero"),
        pytest.param(np.broadcast_to(math.nan, 5), id="broadcast-nan"),
        pytest.param(np.broadcast_to(np.int64(-(2**62)), 5), id="broadcast-int"),
        pytest.param(np.broadcast_to(True, 5), id="broadcast-bool"),
        pytest.param(np.broadcast_to(1 / 3, 5000), id="broadcast-across-blocks"),
    ],
)
def test_generic_table_constant_column_matches_per_cell_formatting(tmp_path, column):
    n = len(column)
    columns = [[0.25 * k for k in range(n)], column, list(range(n))]
    names = ("x", "constant", "k")
    assert emitted_table(tmp_path, names, columns) == per_cell_table(names, columns)


@pytest.mark.parametrize(
    "column",
    [
        pytest.param(["a", "b"], id="str"),
        pytest.param([2**64, 1], id="beyond-int64"),
        # np.asarray types these as float64, which would round 2**63
        pytest.param([2**63, 1], id="uint64-first"),
        pytest.param([1, 2**63], id="uint64-last"),
    ],
)
def test_generic_table_rejects_a_column_of_other_kind(tmp_path, column):
    doc, _ = run_text("scenario = enhancement\n")
    with pytest.raises(TypeError, match="column"):
        emit_outputs(doc, (("x", "y"), [[0.5, 1.5], column]), tmp_path)
    # every column is checked before either file is written
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "names,columns",
    [
        # a one-row column would broadcast over the others
        pytest.param(("x", "y"), [np.arange(4), np.array([7.0])], id="short-column"),
        # the mismatch in a later block of rows
        pytest.param(("x", "y"), [np.arange(5000), np.array([7.0])], id="short-across-blocks"),
        pytest.param(("x", "y"), [np.arange(3), np.zeros((3, 2))], id="two-dimensional"),
        pytest.param(("x", "y"), [np.zeros((3, 2)), np.arange(3)], id="two-dimensional-first"),
        pytest.param(("a",), [np.arange(2), np.arange(2)], id="fewer-names"),
        pytest.param(("a", "b"), [np.arange(2)], id="more-names"),
    ],
)
def test_generic_table_rejects_columns_that_disagree(tmp_path, names, columns):
    doc, _ = run_text("scenario = enhancement\n")
    with pytest.raises(ValueError, match="table names"):
        emit_outputs(doc, (names, columns), tmp_path)
    # the shapes and the names are checked before either file is written
    assert list(tmp_path.iterdir()) == []


def test_generic_table_list_of_ints_and_floats_is_float64(tmp_path):
    assert emitted_table(tmp_path, ("x",), [[1, 2.5]]) == ["x", "1", "2.5", ""]


def test_generic_table_of_one_row_matches_per_cell_formatting(tmp_path):
    # every column of a one-row table is constant
    columns = [[-0.0], [np.float64(1e300)], [2**63 - 1], [np.int64(-3)], [False], [math.inf]]
    names = tuple("abcdef")
    assert emitted_table(tmp_path, names, columns) == per_cell_table(names, columns)


def framed_lines(frame) -> list:
    return _lines([frame], len(frame)).decode().splitlines()


# every float64: the full range, subnormals, signed zeros, nan and infinities,
# plus the fixed-notation range, decimals, and decimals halfway between two
# ten-digit values, where the digit frame is used or a near-tie turns it down
FLOATS = st.one_of(
    st.floats(),
    st.floats(-1e11, 1e11),
    st.integers(-(10**13), 10**13).map(lambda k: k / 1000),
    st.builds(
        lambda digits, exponent: float(f"{digits}5e{exponent - 10}"),
        st.integers(10**9, 10**10 - 1),
        st.integers(-5, 10),
    ),
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.lists(FLOATS, min_size=1, max_size=40))
@example([12345678905.0])  # an exact tie at eleven digits, in exponent notation
@example([9999999999.5])  # rounds up to 1e+10
@example([0.99999999995])  # a near-tie just below the next decade
@example([1e-5])  # below the fixed range
@example([1e-4])  # its first value
@example([1e10])  # past its last value
@example([5e-324])  # the least subnormal
def test_float_frame_matches_percent_format(values):
    assert framed_lines(_float_frame(np.array(values))) == ["%.10g" % v for v in values]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=40))
@example([-(2**63), 2**63 - 1, 0, -1, 10**18, -(10**18) + 1])
def test_int_frame_matches_str(values):
    assert framed_lines(_int_frame(np.array(values, dtype=np.int64))) == [str(v) for v in values]


def test_domain_error_carries_scenario_context():
    with pytest.raises(ValueError, match="hom_scan"):
        run_text("scenario = hom_scan\nhom.p_i1 = 0\nhom.p_i2 = 0\n")


# ---------------------------------------------------------------------------
# emit_outputs


def test_emit_outputs_files(tmp_path):
    doc, table = run_text("scenario = hom_scan\n")
    emit_outputs(doc, table, tmp_path / "run")
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
    doc, table = run_text("scenario = hom_scan\nhom.points = 11\n")
    emit_outputs(doc, table, tmp_path)
    lines = (tmp_path / "table.csv").read_text().splitlines()[1:]
    assert len(lines) == 11
    for line, row in zip(lines, zip(*table[1])):
        for printed, value in zip(line.split(","), row):
            assert float(printed) == pytest.approx(float(value), rel=1e-9)


def test_rerun_byte_identical(tmp_path):
    for directory in ("first", "second"):
        doc, table = run_text("scenario = chsh\nchsh.mode = sampled\nchsh.n_events = 5000\n")
        emit_outputs(doc, table, tmp_path / directory)
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
    # these two sizes; streamed substreams add only what a larger first
    # substream takes, under 2 MB at the default physics.  A process's peak RSS
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
    assert abs(peak_kib[1] - peak_kib[0]) * 1024 <= 2e6, peak_kib


def test_cli_missing_config_file(tmp_path):
    assert main(["chsh", "--config", str(tmp_path / "nope.cfg")]) == 3


def test_cli_non_utf8_config_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes("scenario = chsh\n# café\n".encode("latin-1"))
    assert main(["chsh", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not (tmp_path / "out").exists()


def test_cli_output_under_a_file_is_an_io_error(tmp_path, capsys):
    cfg = write_config(tmp_path, "scenario = chsh\n")
    (tmp_path / "file").write_text("")
    assert main(["chsh", "--config", cfg, "--out", str(tmp_path / "file" / "out")]) == 3
    # the OS error text names the path
    assert str(tmp_path / "file" / "out") in capsys.readouterr().err


def test_cli_rejects_a_nul_byte_in_a_value(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_config(tmp_path, "scenario = chsh\noutput_path = a\0b\n")
    assert main(["chsh", "--config", "run.cfg"]) == 2
    assert capsys.readouterr().err.endswith("(key: output_path line: 2)\n")
    assert [path.name for path in tmp_path.iterdir()] == ["run.cfg"]


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


@pytest.mark.parametrize(
    "key,value",
    [
        # p_as keeps its default, which eta_as = 0 cannot reach
        ("protocol.source_b.eta_as", "0"),
        # chi without eta_as
        ("protocol.source_a.chi", "0.05"),
    ],
)
def test_cli_reports_a_source_join_at_the_key_that_was_set(tmp_path, capsys, key, value):
    cfg = write_config(tmp_path, f"scenario = enhancement\n{key} = {value}\n")
    assert main(["enhancement", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.endswith(f"(key: {key} line: 2)\n")
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
    "key,entry", [("enhancement.tau_c_us_list", "12.5"), ("enhancement.n_write_max_list", "3")]
)
def test_cli_caps_each_sweep_list(tmp_path, capsys, key, entry):
    # the table has a row per pair of entries, so each list holds at most 1000
    cfg = write_config(tmp_path, f"scenario = enhancement\n{key} = {', '.join([entry] * 1001)}\n")
    assert main(["enhancement", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.endswith(f"(key: {key} line: 2)\n")
    assert not (tmp_path / "out").exists()
    cfg = write_config(tmp_path, f"scenario = enhancement\n{key} = {', '.join([entry] * 1000)}\n")
    assert main(["enhancement", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    assert len((tmp_path / "out" / "table.csv").read_text().splitlines()) == 1001


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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "scenario,lines",
    [
        # 2*tau_c**2 underflows, so the Gaussian decay would be 0/0
        ("enhancement", "protocol.tau_c_us = 5e-324\nprotocol.dt_read_ns = 0"),
        ("enhancement", "enhancement.tau_c_us_list = 12, 5e-324\nprotocol.dt_read_ns = 0"),
        ("protocol_sim", "protocol.tau_c_us = 1e-200\nprotocol.dt_read_ns = 0"),
        # 4*sigma**2 underflows, so the HOM overlap would be 0/0
        ("hom_scan", "hom.coherence_fwhm_ns = 1e-200"),
        ("hom_scan", "hom.coherence_fwhm_ns = 5e-324\nhom.domain = frequency"),
    ],
)
def test_cli_rejects_widths_whose_square_underflows(tmp_path, capsys, scenario, lines):
    cfg = write_config(tmp_path, f"scenario = {scenario}\n{lines}\n")
    assert main([scenario, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    key = lines.split(" = ", 1)[0]
    assert f"(key: {key} line: 2)" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "scenario,lines",
    [
        # the decay and overlap exponents overflow to -inf: exp gives its exact limit 0
        ("protocol_sim", "protocol.dt_read_ns = 1e300\ntrials = 1000"),
        ("hom_scan", "hom.coherence_fwhm_ns = 1e300\nhom.domain = frequency"),
        # the longest hold and the scan's span stay just below the float limit
        ("protocol_sim", "protocol.latency_ns = 8e307\ntrials = 1000"),
        ("enhancement", "protocol.dt_write_ns = 1.7e303\nenhancement.n_write_max_list = 100000"),
        # the holds of N slots are finite; padded to whole sum blocks (499 slots
        # at p = 0.5) they would not be
        (
            "enhancement",
            "protocol.dt_write_ns = 1.7975e303\nprotocol.source_a.p_as = 0.5\n"
            "enhancement.n_write_max_list = 100000",
        ),
        ("hom_scan", "hom.half_range_ns = 8e307"),
        ("hom_scan", "hom.half_range_mhz = 8e307\nhom.domain = frequency"),
    ],
)
def test_cli_huge_values_reach_their_limits_silently(tmp_path, scenario, lines):
    cfg = write_config(tmp_path, f"scenario = {scenario}\n{lines}\n")
    assert main([scenario, "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    metrics = json.loads((tmp_path / "out" / "summary.json").read_text())["metrics"]
    assert all(math.isfinite(value) for value in metrics.values())


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "scenario,lines",
    [
        # 2*latency_ns + dt_read_ns, or N_WRITE_MAX_CAP * dt_write_ns on top, overflows
        ("protocol_sim", "protocol.latency_ns = 1e308"),
        ("enhancement", "protocol.latency_ns = 1e308"),
        ("protocol_sim", "protocol.latency_ns = 1e307\nprotocol.dt_read_ns = 1.7e308"),
        ("enhancement", "protocol.dt_write_ns = 1e308"),
        ("protocol_sim", "protocol.dt_write_ns = 1.8e303"),
        # the scan grid spans twice the half range
        ("hom_scan", "hom.half_range_ns = 1e308"),
        ("hom_scan", "hom.half_range_mhz = 1e308\nhom.domain = frequency"),
    ],
)
def test_cli_rejects_values_whose_span_overflows(tmp_path, capsys, scenario, lines):
    cfg = write_config(tmp_path, f"scenario = {scenario}\n{lines}\n")
    assert main([scenario, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    key = lines.split(" = ", 1)[0]
    assert f"(key: {key} line: 2)" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "scenario,metric", [("enhancement", "p4c_feedback"), ("protocol_sim", "p4c_closed_form")]
)
def test_cli_non_finite_metric_is_a_domain_error(tmp_path, capsys, monkeypatch, scenario, metric):
    # any leak past the parser exits 4 naming the metric, and writes nothing
    monkeypatch.setattr("heraldsync.runner.p4c_feedback_closed_form", lambda params: math.nan)
    cfg = write_config(tmp_path, f"scenario = {scenario}\ntrials = 1000\n")
    assert main([scenario, "--config", cfg, "--out", str(tmp_path / "out")]) == 4
    assert f"{scenario}: metric {metric} is not finite" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
