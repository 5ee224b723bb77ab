"""The config schema, fuzzed end to end through the CLI.

A scenario and one to six keys of the schema are drawn, each value from the
key's own parser domain or from a list of float extremes, and the config
runs through ``cli.main`` in process with warnings as errors.  Whatever the
values, the run keeps the exit-code contract:

* exit 0 writes finite metrics and finite table cells, and nothing on
  stderr; a record table's hold of a trial that did not herald on both
  nodes is NaN by design, and ``n_sigma`` may be the string ``"inf"``;
* exit 2 names a key that was set, also where a source's ``p_as``, ``chi``
  and ``eta_as`` do not join (``chi`` without ``eta_as``, or a ``p_as``
  that ``eta_as`` cannot reach);
* exit 4 comes only from the conditions that join several keys.

A ``protocol_sim`` run's four-fold count must also lie within either tail
bound 3e-5 of the closed form's binomial law (the two-sided z < 4 bound of
the campaign tests), so a derandomized run of this property raises a false
alarm with probability below 6e-5 per such example.  Only the keys that
size a run are drawn small.
"""

import contextlib
import io
import json
import math
import tempfile
import warnings
from enum import Enum
from pathlib import Path

import numpy as np
from hypothesis import event, example, given, settings
from hypothesis import strategies as st
from scipy import stats

from heraldsync.cli import EXIT_CONFIG, EXIT_DOMAIN, main
from heraldsync.config import _KEYS, Scenario

EXTREMES = ("0", "5e-324", "1e-310", "1e-17", "1", "1e300", "1.7e308", "-0.0", "-1")

# The int keys and the part of their domain that is drawn: the seed's whole
# range, and small values of the keys that size a run.
INT_RANGES = {
    "seed": (0, 2**64 - 1),
    "trials": (1, 2000),
    "protocol.n_write_max": (1, 40),
    "enhancement.n_write_max_list": (1, 40),
    "hom.points": (2, 400),
    "chsh.n_events": (1, 5000),
}
LISTS = ("enhancement.tau_c_us_list", "enhancement.n_write_max_list")
# output_path only routes the files, and each run writes to its own directory
FUZZED = sorted(set(_KEYS) - {"scenario", "output_path"})

MULTI_KEY_ERRORS = (
    "no-feedback coincidence probability is zero",
    "plateau coincidence rate is zero",
    "all state weights vanish",
)


def _items(key: str):
    """Strategy of one value's text for ``key``, a list entry for a list key."""
    default = _KEYS[key][1]
    if key in INT_RANGES:
        low, high = INT_RANGES[key]
        return st.one_of(st.integers(low, high).map(str), st.sampled_from(EXTREMES))
    if isinstance(default, Enum):
        return st.sampled_from([member.value for member in type(default)])
    if isinstance(default, bool):
        return st.sampled_from(["true", "false"])
    assert default is None or isinstance(default, float), key
    floats = st.floats(allow_nan=False, allow_infinity=False)
    return st.one_of(st.sampled_from(EXTREMES), st.floats(0.0, 1.0).map(repr), floats.map(repr))


def _values(key: str):
    if key in LISTS:
        return st.lists(_items(key), min_size=1, max_size=3).map(", ".join)
    return _items(key)


@st.composite
def settings_of_keys(draw) -> dict:
    keys = draw(st.lists(st.sampled_from(FUZZED), min_size=1, max_size=6, unique=True))
    return {key: draw(_values(key)) for key in keys}


def _names_a_set_key(err: str, setting: dict) -> bool:
    """Whether a config error names a key that was set."""
    named = err.split("(key: ", 1)[1].split(")")[0].split(" line: ")[0]
    return named in setting


def _finite_cells(table: Path, record: bool) -> None:
    lines = table.read_text().splitlines()
    names = lines[0].split(",")
    cells = np.array([[float(cell) for cell in line.split(",")] for line in lines[1:]])
    assert cells.shape == (len(lines) - 1, len(names))
    finite = np.isfinite(cells)
    if record:
        # a hold that never started is NaN, exactly where a node did not herald
        unheralded = (cells[:, 1] < 0) | (cells[:, 2] < 0)
        assert np.isnan(cells[unheralded, 3:5]).all()
        finite[unheralded, 3:5] = True
    assert finite.all(), names


def _within_closed_form(metrics: dict) -> None:
    k, n, p = metrics["four_fold_count"], metrics["trials"], metrics["p4c_closed_form"]
    law = stats.binom(n, p)
    assert min(law.cdf(k), law.sf(k - 1)) > 3e-5, metrics


def test_every_fuzzed_key_has_a_domain():
    # an int key missing from INT_RANGES, or a key of a new kind, fails here
    for key in FUZZED:
        assert _items(key) is not None


@example(Scenario.HOM_SCAN, {"hom.p_i2": "1e300"})
@example(Scenario.CHSH, {"chsh.p_i2": "1e300"})
@example(Scenario.ENHANCEMENT, {"protocol.tau_c_us": "5e-324", "protocol.dt_read_ns": "0"})
@example(Scenario.ENHANCEMENT, {"enhancement.tau_c_us_list": "12, 5e-324"})
@example(Scenario.HOM_SCAN, {"hom.coherence_fwhm_ns": "1e-200"})
@example(Scenario.PROTOCOL_SIM, {"protocol.latency_ns": "1e308"})
@example(Scenario.CHSH, {"chsh.p_i1": "1e-310", "chsh.p_i2": "-0.0"})
# a source given by chi, and by p_as with eta_as; then the two joins that
# name a key that was not set
@example(
    Scenario.PROTOCOL_SIM, {"protocol.source_a.chi": "0.05", "protocol.source_a.eta_as": "0.4"}
)
@example(Scenario.PROTOCOL_SIM, {"protocol.source_b.p_as": "0.5", "protocol.source_b.eta_as": "1"})
@example(Scenario.ENHANCEMENT, {"protocol.source_a.chi": "1e-17"})
@example(Scenario.ENHANCEMENT, {"protocol.source_b.eta_as": "0"})
# a sweep list one entry over its cap
@example(Scenario.ENHANCEMENT, {"enhancement.n_write_max_list": ", ".join(["1"] * 1001)})
@example(Scenario.ENHANCEMENT, {"enhancement.tau_c_us_list": ", ".join(["12"] * 1001)})
@settings(derandomize=True, max_examples=250, deadline=None)
@given(st.sampled_from(Scenario), settings_of_keys())
def test_cli_keeps_its_exit_contract(scenario, setting):
    lines = [f"scenario = {scenario.value}"] + [f"{k} = {v}" for k, v in setting.items()]
    if scenario is Scenario.PROTOCOL_SIM and "trials" not in setting:
        lines.append("trials = 1000")  # a size key, drawn small
    stdout, stderr = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        config, out = Path(tmp) / "run.cfg", Path(tmp) / "out"
        config.write_text("\n".join(lines) + "\n", encoding="utf-8")
        argv = [scenario.value, "--config", str(config), "--out", str(out)]
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = main(argv)
        err = stderr.getvalue()
        event(f"{scenario.value} exit {code}")  # shown by --hypothesis-show-statistics
        if code == EXIT_CONFIG:
            assert _names_a_set_key(err, setting), err
            assert not out.exists()
            return
        if code == EXIT_DOMAIN:
            assert any(message in err for message in MULTI_KEY_ERRORS), err
            assert not out.exists()
            return
        assert code == 0, err
        assert err == ""
        metrics = json.loads((out / "summary.json").read_text())["metrics"]
        for key, value in metrics.items():
            if isinstance(value, str):
                assert key == "n_sigma" and value in ("inf", "-inf"), (key, value)
            else:
                assert math.isfinite(value), (key, value)
        if scenario is Scenario.PROTOCOL_SIM:
            _within_closed_form(metrics)
        table = out / "table.csv"
        if table.exists():
            _finite_cells(table, record=scenario is Scenario.PROTOCOL_SIM)
