"""Tests for config parsing, validation, and hashing."""

from pathlib import Path

import pytest

from heraldsync.config import (
    _KEYS,
    HOM_POINTS_CAP,
    N_WRITE_MAX_CAP,
    ChshMode,
    ChshSettings,
    ConfigError,
    HomSettings,
    Scenario,
    parse_config,
)
from heraldsync.interference import ScanDomain
from heraldsync.protocol import DecayModel, default_params

README = Path(__file__).resolve().parents[1] / "README.md"

MINIMAL = "scenario = enhancement\n"


def test_minimal_config_gets_shipped_defaults():
    config = parse_config(MINIMAL)
    assert config.scenario is Scenario.ENHANCEMENT
    assert config.seed == 0
    protocol = config.protocol
    assert protocol.n_write_max == 12
    assert protocol.dt_write_ns == 800.0
    assert protocol.dt_read_ns == 400.0
    assert protocol.tau_c_us == 12.0
    assert protocol.decay_model is DecayModel.GAUSSIAN_HALF
    assert protocol.latency_ns == 0.0
    for source in (protocol.source_a, protocol.source_b):
        assert source.p_as == 2.0e-3
        assert source.gamma0 == 0.08
    assert config.hom.coherence_fwhm_ns == 25.0
    assert config.hom.alpha1 == 0.12 and config.hom.alpha2 == 0.17
    assert config.chsh.settings.pairs()[0] == (0.0, 67.5)


def test_empty_document_names_scenario():
    with pytest.raises(ConfigError) as err:
        parse_config("")
    assert err.value.key == "scenario"


def test_duplicate_key_rejected():
    text = "scenario = chsh\nseed = 1\nseed = 2\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.key == "seed"
    assert err.value.line == 3


def test_unknown_key_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config("scenario = chsh\nprotocol.write_max = 3\n")
    assert err.value.key == "protocol.write_max"
    assert err.value.line == 2


def test_type_mismatch_names_key_and_line():
    with pytest.raises(ConfigError) as err:
        parse_config("scenario = chsh\n\nprotocol.tau_c_us = fast\n")
    assert err.value.key == "protocol.tau_c_us"
    assert err.value.line == 3


def test_bad_scenario_value():
    with pytest.raises(ConfigError) as err:
        parse_config("scenario = bell\n")
    assert err.value.key == "scenario"


def test_malformed_line():
    with pytest.raises(ConfigError) as err:
        parse_config("scenario chsh\n")
    assert err.value.line == 1


def test_comments_and_blanks_skipped():
    text = "# run profile\n\nscenario = hom_scan\n# tail comment\nhom.domain = frequency\n"
    config = parse_config(text)
    assert config.hom.domain is ScanDomain.FREQUENCY


def test_out_of_range_value_is_config_error():
    with pytest.raises(ConfigError):
        parse_config("scenario = enhancement\nprotocol.source_a.gamma0 = 1.5\n")
    with pytest.raises(ConfigError):
        parse_config("scenario = enhancement\nprotocol.n_write_max = 0\n")


def test_seed_must_be_u64():
    with pytest.raises(ConfigError):
        parse_config("scenario = chsh\nseed = -1\n")
    with pytest.raises(ConfigError):
        parse_config(f"scenario = chsh\nseed = {2**64}\n")
    config = parse_config(f"scenario = chsh\nseed = {2**64 - 1}\n")
    assert config.seed == 2**64 - 1


def test_chi_source_drops_default_p_as():
    text = (
        "scenario = protocol_sim\n"
        "protocol.source_a.chi = 0.05\n"
        "protocol.source_a.eta_as = 0.4\n"
    )
    config = parse_config(text)
    assert config.protocol.source_a.p_as is None
    assert config.protocol.source_a.chi == 0.05
    # source_b keeps its direct default
    assert config.protocol.source_b.p_as == 2.0e-3


def test_source_resolution_through_the_parser_pinned():
    # p_as = 1e-17 lies below eta_as = 0.5's supremum 5/12, so chi is solved
    text = "protocol.source_a.eta_as = {}\nprotocol.source_a.p_as = 1e-17\nscenario = chsh\n"
    source = parse_config(text.format(0.5)).protocol.source_a
    assert source.herald_prob.hex() == "0x1.70ef54646d497p-57"
    assert source.effective_chi.hex() == "0x1.70ef54646d497p-56"
    assert source.heralded_shape().p == (0.0, 1.0, 3e-17)
    # eta_as = 1e-17 cannot reach it: the error names p_as and its line
    with pytest.raises(ConfigError) as info:
        parse_config(text.format(1e-17))
    assert str(info.value) == (
        "p_as = 1e-17 is not reachable for eta_as = 1e-17 (requires p_as < 1e-17) "
        "(key: protocol.source_a.p_as line: 2)"
    )
    assert info.value.key == "protocol.source_a.p_as"


def test_explicit_p_as_wins_over_chi():
    text = (
        "scenario = protocol_sim\n"
        "protocol.source_a.chi = 0.05\n"
        "protocol.source_a.eta_as = 0.4\n"
        "protocol.source_a.p_as = 3.0e-3\n"
    )
    source = parse_config(text).protocol.source_a
    assert source.herald_prob == pytest.approx(3.0e-3, rel=1e-12)


def test_enhancement_sweep_lists():
    text = (
        "scenario = enhancement\n"
        "enhancement.tau_c_us_list = 1, 5, 12\n"
        "enhancement.n_write_max_list = 1,6,12\n"
    )
    config = parse_config(text)
    assert config.tau_c_us_list == (1.0, 5.0, 12.0)
    assert config.n_write_max_list == (1, 6, 12)


def test_unset_sweep_lists_are_the_protocols_values():
    config = parse_config(MINIMAL)
    assert config.tau_c_us_list == (config.protocol.tau_c_us,)
    assert config.n_write_max_list == (config.protocol.n_write_max,)
    config = parse_config(MINIMAL + "protocol.tau_c_us = 7\nprotocol.n_write_max = 3\n")
    assert (config.tau_c_us_list, config.n_write_max_list) == ((7.0,), (3,))


def test_sweep_list_hashes_pinned():
    # an unset list stays out of the hash; one set to the protocol's value does not
    unset = parse_config(MINIMAL).config_hash
    assert unset == "9806a7af2cc1503f8eedb037dc90f22a9b009dd45d899218b0f967359cce1ba4"
    explicit = parse_config(MINIMAL + "enhancement.tau_c_us_list = 12\n").config_hash
    assert explicit == "41a1b39d84dec151f1b787ca7e005e541a34bdda90a88646e049508f2ef3aa9e"


@pytest.mark.parametrize(
    "key,template,cap",
    [
        ("protocol.n_write_max", "{}", N_WRITE_MAX_CAP),
        ("enhancement.n_write_max_list", "{}", N_WRITE_MAX_CAP),
        ("enhancement.n_write_max_list", "12, {}", N_WRITE_MAX_CAP),
        ("hom.points", "{}", HOM_POINTS_CAP),
    ],
)
def test_sizes_capped(key, template, cap):
    # parse only: nothing of the stated size is allocated
    parse_config(f"scenario = enhancement\n{key} = {template.format(cap)}\n")
    with pytest.raises(ConfigError, match=f"{key}.*line: 2") as info:
        parse_config(f"scenario = enhancement\n{key} = {template.format(cap + 1)}\n")
    assert info.value.key == key
    assert str(cap) in str(info.value)


def test_chsh_mode_and_events():
    config = parse_config("scenario = chsh\nchsh.mode = sampled\nchsh.n_events = 5000\n")
    assert config.chsh.mode is ChshMode.SAMPLED
    assert config.chsh.n_events == 5000


def test_record_trials_flag():
    config = parse_config("scenario = protocol_sim\nprotocol_sim.record_trials = true\n")
    assert config.record_trials is True
    with pytest.raises(ConfigError):
        parse_config("scenario = protocol_sim\nprotocol_sim.record_trials = yes\n")


def test_hash_stable_under_reordering():
    a = parse_config("scenario = chsh\nseed = 9\nchsh.alpha1 = 0.2\n")
    b = parse_config("chsh.alpha1 = 0.2\nscenario = chsh\nseed = 9\n")
    assert a.config_hash == b.config_hash


def test_hash_tracks_values():
    a = parse_config("scenario = chsh\nseed = 9\n")
    b = parse_config("scenario = chsh\nseed = 10\n")
    assert a.config_hash != b.config_hash


def test_hash_ignores_output_path():
    a = parse_config("scenario = chsh\noutput_path = here\n")
    b = parse_config("scenario = chsh\noutput_path = there\n")
    assert a.config_hash == b.config_hash


def test_overrides_match_in_file_keys():
    by_file = parse_config("scenario = chsh\nseed = 11\ntrials = 50\n")
    by_override = parse_config(
        "scenario = chsh\n", overrides={"seed": "11", "trials": "50"}
    )
    assert by_file.config_hash == by_override.config_hash
    assert by_override.seed == 11 and by_override.trials == 50


def test_override_unknown_key():
    with pytest.raises(ConfigError):
        parse_config(MINIMAL, overrides={"speed": "3"})


def test_override_bad_value():
    with pytest.raises(ConfigError):
        parse_config(MINIMAL, overrides={"seed": "fast"})


def test_override_with_a_nul_byte_names_its_key():
    # checked as a value written in the file is, before any path is used
    with pytest.raises(ConfigError) as err:
        parse_config(MINIMAL, overrides={"output_path": "a\0b"})
    assert err.value.key == "output_path" and err.value.line is None


def test_defaults_are_the_shipped_profile():
    config = parse_config(MINIMAL)
    assert config.protocol == default_params()
    assert config.hom == HomSettings()
    assert config.chsh == ChshSettings()


def _readme_key_table() -> dict[str, str]:
    """Key -> default cell of README's key table, ``protocol.source_b.*`` expanded."""
    text = README.read_text(encoding="utf-8")
    section = text.split("### Keys and defaults", 1)[1].split("\n### ", 1)[0]
    rows = {}
    for line in section.splitlines():
        if line.startswith("| `"):
            key, default = (cell.strip() for cell in line.split("|")[1:3])
            rows[key.strip("`")] = default
    source_b = rows.pop("protocol.source_b.*")
    assert source_b == "same as `source_a`"
    for key in [k for k in rows if k.startswith("protocol.source_a.")]:
        rows[key.replace("source_a", "source_b")] = rows[key]
    return rows


def test_readme_key_table_matches_schema():
    rows = _readme_key_table()
    assert set(rows) == set(_KEYS)
    for key, cell in rows.items():
        parse, default = _KEYS[key]
        if cell == "(required)":
            assert key == "scenario" and default is None
        elif cell == "unset":
            assert default is None, key
        else:
            value = parse(cell.strip("`"))
            assert value == default and type(value) is type(default), key


def test_section_check_names_field_key_and_line():
    with pytest.raises(ConfigError) as err:
        parse_config("scenario = enhancement\nprotocol.tau_c_us = 0\n")
    assert err.value.key == "protocol.tau_c_us"
    assert err.value.line == 2
    assert str(err.value).endswith("(key: protocol.tau_c_us line: 2)")


def test_key_without_line_has_no_stray_space():
    # an override has no line; chi without eta_as is reported at chi, the key set
    with pytest.raises(ConfigError) as err:
        parse_config(MINIMAL, overrides={"protocol.source_a.chi": "0.05"})
    assert err.value.key == "protocol.source_a.chi"
    assert err.value.line is None
    assert str(err.value).endswith("(key: protocol.source_a.chi)")
    with pytest.raises(ConfigError) as err:
        parse_config(MINIMAL, overrides={"seed": "-1"})
    assert str(err.value).endswith("(key: seed)")


@pytest.mark.parametrize("scenario", [s.value for s in Scenario])
@pytest.mark.parametrize(
    "key,value",
    [
        ("hom.coherence_fwhm_ns", "0"),
        ("hom.half_range_mhz", "-1"),
        ("chsh.alpha1", "-1"),
    ],
)
def test_hom_and_chsh_checked_in_every_scenario(scenario, key, value):
    with pytest.raises(ConfigError) as err:
        parse_config(f"scenario = {scenario}\n{key} = {value}\n")
    assert (err.value.key, err.value.line) == (key, 2)
