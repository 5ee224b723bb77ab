"""Run configuration.

Configs are flat UTF-8 text, one ``dotted.key = value`` per line, with
``#`` comment lines.  Every key has a shipped default, so a minimal
config needs only ``scenario``.  Unknown and duplicate keys are rejected;
all errors carry the offending key and line number.  Beyond five
top-level keys, the keys and defaults are read off the shipped profile
(:func:`_schema`).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields, is_dataclass
from enum import Enum
from typing import Any, Callable, Mapping

from .interference import AnalyzerSettings, ScanDomain, TemporalMode, _two_photon_rates
from .photon_stats import SourceParams
from .protocol import N_WRITE_MAX_CAP, ProtocolParams, _check_tau_c, default_params

__all__ = [
    "ConfigError",
    "Scenario",
    "ChshMode",
    "HomSettings",
    "ChshSettings",
    "EnhancementSettings",
    "RunConfig",
    "parse_config",
    "DEFAULT_SEED",
    "N_WRITE_MAX_CAP",
    "HOM_POINTS_CAP",
]

DEFAULT_SEED = 0
#: Largest ``hom.points`` accepted; the scan allocates and writes its grid.
HOM_POINTS_CAP = 1_000_000


class ConfigError(ValueError):
    """Config parse or validation failure, pointing at a key and line."""

    def __init__(self, message: str, key: str | None = None, line: int | None = None):
        self.key = key
        self.line = line
        if key is not None:
            message += f" (key: {key})" if line is None else f" (key: {key} line: {line})"
        super().__init__(message)


class Scenario(Enum):
    ENHANCEMENT = "enhancement"
    HOM_SCAN = "hom_scan"
    CHSH = "chsh"
    PROTOCOL_SIM = "protocol_sim"


class ChshMode(Enum):
    ANALYTIC = "analytic"
    SAMPLED = "sampled"


@dataclass(frozen=True)
class HomSettings:
    domain: ScanDomain = ScanDomain.TIME
    half_range_ns: float = 50.0
    half_range_mhz: float = 30.0
    points: int = 61
    coherence_fwhm_ns: float = 25.0
    alpha1: float = 0.12
    alpha2: float = 0.17
    p_i1: float = 1.0
    p_i2: float = 1.0

    def __post_init__(self) -> None:
        TemporalMode(coherence_fwhm_ns=self.coherence_fwhm_ns)
        _two_photon_rates(self.alpha1, self.alpha2, self.p_i1, self.p_i2)
        for name in ("half_range_ns", "half_range_mhz"):
            half = getattr(self, name)  # the scan grid spans 2 * half
            if not (half >= 0.0 and math.isfinite(2.0 * half)):
                raise ValueError(f"{name} must be nonnegative with 2*{name} finite, got {half}")


@dataclass(frozen=True)
class ChshSettings:
    mode: ChshMode = ChshMode.ANALYTIC
    settings: AnalyzerSettings = AnalyzerSettings()
    alpha1: float = 0.12
    alpha2: float = 0.17
    p_i1: float = 1.0
    p_i2: float = 1.0
    n_events: int = 1_000_000

    def __post_init__(self) -> None:
        _two_photon_rates(self.alpha1, self.alpha2, self.p_i1, self.p_i2)


@dataclass(frozen=True)
class EnhancementSettings:
    tau_c_us_list: tuple[float, ...] | None = None
    n_write_max_list: tuple[int, ...] | None = None


@dataclass(frozen=True)
class RunConfig:
    scenario: Scenario
    seed: int
    trials: int
    output_path: str
    record_trials: bool
    protocol: ProtocolParams
    enhancement: EnhancementSettings
    hom: HomSettings
    chsh: ChshSettings
    config_hash: str


def _parse_bool(text: str) -> bool:
    if text == "true":
        return True
    if text == "false":
        return False
    raise ValueError(f"expected true or false, got {text!r}")


def _parse_enum(enum_cls):
    def parse(text: str):
        try:
            return enum_cls(text)
        except ValueError:
            options = ", ".join(e.value for e in enum_cls)
            raise ValueError(f"expected one of {{{options}}}, got {text!r}") from None

    return parse


def _parse_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {text!r}")
    return value


def _parse_int_in(low: int, high: int) -> Callable[[str], int]:
    def parse(text: str) -> int:
        value = int(text)
        if not low <= value <= high:
            raise ValueError(f"expected an integer from {low} to {high}, got {value}")
        return value

    return parse


def _parse_list(item: Callable[[str], Any]) -> Callable[[str], tuple]:
    return lambda text: tuple(item(part.strip()) for part in text.split(","))


def _parse_like(default: Any) -> Callable[[str], Any]:
    """Parser for a key whose shipped default is ``default``."""
    if isinstance(default, Enum):
        return _parse_enum(type(default))
    if isinstance(default, bool):
        return _parse_bool
    return _parse_float  # a float, or None for an optional float


# Keys whose parser the type of their default cannot give.
_PARSERS: dict[str, Callable[[str], Any]] = {
    "protocol.n_write_max": _parse_int_in(1, N_WRITE_MAX_CAP),
    "enhancement.tau_c_us_list": _parse_list(lambda text: _check_tau_c(_parse_float(text))),
    "enhancement.n_write_max_list": _parse_list(_parse_int_in(1, N_WRITE_MAX_CAP)),
    "hom.points": _parse_int_in(2, HOM_POINTS_CAP),
    "chsh.n_events": _parse_int_in(1, 2**63 - 1),
}


def _schema() -> dict[str, tuple[Callable[[str], Any], Any]]:
    """Every key with its parser and default; ``scenario`` has no default."""
    protocol = default_params()
    keys: dict[str, tuple[Callable[[str], Any], Any]] = {
        "scenario": (_parse_enum(Scenario), None),
        "seed": (_parse_int_in(0, 2**64 - 1), DEFAULT_SEED),
        "trials": (_parse_int_in(1, 2**63 - 1), 100_000),
        "output_path": (str, "out"),
        "protocol_sim.record_trials": (_parse_bool, False),
    }
    sections = (
        ("protocol.", protocol),
        ("protocol.source_a.", protocol.source_a),
        ("protocol.source_b.", protocol.source_b),
        ("enhancement.", EnhancementSettings()),
        ("hom.", HomSettings()),
        ("chsh.", ChshSettings()),
        ("chsh.", AnalyzerSettings()),
    )
    for prefix, section in sections:
        for f in fields(section):
            default = getattr(section, f.name)
            # Nested settings (the sources, the analyzers) are sections of their own.
            if not is_dataclass(default):
                key = prefix + f.name
                keys[key] = (_PARSERS.get(key) or _parse_like(default), default)
    return keys


_KEYS = _schema()


def _render_value(value: Any) -> str:
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ",".join(_render_value(v) for v in value)
    return str(value)


def _hash_resolved(resolved: Mapping[str, Any]) -> str:
    # output_path routes the files but does not shape the results, so it
    # stays out of the provenance hash.
    lines = sorted(
        f"{key}={_render_value(value)}"
        for key, value in resolved.items()
        if value is not None and key != "output_path"
    )
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def _scan_pairs(text: str) -> dict[str, tuple[str, int | None]]:
    pairs: dict[str, tuple[str, int | None]] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {raw!r}", line=line_no)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _KEYS:
            raise ConfigError("unknown key", key=key, line=line_no)
        if key in pairs:
            raise ConfigError(
                f"duplicate key (first set at line {pairs[key][1]})", key=key, line=line_no
            )
        if not value:
            raise ConfigError("empty value", key=key, line=line_no)
        pairs[key] = (value, line_no)
    return pairs


def _section(cls, prefix: str, resolved: Mapping[str, Any], pairs: Mapping, **given: Any):
    """``cls`` with each field read from key ``prefix + name``, except ``given``.

    A failed check is reported at the field its message starts with, else at the section.
    """
    names = [f.name for f in fields(cls) if f.name not in given]
    try:
        return cls(**{name: resolved[prefix + name] for name in names}, **given)
    except ValueError as exc:
        first = str(exc).split(" ", 1)[0]
        key = prefix + first if first in names else prefix.rstrip(".")
        raise ConfigError(str(exc), key=key, line=pairs.get(key, ("", None))[1]) from exc


def _build_source(resolved: dict[str, Any], pairs: Mapping, tag: str) -> SourceParams:
    prefix = f"protocol.source_{tag}."
    # The p_as default backs off when the source is specified through chi.
    if resolved[prefix + "chi"] is not None and (prefix + "p_as") not in pairs:
        resolved[prefix + "p_as"] = None
    return _section(SourceParams, prefix, resolved, pairs)


def parse_config(text: str, overrides: Mapping[str, str] | None = None) -> RunConfig:
    """Parse and validate a config document, applying defaults.

    ``overrides`` are key/value strings applied on top of the document
    (the CLI uses this for --seed/--trials/--out); they participate in
    validation and the config hash exactly as if written in the file.
    """
    pairs = _scan_pairs(text)
    if overrides:
        for key, value in overrides.items():
            if key not in _KEYS:
                raise ConfigError("unknown override key", key=key)
            pairs[key] = (value, None)

    resolved = {key: default for key, (_, default) in _KEYS.items()}
    for key, (raw, line_no) in pairs.items():
        try:
            resolved[key] = _KEYS[key][0](raw)
        except ValueError as exc:
            raise ConfigError(str(exc), key=key, line=line_no) from exc
    if resolved["scenario"] is None:
        raise ConfigError("missing required key", key="scenario")

    sources = {f"source_{tag}": _build_source(resolved, pairs, tag) for tag in ("a", "b")}
    analyzers = _section(AnalyzerSettings, "chsh.", resolved, pairs)
    return RunConfig(
        scenario=resolved["scenario"],
        seed=resolved["seed"],
        trials=resolved["trials"],
        output_path=resolved["output_path"],
        record_trials=resolved["protocol_sim.record_trials"],
        protocol=_section(ProtocolParams, "protocol.", resolved, pairs, **sources),
        enhancement=_section(EnhancementSettings, "enhancement.", resolved, pairs),
        hom=_section(HomSettings, "hom.", resolved, pairs),
        chsh=_section(ChshSettings, "chsh.", resolved, pairs, settings=analyzers),
        config_hash=_hash_resolved(resolved),
    )
