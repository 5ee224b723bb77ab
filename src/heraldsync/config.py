"""Run configuration.

Configs are flat UTF-8 text, one ``dotted.key = value`` per line, with
``#`` comment lines.  Every key has a shipped default, so a minimal
config needs only ``scenario``.  Unknown and duplicate keys are rejected;
all errors carry the offending key and line number.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields
from enum import Enum
from typing import Any, Callable, Mapping

from .interference import AnalyzerSettings, ScanDomain
from .photon_stats import SourceParams
from .protocol import DecayModel, ProtocolParams

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
#: Largest write budget N accepted (``protocol.n_write_max`` and every
#: ``enhancement.n_write_max_list`` entry); the closed form allocates O(N).
N_WRITE_MAX_CAP = 100_000
#: Largest ``hom.points`` accepted; the scan allocates and writes its grid.
HOM_POINTS_CAP = 1_000_000


class ConfigError(ValueError):
    """Config parse or validation failure, pointing at a key and line."""

    def __init__(self, message: str, key: str | None = None, line: int | None = None):
        self.key = key
        self.line = line
        parts = [message]
        if key is not None:
            parts.append(f"(key: {key}")
            parts.append(f"line: {line})" if line is not None else ")")
        super().__init__(" ".join(parts))


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
    domain: ScanDomain
    half_range_ns: float
    half_range_mhz: float
    points: int
    coherence_fwhm_ns: float
    alpha1: float
    alpha2: float
    p_i1: float
    p_i2: float


@dataclass(frozen=True)
class ChshSettings:
    mode: ChshMode
    settings: AnalyzerSettings
    alpha1: float
    alpha2: float
    p_i1: float
    p_i2: float
    n_events: int


@dataclass(frozen=True)
class EnhancementSettings:
    tau_c_us_list: tuple[float, ...] | None
    n_write_max_list: tuple[int, ...] | None


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


def _parse_positive(text: str) -> float:
    value = _parse_float(text)
    if value <= 0.0:
        raise ValueError(f"expected a positive number, got {text!r}")
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


@dataclass(frozen=True)
class _KeySpec:
    parse: Callable[[str], Any]
    default: Any = None
    required: bool = False


def _source_keys(tag: str) -> dict[str, _KeySpec]:
    prefix = f"protocol.source_{tag}."
    return {
        prefix + "p_as": _KeySpec(_parse_float, default=2.0e-3),
        prefix + "chi": _KeySpec(_parse_float),
        prefix + "eta_as": _KeySpec(_parse_float),
        prefix + "gamma0": _KeySpec(_parse_float, default=0.08),
        prefix + "alpha_override": _KeySpec(_parse_float),
        prefix + "dark_click_prob": _KeySpec(_parse_float, default=0.0),
    }


_KEYS: dict[str, _KeySpec] = {
    "scenario": _KeySpec(_parse_enum(Scenario), required=True),
    "seed": _KeySpec(_parse_int_in(0, 2**64 - 1), default=DEFAULT_SEED),
    "trials": _KeySpec(_parse_int_in(1, 2**63 - 1), default=100_000),
    "output_path": _KeySpec(str, default="out"),
    "protocol.n_write_max": _KeySpec(_parse_int_in(1, N_WRITE_MAX_CAP), default=12),
    "protocol.dt_write_ns": _KeySpec(_parse_float, default=800.0),
    "protocol.dt_read_ns": _KeySpec(_parse_float, default=400.0),
    "protocol.tau_c_us": _KeySpec(_parse_float, default=12.0),
    "protocol.decay_model": _KeySpec(_parse_enum(DecayModel), default=DecayModel.GAUSSIAN_HALF),
    "protocol.latency_ns": _KeySpec(_parse_float, default=0.0),
    **_source_keys("a"),
    **_source_keys("b"),
    "enhancement.tau_c_us_list": _KeySpec(_parse_list(_parse_positive)),
    "enhancement.n_write_max_list": _KeySpec(_parse_list(_parse_int_in(1, N_WRITE_MAX_CAP))),
    "hom.domain": _KeySpec(_parse_enum(ScanDomain), default=ScanDomain.TIME),
    "hom.half_range_ns": _KeySpec(_parse_float, default=50.0),
    "hom.half_range_mhz": _KeySpec(_parse_float, default=30.0),
    "hom.points": _KeySpec(_parse_int_in(2, HOM_POINTS_CAP), default=61),
    "hom.coherence_fwhm_ns": _KeySpec(_parse_float, default=25.0),
    "hom.alpha1": _KeySpec(_parse_float, default=0.12),
    "hom.alpha2": _KeySpec(_parse_float, default=0.17),
    "hom.p_i1": _KeySpec(_parse_float, default=1.0),
    "hom.p_i2": _KeySpec(_parse_float, default=1.0),
    "chsh.mode": _KeySpec(_parse_enum(ChshMode), default=ChshMode.ANALYTIC),
    "chsh.theta1_deg": _KeySpec(_parse_float, default=0.0),
    "chsh.theta1_prime_deg": _KeySpec(_parse_float, default=45.0),
    "chsh.theta2_deg": _KeySpec(_parse_float, default=67.5),
    "chsh.theta2_prime_deg": _KeySpec(_parse_float, default=22.5),
    "chsh.alpha1": _KeySpec(_parse_float, default=0.12),
    "chsh.alpha2": _KeySpec(_parse_float, default=0.17),
    "chsh.p_i1": _KeySpec(_parse_float, default=1.0),
    "chsh.p_i2": _KeySpec(_parse_float, default=1.0),
    "chsh.n_events": _KeySpec(_parse_int_in(1, 2**63 - 1), default=1_000_000),
    "protocol_sim.record_trials": _KeySpec(_parse_bool, default=False),
}


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


def _scan_pairs(text: str) -> dict[str, tuple[str, int]]:
    pairs: dict[str, tuple[str, int]] = {}
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


def _section(cls, prefix: str, resolved: Mapping[str, Any], **given: Any):
    """``cls`` with each field read from key ``prefix + name``, except ``given``."""
    values = {f.name: resolved[prefix + f.name] for f in fields(cls) if f.name not in given}
    return cls(**values, **given)


def _build_source(resolved: dict[str, Any], tag: str, explicit: set[str]) -> SourceParams:
    prefix = f"protocol.source_{tag}."
    # The p_as default backs off when the source is specified through chi.
    if resolved[prefix + "chi"] is not None and (prefix + "p_as") not in explicit:
        resolved[prefix + "p_as"] = None
    try:
        return _section(SourceParams, prefix, resolved)
    except ValueError as exc:
        raise ConfigError(str(exc), key=prefix.rstrip(".")) from exc


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
            pairs[key] = (value, 0)

    explicit = set(pairs)
    resolved: dict[str, Any] = {}
    for key, spec in _KEYS.items():
        if key in pairs:
            raw, line_no = pairs[key]
            try:
                resolved[key] = spec.parse(raw)
            except ValueError as exc:
                raise ConfigError(str(exc), key=key, line=line_no or None) from exc
        elif spec.required:
            raise ConfigError("missing required key", key=key)
        else:
            resolved[key] = spec.default

    source_a = _build_source(resolved, "a", explicit)
    source_b = _build_source(resolved, "b", explicit)
    try:
        protocol = _section(
            ProtocolParams, "protocol.", resolved, source_a=source_a, source_b=source_b
        )
    except ValueError as exc:
        raise ConfigError(str(exc), key="protocol") from exc

    analyzers = _section(AnalyzerSettings, "chsh.", resolved)
    return RunConfig(
        scenario=resolved["scenario"],
        seed=resolved["seed"],
        trials=resolved["trials"],
        output_path=resolved["output_path"],
        record_trials=resolved["protocol_sim.record_trials"],
        protocol=protocol,
        enhancement=_section(EnhancementSettings, "enhancement.", resolved),
        hom=_section(HomSettings, "hom.", resolved),
        chsh=_section(ChshSettings, "chsh.", resolved, settings=analyzers),
        config_hash=_hash_resolved(resolved),
    )
