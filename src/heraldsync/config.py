"""Run configuration.

Configs are flat UTF-8 text, one ``dotted.key = value`` per line, with
``#`` comment lines.  Every key has a shipped default, so a minimal
config needs only ``scenario``.  Unknown and duplicate keys are rejected;
all errors carry the offending key and line number.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
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
]

DEFAULT_SEED = 0


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


def _parse_float_list(text: str) -> tuple[float, ...]:
    return tuple(_parse_float(part.strip()) for part in text.split(","))


def _parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(int(part.strip()) for part in text.split(","))


def _parse_seed(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2**64:
        raise ValueError(f"seed must be an unsigned 64-bit integer, got {value}")
    return value


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
    "seed": _KeySpec(_parse_seed, default=DEFAULT_SEED),
    "trials": _KeySpec(int, default=100_000),
    "output_path": _KeySpec(str, default="out"),
    "protocol.n_write_max": _KeySpec(int, default=12),
    "protocol.dt_write_ns": _KeySpec(_parse_float, default=800.0),
    "protocol.dt_read_ns": _KeySpec(_parse_float, default=400.0),
    "protocol.tau_c_us": _KeySpec(_parse_float, default=12.0),
    "protocol.decay_model": _KeySpec(_parse_enum(DecayModel), default=DecayModel.GAUSSIAN_HALF),
    "protocol.latency_ns": _KeySpec(_parse_float, default=0.0),
    **_source_keys("a"),
    **_source_keys("b"),
    "enhancement.tau_c_us_list": _KeySpec(_parse_float_list),
    "enhancement.n_write_max_list": _KeySpec(_parse_int_list),
    "hom.domain": _KeySpec(_parse_enum(ScanDomain), default=ScanDomain.TIME),
    "hom.half_range_ns": _KeySpec(_parse_float, default=50.0),
    "hom.half_range_mhz": _KeySpec(_parse_float, default=30.0),
    "hom.points": _KeySpec(int, default=61),
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
    "chsh.n_events": _KeySpec(int, default=1_000_000),
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


def _build_source(resolved: dict[str, Any], tag: str, explicit: set[str]) -> SourceParams:
    prefix = f"protocol.source_{tag}."
    p_as = resolved[prefix + "p_as"]
    chi = resolved[prefix + "chi"]
    # The p_as default backs off when the source is specified through chi.
    if chi is not None and (prefix + "p_as") not in explicit:
        p_as = None
        resolved[prefix + "p_as"] = None
    try:
        return SourceParams(
            gamma0=resolved[prefix + "gamma0"],
            chi=chi,
            eta_as=resolved[prefix + "eta_as"],
            p_as=p_as,
            alpha_override=resolved[prefix + "alpha_override"],
            dark_click_prob=resolved[prefix + "dark_click_prob"],
        )
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
        protocol = ProtocolParams(
            source_a=source_a,
            source_b=source_b,
            n_write_max=resolved["protocol.n_write_max"],
            dt_write_ns=resolved["protocol.dt_write_ns"],
            dt_read_ns=resolved["protocol.dt_read_ns"],
            tau_c_us=resolved["protocol.tau_c_us"],
            decay_model=resolved["protocol.decay_model"],
            latency_ns=resolved["protocol.latency_ns"],
        )
    except ValueError as exc:
        raise ConfigError(str(exc), key="protocol") from exc

    if resolved["trials"] < 1:
        raise ConfigError("trials must be >= 1", key="trials")
    if resolved["hom.points"] < 2:
        raise ConfigError("hom.points must be >= 2", key="hom.points")
    if resolved["chsh.n_events"] < 1:
        raise ConfigError("chsh.n_events must be >= 1", key="chsh.n_events")

    hom = HomSettings(
        domain=resolved["hom.domain"],
        half_range_ns=resolved["hom.half_range_ns"],
        half_range_mhz=resolved["hom.half_range_mhz"],
        points=resolved["hom.points"],
        coherence_fwhm_ns=resolved["hom.coherence_fwhm_ns"],
        alpha1=resolved["hom.alpha1"],
        alpha2=resolved["hom.alpha2"],
        p_i1=resolved["hom.p_i1"],
        p_i2=resolved["hom.p_i2"],
    )
    chsh = ChshSettings(
        mode=resolved["chsh.mode"],
        settings=AnalyzerSettings(
            theta1_deg=resolved["chsh.theta1_deg"],
            theta1_prime_deg=resolved["chsh.theta1_prime_deg"],
            theta2_deg=resolved["chsh.theta2_deg"],
            theta2_prime_deg=resolved["chsh.theta2_prime_deg"],
        ),
        alpha1=resolved["chsh.alpha1"],
        alpha2=resolved["chsh.alpha2"],
        p_i1=resolved["chsh.p_i1"],
        p_i2=resolved["chsh.p_i2"],
        n_events=resolved["chsh.n_events"],
    )
    enhancement = EnhancementSettings(
        tau_c_us_list=resolved["enhancement.tau_c_us_list"],
        n_write_max_list=resolved["enhancement.n_write_max_list"],
    )

    return RunConfig(
        scenario=resolved["scenario"],
        seed=resolved["seed"],
        trials=resolved["trials"],
        output_path=resolved["output_path"],
        record_trials=resolved["protocol_sim.record_trials"],
        protocol=protocol,
        enhancement=enhancement,
        hom=hom,
        chsh=chsh,
        config_hash=_hash_resolved(resolved),
    )
