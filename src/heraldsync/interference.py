"""Beam-splitter measurement stage: wavepacket overlap, HOM dips, CHSH.

Retrieved photons are modeled as transform-limited Gaussian wavepackets.
Two photons meeting at a 50:50 beam splitter interfere according to their
mode overlap; residual two-photon emission (quantified by each source's
anti-correlation parameter alpha) fills in the dip and contaminates the
post-selected polarization-entangled state with HH/VV product noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .photon_stats import _check_nonnegative

__all__ = [
    "TemporalMode",
    "HOMResult",
    "ScanDomain",
    "EffectiveTwoPhotonState",
    "AnalyzerSettings",
    "mode_overlap",
    "hom_coincidence",
    "hom_scan",
    "effective_state",
    "correlation",
    "chsh_from_correlations",
    "predicted_S",
    "sample_chsh_experiment",
    "joint_outcome_probabilities",
    "TIME_BANDWIDTH_PRODUCT",
]

_FOUR_SQRT_LN2 = 4.0 * math.sqrt(math.log(2.0))

#: FWHM(time, ns) * FWHM(frequency, GHz) for the Gaussian dip pair.
TIME_BANDWIDTH_PRODUCT = 4.0 * math.log(2.0) / math.pi


@dataclass(frozen=True)
class TemporalMode:
    """Gaussian wavepacket of one retrieved photon."""

    arrival_offset_ns: float = 0.0
    coherence_fwhm_ns: float = 25.0
    frequency_offset_mhz: float = 0.0

    def __post_init__(self) -> None:
        # the overlap divides by 4*sigma**2, which must not underflow to 0
        fwhm, sigma = self.coherence_fwhm_ns, self.sigma_ns
        if not (math.isfinite(fwhm) and fwhm > 0.0 and 4.0 * sigma * sigma > 0.0):
            raise ValueError(
                f"coherence_fwhm_ns must be positive and finite, with 4*sigma**2 > 0, got {fwhm}"
            )
        for name in ("arrival_offset_ns", "frequency_offset_mhz"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")

    @property
    def sigma_ns(self) -> float:
        """Gaussian width such that the HOM dip FWHM equals the coherence FWHM."""
        return self.coherence_fwhm_ns / _FOUR_SQRT_LN2


def _overlap_factors(delta_t_ns, delta_nu_mhz, sigma_ns: float):
    dnu_ghz = np.asarray(delta_nu_mhz, dtype=float) * 1e-3
    dt = np.asarray(delta_t_ns, dtype=float)
    # an exponent that overflows to -inf gives exp = 0, the exact limit
    with np.errstate(over="ignore"):
        return np.exp(-(dt * dt) / (4.0 * sigma_ns * sigma_ns)) * np.exp(
            -4.0 * math.pi**2 * dnu_ghz * dnu_ghz * sigma_ns * sigma_ns
        )


def mode_overlap(m1: TemporalMode, m2: TemporalMode) -> float:
    """Squared mode overlap |O|**2 of two equal-width Gaussian wavepackets.

    exp(-dt**2/(4 sigma**2)) * exp(-4 pi**2 dnu**2 sigma**2) with dt the
    arrival-time and dnu the frequency difference; 1 iff both vanish.
    """
    if m1.coherence_fwhm_ns != m2.coherence_fwhm_ns:
        raise ValueError(
            "mode overlap requires equal coherence widths, got "
            f"{m1.coherence_fwhm_ns} and {m2.coherence_fwhm_ns} ns"
        )
    dt = m1.arrival_offset_ns - m2.arrival_offset_ns
    dnu = m1.frequency_offset_mhz - m2.frequency_offset_mhz
    return float(_overlap_factors(dt, dnu, m1.sigma_ns))


@dataclass(frozen=True)
class HOMResult:
    """Plateau, dip floor, and visibility of a Hong-Ou-Mandel dip."""

    c_plat: float
    c_dip: float
    visibility: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.c_dip <= self.c_plat:
            raise ValueError(f"need 0 <= c_dip <= c_plat, got {self.c_dip}, {self.c_plat}")


def _two_photon_rates(alpha1, alpha2, p_i1, p_i2):
    """Each source's alpha * p_i**2 / 2; raises if a plateau or state weight would overflow."""
    for name, value in (("alpha1", alpha1), ("alpha2", alpha2), ("p_i1", p_i1), ("p_i2", p_i2)):
        _check_nonnegative(name, value)
    rates = (alpha1 * p_i1 * p_i1 / 2.0, alpha2 * p_i2 * p_i2 / 2.0)
    if not math.isfinite(p_i1 * p_i2 + sum(rates)):
        name = "p_i2" if math.isfinite(rates[0]) else "p_i1"
        raise ValueError(f"{name} overflows the two-photon rates (p_i = {p_i1}, {p_i2})")
    return rates


def _hom_levels(alpha1, alpha2, p_i1, p_i2, overlap):
    """Plateau and the coincidence level at ``overlap`` (scalar or array).

    The plateau is the non-interfering rate p1*p2/2 plus half of each
    source's two-photon rate; interference removes ``overlap`` of the
    p1*p2/2 term.
    """
    p2_1, p2_2 = _two_photon_rates(alpha1, alpha2, p_i1, p_i2)
    interfering = p_i1 * p_i2 / 2.0
    c_plat = interfering + (p2_1 + p2_2) / 2.0
    if c_plat <= 0.0:
        raise ValueError("plateau coincidence rate is zero; visibility undefined")
    return c_plat, c_plat - overlap * interfering


def hom_coincidence(
    alpha1: float,
    alpha2: float,
    p_i1: float,
    p_i2: float,
    overlap: float = 1.0,
) -> HOMResult:
    """Coincidence levels of the HOM dip for two imperfect sources.

    Interference removes ``overlap`` of the p1*p2/2 term from the plateau
    at the dip center (see :func:`_hom_levels`).  For equal sources at
    full overlap the visibility is 1/(1 + alpha) exactly.
    """
    if not 0.0 <= overlap <= 1.0:
        raise ValueError(f"overlap must lie in [0, 1], got {overlap}")
    c_plat, c_dip = _hom_levels(alpha1, alpha2, p_i1, p_i2, overlap)
    return HOMResult(c_plat=c_plat, c_dip=c_dip, visibility=(c_plat - c_dip) / c_plat)


class ScanDomain(Enum):
    TIME = "time"
    FREQUENCY = "frequency"


def hom_scan(
    alpha1: float,
    alpha2: float,
    p_i1: float,
    p_i2: float,
    coherence_fwhm_ns: float,
    domain: ScanDomain,
    grid: Sequence[float],
) -> tuple[np.ndarray, float]:
    """The analytic HOM dip over a scan grid: ``(coincidence, dip_fwhm)``.

    The dip FWHM (ns for TIME, MHz for FREQUENCY) is the half-depth
    crossing of the analytic curve: the coherence FWHM itself in the time
    domain, and 4 ln2 / (pi * FWHM_t) in the frequency domain.
    """
    grid_arr = np.asarray(grid, dtype=float)
    if grid_arr.ndim != 1 or grid_arr.size == 0:
        raise ValueError("grid must be a nonempty 1-D sequence")
    if not (np.isfinite(grid_arr).all() and (np.diff(grid_arr) >= 0.0).all()):
        raise ValueError("grid values must be finite and sorted ascending")
    mode = TemporalMode(coherence_fwhm_ns=coherence_fwhm_ns)
    if domain is ScanDomain.TIME:
        overlaps = _overlap_factors(grid_arr, 0.0, mode.sigma_ns)
        dip_fwhm = coherence_fwhm_ns
    elif domain is ScanDomain.FREQUENCY:
        overlaps = _overlap_factors(0.0, grid_arr, mode.sigma_ns)
        dip_fwhm = TIME_BANDWIDTH_PRODUCT / coherence_fwhm_ns * 1e3
    else:
        raise ValueError(f"unknown scan domain {domain!r}")
    return _hom_levels(alpha1, alpha2, p_i1, p_i2, overlaps)[1], dip_fwhm


@dataclass(frozen=True)
class EffectiveTwoPhotonState:
    """Post-selected two-photon state: singlet plus HH/VV product noise."""

    w_singlet: float
    w_hh: float
    w_vv: float

    def __post_init__(self) -> None:
        for name, w in (("w_singlet", self.w_singlet), ("w_hh", self.w_hh), ("w_vv", self.w_vv)):
            _check_nonnegative(name, w)
        total = self.w_singlet + self.w_hh + self.w_vv
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"weights sum to {total}, expected 1")


def effective_state(
    alpha1: float, alpha2: float, p_i1: float, p_i2: float
) -> EffectiveTwoPhotonState:
    """Two-photon state behind the beam splitter for imperfect sources.

    Source 1 is H-polarized and source 2 V-polarized, so double emission
    from source 1 (2) feeds the HH (VV) stratum; each stratum carries the
    beam-splitter factor 1/2 relative to its raw rate.
    """
    p2_1, p2_2 = _two_photon_rates(alpha1, alpha2, p_i1, p_i2)
    w = (p_i1 * p_i2 / 2.0, p2_1 / 2.0, p2_2 / 2.0)
    z = w[0] + w[1] + w[2]
    if z <= 0.0:
        raise ValueError("all state weights vanish")
    return EffectiveTwoPhotonState(w_singlet=w[0] / z, w_hh=w[1] / z, w_vv=w[2] / z)


def correlation(state: EffectiveTwoPhotonState, theta1_deg: float, theta2_deg: float) -> float:
    """Polarization correlation E(theta1, theta2) of the effective state.

    The singlet contributes -cos 2(theta1 - theta2); the HH and VV noise
    strata each contribute the product form cos 2*theta1 * cos 2*theta2.
    """
    t1 = math.radians(theta1_deg)
    t2 = math.radians(theta2_deg)
    noise = state.w_hh + state.w_vv
    return -state.w_singlet * math.cos(2.0 * (t1 - t2)) + noise * math.cos(2.0 * t1) * math.cos(
        2.0 * t2
    )


@dataclass(frozen=True)
class AnalyzerSettings:
    """The four CHSH analyzer settings (theta1, theta1', theta2, theta2').

    The default assignment attains the Tsirelson value 2*sqrt(2) on the
    pure singlet under the sign pattern S = |E11 - E12 - E21 - E22|.
    """

    theta1_deg: float = 0.0
    theta1_prime_deg: float = 45.0
    theta2_deg: float = 67.5
    theta2_prime_deg: float = 22.5

    def pairs(self) -> tuple[tuple[float, float], ...]:
        return (
            (self.theta1_deg, self.theta2_deg),
            (self.theta1_deg, self.theta2_prime_deg),
            (self.theta1_prime_deg, self.theta2_deg),
            (self.theta1_prime_deg, self.theta2_prime_deg),
        )


def chsh_from_correlations(
    e11: float,
    e12: float,
    e21: float,
    e22: float,
    sigmas: Sequence[float] | None = None,
) -> tuple[float, float | None, float | None]:
    """Combine four correlations into ``(s, sigma_s, n_sigma)``.

    S = |e11 - e12 - e21 - e22|; when standard errors are supplied,
    sigma_S adds them in quadrature and n_sigma = (S - 2)/sigma_S,
    else both are None.
    """
    es = (e11, e12, e21, e22)
    for name, e in zip(("e11", "e12", "e21", "e22"), es):
        if not abs(e) <= 1.0:
            raise ValueError(f"{name} must lie in [-1, 1], got {e}")
    s = abs(e11 - e12 - e21 - e22)
    if sigmas is None:
        return s, None, None
    if len(sigmas) != 4:
        raise ValueError("need exactly four standard errors")
    for k, x in enumerate(sigmas):
        _check_nonnegative(f"sigmas[{k}]", x)
    sigma_s = math.sqrt(math.fsum(x * x for x in sigmas))
    # an exact S (sigma_s = 0) lies infinitely far from 2 on its own side, or at 2
    n_sigma = (s - 2.0) / sigma_s if sigma_s else (math.inf * (s - 2.0) if s != 2.0 else 0.0)
    return s, sigma_s, n_sigma


def predicted_S(alpha_bar: float) -> float:
    """Model maximum of S at the optimal analyzer settings.

    For the effective state of two equal sources with mean
    anti-correlation ``alpha_bar``:
    S = (2*sqrt(2) - sqrt(2)*alpha_bar) / (1 + alpha_bar).
    """
    _check_nonnegative("alpha_bar", alpha_bar)
    root2 = math.sqrt(2.0)
    return (2.0 * root2 - root2 * alpha_bar) / (1.0 + alpha_bar)


def joint_outcome_probabilities(
    state: EffectiveTwoPhotonState, theta1_deg: float, theta2_deg: float
) -> np.ndarray:
    """Probabilities of the (++, +-, -+, --) analyzer outcomes.

    Singlet: same-outcome pairs share sin^2(dtheta), opposite pairs share
    cos^2(dtheta).  Product strata factorize: an H photon passes the +
    port with cos^2(theta), a V photon with sin^2(theta).
    """
    t1 = math.radians(theta1_deg)
    t2 = math.radians(theta2_deg)
    d = t1 - t2
    singlet = np.array(
        [
            0.5 * math.sin(d) ** 2,
            0.5 * math.cos(d) ** 2,
            0.5 * math.cos(d) ** 2,
            0.5 * math.sin(d) ** 2,
        ]
    )
    c1, s1 = math.cos(t1) ** 2, math.sin(t1) ** 2
    c2, s2 = math.cos(t2) ** 2, math.sin(t2) ** 2
    hh = np.array([c1 * c2, c1 * (1 - c2), (1 - c1) * c2, (1 - c1) * (1 - c2)])
    vv = np.array([s1 * s2, s1 * (1 - s2), (1 - s1) * s2, (1 - s1) * (1 - s2)])
    return state.w_singlet * singlet + state.w_hh * hh + state.w_vv * vv


def sample_chsh_experiment(
    state: EffectiveTwoPhotonState,
    settings: AnalyzerSettings,
    n_events_per_setting: int,
    seed: int,
) -> tuple[list, list[float], list[float]]:
    """Simulate coincidence counting at the four analyzer settings.

    Draws ``n_events_per_setting`` outcome pairs per setting from the
    state's joint probabilities and returns, per setting, the counts
    ``(n_pp, n_pm, n_mp, n_mm)``, the correlation estimate E and its
    standard error sqrt((1 - E**2)/n): ``(counts, e, sigma_e)``.
    Deterministic for a fixed seed.
    """
    if n_events_per_setting < 1:
        raise ValueError(f"n_events_per_setting must be >= 1, got {n_events_per_setting}")
    rng = np.random.default_rng(seed)
    n = n_events_per_setting
    counts = [
        [int(x) for x in rng.multinomial(n, joint_outcome_probabilities(state, t1, t2))]
        for t1, t2 in settings.pairs()
    ]
    es = [(n_pp + n_mm - n_pm - n_mp) / n for n_pp, n_pm, n_mp, n_mm in counts]
    return counts, es, [math.sqrt(max(1.0 - e * e, 0.0) / n) for e in es]
