"""Photon-number statistics of a heralded atomic-memory source.

One write pulse on an ensemble populates the n-fold excitation of the
herald field and the collective spin with squared amplitudes proportional
to {1, chi, chi**2}, truncated at n = 2 (higher orders enter at
O(chi**1.5) and are negligible for chi <= 0.1).  A bucket detector with
efficiency ``eta_as`` heralds the memory; a read pulse later converts each
stored excitation to a photon independently with the current retrieval
efficiency.  The anti-correlation parameter ``alpha = 2*p2/p1**2`` (0 for
an ideal single photon, 1 for Poissonian light) grades the retrieved
field.

All functions are pure and safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "FockDistribution",
    "SourceParams",
    "IDEAL_SINGLE_EXCITATION",
    "emission_distribution",
    "herald_probability",
    "heralded_excitation_distribution",
    "retrieve",
    "alpha_of",
    "solve_chi_for_herald",
]

_SUM_TOL = 1e-12


@dataclass(frozen=True)
class FockDistribution:
    """Probability vector over photon/excitation number n = 0, 1, 2."""

    p: tuple[float, float, float]

    def __post_init__(self) -> None:
        if len(self.p) != 3:
            raise ValueError("distribution is truncated at n = 2; need 3 entries")
        for n, pn in enumerate(self.p):
            if not -_SUM_TOL <= pn <= 1.0 + _SUM_TOL:
                raise ValueError(f"p[{n}] = {pn} is not a probability")
        total = math.fsum(self.p)
        if abs(total - 1.0) > _SUM_TOL:
            raise ValueError(f"probabilities sum to {total}, expected 1")

    def __getitem__(self, n: int) -> float:
        return self.p[n]


IDEAL_SINGLE_EXCITATION = FockDistribution((0.0, 1.0, 0.0))


def _check_unit_interval(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value}")


def _check_nonnegative(name: str, value: float) -> None:
    if not (math.isfinite(value) and value >= 0.0):
        raise ValueError(f"{name} must be nonnegative and finite, got {value}")


def emission_distribution(chi: float) -> FockDistribution:
    """Excitation-number distribution created by one write pulse.

    Weights {1, chi, chi**2} over n = 0, 1, 2, renormalized after the
    n = 2 truncation.
    """
    if not 0.0 <= chi < 1.0:
        raise ValueError(f"chi must lie in [0, 1), got {chi}")
    weights = (1.0, chi, chi * chi)
    z = math.fsum(weights)
    return FockDistribution((weights[0] / z, weights[1] / z, weights[2] / z))


def _click_probability(n: int, eta_as: float, dark_click: float = 0.0) -> float:
    # Bucket detector: click iff >=1 of the n photons is detected, or a
    # dark count fires.  Written without the 1 - (1-d)(1-eta)^n
    # cancellation so small probabilities stay exact.
    if n == 0:
        return dark_click
    if n == 1:
        return eta_as + dark_click * (1.0 - eta_as)
    return eta_as * (2.0 - eta_as) + dark_click * (1.0 - eta_as) ** 2


def herald_probability(dist: FockDistribution, eta_as: float) -> float:
    """Probability that the herald detector clicks on one write attempt."""
    _check_unit_interval("eta_as", eta_as)
    return math.fsum(pn * _click_probability(n, eta_as) for n, pn in enumerate(dist.p))


def heralded_excitation_distribution(
    dist: FockDistribution, eta_as: float, dark_click: float = 0.0
) -> FockDistribution:
    """Excitation distribution conditioned on a herald click.

    With ``dark_click`` = 0 the click implies at least one emission, so
    the conditional distribution has no weight at n = 0.  A nonzero
    dark-click probability conditions on "signal or dark count" instead
    and leaves vacuum weight behind.
    """
    _check_unit_interval("eta_as", eta_as)
    _check_unit_interval("dark_click", dark_click)
    weights = [pn * _click_probability(n, eta_as, dark_click) for n, pn in enumerate(dist.p)]
    z = math.fsum(weights)
    if z <= 0.0:
        raise ValueError("herald probability is zero; conditioning is undefined")
    return FockDistribution((weights[0] / z, weights[1] / z, weights[2] / z))


def retrieve(spin_dist: FockDistribution, gamma: float) -> FockDistribution:
    """Photon-number distribution after per-excitation survival ``gamma``.

    Each stored excitation converts to a collected photon independently:
    out[k] = sum_{n>=k} q[n] C(n,k) gamma**k (1-gamma)**(n-k).
    """
    _check_unit_interval("gamma", gamma)
    q0, q1, q2 = spin_dist.p
    loss = 1.0 - gamma
    out0 = q0 + q1 * loss + q2 * loss * loss
    out1 = q1 * gamma + q2 * 2.0 * gamma * loss
    out2 = q2 * gamma * gamma
    return FockDistribution((out0, out1, out2))


def alpha_of(photon_dist: FockDistribution) -> float:
    """Anti-correlation parameter 2*p2/p1**2 of a photon-number distribution."""
    p1, p2 = photon_dist[1], photon_dist[2]
    if p1 <= 0.0:
        raise ValueError("alpha is undefined when p[1] = 0")
    return 2.0 * p2 / (p1 * p1)


def solve_chi_for_herald(p_as: float, eta_as: float) -> float:
    """Excitation probability chi whose modeled herald probability is ``p_as``.

    The herald probability [chi*eta + chi**2*eta*(2-eta)] / (1+chi+chi**2)
    is monotone in chi on [0, 1); inverting it is a quadratic.  Raises if
    ``p_as`` exceeds the chi -> 1 supremum eta*(3-eta)/3.
    """
    _check_unit_interval("p_as", p_as)
    _check_unit_interval("eta_as", eta_as)
    if p_as == 0.0:
        return 0.0
    supremum = eta_as * (3.0 - eta_as) / 3.0
    if p_as >= supremum:
        raise ValueError(
            f"p_as = {p_as} is not reachable for eta_as = {eta_as} "
            f"(requires p_as < {supremum:.6g})"
        )
    a = eta_as * (2.0 - eta_as) - p_as
    b = eta_as - p_as
    chi = (-b + math.sqrt(b * b + 4.0 * a * p_as)) / (2.0 * a)
    return chi


@dataclass(frozen=True)
class SourceParams:
    """Physical parameters of one heralded source.

    The herald rate can be specified two ways:

    * microscopic: give ``chi`` and ``eta_as``; the per-attempt herald
      probability follows from the emission statistics and the bucket
      detector.
    * direct: give ``p_as``.  Without ``eta_as`` the memory is taken to
      hold exactly one excitation per herald (the small-chi idealization).
      With ``eta_as`` set, chi is solved when the source is built, so the
      microscopic model reproduces ``p_as`` (one that ``eta_as`` cannot
      reach raises there) and the conditional statistics keep their
      two-excitation component.

    ``alpha_override`` pins the retrieved-field anti-correlation parameter
    to an externally measured value; ``dark_click_prob`` adds a per-attempt
    dark count to the herald (off by default).
    """

    gamma0: float
    chi: float | None = None
    eta_as: float | None = None
    p_as: float | None = None
    alpha_override: float | None = None
    dark_click_prob: float = 0.0

    def __post_init__(self) -> None:
        _check_unit_interval("gamma0", self.gamma0)
        if self.chi is not None and not 0.0 <= self.chi < 1.0:
            raise ValueError(f"chi must lie in [0, 1), got {self.chi}")
        if self.eta_as is not None:
            _check_unit_interval("eta_as", self.eta_as)
        if self.p_as is not None:
            _check_unit_interval("p_as", self.p_as)
        if not 0.0 <= self.dark_click_prob < 1.0:
            raise ValueError(f"dark_click_prob must lie in [0, 1), got {self.dark_click_prob}")
        if self.alpha_override is not None:
            _check_nonnegative("alpha_override", self.alpha_override)
        if self.p_as is None and self.chi is None:
            raise ValueError("one of p_as or chi is required")
        if self.p_as is None and self.eta_as is None:
            raise ValueError("eta_as is required when the source is given by chi")
        # The heralded shape, derived once and no field (so no config key).
        shape = None  # a source that never heralds has none
        if self.herald_prob > 0.0 and self.eta_as is None:
            # Idealized source: a herald loads exactly one excitation; dark
            # counts contribute vacuum-loaded heralds.
            q1 = self.p_as / self.herald_prob
            shape = FockDistribution((1.0 - q1, q1, 0.0))
        elif self.herald_prob > 0.0:
            dist = emission_distribution(self.effective_chi)
            shape = heralded_excitation_distribution(dist, self.eta_as, self.dark_click_prob)
        object.__setattr__(self, "_shape", shape)

    @property
    def herald_prob(self) -> float:
        """Per-write-attempt probability that the herald detector clicks."""
        if self.p_as is not None:
            signal = self.p_as
        else:
            signal = herald_probability(emission_distribution(self.chi), self.eta_as)
        dark = self.dark_click_prob
        return signal + dark - signal * dark

    @property
    def effective_chi(self) -> float | None:
        """chi used for the conditional excitation shape (None = idealized)."""
        if self.p_as is None:
            return self.chi
        if self.eta_as is None:
            return None
        return solve_chi_for_herald(self.p_as, self.eta_as)

    def heralded_shape(self) -> FockDistribution:
        """Excitation distribution stored in the memory, given a herald."""
        if self._shape is None:
            raise ValueError("herald probability is zero; conditioning is undefined")
        return self._shape

    def alpha_at(self, gamma: float) -> float:
        """Anti-correlation parameter of the retrieved field at efficiency gamma."""
        if self.alpha_override is not None:
            return self.alpha_override
        return alpha_of(retrieve(self.heralded_shape(), gamma))
