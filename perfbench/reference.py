"""Independent physics reference for the benchmark's output checks.

Everything here is written from the model's definitions and shares no
code with ``heraldsync``:

* a source's heralded excitation shape, with chi found by bisection on
  the herald probability instead of the closed-form quadratic;
* the four-fold coincidence probability as a direct double sum over both
  nodes' herald attempts (i, j), with hold times that include the
  ``dt_read_ns + 2*latency_ns`` rendezvous;
* the Gaussian HOM dip written from the coherence FWHM;
* CHSH correlations as expectation values of analyzer observables on the
  4x4 density matrix of the singlet-plus-HH/VV state;
* exact binomial tail probabilities for the Monte Carlo checks.

Parameters travel as plain dicts (see ``workloads.py``): a source is
``{"gamma0", "p_as", "eta_as", "chi", "dark"}`` with unset keys ``None``;
a protocol is ``{"a", "b", "n", "dt_write", "dt_read", "tau_us",
"decay", "latency"}``.
"""

from __future__ import annotations

import math

import numpy as np


# --- one source -------------------------------------------------------------


def emission(chi: float) -> tuple[float, float, float]:
    """Excitation distribution {1, chi, chi^2}/Z of one write pulse."""
    z = 1.0 + chi + chi * chi
    return (1.0 / z, chi / z, chi * chi / z)


def click(n: int, eta: float, dark: float) -> float:
    """Bucket-detector click probability for n photons plus a dark count."""
    return 1.0 - (1.0 - dark) * (1.0 - eta) ** n


def signal_herald(chi: float, eta: float) -> float:
    """Herald probability of one write pulse without dark counts."""
    return sum(p * click(n, eta, 0.0) for n, p in enumerate(emission(chi)))


def solve_chi(p_as: float, eta: float) -> float:
    """chi in [0, 1) whose signal herald probability equals ``p_as``, by bisection."""
    if p_as == 0.0:
        return 0.0
    lo, hi = 0.0, 1.0
    if signal_herald(1.0 - 1e-15, eta) <= p_as:
        raise ValueError(f"p_as = {p_as} is unreachable for eta_as = {eta}")
    for _ in range(100):  # halves [0, 1) down to adjacent doubles
        mid = 0.5 * (lo + hi)
        if signal_herald(mid, eta) < p_as:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def herald_prob(src: dict) -> float:
    """Per-attempt probability that the herald detector clicks."""
    if src["p_as"] is not None:
        signal = src["p_as"]
    else:
        signal = signal_herald(src["chi"], src["eta_as"])
    dark = src["dark"]
    return 1.0 - (1.0 - signal) * (1.0 - dark)


def heralded_shape(src: dict) -> tuple[float, float, float]:
    """Stored excitation distribution q0, q1, q2 given a herald click."""
    dark = src["dark"]
    if src["eta_as"] is None:
        # Idealized source: a signal click loads one excitation, a dark
        # click on an empty pulse loads none.
        p = src["p_as"]
        q1 = p / (1.0 - (1.0 - p) * (1.0 - dark))
        return (1.0 - q1, q1, 0.0)
    chi = solve_chi(src["p_as"], src["eta_as"]) if src["p_as"] is not None else src["chi"]
    w = [p * click(n, src["eta_as"], dark) for n, p in enumerate(emission(chi))]
    z = sum(w)
    return (w[0] / z, w[1] / z, w[2] / z)


def read_success(shape, gamma):
    """Probability that at least one stored excitation is retrieved."""
    loss = 1.0 - np.asarray(gamma, dtype=float)
    return 1.0 - (shape[0] + shape[1] * loss + shape[2] * loss * loss)


def retrieval_efficiency(gamma0: float, hold_ns, tau_us: float, decay: str):
    t_us = np.asarray(hold_ns, dtype=float) / 1000.0
    if decay == "gaussian_half":
        return gamma0 * np.exp(-0.5 * (t_us / tau_us) ** 2)
    if decay == "exponential":
        return gamma0 * np.exp(-t_us / tau_us)
    raise ValueError(f"unknown decay model {decay!r}")


# --- two nodes --------------------------------------------------------------


def _read_success_after(src: dict, hold_ns, proto: dict):
    gamma = retrieval_efficiency(src["gamma0"], hold_ns, proto["tau_us"], proto["decay"])
    return read_success(heralded_shape(src), gamma)


def four_fold_by_n(proto: dict, ns) -> np.ndarray:
    """Four-fold probability under feedback for each write budget in ``ns``.

    Direct double sum over the herald attempts i (node A) and j (node B)
    of pa qa^i * pb qb^j * Ra(hold_a) * Rb(hold_b).  The later node holds
    ``dt_read + 2*latency``; the earlier one holds that plus the ``|i - j|``
    write slots it waited.  For each later attempt the sum over the
    earlier one is a discrete convolution (``np.convolve`` forms every
    product), and the terms do not depend on N, so P(N) is a running sum
    over the later attempt.
    """
    ns = [int(n) for n in ns]
    n_max = max(ns)
    a, b = proto["a"], proto["b"]
    pa, pb = herald_prob(a), herald_prob(b)
    k = np.arange(n_max, dtype=float)
    weight_a = pa * (1.0 - pa) ** k
    weight_b = pb * (1.0 - pb) ** k
    # Read success after waiting d slots, d = 0 .. N-1.
    hold = k * proto["dt_write"] + proto["dt_read"] + 2.0 * proto["latency"]
    ra = _read_success_after(a, hold, proto)
    rb = _read_success_after(b, hold, proto)
    # A heralds at i, B at j <= i: sum_j wb[j] rb[i - j].
    b_not_later = np.convolve(weight_b, rb)[:n_max]
    # B heralds at j, A strictly earlier at i < j: sum_i wa[i] ra[j - i].
    a_earlier = np.convolve(weight_a, ra)[:n_max] - weight_a * ra[0]
    by_later = weight_a * ra[0] * b_not_later + weight_b * rb[0] * a_earlier
    running = np.cumsum(by_later)
    return np.array([running[n - 1] for n in ns])


def four_fold(proto: dict) -> float:
    """Four-fold probability under feedback at the protocol's own N."""
    return float(four_fold_by_n(proto, [proto["n"]])[0])


def single_shot(proto: dict) -> float:
    """Four-fold probability of one write and one read per trial."""
    a, b = proto["a"], proto["b"]
    ra = _read_success_after(a, proto["dt_read"], proto)
    rb = _read_success_after(b, proto["dt_read"], proto)
    return herald_prob(a) * herald_prob(b) * float(ra) * float(rb)


def node_herald_fraction(src: dict, n: int) -> float:
    """Probability that a node heralds within n attempts."""
    return 1.0 - (1.0 - herald_prob(src)) ** n


# --- measurement stage ------------------------------------------------------


def hom_levels(alpha1, alpha2, p1, p2) -> tuple[float, float]:
    """(plateau, interfering term) of the HOM coincidence rate.

    Distinguishable single photons give p1*p2/2 coincidences; each
    source's two-photon rate alpha*p^2/2 adds half of itself; perfect
    overlap cancels the p1*p2/2 term.
    """
    interfering = 0.5 * p1 * p2
    return interfering + 0.25 * (alpha1 * p1 * p1 + alpha2 * p2 * p2), interfering


def hom_overlap_time(delay_ns, fwhm_ns):
    """Overlap of Gaussian wavepackets whose dip has FWHM ``fwhm_ns``."""
    x = np.asarray(delay_ns, dtype=float) / fwhm_ns
    return np.exp(-4.0 * math.log(2.0) * x * x)


def hom_fwhm_frequency_mhz(fwhm_ns: float) -> float:
    """Dip FWHM in detuning: the Fourier partner 4 ln2 / (pi * FWHM_t)."""
    return 4.0 * math.log(2.0) / (math.pi * fwhm_ns) * 1e3


def hom_overlap_frequency(detuning_mhz, fwhm_ns):
    x = np.asarray(detuning_mhz, dtype=float) / hom_fwhm_frequency_mhz(fwhm_ns)
    return np.exp(-4.0 * math.log(2.0) * x * x)


def state_weights(alpha1, alpha2, p1, p2) -> tuple[float, float, float]:
    """(singlet, HH, VV) weights of the post-selected two-photon state."""
    w = (0.5 * p1 * p2, 0.25 * alpha1 * p1 * p1, 0.25 * alpha2 * p2 * p2)
    z = sum(w)
    return (w[0] / z, w[1] / z, w[2] / z)


def _density_matrix(weights) -> np.ndarray:
    # Basis HH, HV, VH, VV.
    singlet = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)
    rho = weights[0] * np.outer(singlet, singlet)
    rho[0, 0] += weights[1]
    rho[3, 3] += weights[2]
    return rho


def _analyzer(theta_deg: float) -> np.ndarray:
    t = math.radians(theta_deg)
    plus = np.array([math.cos(t), math.sin(t)])
    minus = np.array([-math.sin(t), math.cos(t)])
    return np.outer(plus, plus) - np.outer(minus, minus)


def correlation(weights, theta1_deg: float, theta2_deg: float) -> float:
    """E = Tr[rho (A(theta1) x A(theta2))] for +/-1 analyzer outcomes."""
    observable = np.kron(_analyzer(theta1_deg), _analyzer(theta2_deg))
    return float(np.trace(_density_matrix(weights) @ observable))


def chsh_s(es) -> float:
    return abs(es[0] - es[1] - es[2] - es[3])


# --- counting statistics ----------------------------------------------------


def _log_pmf(k: int, n: int, p: float) -> float:
    return (
        math.lgamma(n + 1)
        - math.lgamma(k + 1)
        - math.lgamma(n - k + 1)
        + k * math.log(p)
        + (n - k) * math.log1p(-p)
    )


def binomial_two_sided(k: int, n: int, p: float) -> float:
    """Two-sided tail probability of observing k of n at success rate p.

    Twice the smaller of P(X <= k) and P(X >= k), capped at 1; terms are
    summed outward from k until they stop contributing.
    """
    if not 0 <= k <= n:
        return 0.0
    if p <= 0.0:
        return 1.0 if k == 0 else 0.0
    if p >= 1.0:
        return 1.0 if k == n else 0.0
    mean = n * p
    step = 1 if k > mean else -1
    first = _log_pmf(k, n, p)
    total = 0.0
    j = k
    while 0 <= j <= n:
        term = math.exp(_log_pmf(j, n, p) - first)
        total += term
        if term < 1e-18 * total:
            break
        j += step
    return min(1.0, 2.0 * math.exp(first) * total)
