"""Two-node feedback synchronization protocol.

Each node fires write pulses on a shared attempt clock until its herald
detector clicks, then holds the stored excitation and exchanges ready
messages with the peer; once both are ready the nodes read out
simultaneously.  The module provides an exact closed-form evaluator of
the four-fold coincidence probability under feedback, the no-feedback
baseline, the enhancement factor, a straight-line single-trial reference
model and the vectorized Monte Carlo campaign.

Closed forms and simulators describe the same stochastic process: the
per-node read success at hold time t is sum_n q[n]*(1-(1-gamma(t))**n)
over the heralded excitation shape q, which reduces to gamma(t) for a
single-excitation memory.  All three take hold times from :func:`_holds`.
Both closed forms and the campaign share the per-gap read success
:func:`_wait_success`: the campaign draws one uniform per jointly
heralded trial against its product.  The trial alone samples retrieval
excitation by excitation (:func:`_retrieved`), as an independent check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Iterator

import numpy as np

from .photon_stats import FockDistribution, SourceParams, _check_nonnegative

__all__ = [
    "DecayModel",
    "ProtocolParams",
    "TrialOutcome",
    "CoincidenceStats",
    "memory_retrieval_efficiency",
    "p4c_no_feedback",
    "p4c_feedback_closed_form",
    "p4c_feedback_by_n",
    "enhancement_factor",
    "run_protocol_trial",
    "simulate_campaign",
    "simulate_campaign_records",
    "CampaignRecords",
    "default_params",
    "TRIAL_RECORD_DTYPE",
]

_CHUNK_SIZE = 1 << 16  # trials per random substream; fixed so results never
                       # depend on how a campaign is split across workers


class DecayModel(Enum):
    """Functional form of the memory retrieval-efficiency decay."""

    GAUSSIAN_HALF = "gaussian_half"
    EXPONENTIAL = "exponential"


def memory_retrieval_efficiency(
    gamma0: float,
    hold_time_ns: float | np.ndarray,
    model: DecayModel = DecayModel.GAUSSIAN_HALF,
    tau_c_us: float = 12.0,
):
    """Retrieval efficiency after holding the excitation for ``hold_time_ns``.

    GAUSSIAN_HALF: gamma0*exp(-t**2/(2*tau_c**2)); EXPONENTIAL:
    gamma0*exp(-t/tau_c).  Accepts scalar or array hold times.
    """
    if not (math.isfinite(tau_c_us) and tau_c_us > 0.0):
        raise ValueError(f"tau_c_us must be positive and finite, got {tau_c_us}")
    if not math.isfinite(gamma0):
        raise ValueError(f"gamma0 must be finite, got {gamma0}")
    t_us = np.asarray(hold_time_ns, dtype=float) * 1e-3
    # NaN fails both comparisons.
    if not ((t_us >= 0.0) & (t_us < math.inf)).all():
        raise ValueError("hold_time_ns must be nonnegative and finite")
    if model is DecayModel.GAUSSIAN_HALF:
        out = gamma0 * np.exp(-(t_us * t_us) / (2.0 * tau_c_us * tau_c_us))
    elif model is DecayModel.EXPONENTIAL:
        out = gamma0 * np.exp(-t_us / tau_c_us)
    else:
        raise ValueError(f"unknown decay model {model!r}")
    return float(out) if t_us.ndim == 0 else out


@dataclass(frozen=True)
class ProtocolParams:
    """Shared timing and budget parameters of one synchronization trial."""

    source_a: SourceParams
    source_b: SourceParams
    n_write_max: int = 12
    dt_write_ns: float = 800.0
    dt_read_ns: float = 400.0
    tau_c_us: float = 12.0
    decay_model: DecayModel = DecayModel.GAUSSIAN_HALF
    latency_ns: float = 0.0

    def __post_init__(self) -> None:
        if not (isinstance(self.n_write_max, (int, np.integer)) and self.n_write_max >= 1):
            raise ValueError(f"n_write_max must be an integer >= 1, got {self.n_write_max}")
        for name in ("dt_write_ns", "tau_c_us"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        for name in ("dt_read_ns", "latency_ns"):
            _check_nonnegative(name, getattr(self, name))

    def gamma_at(self, source: SourceParams, hold_time_ns):
        return memory_retrieval_efficiency(
            source.gamma0, hold_time_ns, self.decay_model, self.tau_c_us
        )


def _read_success(shape: FockDistribution, gamma):
    # P(>=1 photon retrieved) for a memory holding the shape q.
    return shape[1] * gamma + shape[2] * (2.0 - gamma) * gamma


def _holds(params: ProtocolParams, attempt_a, attempt_b) -> tuple:
    """Hold times (ns) of both memories for heralds at these attempts.

    The common read fires a message round-trip plus ``dt_read_ns`` after
    the later herald, so each memory holds for its gap to the later
    herald plus that rendezvous overhead.  Works on scalars and arrays.
    """
    later = np.maximum(attempt_a, attempt_b)
    overhead = 2.0 * params.latency_ns + params.dt_read_ns
    return tuple((later - i) * params.dt_write_ns + overhead for i in (attempt_a, attempt_b))


def _wait_success(params: ProtocolParams, d) -> tuple:
    """Each node's read success when it heralded ``d`` slots before its peer.

    The earlier node holds for the gap plus the rendezvous overhead; at
    ``d = 0`` this is the later node's read success.  This is the one place
    a source that never heralds is handled: both successes are then zero.
    """
    sources = (params.source_a, params.source_b)
    t_wait = _holds(params, 0, d)[0]
    if min(source.herald_prob for source in sources) == 0.0:
        return np.zeros_like(t_wait), np.zeros_like(t_wait)
    return tuple(
        _read_success(source.heralded_shape(), params.gamma_at(source, t_wait))
        for source in sources
    )


def p4c_no_feedback(params: ProtocolParams) -> float:
    """Four-fold coincidence probability of a single write/read per trial.

    The product p_a * gamma_a(dt_read) * p_b * gamma_b(dt_read), with the
    retrieval factor generalized to the read-success probability of each
    source's heralded shape (identical to gamma for a single-excitation
    memory).  The single-shot baseline reads both nodes on a fixed
    schedule with no ready-message exchange, so it pays no rendezvous
    latency: its read success is the zero-gap one at zero latency, where
    the hold is exactly ``dt_read_ns``.
    """
    ra, rb = _wait_success(replace(params, latency_ns=0.0), 0)
    return float(params.source_a.herald_prob * ra * params.source_b.herald_prob * rb)


def p4c_feedback_by_n(params: ProtocolParams, ns) -> np.ndarray:
    """Exact four-fold coincidence probability under feedback, one entry
    per write budget N in ``ns`` (``params.n_write_max`` is not read).

    Sums over the herald attempts (i, j) of the two nodes: the node that
    heralds first waits (j - i) write slots plus the rendezvous overhead
    (a message round-trip, 2 * latency, and the read delay) while its
    memory decays, the later one waits only the overhead.  Events are
    partitioned by which node heralds first; the simultaneous-herald
    stratum is counted once.  The gap terms are built once up to max(ns);
    each N is a sum of the first N of them against geometric partial sums,
    so an entry does not depend on which other N share ``ns``.
    """
    if min(ns) < 1:
        raise ValueError(f"every n_write_max must be >= 1, got {min(ns)}")
    pa, pb = params.source_a.herald_prob, params.source_b.herald_prob
    n_max = max(ns)
    qa, qb = 1.0 - pa, 1.0 - pb

    d = np.arange(n_max, dtype=float)
    ra_wait, rb_wait = _wait_success(params, d)
    ra0, rb0 = float(ra_wait[0]), float(rb_wait[0])  # hold = overhead
    terms = np.stack([qb**d * ra_wait, qa**d * rb_wait])  # A first, B first

    # G[m] = sum_{i=0}^{m} (qa*qb)^i; the inner depletion sum for gap d
    # runs over i = 0..N-1-d, so budget N reads g[N-1::-1].
    g = np.cumsum((qa * qb) ** d)
    sums = np.array([(terms[:, :n] * g[n - 1 :: -1]).sum(axis=1) for n in ns])
    a_first = pa * pb * rb0 * sums[:, 0]
    b_first = pa * pb * ra0 * sums[:, 1]
    diagonal = pa * pb * ra0 * rb0 * g[np.asarray(ns) - 1]
    return a_first + b_first - diagonal


def p4c_feedback_closed_form(params: ProtocolParams) -> float:
    """:func:`p4c_feedback_by_n` at ``params.n_write_max``."""
    return float(p4c_feedback_by_n(params, (params.n_write_max,))[0])


def enhancement_factor(params: ProtocolParams) -> float:
    """Ratio of the feedback coincidence probability to the baseline."""
    baseline = p4c_no_feedback(params)
    if baseline == 0.0:
        raise ValueError("no-feedback coincidence probability is zero")
    return p4c_feedback_closed_form(params) / baseline


@dataclass(frozen=True)
class TrialOutcome:
    """Result of one synchronization trial.

    ``stokes_a`` and ``stokes_b`` count the photons retrieved from each
    memory (0-2); hold times are None unless both nodes heralded.
    """

    herald_a: int | None
    herald_b: int | None
    hold_time_a_ns: float | None
    hold_time_b_ns: float | None
    stokes_a: int
    stokes_b: int
    four_fold: bool


def _retrieved(shape: FockDistribution, gamma, draws):
    """Photons read out of a memory holding the heralded shape ``shape``.

    ``draws`` holds three uniforms (per trial, along the first axis):
    draw 0 picks the stored excitation number, draws 1 and 2 decide
    whether the first and second excitation survive retrieval at
    efficiency ``gamma``.  Works on scalars and arrays.
    """
    first = (draws[1] < gamma) & (draws[0] >= shape[0])
    second = (draws[2] < gamma) & (draws[0] >= shape[0] + shape[1])
    return np.add(first, second, dtype=np.int8)


def run_protocol_trial(params: ProtocolParams, rng: np.random.Generator) -> TrialOutcome:
    """Simulate one trial of the two-node protocol on a shared clock.

    Both nodes attempt writes at times k*dt_write (k < n_write_max), node
    A drawing before node B at each tick, and stop on their first herald.
    Ready messages travel for ``latency_ns``; the common read fires a
    message round-trip plus ``dt_read_ns`` after the later herald, so the
    earlier node's memory decays for the attempt gap plus that rendezvous
    overhead.  Failure to herald on either side is a valid
    (non-coincident) outcome.
    """
    sources = (params.source_a, params.source_b)
    p_click = [source.herald_prob for source in sources]
    herald: list[int | None] = [None, None]
    for k in range(params.n_write_max):
        for idx in (0, 1):
            if herald[idx] is None and rng.random() < p_click[idx]:
                herald[idx] = k
    if None in herald:
        return TrialOutcome(herald[0], herald[1], None, None, 0, 0, False)
    holds = [float(hold) for hold in _holds(params, *herald)]
    stokes = [
        int(_retrieved(source.heralded_shape(), params.gamma_at(source, hold), rng.random(3)))
        for source, hold in zip(sources, holds)
    ]
    return TrialOutcome(
        herald_a=herald[0],
        herald_b=herald[1],
        hold_time_a_ns=holds[0],
        hold_time_b_ns=holds[1],
        stokes_a=stokes[0],
        stokes_b=stokes[1],
        four_fold=stokes[0] > 0 and stokes[1] > 0,
    )


@dataclass(frozen=True)
class CoincidenceStats:
    """Aggregated four-fold coincidence statistics of a campaign."""

    trials: int
    four_fold_count: int
    p4c_hat: float
    std_err: float

    @classmethod
    def from_counts(cls, trials: int, four_fold_count: int) -> "CoincidenceStats":
        p = four_fold_count / trials
        return cls(trials, four_fold_count, p, math.sqrt(p * (1.0 - p) / trials))


TRIAL_RECORD_DTYPE = np.dtype(
    [
        ("trial", np.int64),
        ("herald_a", np.int64),
        ("herald_b", np.int64),
        ("hold_a_ns", np.float64),
        ("hold_b_ns", np.float64),
        ("four_fold", np.bool_),
    ]
)


def _heralds(rng: np.random.Generator, p: float, n_max: int, m: int):
    """Sorted heralded trials among ``m`` and the attempt index of each.

    A trial heralds within ``n_max`` attempts with P = 1 - (1-p)**n_max, so
    only heralded trials cost draws: Geometric(P) gaps between them, and
    the attempt index by inversion of the truncated geometric law.  The
    arithmetic runs in place because a dense source heralds in most trials.
    """
    if p <= 0.0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    if p >= 1.0:
        return np.arange(m, dtype=np.int64), np.zeros(m, dtype=np.int64)
    log_q = math.log1p(-p)
    big_p = -math.expm1(n_max * log_q)
    parts, last = [], -1
    while last < m - 1:
        rest = (m - 1 - last) * big_p
        # A gap past the chunk is cut to m + 1, so the sums cannot overflow.
        gaps = np.minimum(rng.geometric(big_p, int(rest + 4.0 * math.sqrt(rest)) + 16), m + 1)
        parts.append(np.add(np.cumsum(gaps, out=gaps), last, out=gaps))
        last = int(gaps[-1])
    positions = np.concatenate(parts)
    positions = positions[: np.searchsorted(positions, m)]
    u = rng.random(positions.size)
    attempts = np.divide(np.log1p(np.multiply(u, -big_p, out=u), out=u), log_q, out=u)
    return positions, np.minimum(attempts, n_max - 1, out=attempts).astype(np.int64)


def _four_fold_table(params: ProtocolParams) -> np.ndarray:
    """P(four-fold | both heralded) at index ``attempt_b - attempt_a + N - 1``.

    Retrieval at the two nodes is independent given their holds, so each
    entry is r_a * r_b from :func:`_wait_success`, the closed form's gap
    terms: the node that heralded first waits the gap, its peer none.
    """
    d = np.arange(params.n_write_max, dtype=float)
    ra_wait, rb_wait = _wait_success(params, d)
    return np.concatenate([ra_wait[0] * rb_wait[:0:-1], ra_wait * rb_wait[0]])


def _campaign_chunks(params: ProtocolParams, n_trials: int, seed: int) -> Iterator[tuple]:
    """Yield ``(offset, size, heralds, joint, attempts, four_fold)`` per chunk.

    Chunk c draws from the substream (seed, c).  ``heralds`` holds each
    node's ``(positions, attempts)``; ``joint`` the trials where both
    heralded, ``attempts`` both nodes' attempts there.  Each joint trial
    draws one uniform against :func:`_four_fold_table` at its signed gap.
    """
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials}")
    sources = (params.source_a, params.source_b)
    n_max = params.n_write_max
    table = _four_fold_table(params)
    for c in range((n_trials + _CHUNK_SIZE - 1) // _CHUNK_SIZE):
        m = min(_CHUNK_SIZE, n_trials - c * _CHUNK_SIZE)
        rng = np.random.default_rng([seed, c])
        heralds = [_heralds(rng, s.herald_prob, n_max, m) for s in sources]
        (pos_a, att_a), (pos_b, att_b) = heralds
        both = np.zeros(m, dtype=np.int8)
        both[pos_a] = 1
        both[pos_b] += 1
        in_b = both[pos_a] == 2
        joint = pos_a[in_b]
        attempts = att_a[in_b], att_b[both[pos_b] == 2]
        four_fold = rng.random(joint.size) < table[attempts[1] - attempts[0] + (n_max - 1)]
        yield c * _CHUNK_SIZE, m, heralds, joint, attempts, four_fold


def simulate_campaign(params: ProtocolParams, n_trials: int, seed: int) -> CoincidenceStats:
    """Run ``n_trials`` independent protocol trials and aggregate coincidences.

    Trials are sampled in fixed-size chunks, each from the substream keyed
    (seed, chunk index), and counts are summed; results are identical for
    a given (params, n_trials, seed) no matter how chunks are scheduled.
    """
    count = sum(int(np.count_nonzero(c[-1])) for c in _campaign_chunks(params, n_trials, seed))
    return CoincidenceStats.from_counts(n_trials, count)


@dataclass(frozen=True)
class CampaignRecords:
    """Per-trial records, one ``TRIAL_RECORD_DTYPE`` block per chunk on every pass."""

    params: ProtocolParams
    n_trials: int
    seed: int

    def __iter__(self) -> Iterator[np.ndarray]:
        chunks = _campaign_chunks(self.params, self.n_trials, self.seed)
        for lo, m, heralds, joint, attempts, four_fold in chunks:
            block = np.full(m, np.array((0, -1, -1, np.nan, np.nan, False), TRIAL_RECORD_DTYPE))
            block["trial"] = np.arange(lo, lo + m)
            holds = _holds(self.params, *attempts)
            for tag, (positions, attempt), hold in zip("ab", heralds, holds):
                block[f"herald_{tag}"][positions] = attempt
                block[f"hold_{tag}_ns"][joint] = hold
            block["four_fold"][joint] = four_fold
            yield block


def simulate_campaign_records(
    params: ProtocolParams, n_trials: int, seed: int
) -> tuple[CoincidenceStats, np.ndarray]:
    """Like :func:`simulate_campaign`, plus the :class:`CampaignRecords` blocks joined."""
    records = np.concatenate([*CampaignRecords(params, n_trials, seed)])
    return CoincidenceStats.from_counts(n_trials, int(records["four_fold"].sum())), records


def default_params() -> ProtocolParams:
    """The shipped profile, which the config reads every ``protocol.*`` default off."""
    source = SourceParams(gamma0=0.08, p_as=2.0e-3)
    return ProtocolParams(source_a=source, source_b=source)
