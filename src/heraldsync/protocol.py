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
heralded trial against its product, and draws node B's heralds over node
A's heralded trials, so that no intersection finds the joint ones.  The
trial alone samples retrieval excitation by excitation (:func:`_retrieved`),
as an independent check.
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
_GRID_BLOCK = 16  # tau rows per block of the sweep grid, which bounds its memory
#: Largest write budget N accepted (``protocol.n_write_max`` and every
#: ``enhancement.n_write_max_list`` entry); the closed form allocates O(N) per tau block.
N_WRITE_MAX_CAP = 100_000


class DecayModel(Enum):
    """Functional form of the memory retrieval-efficiency decay."""

    GAUSSIAN_HALF = "gaussian_half"
    EXPONENTIAL = "exponential"


def _check_tau_c(tau_c_us: float) -> float:
    """``tau_c_us``, if positive, finite and large enough that 2*tau_c**2 > 0."""
    if not (math.isfinite(tau_c_us) and tau_c_us > 0.0 and 2.0 * tau_c_us * tau_c_us > 0.0):
        raise ValueError(
            f"tau_c_us must be positive and finite, with 2*tau_c_us**2 > 0, got {tau_c_us}"
        )
    return tau_c_us


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
    _check_tau_c(tau_c_us)
    if not math.isfinite(gamma0):
        raise ValueError(f"gamma0 must be finite, got {gamma0}")
    t_us = np.asarray(hold_time_ns, dtype=float) * 1e-3
    # NaN fails both comparisons.
    if not ((t_us >= 0.0) & (t_us < math.inf)).all():
        raise ValueError("hold_time_ns must be nonnegative and finite")
    # an exponent that overflows to -inf gives exp = 0, the exact limit
    with np.errstate(over="ignore"):
        if model is DecayModel.GAUSSIAN_HALF:
            exponent = -(t_us * t_us) / (2.0 * tau_c_us * tau_c_us)
        elif model is DecayModel.EXPONENTIAL:
            exponent = -t_us / tau_c_us
        else:
            raise ValueError(f"unknown decay model {model!r}")
    out = gamma0 * np.exp(exponent)
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
        if not (math.isfinite(self.dt_write_ns) and self.dt_write_ns > 0.0):
            raise ValueError(f"dt_write_ns must be positive and finite, got {self.dt_write_ns}")
        _check_tau_c(self.tau_c_us)
        for name in ("dt_read_ns", "latency_ns"):
            _check_nonnegative(name, getattr(self, name))
        overhead = 2.0 * self.latency_ns + self.dt_read_ns
        if not math.isfinite(N_WRITE_MAX_CAP * self.dt_write_ns + overhead):  # any hold (_holds)
            name = "dt_write_ns" if math.isfinite(overhead) else "latency_ns"
            raise ValueError(f"{name} overflows the longest hold, got {getattr(self, name)}")

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


def p4c_feedback_by_n(params: ProtocolParams, taus, ns) -> np.ndarray:
    """Exact four-fold coincidence probability under feedback, one row per memory
    lifetime in ``taus`` and one column per write budget N in ``ns``, not params' own.

    Sums over the herald attempts (i, j) of the two nodes: the node that
    heralds first waits (j - i) write slots plus the rendezvous overhead
    (a message round-trip, 2 * latency, and the read delay) while its
    memory decays, the later one waits only the overhead.  Events are
    partitioned by which node heralds first; the simultaneous-herald
    stratum is counted once.  The gap terms are built up to max(ns),
    ``_GRID_BLOCK`` taus at a time; each N sums its first N terms against
    geometric partial sums, so no entry depends on the other tau or N.
    """
    if min(ns) < 1:
        raise ValueError(f"every n_write_max must be >= 1, got {min(ns)}")
    pa, pb = params.source_a.herald_prob, params.source_b.herald_prob
    n_max = max(ns)
    qa, qb = 1.0 - pa, 1.0 - pb

    d = np.arange(n_max, dtype=float)
    depletion = np.stack([qb**d, qa**d])  # A first, B first
    # G[m] = sum_{i=0}^{m} (qa*qb)^i; the inner depletion sum for gap d
    # runs over i = 0..N-1-d, so budget N reads g[N-1::-1].
    g = np.cumsum((qa * qb) ** d)
    blocks = []
    for lo in range(0, len(taus), _GRID_BLOCK):
        block = taus[lo : lo + _GRID_BLOCK]
        terms = np.empty((2, len(block), n_max))
        for k, tau in enumerate(block):
            np.multiply(depletion, _wait_success(replace(params, tau_c_us=tau), d), out=terms[:, k])
        ra0, rb0 = terms[:, :, :1]  # d = 0: the depletion is 1, the hold the overhead
        sums = np.stack([(terms[..., :n] * g[n - 1 :: -1]).sum(axis=2) for n in ns], axis=2)
        a_first = pa * pb * rb0 * sums[0]
        b_first = pa * pb * ra0 * sums[1]
        diagonal = pa * pb * ra0 * rb0 * g[np.asarray(ns) - 1]
        blocks.append(a_first + b_first - diagonal)
    return np.concatenate(blocks)


def p4c_feedback_closed_form(params: ProtocolParams) -> float:
    """:func:`p4c_feedback_by_n` at ``params.tau_c_us`` and ``params.n_write_max``."""
    return float(p4c_feedback_by_n(params, (params.tau_c_us,), (params.n_write_max,))[0, 0])


def enhancement_factor(params: ProtocolParams) -> float:
    """Ratio of the feedback coincidence probability to the baseline."""
    baseline = p4c_no_feedback(params)
    if baseline == 0.0:
        raise ValueError("no-feedback coincidence probability is zero")
    return p4c_feedback_closed_form(params) / baseline


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


def run_protocol_trial(params: ProtocolParams, rng: np.random.Generator) -> tuple:
    """Simulate one trial of the two-node protocol on a shared clock.

    Both nodes attempt writes at times k*dt_write (k < n_write_max), node
    A drawing before node B at each tick, and stop on their first herald.
    Ready messages travel for ``latency_ns``; the common read fires a
    message round-trip plus ``dt_read_ns`` after the later herald, so the
    earlier node's memory decays for the attempt gap plus that rendezvous
    overhead (:func:`_holds`).  Returns ``(herald_a, herald_b, four_fold)``,
    a herald being the attempt index or None; failure to herald on either
    side is a valid (non-coincident) outcome.
    """
    sources = (params.source_a, params.source_b)
    p_click = [source.herald_prob for source in sources]
    herald: list[int | None] = [None, None]
    for k in range(params.n_write_max):
        for idx in (0, 1):
            if herald[idx] is None and rng.random() < p_click[idx]:
                herald[idx] = k
    if None in herald:
        return herald[0], herald[1], False
    photons_a, photons_b = (
        _retrieved(source.heralded_shape(), params.gamma_at(source, hold), rng.random(3))
        for source, hold in zip(sources, _holds(params, *herald))
    )
    return herald[0], herald[1], bool(photons_a > 0 and photons_b > 0)


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

    The attempts form one Bernoulli(p) stream, ``n_max`` per trial and cut
    at each herald.  One exponential E per herald gives the failures before
    it, y = floor(E/lambda) with lambda = -log(1-p): by memorylessness, y //
    n_max trials pass without a herald and the next heralds at attempt y %
    n_max.  E is capped so that y stops just past the index space.
    """
    if p <= 0.0 or m == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    if p >= 1.0:
        return np.arange(m, dtype=np.int64), np.zeros(m, dtype=np.int64)
    lam = -math.log1p(-p)
    big_p = -math.expm1(n_max * -lam)
    parts, last = [], -1
    while last < m - 1:
        rest = (m - 1 - last) * big_p
        e = rng.standard_exponential(int(rest + 4.0 * math.sqrt(rest)) + 16)
        # the cast of y >= 0 is its floor; y - skips * n_max beats np.divmod
        y = np.divide(np.minimum(e, lam * (m + 1) * n_max, out=e), lam, out=e).astype(np.int64)
        skips = y // n_max
        attempts = np.subtract(y, skips * n_max, out=y)
        positions = np.add(np.cumsum(np.add(skips, 1, out=skips), out=skips), last, out=skips)
        parts.append((positions, attempts))
        last = int(positions[-1])
    positions, attempts = (np.concatenate(x) for x in zip(*parts))
    kept = np.searchsorted(positions, m)
    return positions[:kept], attempts[:kept]


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
    """Yield ``(offset, size, rng, heralds_a, joint, attempts, four_fold)`` per chunk.

    Chunk c draws from the substream (seed, c): node A's ``(positions,
    attempts)``, then node B's over A's heralded trials, which gives ``joint``
    and both nodes' ``attempts`` there, then one uniform per joint trial
    against :func:`_four_fold_table` at its signed gap.  ``rng`` is handed
    on: B's heralds on A's empty trials, which no count needs, come next.
    """
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials}")
    p_a, p_b = params.source_a.herald_prob, params.source_b.herald_prob
    n_max = params.n_write_max
    table = _four_fold_table(params)
    for c in range((n_trials + _CHUNK_SIZE - 1) // _CHUNK_SIZE):
        m = min(_CHUNK_SIZE, n_trials - c * _CHUNK_SIZE)
        rng = np.random.default_rng([seed, c])
        pos_a, att_a = _heralds(rng, p_a, n_max, m)
        in_a, att_b = _heralds(rng, p_b, n_max, pos_a.size)
        attempts = att_a[in_a], att_b
        four_fold = rng.random(in_a.size) < table[att_b - attempts[0] + (n_max - 1)]
        yield c * _CHUNK_SIZE, m, rng, (pos_a, att_a), pos_a[in_a], attempts, four_fold


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
        params = self.params
        p_b, n_max = params.source_b.herald_prob, params.n_write_max
        chunks = _campaign_chunks(params, self.n_trials, self.seed)
        for lo, m, rng, (pos_a, att_a), joint, attempts, four_fold in chunks:
            block = np.full(m, np.array((0, -1, -1, np.nan, np.nan, False), TRIAL_RECORD_DTYPE))
            block["trial"] = np.arange(lo, lo + m)
            block["herald_a"][pos_a] = att_a
            empty = np.flatnonzero(block["herald_a"] < 0)  # B there: the chunk's last draws
            in_empty, att_b = _heralds(rng, p_b, n_max, empty.size)
            block["herald_b"][joint], block["herald_b"][empty[in_empty]] = attempts[1], att_b
            block["hold_a_ns"][joint], block["hold_b_ns"][joint] = _holds(params, *attempts)
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
