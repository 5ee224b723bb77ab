"""Two-node feedback synchronization protocol.

Each node fires write pulses on a shared attempt clock until its herald
detector clicks, then holds the stored excitation and exchanges ready
messages with the peer; once both are ready the nodes read out
simultaneously.  The module provides the event-driven trial simulator,
an exact closed-form evaluator of the four-fold coincidence probability
under feedback, the no-feedback baseline, and the enhancement factor.

Closed forms and simulator describe the same stochastic process: the
per-node read success at hold time t is sum_n q[n]*(1-(1-gamma(t))**n)
over the heralded excitation shape q, which reduces to gamma(t) for a
single-excitation memory.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterator

import numpy as np

from .photon_stats import FockDistribution, SourceParams

__all__ = [
    "DecayModel",
    "ProtocolParams",
    "Phase",
    "NodeState",
    "TrialOutcome",
    "CoincidenceStats",
    "memory_retrieval_efficiency",
    "p4c_no_feedback",
    "p4c_feedback_closed_form",
    "enhancement_factor",
    "run_protocol_trial",
    "simulate_campaign",
    "simulate_campaign_records",
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
    if tau_c_us <= 0.0:
        raise ValueError(f"tau_c_us must be positive, got {tau_c_us}")
    t_us = np.asarray(hold_time_ns, dtype=float) * 1e-3
    if np.any(t_us < 0.0):
        raise ValueError("hold_time_ns must be nonnegative")
    if model is DecayModel.GAUSSIAN_HALF:
        out = gamma0 * np.exp(-(t_us * t_us) / (2.0 * tau_c_us * tau_c_us))
    elif model is DecayModel.EXPONENTIAL:
        out = gamma0 * np.exp(-t_us / tau_c_us)
    else:
        raise ValueError(f"unknown decay model {model!r}")
    return float(out) if np.ndim(hold_time_ns) == 0 else out


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
        if self.n_write_max < 1:
            raise ValueError(f"n_write_max must be >= 1, got {self.n_write_max}")
        for name in ("dt_write_ns", "tau_c_us"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        for name in ("dt_read_ns", "latency_ns"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(f"{name} must be nonnegative and finite, got {value}")

    def gamma_at(self, source: SourceParams, hold_time_ns):
        return memory_retrieval_efficiency(
            source.gamma0, hold_time_ns, self.decay_model, self.tau_c_us
        )


def _read_success(shape: FockDistribution, gamma):
    # P(>=1 photon retrieved) for a memory holding the shape q.
    return shape[1] * gamma + shape[2] * (2.0 - gamma) * gamma


def p4c_no_feedback(params: ProtocolParams) -> float:
    """Four-fold coincidence probability of a single write/read per trial.

    The product p_a * gamma_a(dt_read) * p_b * gamma_b(dt_read), with the
    retrieval factor generalized to the read-success probability of each
    source's heralded shape (identical to gamma for a single-excitation
    memory).  The single-shot baseline reads both nodes on a fixed
    schedule with no ready-message exchange, so it pays no rendezvous
    latency.
    """
    pa = params.source_a.herald_prob
    pb = params.source_b.herald_prob
    if pa == 0.0 or pb == 0.0:
        return 0.0
    ra = _read_success(
        params.source_a.heralded_shape(),
        params.gamma_at(params.source_a, params.dt_read_ns),
    )
    rb = _read_success(
        params.source_b.heralded_shape(),
        params.gamma_at(params.source_b, params.dt_read_ns),
    )
    return pa * ra * pb * rb


def p4c_feedback_closed_form(params: ProtocolParams) -> float:
    """Exact four-fold coincidence probability under feedback.

    Sums over the herald attempts (i, j) of the two nodes: the node that
    heralds first waits (j - i) write slots plus the rendezvous overhead
    (a message round-trip, 2 * latency, and the read delay) while its
    memory decays, the later one waits only the overhead.  Events are
    partitioned by which node heralds first; the simultaneous-herald
    stratum is counted once.  Evaluated in O(N) via geometric partial
    sums.
    """
    pa = params.source_a.herald_prob
    pb = params.source_b.herald_prob
    if pa == 0.0 or pb == 0.0:
        return 0.0
    n = params.n_write_max
    overhead = 2.0 * params.latency_ns + params.dt_read_ns
    qa, qb = 1.0 - pa, 1.0 - pb

    shape_a = params.source_a.heralded_shape()
    shape_b = params.source_b.heralded_shape()
    d = np.arange(n, dtype=float)
    t_wait = d * params.dt_write_ns + overhead
    ra_wait = _read_success(shape_a, params.gamma_at(params.source_a, t_wait))
    rb_wait = _read_success(shape_b, params.gamma_at(params.source_b, t_wait))
    ra0 = float(ra_wait[0])  # hold = overhead
    rb0 = float(rb_wait[0])

    # G[m] = sum_{i=0}^{m} (qa*qb)^i; the inner depletion sum for gap d
    # runs over i = 0..N-1-d.
    g = np.cumsum((qa * qb) ** np.arange(n, dtype=float))
    g_rev = g[::-1]  # g_rev[d] = G[N-1-d]

    a_first = pa * pb * rb0 * float(np.sum(qb**d * ra_wait * g_rev))
    b_first = pa * pb * ra0 * float(np.sum(qa**d * rb_wait * g_rev))
    diagonal = pa * pb * ra0 * rb0 * float(g[-1])
    return a_first + b_first - diagonal


def enhancement_factor(params: ProtocolParams) -> float:
    """Ratio of the feedback coincidence probability to the baseline."""
    baseline = p4c_no_feedback(params)
    if baseline == 0.0:
        raise ValueError("no-feedback coincidence probability is zero")
    return p4c_feedback_closed_form(params) / baseline


class Phase(Enum):
    WRITING = "writing"
    HOLDING = "holding"
    READING = "reading"
    DONE = "done"


@dataclass
class NodeState:
    """State of one node inside a trial.

    Legal transitions: WRITING -> WRITING (next attempt), WRITING ->
    HOLDING (herald), HOLDING -> READING, READING -> DONE, and WRITING ->
    DONE (attempt budget exhausted).
    """

    phase: Phase = Phase.WRITING
    attempt_index: int = 0
    herald_time_ns: float | None = None
    succeeded: bool | None = None

    def next_attempt(self) -> None:
        if self.phase is not Phase.WRITING:
            raise RuntimeError(f"cannot continue writing from {self.phase}")
        self.attempt_index += 1

    def to_holding(self, herald_time_ns: float) -> None:
        if self.phase is not Phase.WRITING:
            raise RuntimeError(f"illegal transition {self.phase} -> HOLDING")
        self.phase = Phase.HOLDING
        self.herald_time_ns = herald_time_ns

    def to_reading(self) -> None:
        if self.phase is not Phase.HOLDING:
            raise RuntimeError(f"illegal transition {self.phase} -> READING")
        self.phase = Phase.READING

    def to_done(self, succeeded: bool) -> None:
        if self.phase is Phase.WRITING and not succeeded:
            pass  # exhausted the write budget
        elif self.phase is Phase.READING:
            pass
        else:
            raise RuntimeError(f"illegal transition {self.phase} -> DONE")
        self.phase = Phase.DONE
        self.succeeded = succeeded


@dataclass(frozen=True)
class TrialOutcome:
    """Result of one synchronization trial."""

    herald_a: int | None
    herald_b: int | None
    hold_time_a_ns: float | None
    hold_time_b_ns: float | None
    stokes_a: int
    stokes_b: int
    four_fold: bool


_EV_WRITE, _EV_MESSAGE, _EV_READ = 0, 1, 2


def _sample_retrieval(shape: FockDistribution, gamma: float, rng: np.random.Generator) -> int:
    # Draw the stored excitation number, then per-excitation survival.
    u = rng.random()
    n = int(u >= shape[0]) + int(u >= shape[0] + shape[1])
    survivors = 0
    for _ in range(n):
        if rng.random() < gamma:
            survivors += 1
    return survivors


def run_protocol_trial(params: ProtocolParams, rng: np.random.Generator) -> TrialOutcome:
    """Simulate one trial of the two-node protocol on a shared clock.

    Both nodes attempt writes at times k*dt_write (k < n_write_max) and
    stop on their first herald.  Ready messages travel for ``latency_ns``;
    the common read fires a message round-trip plus ``dt_read_ns`` after
    the later herald, so the earlier node's memory decays for the attempt
    gap plus that rendezvous overhead.  Failure to herald on either side
    is a valid (non-coincident) outcome.
    """
    nodes = (NodeState(), NodeState())
    sources = (params.source_a, params.source_b)
    p_click = (sources[0].herald_prob, sources[1].herald_prob)
    msg_arrival: list[float | None] = [None, None]  # peer-ready arrival per node

    events: list[tuple[float, int, int, int]] = []
    seq = 0

    def push(time_ns: float, kind: int, node_idx: int) -> None:
        nonlocal seq
        heapq.heappush(events, (time_ns, seq, kind, node_idx))
        seq += 1

    push(0.0, _EV_WRITE, 0)
    push(0.0, _EV_WRITE, 1)
    stokes = [0, 0]
    read_time: float | None = None

    while events:
        t, _, kind, idx = heapq.heappop(events)
        node = nodes[idx]
        if kind == _EV_WRITE:
            if rng.random() < p_click[idx]:
                node.to_holding(t)
                push(t + params.latency_ns, _EV_MESSAGE, 1 - idx)
                peer = nodes[1 - idx]
                if peer.phase is Phase.HOLDING:
                    # Second herald: rendezvous time is now common knowledge
                    # after one more message round-trip.
                    read_time = t + 2.0 * params.latency_ns + params.dt_read_ns
                    push(read_time, _EV_READ, 0)
                    push(read_time, _EV_READ, 1)
            elif node.attempt_index + 1 < params.n_write_max:
                node.next_attempt()
                push(t + params.dt_write_ns, _EV_WRITE, idx)
            else:
                node.to_done(False)
        elif kind == _EV_MESSAGE:
            msg_arrival[idx] = t
        else:  # _EV_READ
            arrived = msg_arrival[idx]
            if arrived is None or t < arrived:
                raise RuntimeError("read scheduled before the peer-ready message arrived")
            node.to_reading()
            hold = t - node.herald_time_ns
            gamma = params.gamma_at(sources[idx], hold)
            stokes[idx] = _sample_retrieval(sources[idx].heralded_shape(), gamma, rng)
            node.to_done(stokes[idx] > 0)

    herald = [n.attempt_index if n.herald_time_ns is not None else None for n in nodes]
    holds: list[float | None] = [None, None]
    if read_time is not None:
        holds = [read_time - n.herald_time_ns for n in nodes]
    four_fold = stokes[0] > 0 and stokes[1] > 0
    return TrialOutcome(
        herald_a=herald[0],
        herald_b=herald[1],
        hold_time_a_ns=holds[0],
        hold_time_b_ns=holds[1],
        stokes_a=stokes[0],
        stokes_b=stokes[1],
        four_fold=four_fold,
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


def _campaign_chunks(params: ProtocolParams, n_trials: int, seed: int) -> Iterator[tuple]:
    """Yield ``(offset, size, heralds, joint, holds, four_fold)`` per chunk.

    Chunk c draws from the substream (seed, c).  ``heralds`` holds each
    node's ``(positions, attempts)``; the rest covers the joint heralds.
    """
    sources = (params.source_a, params.source_b)
    overhead = 2.0 * params.latency_ns + params.dt_read_ns
    for c in range((n_trials + _CHUNK_SIZE - 1) // _CHUNK_SIZE):
        m = min(_CHUNK_SIZE, n_trials - c * _CHUNK_SIZE)
        rng = np.random.default_rng([seed, c])
        heralds = [_heralds(rng, s.herald_prob, params.n_write_max, m) for s in sources]
        (pos_a, att_a), (pos_b, att_b) = heralds
        both = np.zeros(m, dtype=np.int8)
        both[pos_a] = 1
        both[pos_b] += 1
        in_b, in_a = both[pos_a] == 2, both[pos_b] == 2
        joint, attempts = pos_a[in_b], (att_a[in_b], att_b[in_a])
        later = np.maximum(*attempts)
        holds = tuple((later - i) * params.dt_write_ns + overhead for i in attempts)
        four_fold = np.ones(joint.size, dtype=bool)
        for source, hold in zip(sources, holds):
            if not joint.size:
                break  # a source that never heralds has no heralded shape
            # Draw 0 picks the stored excitation number, draws 1 and 2 its survival.
            shape = source.heralded_shape()
            draws = rng.random((3, joint.size))
            gamma = params.gamma_at(source, hold)
            four_fold &= ((draws[1] < gamma) & (draws[0] >= shape[0])) | (
                (draws[2] < gamma) & (draws[0] >= shape[0] + shape[1])
            )
        yield c * _CHUNK_SIZE, m, heralds, joint, holds, four_fold


def _campaign(params: ProtocolParams, n_trials: int, seed: int, record: bool):
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials}")
    records = np.empty(n_trials if record else 0, dtype=TRIAL_RECORD_DTYPE)
    records[:] = (0, -1, -1, np.nan, np.nan, False)
    records["trial"] = np.arange(records.size)
    count = 0
    for lo, m, heralds, joint, holds, four_fold in _campaign_chunks(params, n_trials, seed):
        count += int(np.count_nonzero(four_fold))
        if record:
            block = records[lo : lo + m]
            for tag, (positions, attempts), hold in zip("ab", heralds, holds):
                block[f"herald_{tag}"][positions] = attempts
                block[f"hold_{tag}_ns"][joint] = hold
            block["four_fold"][joint] = four_fold
    return CoincidenceStats.from_counts(n_trials, count), records


def simulate_campaign(params: ProtocolParams, n_trials: int, seed: int) -> CoincidenceStats:
    """Run ``n_trials`` independent protocol trials and aggregate coincidences.

    Trials are sampled in fixed-size chunks, each from the substream keyed
    (seed, chunk index), and counts are summed; results are identical for
    a given (params, n_trials, seed) no matter how chunks are scheduled.
    """
    return _campaign(params, n_trials, seed, record=False)[0]


def simulate_campaign_records(
    params: ProtocolParams, n_trials: int, seed: int
) -> tuple[CoincidenceStats, np.ndarray]:
    """Like :func:`simulate_campaign` but also return per-trial records."""
    return _campaign(params, n_trials, seed, record=True)


def default_params() -> ProtocolParams:
    """Shipped default protocol profile (see the configuration reference)."""
    source = SourceParams(gamma0=0.08, p_as=2.0e-3)
    return ProtocolParams(source_a=source, source_b=source)
