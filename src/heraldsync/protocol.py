"""Two-node feedback synchronization protocol.

Each node fires write pulses on a shared attempt clock until its herald
detector clicks, then holds the stored excitation and exchanges ready
messages with the peer; once both are ready the nodes read out
simultaneously.  The module provides an exact closed-form evaluator of
the four-fold coincidence probability under feedback, as one nonnegative
sum over the slot of the later herald, the no-feedback baseline, the
enhancement factor, a straight-line single-trial reference model and the
vectorized Monte Carlo campaign.

Closed forms and simulators describe the same stochastic process: the
per-node read success at hold time t is sum_n q[n]*(1-(1-gamma(t))**n)
over the heralded excitation shape q, which reduces to gamma(t) for a
single-excitation memory.  All three take hold times from :func:`_holds`.
Both closed forms and the campaign share the read success at a hold,
:func:`_wait_success`: the campaign draws one uniform per jointly
heralded trial against its product at the trial's gap, and draws node B's
heralds over node A's heralded trials, so that no intersection finds the
joint ones.  The
trial alone samples retrieval excitation by excitation (:func:`_retrieved`),
as an independent check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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

_GRID_CELLS = 1 << 15  # tau x slot cells per block of the sweep grid, which bounds its memory
_SUM_EXPONENT = 500.0 * math.log(2.0)  # q**-k < 2**500 within one block of the closed form's sums
#: Largest write budget N accepted (``protocol.n_write_max``, every
#: ``enhancement.n_write_max_list`` entry, :class:`ProtocolParams` and
#: :func:`p4c_feedback_by_n`); the closed form allocates O(N) per call.
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
    tau_c_us: float | np.ndarray = 12.0,
):
    """Retrieval efficiency after holding the excitation for ``hold_time_ns``.

    GAUSSIAN_HALF: gamma0*exp(-t**2/(2*tau_c**2)); EXPONENTIAL:
    gamma0*exp(-t/tau_c).  Accepts scalar or array hold times, and an array
    of lifetimes broadcast against them, which the caller has checked.
    """
    if np.ndim(tau_c_us) == 0:
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
    if np.min(exponent) < -746.0:
        # exp is 0 there, and np.exp would take its slow underflow path
        out = np.exp(exponent, out=np.zeros(np.shape(exponent)), where=~(exponent < -746.0))
    else:
        out = np.exp(exponent)
    out *= gamma0  # in place on an array
    return float(out) if out.ndim == 0 else out


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
        n = self.n_write_max
        if not (isinstance(n, (int, np.integer)) and 1 <= n <= N_WRITE_MAX_CAP):
            raise ValueError(f"n_write_max must be an integer in [1, {N_WRITE_MAX_CAP}], got {n}")
        if not (math.isfinite(self.dt_write_ns) and self.dt_write_ns > 0.0):
            raise ValueError(f"dt_write_ns must be positive and finite, got {self.dt_write_ns}")
        _check_tau_c(self.tau_c_us)
        for name in ("dt_read_ns", "latency_ns"):
            _check_nonnegative(name, getattr(self, name))
        overhead = 2.0 * self.latency_ns + self.dt_read_ns
        if not math.isfinite(N_WRITE_MAX_CAP * self.dt_write_ns + overhead):  # any hold (_holds)
            name = "dt_write_ns" if math.isfinite(overhead) else "latency_ns"
            raise ValueError(f"{name} overflows the longest hold, got {getattr(self, name)}")


def _read_success(shape: FockDistribution, gamma, out):
    # P(>=1 photon retrieved) for a memory holding the shape q,
    # q1*gamma + q2*(2 - gamma)*gamma, written into out; gamma is overwritten.
    # Each element takes the same products and sum, in commuted order.
    np.subtract(2.0, gamma, out=out)
    out *= shape[2]
    out *= gamma
    gamma *= shape[1]
    out += gamma


def _holds(params: ProtocolParams, attempt_a, attempt_b) -> tuple:
    """Hold times (ns) of both memories for heralds at these attempts.

    The common read fires a message round-trip plus ``dt_read_ns`` after
    the later herald, so each memory holds for its gap to the later
    herald plus that rendezvous overhead.  Works on scalars and arrays.
    """
    later = np.maximum(attempt_a, attempt_b)
    overhead = 2.0 * params.latency_ns + params.dt_read_ns
    return tuple((later - i) * params.dt_write_ns + overhead for i in (attempt_a, attempt_b))


def _wait_success(params: ProtocolParams, hold_ns, taus=None, out=None) -> np.ndarray:
    """Each node's read success after holding for ``hold_ns``.

    A node that heralded d slots before its peer holds ``_holds(params, 0,
    d)[0]``: the gap plus the rendezvous overhead, which at d = 0 is the
    later node's hold.  Given ``taus``, one row per memory lifetime there,
    not params' own.  Returns node A's and node B's successes stacked on a
    first axis of two, written into ``out`` when given.  This is the one
    place a source that never heralds is handled: both successes are then
    zero.
    """
    sources = (params.source_a, params.source_b)
    tau = params.tau_c_us if taus is None else np.array([_check_tau_c(t) for t in taus])[:, None]
    if out is None:
        out = np.empty((2, *np.broadcast(hold_ns, tau).shape))
    if min(source.herald_prob for source in sources) == 0.0:
        out[...] = 0.0
        return out
    # one decay for both sources: gamma0 * (1.0 * exp) is memory_retrieval_efficiency(gamma0, ...)
    decay = memory_retrieval_efficiency(1.0, hold_ns, params.decay_model, tau)
    for k, source in enumerate(sources):
        _read_success(source.heralded_shape(), source.gamma0 * decay, out[k, ...])
    return out


def p4c_no_feedback(params: ProtocolParams, taus=None):
    """Four-fold coincidence probability of a single write/read per trial.

    The product p_a * gamma_a(dt_read) * p_b * gamma_b(dt_read), with the
    retrieval factor generalized to the read-success probability of each
    source's heralded shape (identical to gamma for a single-excitation
    memory).  The single-shot baseline reads both nodes on a fixed
    schedule with no ready-message exchange, so it pays no rendezvous
    latency: each memory holds for exactly ``dt_read_ns``.  Given ``taus``,
    an array of one probability per memory lifetime there, not params' own.
    """
    ra, rb = _wait_success(params, params.dt_read_ns, taus)
    p4c = params.source_a.herald_prob * ra * params.source_b.herald_prob * rb
    return float(p4c) if taus is None else p4c.ravel()


def p4c_feedback_by_n(params: ProtocolParams, taus, ns) -> np.ndarray:
    """Exact four-fold coincidence probability under feedback, one row per memory
    lifetime in ``taus`` and one column per write budget N in ``ns``, not params' own.

    One nonnegative sum over the later herald's slot L.  With r_j(w) node
    j's read success after waiting w slots and q_j = 1 - p_j, node j
    heralds exactly at L, read at once, with x_j(L) = p_j q_j**L r_j(0), and
    heralds by L, read at L, with A_j(L) = q_j A_j(L - 1) + p_j r_j(L).
    P(four-fold, later herald at L) = A_a(L) x_b(L) + x_a(L) (A_b(L) -
    x_b(L)), B heralding strictly earlier in the second term.  No term
    depends on N, so each N reads the cumsum over L at N - 1.

    The read successes (:func:`_wait_success`) are written in place into
    one block of about ``_GRID_CELLS`` (tau, slot) cells and at least one
    tau row, each row spanning the N slots rounded up to whole sum blocks,
    and become the sums there.  A_j is a cumsum of r_j(L) q_j**-L rescaled by
    q_j**L, in sum blocks short enough that q_j**-L stays below 2**500.  One
    pass carries each block's end into the next by q_j**size, and each block
    then adds the previous end carried by q_j**(k + 1).  Every boundary
    depends on params alone and every operation is per tau row, so no entry
    depends on the other tau or N.

    One pass is exact up to rounding.  The likelier node h with p_h < 1 sets
    ``size``, so Q = q_h**size is below 2**-447 (about 2**-500 unless q_h is
    tiny).  A_h misses only the ends two or more blocks back, carried by Q**2
    or less.  The other node's A_j misses them outright from the fourth block
    on, but enters P(L) only times x_h(L) = p_h q_h**L r_h(0), below Q**3
    x_h(0) there.  Since A_j(L) <= (L + 1) p_j r_j(0) on either node, all that
    is missed stays below 2 N**2 Q**2 of P(0) = x_a(0) x_b(0) <= p4c(N):
    under 2**-850 for every N up to the cap.
    """
    if min(ns) < 1:
        raise ValueError(f"every n_write_max must be >= 1, got {min(ns)}")
    if max(ns) > N_WRITE_MAX_CAP:
        raise ValueError(f"every n_write_max must be <= {N_WRITE_MAX_CAP}, got {max(ns)}")
    probs = params.source_a.herald_prob, params.source_b.herald_prob
    q = np.subtract(1.0, probs)
    n_max = int(max(ns))
    # slots per sum block, so that q**-k < 2**500 in one; a row spans N in whole blocks
    bounds = (_SUM_EXPONENT / -math.log1p(-p) for p in probs if 0.0 < p < 1.0)
    size = int(min([n_max, *bounds]))
    blocks = -(-n_max // size)
    powers = q[:, None] ** np.arange(blocks * size + 1.0)  # q_j**L
    # the first N slots only: params keep holds finite up to N_WRITE_MAX_CAP slots, not past
    hold = _holds(params, 0, np.arange(n_max, dtype=float))[0]
    # the nodes whose A_j needs the sum: at p = 1 (q = 0) it is p r_j(L) as it stands
    live = slice(probs[0] >= 1.0, 2 - (probs[1] >= 1.0))
    weights, reach = powers[live, None, None, :size], powers[live, None, None, 1 : size + 1]
    rows = max(1, _GRID_CELLS // (blocks * size))
    block = np.empty((2, min(rows, len(taus)), blocks * size))  # each row group's read successes
    cols = np.asarray(ns) - 1
    grid = np.empty((len(taus), len(ns)))
    for top in range(0, len(taus), rows):
        block_taus = taus[top : top + rows]
        cells = block[:, : len(block_taus)]
        cells[..., n_max:] = 0.0  # the tail, up to a whole sum block
        sums = _wait_success(params, hold, block_taus, cells[..., :n_max])
        x0 = sums[:, :, :1] * (probs[0] * probs[1])  # p_a p_b r_j(0)
        sums[1, :, 0] = 0.0  # B's herald at L itself is x_b
        filtered = cells[live].reshape(*cells[live].shape[:2], blocks, size)
        filtered /= weights
        np.add.accumulate(filtered, axis=-1, out=filtered)
        filtered *= weights
        ends = filtered[..., -1].copy()  # each block's end, then with the one before carried
        ends[..., 1:] += q[live, None, None] ** size * ends[..., :-1]
        filtered[:, :, 1:] += reach * ends[..., :-1, None]
        sums *= powers[::-1, None, :n_max]  # A_a x_b and x_a (A_b - x_b)
        sums *= x0[::-1]
        later = np.add(sums[0], sums[1], out=sums[0])
        np.add.accumulate(later, axis=1, out=later)
        grid[top : top + len(block_taus)] = later[:, cols]
    return grid


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
    decay = params.decay_model, params.tau_c_us
    photons = []
    for source, hold in zip(sources, _holds(params, *herald)):
        gamma = memory_retrieval_efficiency(source.gamma0, hold, *decay)
        photons.append(_retrieved(source.heralded_shape(), gamma, rng.random(3)))
    return herald[0], herald[1], bool(min(photons) > 0)


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


def _herald_within(p: float, n_max: int) -> float:
    """P = 1 - (1 - p)**n_max, the probability that a node heralds in a trial."""
    return 1.0 if p >= 1.0 else -math.expm1(n_max * math.log1p(-p))


def _substream_trials(params: ProtocolParams) -> int:
    """Trials per substream, 2**k with k = floor(log2(2**13 / P_max)) in [16, 40]:
    about 2**13 expected heralds on the likelier node.

    k is read off P_max's binary exponent, so a subnormal P_max cannot
    overflow; P_max = 0 gives 2**40, which keeps every herald gap ((m + 1)
    * N at most) and their running sum inside int64.
    """
    sources = (params.source_a, params.source_b)
    p_max = max(_herald_within(source.herald_prob, params.n_write_max) for source in sources)
    if p_max == 0.0:
        return 1 << 40
    mantissa, exponent = math.frexp(p_max)  # p_max = mantissa * 2**exponent, mantissa in [1/2, 1)
    return 1 << min(max(13 - exponent + (mantissa == 0.5), 16), 40)


def _draw_bound(rest: float) -> int:
    """Exponentials drawn for ``rest`` expected heralds: 4 sigma and 16 over,
    so that one draw nearly always reaches past the index space."""
    return int(rest + 4.0 * math.sqrt(rest)) + 16


def _heralds(rng: np.random.Generator, p: float, n_max: int, m: int, work=None):
    """Sorted heralded trials among ``m`` and the attempt index of each.

    The attempts form one Bernoulli(p) stream, ``n_max`` per trial and cut
    at each herald.  One exponential E per herald gives the failures before
    it, y = floor(E/lambda) with lambda = -log(1-p): by memorylessness, y //
    n_max trials pass without a herald and the next heralds at attempt y %
    n_max.  E is capped so that y stops just past the index space.

    ``work``, a float64 and two int64 buffers of one length, takes the
    draws and every pass over them in place, and the results are views into
    it.  Draws longer than it, and every part after the first, take fresh
    arrays; either way the draws and the results are the same.
    """
    if p <= 0.0 or m == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    if p >= 1.0:
        return np.arange(m, dtype=np.int64), np.zeros(m, dtype=np.int64)
    lam = -math.log1p(-p)
    big_p = _herald_within(p, n_max)
    parts, last = [], -1
    while last < m - 1:
        size = _draw_bound((m - 1 - last) * big_p)
        if parts or work is None or size > work[0].size:
            work = np.empty(size), np.empty(size, np.int64), np.empty(size, np.int64)
        e, y, skips = (w[:size] for w in work)
        rng.standard_exponential(out=e)
        np.divide(np.minimum(e, lam * (m + 1) * n_max, out=e), lam, out=e)
        # the cast of y >= 0 is its floor; y - skips * n_max beats np.divmod,
        # and its product goes over the spent draws
        np.copyto(y, e, casting="unsafe")
        np.floor_divide(y, n_max, out=skips)
        attempts = np.subtract(y, np.multiply(skips, n_max, out=e.view(np.int64)), out=y)
        positions = np.add(np.cumsum(np.add(skips, 1, out=skips), out=skips), last, out=skips)
        parts.append((positions, attempts))
        last = int(positions[-1])
    positions, attempts = parts[0] if len(parts) == 1 else map(np.concatenate, zip(*parts))
    kept = np.searchsorted(positions, m)
    return positions[:kept], attempts[:kept]


def _four_fold_table(params: ProtocolParams) -> np.ndarray:
    """P(four-fold | both heralded) at index ``attempt_b - attempt_a + N - 1``.

    Retrieval at the two nodes is independent given their holds, so each
    entry is r_a * r_b from :func:`_wait_success`, as in the closed form:
    the node that heralded first waits the gap, its peer none.
    """
    d = np.arange(params.n_write_max, dtype=float)
    ra_wait, rb_wait = _wait_success(params, _holds(params, 0, d)[0])
    return np.concatenate([ra_wait[0] * rb_wait[:0:-1], ra_wait * rb_wait[0]])


def _empty_trials(taken: np.ndarray, k: np.ndarray) -> np.ndarray:
    """The trial of each index ``k`` into the trials not in ``taken`` (both sorted).

    The k-th such trial is k plus the taken trials before it: those with
    taken[i] - i, the untaken trials before taken[i], at most k.  Memory is
    O(len(taken) + len(k)), whatever the trial span.
    """
    return k + np.searchsorted(taken - np.arange(taken.size), k, "right")


def _workspace(*fields) -> list:
    """Views into one ``np.empty`` block, one per ``(dtype, length)`` field,
    each starting on an 8-byte boundary."""
    spans, end = [], 0
    for dtype, n in fields:
        dtype = np.dtype(dtype)
        spans.append((end, dtype, n))
        end += -(-dtype.itemsize * n // 8) * 8
    block = np.empty(end, dtype=np.uint8)
    return [block[lo : lo + dtype.itemsize * n].view(dtype) for lo, dtype, n in spans]


def _campaign_chunks(params: ProtocolParams, n_trials: int, seed: int) -> Iterator[tuple]:
    """Yield ``(offset, size, rng, heralds_a, in_a, att_b, four_fold)`` per substream.

    Substream c covers :func:`_substream_trials` trials from c times that
    and draws from the generator (seed, c): node A's ``(positions,
    attempts)``, then node B's over A's heralded trials, whose indices
    ``in_a`` are the joint trials, and B's attempts ``att_b`` there, then
    one uniform per joint trial against :func:`_four_fold_table` at its
    signed gap.  ``rng`` is handed on: B's heralds on A's empty trials,
    which no count needs, come next.

    Every pass writes into one workspace, sized by the first (and largest)
    substream's draw bounds and allocated once per campaign as a single
    block, so that no substream maps fresh pages.  The yielded arrays are
    views into it, valid only until the next item is drawn: copy what must
    outlive it.
    """
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials}")
    p_a, p_b = params.source_a.herald_prob, params.source_b.herald_prob
    n_max = params.n_write_max
    table = _four_fold_table(params)
    size = _substream_trials(params)
    first = min(size, n_trials)
    # B draws over A's heralds, which one draw of A's bound never exceeds
    bound_a = _draw_bound(first * _herald_within(p_a, n_max))
    k = max(bound_a, _draw_bound(min(first, bound_a) * _herald_within(p_b, n_max)))
    draws, gathered, *ints, hits = _workspace(
        *[(np.float64, k)] * 2, *[(np.int64, k)] * 5, (np.bool_, k)
    )
    for c in range(-(-n_trials // size)):
        m = min(size, n_trials - c * size)
        rng = np.random.default_rng([seed, c])
        pos_a, att_a = _heralds(rng, p_a, n_max, m, (draws, *ints[0:2]))
        in_a, att_b = _heralds(rng, p_b, n_max, pos_a.size, (draws, *ints[2:4]))
        n = in_a.size
        step = (draws, gathered, ints[4], hits) if n <= k else _workspace(
            (np.float64, n), (np.float64, n), (np.int64, n), (np.bool_, n)
        )
        uniforms, table_at, joint_a, four_fold = (w[:n] for w in step)
        gap = uniforms.view(np.int64)  # the table index, over B's spent draws
        # mode="raise" would copy into out; every index is in range
        np.take(att_a, in_a, out=joint_a, mode="clip")
        np.add(np.subtract(att_b, joint_a, out=gap), n_max - 1, out=gap)
        np.take(table, gap, out=table_at, mode="clip")
        np.less(rng.random(out=uniforms), table_at, out=four_fold)
        yield c * size, m, rng, (pos_a, att_a), in_a, att_b, four_fold


def simulate_campaign(params: ProtocolParams, n_trials: int, seed: int) -> CoincidenceStats:
    """Run ``n_trials`` independent protocol trials and aggregate coincidences.

    Trials are sampled in substreams whose size depends on the config
    alone, each from the generator keyed (seed, substream index), and
    counts are summed; results are identical for a given (params,
    n_trials, seed) no matter how substreams are scheduled.
    """
    count = sum(int(np.count_nonzero(c[-1])) for c in _campaign_chunks(params, n_trials, seed))
    return CoincidenceStats.from_counts(n_trials, count)


@dataclass(frozen=True)
class CampaignRecords:
    """A campaign's trial records, drawn again on every pass: :meth:`heralded`
    yields each substream's heralded trials, and
    :func:`simulate_campaign_records` expands them into one row per trial."""

    params: ProtocolParams
    n_trials: int
    seed: int

    def heralded(self) -> Iterator[tuple]:
        """Yield ``(lo, m, run)`` per substream, trials lo to lo + m - 1.

        ``run`` holds the heralded trials only, sorted by trial, as one
        column per ``TRIAL_RECORD_DTYPE`` field: a herald is an attempt
        index, -1 where the node did not herald, and both holds are NaN
        unless both nodes heralded.  Node A's heralds come from the count's
        draws, B's on A's empty trials from the substream's last draws;
        every trial not in the run heralded on neither node.
        """
        p_b, n_max = self.params.source_b.herald_prob, self.params.n_write_max
        chunks = _campaign_chunks(self.params, self.n_trials, self.seed)
        for lo, m, rng, (pos_a, att_a), in_a, att_b, four_fold in chunks:
            in_empty, att_e = _heralds(rng, p_b, n_max, m - pos_a.size)
            trial_e = _empty_trials(pos_a, in_empty)
            # a row's place is its index in its own run plus the other run's
            # rows before it: for B's lone heralds, trial_e - in_empty A heralds
            rows_a = np.arange(pos_a.size) + np.searchsorted(trial_e, pos_a)
            rows_e = np.arange(trial_e.size) + trial_e - in_empty
            joint = rows_a[in_a]
            # the workspace's views are copied before the next substream is drawn
            trial, herald_a, herald_b = np.full((3, rows_a.size + rows_e.size), -1, np.int64)
            trial[rows_a], trial[rows_e] = pos_a + lo, trial_e + lo
            herald_a[rows_a], herald_b[rows_e], herald_b[joint] = att_a, att_e, att_b
            holds = np.full((2, trial.size), np.nan)
            holds[:, joint] = _holds(self.params, att_a[in_a], att_b)
            joint_four_fold = np.zeros(trial.size, dtype=bool)
            joint_four_fold[joint] = four_fold
            del in_empty, att_e, trial_e, rows_a, rows_e, joint  # only the run outlives the yield
            yield lo, m, (trial, herald_a, herald_b, *holds, joint_four_fold)


def simulate_campaign_records(
    params: ProtocolParams, n_trials: int, seed: int
) -> tuple[CoincidenceStats, np.ndarray]:
    """Like :func:`simulate_campaign`, plus one ``TRIAL_RECORD_DTYPE`` row per
    trial, scattered from :meth:`CampaignRecords.heralded`: a node that did
    not herald reads -1, and a trial where either did not has NaN holds."""
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials}")
    unheralded = np.array((0, -1, -1, np.nan, np.nan, False), TRIAL_RECORD_DTYPE)
    records = np.full(n_trials, unheralded)
    records["trial"] = np.arange(n_trials)
    for _, _, (trial, *columns) in CampaignRecords(params, n_trials, seed).heralded():
        for name, column in zip(TRIAL_RECORD_DTYPE.names[1:], columns):
            records[name][trial] = column
    return CoincidenceStats.from_counts(n_trials, int(records["four_fold"].sum())), records


def default_params() -> ProtocolParams:
    """The shipped profile, which the config reads every ``protocol.*`` default off."""
    source = SourceParams(gamma0=0.08, p_as=2.0e-3)
    return ProtocolParams(source_a=source, source_b=source)
