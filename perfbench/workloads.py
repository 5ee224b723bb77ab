"""Workload generation: configs from a seed, plus the values to expect.

A workload is a fixed list of CLI operations (one round).  ``build``
turns (workload, seed) into that list; every operation carries its
config text and the reference values its outputs are checked against,
all computed here with ``reference.py``.  The same seed always gives the
same configs, and the amount of work in a round does not depend on the
seed.
"""

from __future__ import annotations

import random

import numpy as np

import reference as ref

WORKLOADS = ("campaign_sparse", "campaign_dense", "records", "analytic")

# Invocations are kept short (about 0.05 to 0.15 s here) so that each run
# holds many samples of each; see README.md on why timings are minima.
SPARSE_TRIALS = 2_000_000
SPARSE_INVOCATIONS = 3
DENSE_TRIALS = 500_000
RECORD_TRIALS = 20_000
SWEEP_TAUS = 41
SWEEP_N = tuple(int(n) for n in np.unique(np.round(np.geomspace(1, 2000, 70))))
HOM_POINTS = 10_001
CHSH_EVENTS = 1_000_000

# Stream seed of the dense workload's nonzero-latency invocation.  It is
# fixed so that the operation that fails today (its closed form leaves
# out the latency) has inputs that do not depend on --seed.
DENSE_LATENCY_STREAM_SEED = 703188
DENSE_LATENCY_NS = 1500.0


def _source(gamma0=0.08, p_as=2.0e-3, eta_as=None, chi=None, dark=0.0) -> dict:
    return {"gamma0": gamma0, "p_as": p_as, "eta_as": eta_as, "chi": chi, "dark": dark}


def _protocol(a, b, n=12, dt_write=800.0, dt_read=400.0, tau_us=12.0,
              decay="gaussian_half", latency=0.0) -> dict:
    return {"a": a, "b": b, "n": n, "dt_write": dt_write, "dt_read": dt_read,
            "tau_us": tau_us, "decay": decay, "latency": latency}


DEFAULT_PROTOCOL = _protocol(_source(), _source())

DENSE_SOURCES = (
    _source(gamma0=0.5, p_as=0.2, eta_as=0.5, dark=1e-3),
    _source(gamma0=0.45, p_as=0.25, eta_as=0.6, dark=2e-3),
)


def _protocol_keys(proto: dict) -> list[str]:
    lines = [
        f"protocol.n_write_max = {proto['n']}",
        f"protocol.dt_write_ns = {proto['dt_write']!r}",
        f"protocol.dt_read_ns = {proto['dt_read']!r}",
        f"protocol.tau_c_us = {proto['tau_us']!r}",
        f"protocol.decay_model = {proto['decay']}",
        f"protocol.latency_ns = {proto['latency']!r}",
    ]
    for tag in ("a", "b"):
        src = proto[tag]
        lines.append(f"protocol.source_{tag}.gamma0 = {src['gamma0']!r}")
        lines.append(f"protocol.source_{tag}.dark_click_prob = {src['dark']!r}")
        for key in ("p_as", "eta_as", "chi"):
            if src[key] is not None:
                lines.append(f"protocol.source_{tag}.{key} = {src[key]!r}")
    return lines


def _config(scenario: str, lines: list[str]) -> str:
    # output_path is appended by the runner, which owns the directories.
    return "\n".join([f"scenario = {scenario}", *lines]) + "\n"


def _campaign_op(label, proto, trials, stream_seed, record=False) -> dict:
    lines = [f"seed = {stream_seed}", f"trials = {trials}", *_protocol_keys(proto)]
    if record:
        lines.append("protocol_sim.record_trials = true")
    p4c = ref.four_fold(proto)
    expect = {
        "kind": "records" if record else "campaign",
        "trials": trials,
        "p4c": p4c,
        "closed_form": p4c,
        "n": proto["n"],
        "dt_write": proto["dt_write"],
        "min_hold": proto["dt_read"] + 2.0 * proto["latency"],
        "herald_a": ref.node_herald_fraction(proto["a"], proto["n"]),
        "herald_b": ref.node_herald_fraction(proto["b"], proto["n"]),
    }
    return {"label": label, "scenario": "protocol_sim",
            "config": _config("protocol_sim", lines), "expect": expect}


def _campaign_sparse(rng: random.Random) -> list[dict]:
    return [
        _campaign_op(f"sparse-{k}", DEFAULT_PROTOCOL, SPARSE_TRIALS, rng.getrandbits(63))
        for k in range(SPARSE_INVOCATIONS)
    ]


def _campaign_dense(rng: random.Random) -> list[dict]:
    a, b = DENSE_SOURCES
    exponential = _protocol(a, b, tau_us=8.0, decay="exponential")
    gaussian = _protocol(a, b, tau_us=8.0, decay="gaussian_half")
    delayed = dict(exponential, latency=DENSE_LATENCY_NS)
    return [
        _campaign_op("dense-exponential", exponential, DENSE_TRIALS, rng.getrandbits(63)),
        _campaign_op("dense-gaussian", gaussian, DENSE_TRIALS, rng.getrandbits(63)),
        _campaign_op("dense-latency", delayed, DENSE_TRIALS, DENSE_LATENCY_STREAM_SEED),
    ]


def _records(rng: random.Random) -> list[dict]:
    return [_campaign_op("records", DEFAULT_PROTOCOL, RECORD_TRIALS, rng.getrandbits(63),
                         record=True)]


def _analytic(rng: random.Random) -> list[dict]:
    src_a = _source(gamma0=rng.uniform(0.05, 0.12), p_as=rng.uniform(1e-3, 4e-3),
                    eta_as=rng.uniform(0.3, 0.6))
    src_b = _source(gamma0=rng.uniform(0.05, 0.12), p_as=rng.uniform(1e-3, 4e-3),
                    eta_as=rng.uniform(0.3, 0.6))
    proto = _protocol(src_a, src_b)
    spacing = 38.0 / (SWEEP_TAUS - 1)
    taus = [2.0 + spacing * (k + rng.uniform(-0.3, 0.3)) for k in range(SWEEP_TAUS)]
    sweep_rows = []
    for tau in taus:
        point = dict(proto, tau_us=tau)
        base = ref.single_shot(point)
        sweep_rows.extend(
            [tau, n, p / base] for n, p in zip(SWEEP_N, ref.four_fold_by_n(point, SWEEP_N))
        )
    sweep_lines = [
        *_protocol_keys(proto),
        "enhancement.tau_c_us_list = " + ",".join(repr(t) for t in taus),
        "enhancement.n_write_max_list = " + ",".join(str(n) for n in SWEEP_N),
    ]
    feedback, baseline = ref.four_fold(proto), ref.single_shot(proto)
    ops = [{
        "label": "sweep", "scenario": "enhancement",
        "config": _config("enhancement", sweep_lines),
        "expect": {"kind": "sweep", "rows": sweep_rows, "p4c_feedback": feedback,
                   "p4c_no_feedback": baseline, "enhancement": feedback / baseline},
    }]

    alpha1, alpha2 = rng.uniform(0.05, 0.3), rng.uniform(0.05, 0.3)
    p1, p2 = rng.uniform(0.5, 1.5), rng.uniform(0.5, 1.5)
    fwhm = rng.uniform(15.0, 40.0)
    shared = [f"hom.alpha1 = {alpha1!r}", f"hom.alpha2 = {alpha2!r}", f"hom.p_i1 = {p1!r}",
              f"hom.p_i2 = {p2!r}", f"hom.coherence_fwhm_ns = {fwhm!r}",
              f"hom.points = {HOM_POINTS}"]
    half_ns = 3.0 * fwhm
    half_mhz = rng.uniform(20.0, 60.0)
    for domain, half_key, half in (("time", "hom.half_range_ns", half_ns),
                                   ("frequency", "hom.half_range_mhz", half_mhz)):
        lines = [*shared, f"hom.domain = {domain}", f"{half_key} = {half!r}"]
        ops.append({
            "label": f"hom-{domain}", "scenario": "hom_scan",
            "config": _config("hom_scan", lines),
            "expect": {"kind": "hom", "domain": domain, "alpha1": alpha1, "alpha2": alpha2,
                       "p1": p1, "p2": p2, "fwhm_ns": fwhm, "half": half,
                       "points": HOM_POINTS},
        })

    c_alpha1, c_alpha2 = rng.uniform(0.05, 0.3), rng.uniform(0.05, 0.3)
    shared = [f"chsh.alpha1 = {c_alpha1!r}", f"chsh.alpha2 = {c_alpha2!r}"]
    weights = ref.state_weights(c_alpha1, c_alpha2, 1.0, 1.0)
    angles = [(0.0, 67.5), (0.0, 22.5), (45.0, 67.5), (45.0, 22.5)]
    es = [ref.correlation(weights, t1, t2) for t1, t2 in angles]
    expect = {"angles": angles, "weights": weights, "e": es, "s": ref.chsh_s(es)}
    ops.append({"label": "chsh-analytic", "scenario": "chsh",
                "config": _config("chsh", [*shared, "chsh.mode = analytic"]),
                "expect": {"kind": "chsh_analytic", **expect}})
    sampled = [*shared, "chsh.mode = sampled", f"chsh.n_events = {CHSH_EVENTS}",
               f"seed = {rng.getrandbits(63)}"]
    ops.append({"label": "chsh-sampled", "scenario": "chsh",
                "config": _config("chsh", sampled),
                "expect": {"kind": "chsh_sampled", "n_events": CHSH_EVENTS, **expect}})
    return ops


_BUILDERS = {
    "campaign_sparse": _campaign_sparse,
    "campaign_dense": _campaign_dense,
    "records": _records,
    "analytic": _analytic,
}


def build(workload: str, seed: int) -> list[dict]:
    """The operations of one round of ``workload`` for benchmark seed ``seed``."""
    return _BUILDERS[workload](random.Random(f"{workload}:{seed}"))
