"""Outside-in layer trace: spans recorded around calls into heraldsync.

``install`` replaces public functions with recording wrappers in the
namespaces where ``heraldsync.cli`` and ``heraldsync.runner`` look them up
(and ``solve_chi_for_herald`` where ``SourceParams`` does).  Each span is
``[name, start, end, parent, round, rss_growth_kib, work, useful]``:
``parent`` indexes the span that was open when it started,
``rss_growth_kib`` is the rise of the process's peak RSS while it was
open, ``work`` counts trials simulated or bytes written, and ``useful``
the jointly heralded trials of a recorded campaign.  Spans stay in memory
until ``dump``.

A layer's time is its spans' self time: duration minus the time covered
by the traced spans nested in it, so the layer times of a round add up to
the round's traced wall time.
"""

from __future__ import annotations

import json
import resource
import statistics
import time
from pathlib import Path

import numpy as np

# name -> (module attribute paths, whether to sample peak RSS)
LAYERS = {
    "cli.main": ((), True),
    "config.parse": ((("cli", "parse_config"),), True),
    "runner.run_scenario": ((("cli", "run_scenario"),), True),
    "runner.emit": ((("cli", "emit_outputs"),), True),
    "protocol.closed_form": (
        (("runner", "enhancement_factor"), ("runner", "p4c_feedback_closed_form"),
         ("runner", "p4c_no_feedback")),
        True,
    ),
    "protocol.campaign": ((("runner", "simulate_campaign"),), True),
    "protocol.records": ((("runner", "simulate_campaign_records"),), True),
    "interference.hom_scan": ((("runner", "hom_scan"), ("runner", "hom_coincidence")), True),
    "interference.chsh": (
        (("runner", "effective_state"), ("runner", "correlation"),
         ("runner", "chsh_from_correlations"), ("runner", "sample_chsh_experiment")),
        True,
    ),
    # Called about four times per sweep point; the peak RSS is not sampled
    # to keep the overhead down.
    "photon_stats.solve_chi": ((("photon_stats", "solve_chi_for_herald"),), False),
}

MB = 1e6


def _peak_rss_kib() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _emitted_bytes(args) -> int:
    out = Path(args[2])
    return sum(p.stat().st_size for p in (out / "summary.json", out / "table.csv") if p.exists())


def _joint_heralds(records) -> int:
    return int(np.count_nonzero((records["herald_a"] >= 0) & (records["herald_b"] >= 0)))


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.round = 0
        self._open: list[int] = []

    def wrap(self, name: str, fn, sample_rss: bool = True):
        spans, stack = self.spans, self._open

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.round, 0, 0, 0]
            spans.append(span)
            stack.append(index)
            rss = _peak_rss_kib() if sample_rss else 0
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                if sample_rss:
                    span[5] = _peak_rss_kib() - rss
            if name in ("protocol.campaign", "protocol.records"):
                span[6] = int(args[1])
            if name == "protocol.records":
                span[7] = _joint_heralds(result[1])
            elif name == "runner.emit":
                span[6] = _emitted_bytes(args)
            return result

        return traced

    def install(self, modules: dict) -> None:
        """Wrap every traced function in ``modules`` (short name -> module)."""
        for name, (targets, sample_rss) in LAYERS.items():
            for module, attr in targets:
                setattr(modules[module], attr, self.wrap(name, getattr(modules[module], attr),
                                                         sample_rss))

    def dump(self, path: Path) -> None:
        """Write the spans as JSON, times in integer microseconds from the first."""
        names = sorted(LAYERS)
        index = {n: k for k, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[index[s[0]], int((s[1] - t0) * 1e6), int((s[2] - t0) * 1e6), *s[3:]]
                for s in self.spans]
        path.write_text(json.dumps({"names": names, "fields": [
            "name", "start_us", "end_us", "parent", "round", "rss_growth_kib", "work", "useful"],
            "spans": rows}, separators=(",", ":")))


def round_layers(spans: list[list]) -> dict[int, dict[str, dict[str, float]]]:
    """Per round and layer: self time, calls, RSS growth (self) and work."""
    self_time = [s[2] - s[1] for s in spans]
    self_rss = [s[5] for s in spans]
    for s in spans:
        if s[3] >= 0:
            self_time[s[3]] -= s[2] - s[1]
            self_rss[s[3]] -= s[5]
    out: dict[int, dict[str, dict[str, float]]] = {}
    for k, s in enumerate(spans):
        layer = out.setdefault(s[4], {}).setdefault(
            s[0], {"s": 0.0, "calls": 0, "rss_kib": 0, "work": 0, "useful": 0})
        layer["s"] += self_time[k]
        layer["calls"] += 1
        layer["rss_kib"] += self_rss[k]
        layer["work"] += s[6]
        layer["useful"] += s[7]
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(workers: list[dict]) -> dict[str, float]:
    """Per-layer metrics from the workers' per-round layer tables.

    A layer's time and counts are medians per round over all rounds of
    all workers; rates divide the two.  RSS growth is the rise of the peak
    during a worker's first round, median over workers.  Layers a workload
    does not reach read 0.
    """
    rounds = [r for w in workers for r in w["layers"]]

    def count(layer: str, field: str = "calls") -> float:
        return statistics.median(r.get(layer, {}).get(field, 0) for r in rounds)

    def time_s(layer: str) -> float:
        return count(layer, "s")

    def rss_growth_mb(layer: str) -> float:
        # First rounds only: later rises of the peak come from the growing
        # span list, not from the program.
        return statistics.median(
            w["layers"][0].get(layer, {}).get("rss_kib", 0) * 1024 / MB for w in workers)

    def import_s(field: str) -> float:
        return statistics.median(x for w in workers for x in w[field])

    return {
        "import.numpy_s": import_s("import_numpy_s"),
        "import.heraldsync_s": import_s("import_heraldsync_s"),
        "cli.self_s": time_s("cli.main"),
        "config.parse_s": time_s("config.parse"),
        "config.parse_calls": count("config.parse"),
        "photon_stats.solve_chi_s": time_s("photon_stats.solve_chi"),
        "photon_stats.solve_chi_calls": count("photon_stats.solve_chi"),
        "protocol.closed_form_s": time_s("protocol.closed_form"),
        "protocol.closed_form_calls": count("protocol.closed_form"),
        "protocol.closed_form_points_per_s": _ratio(
            count("protocol.closed_form"), time_s("protocol.closed_form")),
        "protocol.campaign_s": time_s("protocol.campaign"),
        "protocol.campaign_trials_per_s": _ratio(
            count("protocol.campaign", "work"), time_s("protocol.campaign")),
        "protocol.records_s": time_s("protocol.records"),
        "protocol.records_trials_per_s": _ratio(
            count("protocol.records", "work"), time_s("protocol.records")),
        "protocol.records_rss_growth_mb": rss_growth_mb("protocol.records"),
        "protocol.joint_herald_ratio": _ratio(
            count("protocol.records", "useful"), count("protocol.records", "work")),
        "interference.hom_scan_s": time_s("interference.hom_scan"),
        "interference.chsh_s": time_s("interference.chsh"),
        "runner.self_s": time_s("runner.run_scenario"),
        "runner.self_rss_growth_mb": rss_growth_mb("runner.run_scenario"),
        "runner.emit_s": time_s("runner.emit"),
        "runner.emit_mb": count("runner.emit", "work") / MB,
        "runner.emit_mb_per_s": _ratio(count("runner.emit", "work") / MB, time_s("runner.emit")),
        "runner.emit_rss_growth_mb": rss_growth_mb("runner.emit"),
    }
