"""Scenario orchestration and machine-readable output.

Every scenario produces a JSON summary (headline metrics plus a
provenance block) and, where applicable, a CSV data table.  Output bytes
are a pure function of the (config, seed) pair.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Iterable

import numpy as np

from . import __version__
from .config import ChshMode, RunConfig, Scenario
from .interference import (
    ScanDomain,
    chsh_from_correlations,
    correlation,
    effective_state,
    hom_coincidence,
    hom_scan,
    sample_chsh_experiment,
)
from .protocol import (
    TRIAL_RECORD_DTYPE,
    CampaignRecords,
    enhancement_factor,
    p4c_feedback_by_n,
    p4c_feedback_closed_form,
    p4c_no_feedback,
    simulate_campaign,
    simulate_campaign_records,  # unused; the layer trace wraps it in this namespace
)

__all__ = ["RunSummary", "DataTable", "run_scenario", "emit_outputs"]

SUMMARY_FILE = "summary.json"
TABLE_FILE = "table.csv"


@dataclass(frozen=True)
class RunSummary:
    scenario: str
    metrics: dict[str, Any]
    config_hash: str
    seed: int
    version: str


@dataclass(frozen=True)
class DataTable:
    """A CSV table: a list of row tuples, or any other iterable of trial record
    blocks (``TRIAL_RECORD_DTYPE``, hold times following from the heralds as
    in :class:`CampaignRecords`), each formatted by column as it arrives."""

    columns: tuple[str, ...]
    rows: list[tuple] | Iterable[np.ndarray]


def _fmt(value: Any) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".10g")


def _record_lines(block: np.ndarray) -> str:
    """CSV lines of a block of trial records.

    Everything after the trial index is a function of (herald_a, herald_b,
    four_fold), since the hold times follow from the two heralds.  Each
    distinct suffix is formatted once and indexed per row.
    """
    # Ranking each herald column first keeps the joint key below
    # 2 * len(block)**2, whatever n_write_max is.
    _, rank_a = np.unique(block["herald_a"], return_inverse=True)
    values_b, rank_b = np.unique(block["herald_b"], return_inverse=True)
    key = (rank_a * values_b.size + rank_b) * 2 + block["four_fold"]
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    names = block.dtype.names[1:]
    suffixes = np.array(
        ["".join("," + _fmt(block[name][i]) for name in names) + "\n" for i in first.tolist()],
        dtype=object,
    )
    cells: list = [None] * (2 * block.size)
    cells[0::2] = block["trial"].tolist()
    cells[1::2] = suffixes[inverse].tolist()
    return ("%d%s" * block.size) % tuple(cells)


def _table_lines(rows: list[tuple]) -> str:
    """CSV lines of a generic table, formatted by column with one ``%``-format.

    A column of ints and bools takes ``%d`` and a column of floats
    ``%.10g``, both equal to :func:`_fmt`; a column mixing the two keeps
    per-cell ``_fmt``.
    """
    width = len(rows[0]) if rows else 0
    cells = [v for row in rows for v in row]
    specs = []
    for k in range(width):
        column = cells[k::width]
        ints = {issubclass(t, (int, np.integer, np.bool_)) for t in set(map(type, column))}
        specs.append("%d" if ints == {True} else "%.10g" if ints == {False} else "%s")
        if specs[-1] == "%s":
            cells[k::width] = [_fmt(v) for v in column]
    return ((",".join(specs) + "\n") * len(rows)) % tuple(cells)


def _run_enhancement(config: RunConfig) -> tuple[dict[str, Any], DataTable]:
    params = config.protocol
    taus = config.enhancement.tau_c_us_list or (params.tau_c_us,)
    ns = config.enhancement.n_write_max_list or (params.n_write_max,)
    rows = []
    for tau in taus:
        point = replace(params, tau_c_us=tau)
        baseline = p4c_no_feedback(point)
        if baseline == 0.0:
            raise ValueError("no-feedback coincidence probability is zero")
        column = (p4c_feedback_by_n(point, ns) / baseline).tolist()
        rows += [(tau, n, e) for n, e in zip(ns, column)]
    metrics = {
        "enhancement": enhancement_factor(params),
        "p4c_feedback": p4c_feedback_closed_form(params),
        "p4c_no_feedback": p4c_no_feedback(params),
    }
    return metrics, DataTable(("tau_c_us", "n_write_max", "enhancement"), rows)


def _run_hom_scan(config: RunConfig) -> tuple[dict[str, Any], DataTable]:
    hom = config.hom
    if hom.domain is ScanDomain.TIME:
        half, abscissa_name, fwhm_name = hom.half_range_ns, "delay_ns", "fwhm_ns"
    else:
        half, abscissa_name, fwhm_name = hom.half_range_mhz, "detuning_mhz", "fwhm_mhz"
    grid = np.linspace(-half, half, hom.points)
    scan = hom_scan(
        hom.alpha1, hom.alpha2, hom.p_i1, hom.p_i2, hom.coherence_fwhm_ns, hom.domain, grid
    )
    dip = hom_coincidence(hom.alpha1, hom.alpha2, hom.p_i1, hom.p_i2, overlap=1.0)
    rows = list(zip(scan.abscissa.tolist(), scan.coincidence.tolist(), [scan.plateau] * grid.size))
    metrics = {
        "visibility": dip.visibility,
        "c_plat": dip.c_plat,
        "c_dip": dip.c_dip,
        fwhm_name: scan.dip_fwhm,
    }
    return metrics, DataTable((abscissa_name, "coincidence", "plateau"), rows)


def _run_chsh(config: RunConfig) -> tuple[dict[str, Any], DataTable]:
    chsh = config.chsh
    state = effective_state(chsh.alpha1, chsh.alpha2, chsh.p_i1, chsh.p_i2)
    pairs = chsh.settings.pairs()
    if chsh.mode is ChshMode.ANALYTIC:
        es = [correlation(state, t1, t2) for t1, t2 in pairs]
        result = chsh_from_correlations(*es)
        rows = [(t1, t2, e) for (t1, t2), e in zip(pairs, result.e)]
        metrics = {
            "s": result.s,
            "w_singlet": state.w_singlet,
            "w_hh": state.w_hh,
            "w_vv": state.w_vv,
        }
        return metrics, DataTable(("theta1_deg", "theta2_deg", "e"), rows)
    result = sample_chsh_experiment(state, chsh.settings, chsh.n_events, config.seed)
    rows = [
        (t1, t2, *counts, e, sigma)
        for (t1, t2), counts, e, sigma in zip(pairs, result.counts, result.e, result.sigma_e)
    ]
    metrics = {
        "s": result.s,
        "sigma_s": result.sigma_s,
        "n_sigma": result.n_sigma,
        "n_events_per_setting": chsh.n_events,
    }
    columns = ("theta1_deg", "theta2_deg", "n_pp", "n_pm", "n_mp", "n_mm", "e", "sigma_e")
    return metrics, DataTable(columns, rows)


def _run_protocol_sim(config: RunConfig) -> tuple[dict[str, Any], DataTable | None]:
    params = config.protocol
    stats = simulate_campaign(params, config.trials, config.seed)
    metrics = {
        "p4c_hat": stats.p4c_hat,
        "p4c_closed_form": p4c_feedback_closed_form(params),
        "std_err": stats.std_err,
        "four_fold_count": stats.four_fold_count,
        "trials": stats.trials,
    }
    records = CampaignRecords(params, config.trials, config.seed)
    return metrics, DataTable(TRIAL_RECORD_DTYPE.names, records) if config.record_trials else None


def run_scenario(config: RunConfig) -> tuple[RunSummary, DataTable | None]:
    """Dispatch the configured scenario and collect its outputs."""
    runners = {
        Scenario.ENHANCEMENT: _run_enhancement,
        Scenario.HOM_SCAN: _run_hom_scan,
        Scenario.CHSH: _run_chsh,
        Scenario.PROTOCOL_SIM: _run_protocol_sim,
    }
    try:
        metrics, table = runners[config.scenario](config)
    except ValueError as exc:
        raise ValueError(f"{config.scenario.value}: {exc}") from exc
    summary = RunSummary(
        scenario=config.scenario.value,
        metrics=metrics,
        config_hash=config.config_hash,
        seed=config.seed,
        version=__version__,
    )
    return summary, table


def emit_outputs(summary: RunSummary, table: DataTable | None, path: str | Path) -> None:
    """Write summary.json (and table.csv when present) under ``path``.

    LF newlines; floats carry at least six significant digits.  Tables are
    formatted by column, a trial record table one block at a time.
    """
    out_dir = Path(path)
    out_dir.mkdir(parents=True, exist_ok=True)
    metrics = {
        k: (v if not isinstance(v, float) or np.isfinite(v) else str(v))
        for k, v in summary.metrics.items()
    }
    doc = {
        "scenario": summary.scenario,
        "metrics": metrics,
        "config_hash": summary.config_hash,
        "seed": summary.seed,
        "version": summary.version,
    }
    text = json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"
    (out_dir / SUMMARY_FILE).write_bytes(text.encode("utf-8"))
    if table is None:
        return
    with (out_dir / TABLE_FILE).open("w", encoding="utf-8", newline="\n") as out:
        out.write(",".join(table.columns) + "\n")
        if isinstance(table.rows, list):
            out.write(_table_lines(table.rows))
        else:
            out.writelines(map(_record_lines, table.rows))
