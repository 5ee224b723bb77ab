"""Scenario orchestration and machine-readable output.

Every scenario produces a JSON summary (headline metrics plus a
provenance block) and, where applicable, a CSV data table.  Output bytes
are a pure function of the (config, seed) pair.
"""

from __future__ import annotations

import json
import math
from dataclasses import replace
from pathlib import Path
from typing import Any

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

__all__ = ["run_scenario", "emit_outputs"]

SUMMARY_FILE = "summary.json"
TABLE_FILE = "table.csv"


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


def _table_lines(columns: list) -> str:
    """CSV lines of a generic table given by column, with one ``%``-format.

    Int and bool columns take ``%d``, float columns ``%.10g`` (both equal to
    :func:`_fmt`) and mixed ones per-cell ``_fmt``; a column holding one object
    in every cell (the HOM plateau) is formatted once, into the line template.
    """
    size = len(columns[0]) if columns else 0
    specs, varying = [], []
    for column in columns:
        if size and all(v is column[0] for v in column):
            specs.append(_fmt(column[0]))
            continue
        ints = {issubclass(t, (int, np.integer, np.bool_)) for t in set(map(type, column))}
        specs.append("%d" if ints == {True} else "%.10g" if ints == {False} else "%s")
        varying.append([_fmt(v) for v in column] if specs[-1] == "%s" else column)
    cells: list = [None] * (size * len(varying))
    for k, column in enumerate(varying):
        cells[k :: len(varying)] = column
    return ((",".join(specs) + "\n") * size) % tuple(cells)


def _run_enhancement(config: RunConfig) -> tuple[dict[str, Any], tuple]:
    params = config.protocol
    taus = config.enhancement.tau_c_us_list or (params.tau_c_us,)
    ns = config.enhancement.n_write_max_list or (params.n_write_max,)
    baselines = np.array([p4c_no_feedback(replace(params, tau_c_us=tau)) for tau in taus])
    if not baselines.all():
        raise ValueError("no-feedback coincidence probability is zero")
    grid = p4c_feedback_by_n(params, taus, ns) / baselines[:, None]
    columns = [np.repeat(taus, len(ns)).tolist(), list(ns) * len(taus), grid.ravel().tolist()]
    metrics = {
        "enhancement": enhancement_factor(params),
        "p4c_feedback": p4c_feedback_closed_form(params),
        "p4c_no_feedback": p4c_no_feedback(params),
    }
    return metrics, (("tau_c_us", "n_write_max", "enhancement"), columns)


def _run_hom_scan(config: RunConfig) -> tuple[dict[str, Any], tuple]:
    hom = config.hom
    if hom.domain is ScanDomain.TIME:
        half, abscissa_name, fwhm_name = hom.half_range_ns, "delay_ns", "fwhm_ns"
    else:
        half, abscissa_name, fwhm_name = hom.half_range_mhz, "detuning_mhz", "fwhm_mhz"
    grid = np.linspace(-half, half, hom.points)
    coincidence, dip_fwhm = hom_scan(
        hom.alpha1, hom.alpha2, hom.p_i1, hom.p_i2, hom.coherence_fwhm_ns, hom.domain, grid
    )
    dip = hom_coincidence(hom.alpha1, hom.alpha2, hom.p_i1, hom.p_i2, overlap=1.0)
    columns = [grid.tolist(), coincidence.tolist(), [dip.c_plat] * grid.size]
    metrics = {
        "visibility": dip.visibility,
        "c_plat": dip.c_plat,
        "c_dip": dip.c_dip,
        fwhm_name: dip_fwhm,
    }
    return metrics, ((abscissa_name, "coincidence", "plateau"), columns)


def _run_chsh(config: RunConfig) -> tuple[dict[str, Any], tuple]:
    chsh = config.chsh
    state = effective_state(chsh.alpha1, chsh.alpha2, chsh.p_i1, chsh.p_i2)
    pairs = chsh.settings.pairs()
    if chsh.mode is ChshMode.ANALYTIC:
        es = [correlation(state, t1, t2) for t1, t2 in pairs]
        metrics = {
            "s": chsh_from_correlations(*es)[0],
            "w_singlet": state.w_singlet,
            "w_hh": state.w_hh,
            "w_vv": state.w_vv,
        }
        return metrics, (("theta1_deg", "theta2_deg", "e"), [*zip(*pairs), es])
    counts, es, sigma_e = sample_chsh_experiment(state, chsh.settings, chsh.n_events, config.seed)
    s, sigma_s, n_sigma = chsh_from_correlations(*es, sigmas=sigma_e)
    metrics = {
        "s": s,
        "sigma_s": sigma_s,
        "n_sigma": n_sigma,
        "n_events_per_setting": chsh.n_events,
    }
    names = ("theta1_deg", "theta2_deg", "n_pp", "n_pm", "n_mp", "n_mm", "e", "sigma_e")
    return metrics, (names, [*zip(*pairs), *zip(*counts), es, sigma_e])


def _run_protocol_sim(config: RunConfig) -> tuple[dict[str, Any], tuple | None]:
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
    return metrics, (TRIAL_RECORD_DTYPE.names, records) if config.record_trials else None


def run_scenario(config: RunConfig) -> tuple[dict[str, Any], tuple | None]:
    """Run the configured scenario: its summary.json document and its table.

    The table is None or ``(names, data)``, the data a list of columns or
    any other iterable of trial record blocks (``TRIAL_RECORD_DTYPE``, hold
    times following from the heralds as in :class:`CampaignRecords`).  A
    non-finite metric raises, except an infinite ``n_sigma`` (an exact S
    away from 2), which the document carries as the string ``"inf"`` or
    ``"-inf"``.
    """
    runners = {
        Scenario.ENHANCEMENT: _run_enhancement,
        Scenario.HOM_SCAN: _run_hom_scan,
        Scenario.CHSH: _run_chsh,
        Scenario.PROTOCOL_SIM: _run_protocol_sim,
    }
    try:
        metrics, table = runners[config.scenario](config)
        for key, value in metrics.items():
            if isinstance(value, float) and not math.isfinite(value):
                if key != "n_sigma" or math.isnan(value):
                    raise ValueError(f"metric {key} is not finite, got {value}")
                metrics[key] = str(value)
    except ValueError as exc:
        raise ValueError(f"{config.scenario.value}: {exc}") from exc
    doc = {
        "scenario": config.scenario.value,
        "metrics": metrics,
        "config_hash": config.config_hash,
        "seed": config.seed,
        "version": __version__,
    }
    return doc, table


def emit_outputs(doc: dict[str, Any], table: tuple | None, path: str | Path) -> None:
    """Write summary.json (and table.csv when present) under ``path``.

    LF newlines; floats carry at least six significant digits.  Tables are
    formatted by column, a trial record table one block at a time.
    """
    out_dir = Path(path)
    out_dir.mkdir(parents=True, exist_ok=True)
    text = json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"
    (out_dir / SUMMARY_FILE).write_bytes(text.encode("utf-8"))
    if table is None:
        return
    names, data = table
    with (out_dir / TABLE_FILE).open("w", encoding="utf-8", newline="\n") as out:
        out.write(",".join(names) + "\n")
        if isinstance(data, list):
            out.write(_table_lines(data))
        else:
            out.writelines(map(_record_lines, data))
