"""Scenario orchestration and machine-readable output.

Every scenario produces a JSON summary (headline metrics plus a
provenance block) and, where applicable, a CSV data table.  Output bytes
are a pure function of the (config, seed) pair.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
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
    enhancement_factor,  # unused; the layer trace wraps it in this namespace
    p4c_feedback_by_n,
    p4c_feedback_closed_form,
    p4c_no_feedback,
    simulate_campaign,
    simulate_campaign_records,  # unused; the layer trace wraps it in this namespace
)

__all__ = ["run_scenario", "emit_outputs"]

SUMMARY_FILE = "summary.json"
TABLE_FILE = "table.csv"
_COUNT_SPAN = 4


def _distinct(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct ``values`` and each one's index among them.

    As ``np.unique(values, return_inverse=True)``, which it calls unless the
    values span at most ``_COUNT_SPAN`` times their number: then a table of
    present flags over the span, and its running count, replace the sort.
    """
    values = np.ascontiguousarray(values)  # a record field is strided
    if values.size:
        lo = int(values.min())
        span = int(values.max()) - lo + 1
        if span <= _COUNT_SPAN * values.size:
            offset = values - lo
            present = np.zeros(span, dtype=bool)
            present[offset] = True
            return np.flatnonzero(present) + lo, (np.cumsum(present) - 1)[offset]
    return np.unique(values, return_inverse=True)


_BLOCK_ROWS = 2048


def _word(byte_values) -> int:
    """The little-endian int64 of these bytes; a byte may be negative, to cancel one."""
    return sum(value << 8 * k for k, value in enumerate(byte_values))


@functools.cache
def _digit_pairs() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Int64 words of the two digits of each of 0..99, adjacent and one byte
    apart, and of the leading zeros of a group in an int.

    The last table is indexed by what the int comes to down to the group,
    as a negative number clipped to -10..0: 0 cancels both digits, -9..-1
    (which wrap to the end of the table) the first, and -10 neither.
    """
    digits = [(48 + r // 10, 48 + r % 10) for r in range(100)]
    return (
        np.array([_word(d) for d in digits]),
        np.array([_word((d[0], 0, d[1])) for d in digits]),
        np.array([_word((-48, -48)), 0] + [_word((-48,))] * 9),
    )


@functools.cache
def _float_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Powers 10**k (k < 14), digits shown per group, and fixed-notation templates.

    A ten-digit mantissa shows ``shown[k, group]`` digits when its
    two-digit group k (first group first) is its last nonzero one.  Template
    ``(e + 4) * 11 + n`` is the frame of exponent e with n digits shown, as
    four int64 words: two NULs, a sign place, five places for the ``0.000``
    prefix of e < 0, then the ten digit places 8, 10, .., 26, the point of
    0 <= e < 9 between them.  A hidden digit place, a trailing zero after
    the point, holds -48, which cancels the '0'.
    """
    powers = np.array([float(10**k) for k in range(14)])
    shown = np.array([[v and 2 * k + 1 + (v % 10 > 0) for v in range(100)] for k in range(5)])
    templates = []
    for e in range(-4, 10):
        for n in range(11):
            row = [0] * 32
            if e < 0:
                row[3 : 4 - e] = b"0." + b"0" * (-e - 1)
            for j in range(max(n, e + 1), 10):
                row[8 + 2 * j] = -48
            if 0 <= e and e + 1 < n:
                row[9 + 2 * e] = 46
            templates.append([_word(row[k : k + 8]) for k in range(0, 32, 8)])
    return powers, shown, np.array(templates)


def _float_frame(values: np.ndarray) -> np.ndarray:
    """``'%.10g' % v`` of each float64 value, as rows of 25 NUL-padded bytes.

    A cell of decimal exponent e in [-4, 9] whose ten-digit mantissa is more
    than 1e-4 away from a rounding tie is written from that mantissa's
    digits; every other cell (zeros, non-finite values, exponent notation,
    near-ties) by ``'%.10g'`` itself.
    """
    powers, shown, templates = _float_tables()
    _, spread, _ = _digit_pairs()
    magnitude = np.abs(values)
    fast = (magnitude >= 1e-4) & (magnitude < 1e10)  # false for nan
    magnitude[~fast] = 1.0
    exponent = np.floor(np.log10(magnitude)).astype(np.intp).clip(-4, 9)
    scaled = magnitude * powers[9 - exponent]
    mantissa = np.rint(scaled)
    fast &= (mantissa >= 1e9) & (mantissa < 1e10) & (np.abs(scaled - mantissa) < 0.4999)
    mantissa[~fast] = 1e9
    groups = []
    rest = mantissa.astype(np.int64)
    for _ in range(5):
        higher = rest // 100
        groups.insert(0, rest - higher * 100)
        rest = higher
    n_shown = shown[0][groups[0]]
    for k in range(1, 5):
        np.maximum(n_shown, shown[k][groups[k]], out=n_shown)
    template = (exponent + 4) * 11 + n_shown
    words = np.take(templates, template, axis=0)
    words[:, 0] += np.where(values < 0, 45 << 16, 0)
    words[:, 1] += spread[groups[0]] + spread[groups[1]] * 2**32
    words[:, 2] += spread[groups[2]] + spread[groups[3]] * 2**32
    words[:, 3] += spread[groups[4]]
    frame = words.view(np.uint8)[:, 2:27]
    slow = np.flatnonzero(~fast)
    if slow.size:
        text = np.array(["%.10g" % v for v in values[slow].tolist()], dtype="S25")
        frame.view("V25")[slow, 0] = text.view("V25")
    return frame


def _int_frame(values: np.ndarray) -> np.ndarray:
    """``str(v)`` of each int64 value, as rows of NUL-padded bytes."""
    adjacent, _, leading = _digit_pairs()
    low = int(values.min())
    pairs = (len(str(max(-low, int(values.max())))) + 1) // 2
    # the two-digit groups of -|v|, which holds -2**63 too, computed last
    # group first, and what the value comes to down to each group
    upto = np.empty((pairs, values.size), dtype=np.int64)
    groups = np.empty_like(upto)
    rest = np.minimum(values, -values)
    for k in range(pairs - 1, -1, -1):
        upto[k] = rest
        rest = (rest + 99) // 100  # a ceiling division, as rest <= 0
        np.subtract(rest * 100, upto[k], out=groups[k])
    # the last group keeps its last digit, 0 for the value 0
    np.minimum(upto[-1], -1, out=upto[-1])
    chars = adjacent[groups] + leading[np.maximum(upto, -10)]
    # a NUL, a sign, then the groups: group k starts at byte 2 + 2k
    chars *= 256 ** ((2 + 2 * np.arange(pairs)) % 8)[:, None]
    words = np.empty((values.size, pairs // 4 + 1), dtype=np.int64)
    for word in range(words.shape[1]):
        words[:, word] = chars[max(4 * word - 1, 0) : 4 * word + 3].sum(axis=0)
    if low < 0:
        words[:, 0] += np.where(values < 0, 45 << 8, 0)
    return words.view(np.uint8)[:, 1 : 2 + 2 * pairs]


def _frames(columns: list) -> list:
    """Each column's rows of NUL-padded bytes; one unpadded row for a broadcast one.

    The float columns go through :func:`_float_frame` in one call, and the
    int and bool columns through :func:`_int_frame`; a column that
    broadcasts one value (``strides == (0,)``) puts only that value in.
    """
    frames = [None] * len(columns)
    for kinds, dtype, kernel in (("f", np.float64, _float_frame), ("bi", np.int64, _int_frame)):
        at = [k for k, column in enumerate(columns) if column.dtype.kind in kinds]
        if at:
            parts = [columns[k][:1] if columns[k].strides == (0,) else columns[k] for k in at]
            framed = kernel(np.concatenate(parts, dtype=dtype))
            for k, part in zip(at, parts):
                frames[k], framed = framed[: part.size], framed[part.size :]
    for k, column in enumerate(columns):
        if column.strides == (0,):
            frames[k] = frames[k][:, frames[k][0] > 0]
    return frames


def _lines(frames: list, rows: int) -> bytes:
    """CSV lines of ``rows`` rows given by each column's frame.

    The frames go into one byte array, each followed by a ``,`` or, after
    the last, a newline, and one ``translate`` drops the NUL padding.
    """
    out = np.empty((rows, sum(frame.shape[1] + 1 for frame in frames)), dtype=np.uint8)
    at = 0
    for frame in frames:
        width = frame.shape[1]
        out[:, at : at + width].view(f"V{width}")[:, 0] = frame.view(f"V{width}")[:, 0]
        out[:, at + width] = 44
        at += width + 1
    out[:, -1] = 10
    return out.tobytes().translate(None, b"\0")


def _table_blocks(names: tuple, columns: list):
    """CSV lines of a generic table given by column, a block of rows at a time;
    the columns are checked on the call, before any block is formed.

    Each column is taken as one numpy array of bool, int or float cells; any
    other kind raises ``TypeError``, as does a list of ints that
    ``np.asarray`` rounds to float64 (one at 2**63 or beyond among smaller
    ones).  A list that mixes ints and floats is float64.  Columns of
    another shape than the first one's ``(n,)``, or another number of them
    than of ``names``, raise ``ValueError``.
    """
    arrays = [np.asarray(column) for column in columns]
    for column, array in zip(columns, arrays):
        if array.dtype.kind == "f" and not isinstance(column, np.ndarray):
            if not any(isinstance(cell, (float, np.floating)) for cell in column):
                raise TypeError("a table column of ints must type as int64, got float64")
        if array.dtype.kind not in "bif":
            raise TypeError(f"a table column must be bool, int64 or float64, got {array.dtype}")
    shapes = list(map(np.shape, arrays))
    size = arrays[0].size if arrays else 0
    if len(names) != len(arrays) or set(shapes) - {(size,)}:
        raise ValueError(f"table names {names} do not fit columns of shapes {shapes}")
    blocks = ([a[lo : lo + _BLOCK_ROWS] for a in arrays] for lo in range(0, size, _BLOCK_ROWS))
    return (_lines(_frames(block), len(block[0])) for block in blocks)


def _record_blocks(lo: int, m: int, run):
    """CSV lines of the trial records lo to lo + m - 1, a block of rows at a time.

    ``run`` holds the heralded trials among them, one column per record
    field sorted by trial, as :meth:`CampaignRecords.heralded` gives them;
    every other trial heralded on neither node.  Everything after the trial
    index is a function of (herald_a, herald_b, four_fold), since the hold
    times follow from the two heralds.  The rows, and one unheralded row
    after them, are ranked by one key of the three, and each distinct
    suffix goes through the frame kernels once; a block starts every row at
    the unheralded suffix and puts each heralded row's own in its place.
    """
    trials, herald_a, herald_b, *_, four_fold = run
    # heralds lie in [-1, span - 2], so the key stays below 2 * span**2; the
    # unheralded row, key 0, comes last
    span = int(max(herald_a.max(initial=-1), herald_b.max(initial=-1))) + 2
    keys, inverse = _distinct(np.append(((herald_a + 1) * span + herald_b + 1) * 2 + four_fold, 0))
    row = np.empty(keys.size, dtype=np.intp)
    row[inverse] = np.arange(inverse.size)
    # no heralded row has key 0, so the unheralded row is the first distinct one
    fills = (-1, -1, np.nan, np.nan, False)
    cells = [np.append(fill, column[row[1:]]) for column, fill in zip(run[1:], fills)]
    suffixes = _lines(_frames(cells), keys.size).split(b"\n")[:-1]
    # as int64 words, so that the gather per row copies whole words
    width = max(map(len, suffixes))
    words = np.array(suffixes, dtype=f"S{-(-width // 8) * 8}").view(np.int64)
    words = words.reshape(keys.size, -1)
    for start in range(lo, lo + m, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, lo + m)
        i, j = np.searchsorted(trials, (start, stop)).tolist()
        index = np.full(stop - start, inverse[-1])
        index[trials[i:j] - start] = inverse[i:j]
        suffix = np.take(words, index, axis=0).view(np.uint8)[:, :width]
        yield _lines([_int_frame(np.arange(start, stop)), suffix], stop - start)


def _run_enhancement(config: RunConfig) -> tuple[dict[str, Any], tuple]:
    params = config.protocol
    taus, ns = config.tau_c_us_list, config.n_write_max_list
    baselines, baseline = p4c_no_feedback(params, taus), p4c_no_feedback(params)
    if not (baselines.all() and baseline):
        raise ValueError("no-feedback coincidence probability is zero")
    grid = p4c_feedback_by_n(params, taus, ns) / baselines[:, None]
    columns = [np.repeat(taus, len(ns)), np.tile(ns, len(taus)), grid.ravel()]
    # the derived ratio comes last, so that a non-finite input is named first
    feedback = p4c_feedback_closed_form(params)
    metrics = {
        "p4c_feedback": feedback,
        "p4c_no_feedback": baseline,
        "enhancement": feedback / baseline,
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
    columns = [grid, coincidence, np.broadcast_to(dip.c_plat, grid.shape)]
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

    The table is None or ``(names, data)``, the data a list of columns, each
    a bool, int64 or float64 array or a list numpy types as one, or, for
    the trial records, a :class:`CampaignRecords`, which draws the
    campaign again each time it is read.  A non-finite metric
    raises, except an infinite ``n_sigma`` (an exact S
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
    formatted by column, a block of rows at a time, every cell by
    :func:`_float_frame` or :func:`_int_frame`; a column of any other numpy
    kind raises ``TypeError``, and columns that differ in shape or from the
    names in number ``ValueError``, before any file is written.  A
    :class:`CampaignRecords` table is written one substream at a time from
    its heralded trials (:func:`_record_blocks`), with no per-trial record.
    """
    names, data = table or ((), [])
    if isinstance(data, CampaignRecords):
        blocks = itertools.chain.from_iterable(itertools.starmap(_record_blocks, data.heralded()))
    else:
        blocks = _table_blocks(names, data)
    text = json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"
    out_dir = Path(path)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / SUMMARY_FILE).write_bytes(text.encode("utf-8"))
    if table is None:
        return
    with (out_dir / TABLE_FILE).open("wb") as out:
        out.write((",".join(names) + "\n").encode())
        out.writelines(blocks)
