"""Checks of one CLI invocation's outputs against the expected values.

``check`` returns a list of problems; an empty list means the operation
passed.  Monte Carlo results are tested with exact binomial tails at
``TAIL_PROB`` (about 6 standard errors), so a correct program fails a
check with negligible probability for any seed.  Deterministic values
are compared at the printed precision: table.csv carries 10 significant
digits, summary.json full doubles.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

import reference as ref

TAIL_PROB = 1e-9
CSV_RTOL = 2e-9  # ten printed significant digits, rounded
JSON_RTOL = 1e-9  # reference and closed form sum in different orders
CHSH_SIGMAS = 6.0

RECORD_COLUMNS = "trial,herald_a,herald_b,hold_a_ns,hold_b_ns,four_fold"


def _close(a, b, rtol, atol=0.0) -> bool:
    return bool(np.all(np.abs(np.asarray(a, float) - np.asarray(b, float))
                       <= atol + rtol * np.abs(np.asarray(b, float))))


def _read_table(out: Path) -> tuple[str, np.ndarray]:
    path = out / "table.csv"
    with path.open(encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return header, data


def _counts(problems, what, k, n, p) -> None:
    tail = ref.binomial_two_sided(int(k), int(n), p)
    if tail < TAIL_PROB:
        problems.append(f"{what}: {k} of {n} against p = {p:.6g} (tail {tail:.2e})")


def _campaign_summary(problems, metrics, exp) -> None:
    trials, count = metrics["trials"], metrics["four_fold_count"]
    if trials != exp["trials"]:
        problems.append(f"trials {trials} != {exp['trials']}")
    if not 0 <= count <= trials:
        problems.append(f"four_fold_count {count} outside [0, {trials}]")
    if not _close(metrics["p4c_hat"], count / trials, 1e-12):
        problems.append(f"p4c_hat {metrics['p4c_hat']} != {count}/{trials}")
    p = count / trials
    if not _close(metrics["std_err"], math.sqrt(p * (1.0 - p) / trials), 1e-12):
        problems.append(f"std_err {metrics['std_err']} is not the binomial standard error")
    _counts(problems, "four-fold count", count, trials, exp["p4c"])
    if not _close(metrics["p4c_closed_form"], exp["closed_form"], JSON_RTOL):
        problems.append(
            f"p4c_closed_form {metrics['p4c_closed_form']!r} != reference {exp['closed_form']!r}"
        )


def _records(problems, out, metrics, exp) -> None:
    header, t = _read_table(out)
    if header != RECORD_COLUMNS:
        problems.append(f"records header {header!r}")
        return
    n = exp["trials"]
    if t.shape != (n, 6):
        problems.append(f"records shape {t.shape}, expected ({n}, 6)")
        return
    trial, ha, hb, hold_a, hold_b, four = t.T
    if not np.array_equal(trial, np.arange(n)):
        problems.append("trial column is not 0..n-1")
    for name, h in (("herald_a", ha), ("herald_b", hb)):
        if not np.all((h == -1) | ((h >= 0) & (h < exp["n"]) & (h == np.round(h)))):
            problems.append(f"{name} outside -1 or 0..N-1")
    joint = (ha >= 0) & (hb >= 0)
    if not (np.array_equal(np.isnan(hold_a), ~joint) and np.array_equal(np.isnan(hold_b), ~joint)):
        problems.append("NaN holds do not sit exactly on rows with a herald of -1")
    ja, jb = hold_a[joint], hold_b[joint]
    if not _close(ja - jb, (hb[joint] - ha[joint]) * exp["dt_write"], CSV_RTOL, atol=1e-6):
        problems.append("hold_a - hold_b != (herald_b - herald_a) * dt_write")
    if not _close(np.minimum(ja, jb), exp["min_hold"], CSV_RTOL):
        problems.append(f"shorter hold != dt_read + 2*latency = {exp['min_hold']}")
    if not np.all((four == 0) | (four == 1)) or np.any(four[~joint] != 0):
        problems.append("four_fold set outside jointly heralded rows")
    if int(four.sum()) != metrics["four_fold_count"]:
        problems.append(f"four_fold sums to {int(four.sum())}, summary says "
                        f"{metrics['four_fold_count']}")
    _counts(problems, "node A heralds", int((ha >= 0).sum()), n, exp["herald_a"])
    _counts(problems, "node B heralds", int((hb >= 0).sum()), n, exp["herald_b"])
    _counts(problems, "joint heralds", int(joint.sum()), n, exp["herald_a"] * exp["herald_b"])


def _sweep(problems, out, metrics, exp) -> None:
    header, t = _read_table(out)
    want = np.asarray(exp["rows"], float)
    if header != "tau_c_us,n_write_max,enhancement" or t.shape != want.shape:
        problems.append(f"sweep table {header!r} {t.shape}, expected {want.shape}")
        return
    if not (_close(t[:, 0], want[:, 0], CSV_RTOL) and np.array_equal(t[:, 1], want[:, 1])):
        problems.append("sweep grid differs from the configured tau and N lists")
    if not _close(t[:, 2], want[:, 2], CSV_RTOL):
        worst = int(np.argmax(np.abs(t[:, 2] / want[:, 2] - 1.0)))
        problems.append(f"enhancement row {worst}: {float(t[worst, 2])!r} != reference "
                        f"{float(want[worst, 2])!r}")
    e, n = t[:, 2], t[:, 1]
    if np.any(e < 1.0 - CSV_RTOL) or np.any(e > n * n * (1.0 + CSV_RTOL)):
        problems.append("enhancement outside [1, N^2]")
    grid = e.reshape(-1, len(np.unique(n)))
    if np.any(grid[:, 1:] < grid[:, :-1] * (1.0 - CSV_RTOL)):
        problems.append("enhancement decreases with N at fixed tau")
    for key in ("enhancement", "p4c_feedback", "p4c_no_feedback"):
        if not _close(metrics[key], exp[key], JSON_RTOL):
            problems.append(f"{key} {metrics[key]!r} != reference {exp[key]!r}")


def _hom(problems, out, metrics, exp) -> None:
    header, t = _read_table(out)
    domain = exp["domain"]
    name = "delay_ns" if domain == "time" else "detuning_mhz"
    if header != f"{name},coincidence,plateau" or t.shape != (exp["points"], 3):
        problems.append(f"hom table {header!r} {t.shape}")
        return
    grid = np.linspace(-exp["half"], exp["half"], exp["points"])
    plateau, interfering = ref.hom_levels(exp["alpha1"], exp["alpha2"], exp["p1"], exp["p2"])
    if domain == "time":
        overlap = ref.hom_overlap_time(grid, exp["fwhm_ns"])
        fwhm_key, fwhm = "fwhm_ns", exp["fwhm_ns"]
    else:
        overlap = ref.hom_overlap_frequency(grid, exp["fwhm_ns"])
        fwhm_key, fwhm = "fwhm_mhz", ref.hom_fwhm_frequency_mhz(exp["fwhm_ns"])
    if not _close(t[:, 0], grid, CSV_RTOL, atol=1e-12 * exp["half"]):
        problems.append("hom abscissa is not the configured grid")
    if not _close(t[:, 1], plateau - overlap * interfering, CSV_RTOL, atol=1e-12 * plateau):
        problems.append("hom coincidences differ from the Gaussian dip")
    if not _close(t[:, 2], plateau, CSV_RTOL):
        problems.append("hom plateau column differs from the reference plateau")
    want = {"c_plat": plateau, "c_dip": plateau - interfering,
            "visibility": interfering / plateau, fwhm_key: fwhm}
    for key, value in want.items():
        if not _close(metrics[key], value, JSON_RTOL):
            problems.append(f"{key} {metrics[key]!r} != reference {value!r}")


def _chsh_analytic(problems, out, metrics, exp) -> None:
    header, t = _read_table(out)
    if header != "theta1_deg,theta2_deg,e" or t.shape != (4, 3):
        problems.append(f"chsh table {header!r} {t.shape}")
        return
    if not np.array_equal(t[:, :2], np.asarray(exp["angles"])):
        problems.append("chsh angles differ from the analyzer settings")
    if not _close(t[:, 2], exp["e"], CSV_RTOL, atol=1e-12):
        problems.append(f"chsh correlations {t[:, 2]} != reference {exp['e']}")
    want = {"s": exp["s"], "w_singlet": exp["weights"][0], "w_hh": exp["weights"][1],
            "w_vv": exp["weights"][2]}
    for key, value in want.items():
        if not _close(metrics[key], value, JSON_RTOL, atol=1e-12):
            problems.append(f"{key} {metrics[key]!r} != reference {value!r}")


def _chsh_sampled(problems, out, metrics, exp) -> None:
    header, t = _read_table(out)
    if header != "theta1_deg,theta2_deg,n_pp,n_pm,n_mp,n_mm,e,sigma_e" or t.shape != (4, 8):
        problems.append(f"chsh table {header!r} {t.shape}")
        return
    n = exp["n_events"]
    counts = t[:, 2:6]
    if not np.array_equal(t[:, :2], np.asarray(exp["angles"])) or np.any(counts.sum(axis=1) != n):
        problems.append("chsh angles or per-setting event totals are wrong")
    e = (counts[:, 0] + counts[:, 3] - counts[:, 1] - counts[:, 2]) / n
    if not _close(t[:, 6], e, CSV_RTOL, atol=1e-12):
        problems.append("chsh correlations do not follow from the counts")
    if not _close(t[:, 7], np.sqrt((1.0 - e * e) / n), CSV_RTOL):
        problems.append("chsh sigma_e is not sqrt((1 - E^2)/n)")
    sigma_ref = np.sqrt((1.0 - np.asarray(exp["e"]) ** 2) / n)
    if np.any(np.abs(e - exp["e"]) > CHSH_SIGMAS * sigma_ref):
        problems.append(f"sampled correlations {e} far from reference {exp['e']}")
    s = ref.chsh_s(e)
    if not _close(metrics["s"], s, JSON_RTOL):
        problems.append(f"s {metrics['s']!r} does not follow from the counts ({s!r})")
    sigma_s = math.sqrt(float(np.sum(sigma_ref**2)))
    if abs(metrics["s"] - exp["s"]) > CHSH_SIGMAS * sigma_s:
        problems.append(f"sampled S {metrics['s']} far from analytic {exp['s']} "
                        f"(sigma {sigma_s:.3g})")
    if not _close(metrics["n_sigma"], (metrics["s"] - 2.0) / metrics["sigma_s"], 1e-12):
        problems.append("n_sigma != (s - 2)/sigma_s")
    if metrics["n_events_per_setting"] != n:
        problems.append("n_events_per_setting differs from the config")


_CHECKS = {
    "sweep": _sweep,
    "hom": _hom,
    "chsh_analytic": _chsh_analytic,
    "chsh_sampled": _chsh_sampled,
}


def check(op: dict, exit_code: int, out: Path) -> list[str]:
    """Problems found in the outputs of ``op``; empty when it passed."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    exp = op["expect"]
    problems: list[str] = []
    try:
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        if summary["scenario"] != op["scenario"]:
            return [f"summary scenario {summary['scenario']!r}"]
        metrics = summary["metrics"]
        if exp["kind"] in ("campaign", "records"):
            _campaign_summary(problems, metrics, exp)
            if exp["kind"] == "records":
                _records(problems, out, metrics, exp)
        else:
            _CHECKS[exp["kind"]](problems, out, metrics, exp)
    except (KeyError, TypeError, ValueError, OSError) as exc:
        problems.append(f"unreadable output: {exc!r}")
    return problems
