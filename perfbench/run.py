"""heraldsync benchmark: the CLI end to end over generated workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

For each workload the configs and their expected outputs are generated
from ``--seed`` (``workloads.py``, ``reference.py``).  The workload then
runs in WORKERS fresh single-threaded Python processes, one at a time,
each with ``src/`` of this checkout on its path and an equal share of
``--seconds``; each repeats whole rounds of the workload's CLI
invocations and checks every output (``worker.py``, ``checks.py``).

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics: ``wall_s`` (one round of CLI invocations: the sum
over its invocations of each one's 90th-percentile time in the run),
``setup_s`` (median time to import heraldsync, numpy included, in a fresh
interpreter) and ``peak_rss_mb`` (median over processes of the peak RSS
after their first round).  With ``--trace 1`` the workers wrap
heraldsync's functions (``spans.py``) and the line carries the per-layer
metrics instead.  Progress, problems found and the traced wall time go to
stderr.  Outputs, plans and trace files are written under
``perfbench/_out``.

``wall_s`` rests on a high percentile of many short samples rather than
on their median because the CPU of the machine the benchmark was built on
changes speed by up to 1.8x for 0.1 s to tens of seconds at a time.  A
middle quantile of a run then follows the share of slow time in it, while
the 90th percentile of about a hundred samples repeated best (see
README.md).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import spans
import workloads

WORKERS = 4
# Fresh interpreters that only time the import, run after each worker, so
# that setup_s rests on (1 + PROBES_PER_WORKER) * WORKERS samples.
PROBES_PER_WORKER = 2
WALL_PERCENTILE = 90
IMPORT_PROBE = (
    "import time; t0 = time.perf_counter(); import numpy; t1 = time.perf_counter(); "
    "import heraldsync; t2 = time.perf_counter(); "
    "print(t1 - t0, t2 - t1, t2 - t0, heraldsync.__file__)"
)
RUN_LIMIT_S = 170.0

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
OUT = BENCH / "_out"


class BenchError(RuntimeError):
    """The benchmark could not measure (as opposed to a failed check)."""


def _env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update({
        "PYTHONPATH": str(ROOT / "src"),
        "PYTHONHASHSEED": "0",
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    })
    return env


def _probe_import(env: dict[str, str], deadline: float) -> tuple[float, float, float]:
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                          capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.perf_counter()))
    if proc.returncode != 0:
        raise BenchError(f"cannot import heraldsync from {ROOT / 'src'}:\n{proc.stderr}")
    numpy_s, own_s, total_s, where = proc.stdout.split(maxsplit=3)
    if not Path(where.strip()).resolve().is_relative_to(ROOT / "src"):
        raise BenchError(f"heraldsync was imported from {where}, not from {ROOT / 'src'}")
    return float(numpy_s), float(own_s), float(total_s)


def _write_plan(name: str, seed: int, wdir: Path) -> Path:
    ops = workloads.build(name, seed)
    for k, op in enumerate(ops):
        out = wdir / f"op{k}-{op['label']}"
        op["out"] = str(out)
        op["config_path"] = str(wdir / f"op{k}-{op['label']}.cfg")
        Path(op["config_path"]).write_text(op["config"] + f"output_path = {out}\n",
                                           encoding="utf-8")
    plan = wdir / "plan.json"
    plan.write_text(json.dumps({"workload": name, "seed": seed, "ops": ops}), encoding="utf-8")
    return plan


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    """Measure one workload; returns the summary used for the result line."""
    started = time.perf_counter()
    deadline = started + RUN_LIMIT_S
    wdir = OUT / name
    shutil.rmtree(wdir, ignore_errors=True)
    wdir.mkdir(parents=True)
    plan = _write_plan(name, seed, wdir)
    env = _env()
    _probe_import(env, deadline)  # untimed: checks the path, compiles bytecode

    workers = []
    for k in range(WORKERS):
        result_path = wdir / f"worker{k}.json"
        budget = seconds / WORKERS
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "worker.py"), str(plan), str(result_path),
                 repr(budget), "1" if traced else "0"],
                env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                timeout=max(1.0, deadline - time.perf_counter()),
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{name}: worker {k} did not finish in time") from exc
        if proc.returncode != 0 or not result_path.exists():
            raise BenchError(f"{name}: worker {k} exited with {proc.returncode}")
        worker = json.loads(result_path.read_text(encoding="utf-8"))
        for _ in range(PROBES_PER_WORKER):
            probe = _probe_import(env, deadline)
            worker["import_numpy_s"].append(probe[0])
            worker["import_heraldsync_s"].append(probe[1])
            worker["setup_s"].append(probe[2])
        workers.append(worker)
    digests = {json.dumps(w["digests"], sort_keys=True) for w in workers}
    problems: dict[str, list[str]] = {}
    for w in workers:
        for label, found in w["problems"].items():
            problems.setdefault(label, found)
    op_s = {label: [t for w in workers for t in w["op_s"][label]] for label in workers[0]["op_s"]}
    summary = {
        "attempted": sum(w["attempted"] for w in workers),
        "failed": sum(w["failed"] for w in workers),
        "deterministic": len(digests) == 1,
        "problems": problems,
        "rounds": len(next(iter(op_s.values()))),
        "elapsed_s": time.perf_counter() - started,
        "end_to_end": {
            "wall_s": sum(np.percentile(times, WALL_PERCENTILE) for times in op_s.values()),
            "setup_s": statistics.median(x for w in workers for x in w["setup_s"]),
            "peak_rss_mb": statistics.median(w["peak_rss_kib"] * 1024 / spans.MB for w in workers),
        },
    }
    if traced:
        summary["per_layer"] = spans.layer_metrics(workers)
    return summary


UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def _layer_unit(metric: str) -> str:
    for suffix, unit in (("_mb_per_s", "MB/s"), ("_per_s", "1/s"), ("_calls", "count"),
                         ("_mb", "MB"), ("_s", "s")):
        if metric.endswith(suffix):
            return unit
    return "ratio"


def _report(name: str, summary: dict, traced: bool) -> None:
    e2e = summary["end_to_end"]
    print(f"{name}: {summary['rounds']} rounds in {summary['elapsed_s']:.1f} s, "
          f"{summary['attempted']} operations, {summary['failed']} failed, "
          + ", ".join(f"{k}={v:.6g} {UNITS[k]}" for k, v in e2e.items())
          + (" (traced)" if traced else ""), file=sys.stderr)
    for label, found in summary["problems"].items():
        for problem in found:
            print(f"  {name}/{label}: {problem}", file=sys.stderr)
    if not summary["deterministic"]:
        print(f"  {name}: output bytes differ between processes", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    traced = args.trace == 1

    if not (ROOT / "src" / "heraldsync" / "cli.py").is_file():
        print(f"error: no heraldsync sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, traced)
            _report(name, results[name], traced)
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = {}
    for name, summary in results.items():
        prefix = "" if len(names) == 1 else f"{name}."
        if traced:
            values = {k: (v, _layer_unit(k)) for k, v in summary["per_layer"].items()}
        else:
            values = {k: (v, UNITS[k]) for k, v in summary["end_to_end"].items()}
        for key, (value, unit) in values.items():
            metrics[prefix + key] = {"value": value, "unit": unit}
    line = {
        "correct": all(s["deterministic"] for s in results.values()),
        "attempted": sum(s["attempted"] for s in results.values()),
        "failed": sum(s["failed"] for s in results.values()),
        "metrics": metrics,
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
