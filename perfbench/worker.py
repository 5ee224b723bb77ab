"""One benchmark process: runs whole rounds of a workload through the CLI.

Usage (started by run.py, with ``src`` of the checkout on PYTHONPATH):

    python3 perfbench/worker.py <plan.json> <result.json> <budget_s> <trace 0|1>

The import of numpy and heraldsync is timed first, in this fresh
interpreter.  Then the worker calls ``heraldsync.cli.main`` for every
operation of the plan, in order, and repeats the round until ``budget_s``
has passed (at least once).  Each CLI call is timed on its own; nothing
else is.  After each
round every operation's outputs are checked; outputs whose bytes were
already checked keep their verdict, and outputs that differ from the
first round's bytes fail (the program promises bytes that depend only on
config and seed).
"""

import time

_T0 = time.perf_counter()
import numpy  # noqa: E402,F401

_T1 = time.perf_counter()
import heraldsync  # noqa: E402,F401

_T2 = time.perf_counter()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import heraldsync.cli  # noqa: E402
import heraldsync.photon_stats  # noqa: E402
import heraldsync.runner  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402


def _digest(code: int, out: Path) -> str:
    h = hashlib.sha256(str(code).encode())
    for name in ("summary.json", "table.csv"):
        path = out / name
        if path.exists():
            h.update(name.encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def main(argv: list[str]) -> int:
    plan_path, result_path, budget, traced = argv[0], argv[1], float(argv[2]), argv[3] == "1"
    started = time.perf_counter()
    ops = json.loads(Path(plan_path).read_text(encoding="utf-8"))["ops"]
    cli_main = heraldsync.cli.main
    tracer = None
    if traced:
        tracer = spans.Tracer()
        tracer.install({"cli": heraldsync.cli, "runner": heraldsync.runner,
                        "photon_stats": heraldsync.photon_stats})
        cli_main = tracer.wrap("cli.main", cli_main)

    op_s: dict[str, list[float]] = {op["label"]: [] for op in ops}
    first_digest: dict[str, str] = {}
    verdicts: dict[tuple[str, str], list[str]] = {}
    problems: dict[str, list[str]] = {}
    attempted = failed = 0
    peak_rss_kib = None
    sink = io.StringIO()
    while True:
        codes = []
        with contextlib.redirect_stdout(sink):
            for op in ops:
                t = time.perf_counter()
                codes.append(cli_main([op["scenario"], "--config", op["config_path"]]))
                op_s[op["label"]].append(time.perf_counter() - t)
        sink.seek(0)
        sink.truncate()
        if peak_rss_kib is None:
            # Before any check has run, so only the CLI shaped the peak.
            peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        for op, code in zip(ops, codes):
            out = Path(op["out"])
            digest = _digest(code, out)
            label = op["label"]
            found = verdicts.get((label, digest))
            if found is None:
                found = verdicts[(label, digest)] = checks.check(op, code, out)
            if first_digest.setdefault(label, digest) != digest:
                found = found + ["output bytes differ from the first round's"]
            attempted += 1
            if found:
                failed += 1
                problems.setdefault(label, found)
        if tracer is not None:
            tracer.round += 1
        if time.perf_counter() - started >= budget:
            break

    result = {
        "import_numpy_s": [_T1 - _T0],
        "import_heraldsync_s": [_T2 - _T1],
        "setup_s": [_T2 - _T0],
        "op_s": op_s,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "digests": first_digest,
        "peak_rss_kib": peak_rss_kib,
    }
    if tracer is not None:
        tables = spans.round_layers(tracer.spans)
        result["layers"] = [tables.get(r, {}) for r in range(tracer.round)]
        tracer.dump(Path(result_path).with_name(Path(result_path).stem + "-trace.json"))
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
