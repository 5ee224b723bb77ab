"""Print one SHA-256 of summary.json and table.csv per benchmark operation.

Runs every operation of the four ``perfbench/workloads.py`` workloads, for
the seeds 1 to 5, through ``heraldsync.cli.main`` with the package imported
from the given source directory, and prints one line per operation:
workload, seed, label, exit code and the digest.  After them come the same
lines for ``RECORD_CORPUS``, record runs at the edges of the trial-record
table that the workloads do not reach, under the workload name ``corpus``.
Two checkouts print the same lines exactly when their outputs are
byte-identical, so one ``diff`` shows it:

    python tools/digests.py <src-dir>

Nothing under ``perfbench/`` is changed; the outputs go to a temporary
directory.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = range(1, 6)


_RECORDS = "scenario = protocol_sim\nprotocol_sim.record_trials = true\nseed = 1\n"
_DENSE_SOURCES = (
    "protocol.source_a.gamma0 = 0.5\nprotocol.source_a.p_as = 0.2\n"
    "protocol.source_a.eta_as = 0.5\nprotocol.source_a.dark_click_prob = 0.001\n"
    "protocol.source_b.gamma0 = 0.45\nprotocol.source_b.p_as = 0.25\n"
    "protocol.source_b.eta_as = 0.6\nprotocol.source_b.dark_click_prob = 0.002\n"
)
# label -> config of one record run at seed 1
RECORD_CORPUS = {
    "dense-latency": _RECORDS + "trials = 300000\nprotocol.latency_ns = 1500.0\n" + _DENSE_SOURCES,
    "default": _RECORDS + "trials = 700000\n",
    "one-attempt": _RECORDS + "trials = 200000\nprotocol.n_write_max = 1\n",
    "widest-holds": _RECORDS
    + "trials = 30000\nprotocol.n_write_max = 100000\nprotocol.dt_write_ns = 1e300\n",
    "certain-heralds": _RECORDS
    + "trials = 100000\nprotocol.source_a.p_as = 1.0\nprotocol.source_b.p_as = 1.0\n",
}


def _digest(tmp: Path, scenario: str, config_text: str) -> str:
    """``code digest`` of one CLI run of this config in the directory ``tmp``."""
    import heraldsync.cli

    config, out = tmp / "run.cfg", tmp / "out"
    for path in out.glob("*"):
        path.unlink()
    config.write_text(config_text + f"output_path = {out}\n", encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()):
        code = heraldsync.cli.main([scenario, "--config", str(config)])
    digest = hashlib.sha256()
    for file in ("summary.json", "table.csv"):
        if (out / file).exists():
            digest.update(file.encode() + (out / file).read_bytes())
    return f"{code} {digest.hexdigest()}"


def op_digests(workload_names, seeds) -> list[str]:
    """One ``workload seed label code digest`` line per operation."""
    import workloads

    with tempfile.TemporaryDirectory() as tmp:
        return [
            f"{name} {seed} {op['label']} {_digest(Path(tmp), op['scenario'], op['config'])}"
            for name in workload_names
            for seed in seeds
            for op in workloads.build(name, seed)
        ]


def corpus_digests() -> list[str]:
    """One ``corpus 1 label code digest`` line per run of ``RECORD_CORPUS``."""
    with tempfile.TemporaryDirectory() as tmp:
        return [
            f"corpus 1 {label} {_digest(Path(tmp), 'protocol_sim', text)}"
            for label, text in RECORD_CORPUS.items()
        ]


def main(argv: list) -> int:
    if len(argv) != 1:
        print("usage: python tools/digests.py <src-dir>", file=sys.stderr)
        return 2
    sys.path[:0] = [str(Path(argv[0]).resolve()), str(ROOT / "perfbench")]
    import workloads

    for line in op_digests(workloads.WORKLOADS, SEEDS) + corpus_digests():
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
