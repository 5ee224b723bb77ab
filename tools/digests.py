"""Print one SHA-256 of summary.json and table.csv per benchmark operation.

Runs every operation of the four ``perfbench/workloads.py`` workloads, for
the seeds 1 to 5, through ``heraldsync.cli.main`` with the package imported
from the given source directory, and prints one line per operation:
workload, seed, label, exit code and the digest.  Two checkouts print the
same lines exactly when their outputs are byte-identical, so one ``diff``
shows it:

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


def op_digests(workload_names, seeds) -> list[str]:
    """One ``workload seed label code digest`` line per operation."""
    import heraldsync.cli
    import workloads

    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "run.cfg"
        for name in workload_names:
            for seed in seeds:
                for op in workloads.build(name, seed):
                    out = Path(tmp) / "out"
                    for path in out.glob("*"):
                        path.unlink()
                    config.write_text(op["config"] + f"output_path = {out}\n", encoding="utf-8")
                    with contextlib.redirect_stdout(io.StringIO()):
                        code = heraldsync.cli.main([op["scenario"], "--config", str(config)])
                    digest = hashlib.sha256()
                    for file in ("summary.json", "table.csv"):
                        if (out / file).exists():
                            digest.update(file.encode() + (out / file).read_bytes())
                    lines.append(f"{name} {seed} {op['label']} {code} {digest.hexdigest()}")
    return lines


def main(argv: list) -> int:
    if len(argv) != 1:
        print("usage: python tools/digests.py <src-dir>", file=sys.stderr)
        return 2
    sys.path[:0] = [str(Path(argv[0]).resolve()), str(ROOT / "perfbench")]
    import workloads

    for line in op_digests(workloads.WORKLOADS, SEEDS):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
