"""``tools/digests.py`` prints one output digest per benchmark operation and record run."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "tools"), str(ROOT / "perfbench")]

import digests  # noqa: E402


def test_one_line_per_operation_repeats_exactly():
    lines = digests.op_digests(["analytic"], [3])
    labels = ["sweep", "hom-time", "hom-frequency", "chsh-analytic", "chsh-sampled"]
    assert [line.split()[:4] for line in lines] == [["analytic", "3", label, "0"] for label in labels]
    assert all(len(line.split()[4]) == 64 for line in lines)
    assert len(set(lines)) == len(lines)
    assert digests.op_digests(["analytic"], [3]) == lines


def test_usage_without_a_source_directory():
    assert digests.main([]) == 2


def test_record_corpus_one_line_per_run_repeats_exactly():
    lines = digests.corpus_digests()
    labels = ["dense-latency", "default", "one-attempt", "widest-holds", "certain-heralds"]
    assert [line.split()[:4] for line in lines] == [["corpus", "1", label, "0"] for label in labels]
    assert all(len(line.split()[4]) == 64 for line in lines)
    assert len(set(lines)) == len(lines)
    assert digests.corpus_digests() == lines
