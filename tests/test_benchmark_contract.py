"""What the benchmark in ``perfbench/`` relies on in the program.

Its generated configs must parse, and every function its layer trace
wraps by name must exist where the trace looks it up, so that neither
the benchmark nor its ``--trace 1`` mode can break without a test
failing here.  Its campaign workloads must also stay in their regimes:
the dense one heralding in most trials on both nodes, the others in few.
"""

import math
import sys
from pathlib import Path

import pytest

import heraldsync.cli
import heraldsync.photon_stats
import heraldsync.runner
from heraldsync.config import Scenario, parse_config

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_configs_parse(workload, seed):
    ops = workloads.build(workload, seed)
    assert ops
    for op in ops:
        config = parse_config(op["config"])
        assert config.scenario is Scenario(op["scenario"]), op["label"]


def test_traced_functions_resolve():
    modules = {
        "cli": heraldsync.cli,
        "runner": heraldsync.runner,
        "photon_stats": heraldsync.photon_stats,
    }
    assert callable(heraldsync.cli.main)
    for layer, (targets, _) in spans.LAYERS.items():
        for module, attr in targets:
            assert callable(getattr(modules[module], attr, None)), (layer, module, attr)


@pytest.mark.parametrize(
    "workload,dense",
    [("campaign_dense", True), ("campaign_sparse", False), ("records", False)],
)
def test_campaign_workloads_keep_their_herald_regimes(workload, dense):
    # P = 1-(1-p)^N per node: above 1/2 the joint heralds, and so the
    # per-gap four-fold draws, carry the work; below it herald draws do
    for op in workloads.build(workload, 1):
        params = parse_config(op["config"]).protocol
        for source in (params.source_a, params.source_b):
            big_p = -math.expm1(params.n_write_max * math.log1p(-source.herald_prob))
            assert (big_p > 0.5) is dense, (op["label"], big_p)
