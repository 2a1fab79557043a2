"""Layer-map hygiene: every ``repro`` module a workload runs has a layer.

Runs one traced pass of each workload (a single Fig. 8 cell stands for
the grid: every cell runs the same modules) and requires the fold to
report no unmapped module, and the layer shares plus
``unattributed.share`` to sum to 1.

    python3 -m pytest perfbench/tests
"""

import multiprocessing.util
import math

import pytest

import layers
import runner
import workloads as W
from hostspeed import SpeedProbe


def test_table_names_only_known_layers():
    assert set(layers.LAYER_OF.values()) <= set(layers.LAYERS)
    assert set(layers.CLOCK_DRIVEN_CALLS) <= set(layers.LAYERS)


@pytest.mark.parametrize("workload", sorted(W.WORKLOADS))
def test_every_executed_module_has_a_layer(workload, tmp_path):
    probe = SpeedProbe()
    probe.start()
    ctx = {"work": str(tmp_path), "zoo_scale": W.zoo_scale(), "probe": probe}
    ops = W.PLAN_PASS[workload](W.Picker(workload, 1), 0)
    if workload == "fig8_grid":
        ops = ops[:1]
    hook = runner._ForkHook()
    multiprocessing.util.register_after_fork(hook, runner._child_after_fork)
    try:
        rec, stats = runner.traced_pass(workload, ops, ctx, runner.Spans(), None)
    finally:
        del hook
        probe.stop()
    assert all(op["error"] is None for op in rec["ops"])
    folded = layers.Folder().fold(stats.stats)
    assert folded["unmapped"] == []
    m = runner.layer_metrics(folded, [rec], rec,
                             uses_map=workload == "fig8_grid")
    total = sum(m[f"{layer}.share"] for layer in layers.LAYERS)
    assert math.isclose(total + m["unattributed.share"], 1.0, rel_tol=1e-9)
