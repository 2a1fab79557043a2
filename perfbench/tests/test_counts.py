"""Count determinism: two traced runs on one seed give identical counts.

Every ``.calls`` metric and every metric derived only from call counts
must repeat exactly, so later changes may cite them as counts.  The
exceptions are the layers in ``layers.CLOCK_DRIVEN_CALLS`` on
``campaign_mesh``, whose poll loop and heartbeat throttle follow the
wall clock.

    python3 -m pytest perfbench/tests
"""

import json
import subprocess
import sys

import pytest

import layers
import workloads as W
from conftest import BENCH, ROOT

#: Metrics computed from call counts alone (besides every ``count`` unit).
COUNT_RATIOS = (
    "sim.engine.events_per_pkt", "sim.engine.cancel_frac", "all.calls_per_pkt",
    "sim.queues.drop_frac", "tcp.retx_frac", "internet.analytic.skip400_frac",
)


def traced_run(workload: str, seed: int) -> dict:
    res = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=str(ROOT), capture_output=True, text=True, timeout=170,
    )
    assert res.returncode == 0, res.stdout[-2000:] + res.stderr[-2000:]
    out = json.loads(res.stdout.strip().splitlines()[-1])
    assert out["correct"] and out["failed"] == 0
    return out["metrics"]


@pytest.mark.parametrize("workload", sorted(W.WORKLOADS))
def test_counts_repeat_exactly(workload):
    a, b = traced_run(workload, 5), traced_run(workload, 5)
    exempt = set()
    if workload == "campaign_mesh":
        exempt = {f"{layer}.calls" for layer in layers.CLOCK_DRIVEN_CALLS}
    names = [n for n, v in a.items()
             if (v["unit"] == "count" or n in COUNT_RATIOS) and n not in exempt]
    assert names
    assert {n: a[n]["value"] for n in names} == {n: b[n]["value"] for n in names}
