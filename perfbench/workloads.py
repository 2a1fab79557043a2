"""The benchmark's three workloads: what each op is, and how a seed picks them.

Every workload is a closed loop driven from one process: a *pass* is a
fixed list of ops run back to back, and the next op starts when the
previous one returns.  A run is a fixed number of passes
(``Workload.passes``).

The workload seed never reaches the program.  Each op *slot* of a pass
(a grid cell, a zoo cell, the campaign) takes its scenario from a block
of *entries*, indices into a pool of scenario seeds; the program receives
only the scenario built from the entry: a Fig. 8 cell seed, a zoo cell
seed or a campaign seed.  The workload seed drives a private
``random.Random`` that shuffles the block once per slot, and pass ``k``
uses the ``k``-th entry of each slot's shuffle.  A run of
``Workload.block`` passes therefore runs every entry of the block exactly
once per slot, whatever the seed: seeds change the order and pairing of
scenarios, never the work a run measures.  That keeps seed-to-seed input
variance out of run-to-run spread (the same idea as common random numbers
in simulation).

Every seed but ``HELD_OUT_SEED`` uses the block starting at entry 0.
``HELD_OUT_SEED`` uses the block starting at ``HELD_OUT_BASE``, which no
other seed reaches, so a claim can be confirmed on inputs its author
never ran.  Because every pool entry's output digest is recorded in
``digests/`` (see ``record_digests.py``), each op of every run is checked
against the output of the commit that recorded the digests.

This module imports ``repro`` lazily, inside the functions that run ops,
so ``run.py`` can read the workload table without loading the program.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from typing import Optional

#: Entries with recorded digests (``record_digests.py`` runs them all).
POOL = 40
#: The seed reserved for confirming claims.  Never run it while writing a
#: change; its ops use pool entries no other seed reaches.
HELD_OUT_SEED = 7919
#: First entry of the held-out block.
HELD_OUT_BASE = 32

#: Fig. 8 grid at FAST scale: flow counts x RTTs, one repetition per pass.
FIG8_FLOWS = (2, 4, 8, 16)
FIG8_RTTS = (0.002, 0.010, 0.050, 0.200)

#: Zoo slice: (challenger protocol, AQM, RTT class name, RTT seconds).
ZOO_CELLS = (
    ("bbr", "fq-codel", "wan", 0.050),
    ("bbr", "codel", "wan", 0.050),
    ("quic-paced", "fq-codel", "metro", 0.015),
    ("quic-paced", "codel", "wan", 0.050),
    ("paced", "droptail", "wan", 0.050),
)
#: Simulated seconds per zoo cell (FAST runs 20 s; BBR's per-ACK cost
#: grows with run length, so the full length would let it dominate).
ZOO_DURATION = 2.0

#: Campaign mesh: sites, shards per campaign, worker processes.
CAMPAIGN_SITES = 40
CAMPAIGN_SHARDS = 24
CAMPAIGN_WORKERS = 2


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``pass_ref_s`` is one pass's length in reference seconds (see
    ``hostspeed.py``) as measured when the benchmark was defined; a run of
    ``--seconds`` is ``passes(seconds)`` passes, so every commit runs the
    same work.  ``block`` is the number of entries per slot, the pass
    count of a run at the default 25 s.  ``entry_modules`` are what
    ``setup_s`` imports.
    """

    name: str
    pass_ref_s: float
    block: int
    entry_modules: tuple[str, ...]

    def passes(self, seconds: float) -> int:
        return max(1, round(seconds / self.pass_ref_s))

    def tail_pct(self, n_ops: int) -> int:
        """``op_tail_s``'s percentile: the highest one with at least ten
        of ``n_ops`` beyond it (the median when there are too few ops)."""
        return max(50, math.floor(100 * (1 - 10 / n_ops)))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "fig8_grid", pass_ref_s=10.5, block=2,
            entry_modules=("repro.experiments.fig8_parallel",
                           "repro.experiments.parallel"),
        ),
        Workload(
            "zoo_modern", pass_ref_s=3.1, block=8,
            entry_modules=("repro.experiments.zoo_grid",),
        ),
        Workload(
            "campaign_mesh", pass_ref_s=7.2, block=3,
            entry_modules=("repro.internet.supervisor",
                           "repro.internet.probe"),
        ),
    )
}


def digest(payload: bytes) -> str:
    """The 16-hex-digit digest recorded per op."""
    return hashlib.sha256(payload).hexdigest()[:16]


class Picker:
    """Seed -> the entry of each op slot in each pass of a run."""

    def __init__(self, workload: str, seed: int):
        base = HELD_OUT_BASE if seed == HELD_OUT_SEED else 0
        self._block = list(range(base, base + WORKLOADS[workload].block))
        self._rng = random.Random(f"{workload}/{seed}")
        self._shuffles: list[list[int]] = []

    def pick(self, slot: int, k: int) -> int:
        """Entry of op slot ``slot`` in pass ``k``."""
        while len(self._shuffles) <= slot:
            self._shuffles.append(self._rng.sample(self._block, len(self._block)))
        shuffle = self._shuffles[slot]
        return shuffle[k % len(shuffle)]


# -- op definitions -----------------------------------------------------
#
# A pass plan is a list of ``(key, args)``: ``key`` names the op's scenario
# in ``digests/`` and ``args`` go to the workload's run function, which
# calls the program's public functions and returns the output digest.  A
# campaign pass is one call that yields one result per shard.


def fig8_key(n_flows: int, rtt: float, entry: int) -> str:
    return f"{n_flows}/{rtt:g}/{entry}"


def fig8_cell_seed(n_flows: int, entry: int) -> int:
    """The cell seed ``run_fig8(seed=1)`` gives repetition ``entry``."""
    return 10_000 + entry * 100 + n_flows


def fig8_run(n_flows: int, rtt: float, entry: int) -> str:
    from repro.experiments.common import FAST
    from repro.experiments.fig8_parallel import run_fig8_cell

    value = run_fig8_cell(n_flows, rtt, seed=fig8_cell_seed(n_flows, entry),
                          scale=FAST)
    return digest(repr(float(value)).encode())


def fig8_pass(picker: Picker, k: int) -> list[tuple[str, tuple]]:
    """One repetition of the grid: ``(key, args)`` per cell, grid order."""
    out = []
    for rtt in FIG8_RTTS:
        for n in FIG8_FLOWS:
            e = picker.pick(len(out), k)
            out.append((fig8_key(n, rtt, e), (n, rtt, e)))
    return out


def zoo_key(cell: tuple, entry: int) -> str:
    protocol, aqm, rtt_name, _ = cell
    return f"{protocol}:{aqm}:{rtt_name}/{entry}"


def zoo_scale():
    import dataclasses

    from repro.experiments.common import FAST

    return dataclasses.replace(FAST, fig7_duration=ZOO_DURATION)


def zoo_run(cell: tuple, entry: int, scale=None) -> str:
    import numpy as np

    from repro.experiments.zoo_grid import run_zoo_cell

    protocol, aqm, rtt_name, rtt = cell
    res = run_zoo_cell(1 + entry, scale if scale is not None else zoo_scale(),
                       protocol, aqm, rtt=rtt, rtt_name=rtt_name)
    h = json.dumps(res.to_record(), sort_keys=True).encode()
    for series in (res.times, res.baseline_mbps, res.challenger_mbps):
        h += np.ascontiguousarray(series, dtype=np.float64).tobytes()
    return digest(h)


def zoo_pass(picker: Picker, k: int) -> list[tuple[str, tuple]]:
    out = []
    for slot, cell in enumerate(ZOO_CELLS):
        e = picker.pick(slot, k)
        out.append((zoo_key(cell, e), (cell, e)))
    return out


def campaign_seed(entry: int) -> int:
    """Entry 0 is the CLI's default campaign seed."""
    return 2006 + entry


def campaign_key(entry: int, shard: Optional[int] = None) -> str:
    return f"{entry}" if shard is None else f"{entry}/{shard}"


def campaign_run(entry: int, state_dir: str, workers: int = CAMPAIGN_WORKERS):
    """One campaign over the mesh with the paper's (default) probe config.

    Returns the :class:`ShardedCampaignResult`; per-shard digests are the
    shard fingerprints in ``result.fates``.
    """
    from repro.internet.probe import ProbeConfig
    from repro.internet.supervisor import run_sharded_campaign

    return run_sharded_campaign(
        CAMPAIGN_SITES, CAMPAIGN_SHARDS, state_dir,
        seed=campaign_seed(entry), probe_config=ProbeConfig(), workers=workers,
    )


def campaign_pass(picker: Picker, k: int) -> list[tuple[str, int]]:
    e = picker.pick(0, k)
    return [(campaign_key(e), e)]


def campaign_digests(result) -> tuple[str, list[Optional[str]]]:
    """(campaign digest, per-shard digests; ``None`` for a shard not done)."""
    shards = []
    for sid in range(CAMPAIGN_SHARDS):
        fate = result.fates.get(sid, {})
        fp = fate.get("fingerprint") if fate.get("status") == "done" else None
        shards.append(fp[:16] if fp else None)
    return result.fingerprint()[:16], shards


def build_first_scenario(workload: str, seed: int) -> None:
    """What ``setup_s`` builds after the imports: the first op's inputs."""
    picker = Picker(workload, seed)
    if workload == "fig8_grid":
        from repro.apps.parallel_transfer import (
            ParallelTransfer,
            ParallelTransferConfig,
        )
        from repro.experiments.common import FAST
        from repro.sim.engine import Simulator
        from repro.sim.topology import DumbbellConfig, build_dumbbell

        _, (n, rtt, _e) = fig8_pass(picker, 0)[0]
        sim = Simulator()
        db = build_dumbbell(sim, DumbbellConfig(
            bottleneck_rate_bps=FAST.fig8_capacity_bps))
        ParallelTransfer(sim, db, rtt=rtt, config=ParallelTransferConfig(
            total_bytes=FAST.fig8_total_bytes, n_flows=n))
    elif workload == "zoo_modern":
        from repro.sim.engine import Simulator
        from repro.sim.queues import make_queue
        from repro.sim.topology import DumbbellConfig, build_dumbbell

        _, ((protocol, aqm, _name, rtt), _e) = zoo_pass(picker, 0)[0]
        sc = zoo_scale()
        cfg = DumbbellConfig(bottleneck_rate_bps=sc.fig7_capacity_bps)
        cfg.buffer_pkts = max(4, int(cfg.bdp_packets(rtt)))
        db = build_dumbbell(Simulator(), cfg)
        db.set_forward_queue(make_queue(
            aqm, cfg.buffer_pkts, name="bottleneck",
            service_rate_pps=sc.fig7_capacity_bps / 8.0 / cfg.packet_size))
    elif workload == "campaign_mesh":
        from repro.internet.shards import SyntheticMesh, plan_shards

        seed_ = campaign_seed(picker.pick(0, 0))
        plan_shards(CAMPAIGN_SITES, CAMPAIGN_SHARDS, seed=seed_)
        SyntheticMesh(CAMPAIGN_SITES, seed=seed_).sites
    else:
        raise ValueError(f"unknown workload {workload!r}")


#: Workload -> its pass plan: ``plan(picker, k)`` is pass ``k``'s ops.
PLAN_PASS = {
    "fig8_grid": fig8_pass,
    "zoo_modern": zoo_pass,
    "campaign_mesh": campaign_pass,
}
