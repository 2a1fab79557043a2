"""Differential test: fused link hops against the two-event path.

A base :class:`~repro.sim.link.Link` with a propagation delay fuses an
idle hop's tx-complete into its delivery event, and a zero-delay one
delivers inline from its tx-complete.  A subclass that overrides
``_transmission_done`` keeps one event for each half, which makes
``TwoEventLink`` below the oracle: offered the same traffic, both must
deliver the same packets at the same times in the same order, write the
same drop trace, and agree on every ``check_link`` snapshot taken along
the way — for every queue discipline, including the stateful ones whose
empty-queue pops the fused path replays.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.obs.invariants import check_link
from repro.sim import Simulator
from repro.sim.link import Link
from repro.sim.node import Node
from repro.sim.queues import CoDelParams, REDParams, make_queue
from repro.sim.trace import DropTrace


class TwoEventLink(Link):
    """Test-only link on the two-event path (overrides the hook)."""

    def _transmission_done(self, pkt):
        super()._transmission_done(pkt)


class Recorder(Node):
    """Far end of the link: logs ``(time, uid)`` of every delivery."""

    def __init__(self, sim):
        super().__init__(sim, name="far")
        self.log = []

    def receive(self, pkt, link=None):
        self.log.append((self.sim.now, pkt.uid))
        self.sim.free_packet(pkt)


def _queue(kind, rng, ecn, rate_bps):
    if kind == "droptail":
        return make_queue("droptail", int(rng.integers(1, 6)))
    if kind == "red":
        params = REDParams(min_th=1.0, max_th=3.0, weight=0.2, max_p=0.5, ecn=ecn)
        return make_queue("red", int(rng.integers(3, 10)), params=params,
                          rng=np.random.default_rng(int(rng.integers(1 << 30))),
                          service_rate_pps=rate_bps / 8000.0)
    params = CoDelParams(target=float(rng.uniform(1e-4, 2e-3)),
                         interval=float(rng.uniform(2e-3, 2e-2)), ecn=ecn)
    if kind == "codel":
        return make_queue("codel", int(rng.integers(4, 40)), params=params)
    return make_queue("fq-codel", int(rng.integers(4, 40)), params=params,
                      n_buckets=int(rng.integers(1, 4)), quantum=600)


def _scenario(link_cls, kind, seed):
    """One seeded scenario; returns everything the two paths must share."""
    rng = np.random.default_rng(seed)
    rate = float(rng.choice([1e6, 8e6, 1e7, float(rng.uniform(5e5, 5e7))]))
    delay = float(rng.choice([0.0, 1e-3, float(rng.uniform(0.0, 0.05))]))
    ecn = bool(rng.random() < 0.5)
    sim = Simulator()
    far = Recorder(sim)
    trace = DropTrace("link")
    link = link_cls(sim, far, rate, delay, queue=_queue(kind, rng, ecn, rate),
                    drop_trace=trace)
    snaps = []
    n_sources = int(rng.integers(1, 4))
    budget = [int(rng.integers(20, 80)) for _ in range(n_sources)]

    def offer(src):
        if budget[src] <= 0:
            return
        budget[src] -= 1
        size = int(rng.integers(40, 1501))
        tx = size * 8.0 / rate
        r = rng.random()
        if r < 0.3:
            gap = tx  # lands exactly on this packet's tx-complete if it starts now
        elif r < 0.4:
            gap = 0.0
        else:
            gap = float(rng.exponential(tx * (1.0 + src)))
        # Scheduling the next offer before or after the send puts it
        # before or after the transmission's tx-complete key.
        early = rng.random() < 0.5
        if early:
            sim.schedule(gap, offer, src)
        pkt = sim.alloc_packet(src, budget[src], size, ecn_capable=ecn)
        snaps.append(("pre", sim.now, check_link(link, sim.now)))
        link.send(pkt)
        snaps.append(("post", sim.now, check_link(link, sim.now)))
        if not early:
            sim.schedule(gap, offer, src)

    for src in range(n_sources):
        sim.schedule(float(rng.uniform(0.0, 0.01)), offer, src)
    mid = float(rng.uniform(0.0, 0.05))
    sim.run(until=mid)
    snaps.append(("mid", sim.now, check_link(link, sim.now)))
    sim.run()
    snaps.append(("end", sim.now, check_link(link, sim.now)))
    cols = tuple(np.asarray(c).tolist() for c in
                 (trace.times, trace.flow_ids, trace.seqs, trace.sizes, trace.marked))
    return far.log, cols, snaps, link.busy_time


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["droptail", "red", "codel", "fq-codel"]))
# An FQ-CoDel scenario whose scheduling order depends on the replayed
# empty-queue pop (skipping the replay changes its deliveries).
@example(seed=12, kind="fq-codel")
def test_fused_link_matches_two_event_path(seed, kind):
    fused = _scenario(Link, kind, seed)
    oracle = _scenario(TwoEventLink, kind, seed)
    assert fused[0] == oracle[0]  # delivery (time, uid) order
    assert fused[1] == oracle[1]  # drop trace columns
    assert fused[2] == oracle[2]  # check_link snapshots
    assert fused[3] == oracle[3]  # busy time


@pytest.mark.parametrize("kind", ["droptail", "red", "codel", "fq-codel"])
def test_fused_link_is_cheaper_and_exercised(kind):
    """The fused path really skips events (an idle hop costs one instead
    of two), and the differential scenarios do reach the queue."""
    events = []
    for cls in (Link, TwoEventLink):
        sim = Simulator()
        far = Recorder(sim)
        link = cls(sim, far, 1e6, 0.01, queue=make_queue(kind, 8))
        for i in range(10):
            sim.schedule_at(i * 0.1, link.send, sim.alloc_packet(1, i, 1000))
        sim.run()
        assert len(far.log) == 10
        events.append(sim.events_processed)
    assert events == [20, 30]
    for seed in range(5):
        log, _, snaps, _ = _scenario(Link, kind, seed)
        assert log and any(s["queued"] for _, _, s in snaps)


def test_subclass_hooks_keep_two_event_path():
    """One packet over an idle hop: one event on the fused and inline
    paths, two for the subclasses that override a transmission hook."""
    from repro.emulation.dummynet import NoisyLink
    from repro.sim.reorder import ReorderingLink

    def events(make):
        sim = Simulator()
        far = Recorder(sim)
        make(sim, far).send(sim.alloc_packet(1, 0, 1000))
        sim.run()
        assert len(far.log) == 1
        return sim.events_processed

    rng = np.random.default_rng(0)
    assert events(lambda sim, far: Link(sim, far, 1e6, 0.01)) == 1
    assert events(lambda sim, far: Link(sim, far, 1e6, 0.0)) == 1
    assert events(lambda sim, far: NoisyLink(sim, far, 1e6, 0.01, rng=rng)) == 2
    assert events(lambda sim, far: ReorderingLink(sim, far, 1e6, 0.01, rng=rng)) == 2
