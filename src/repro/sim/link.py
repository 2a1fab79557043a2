"""Unidirectional store-and-forward links.

A link models a transmission line with a service rate (bits/sec), a
propagation delay (seconds), and an attached queue discipline.  A packet
offered to a busy link waits in the queue; the head-of-line packet occupies
the transmitter for ``size * 8 / rate`` seconds and arrives at the far node
one propagation delay after its last bit leaves.

Every transmission is modelled by a *tx-complete* at ``now + tx`` (book
the packet as forwarded, pop the queue for the next one) and a *delivery*
one propagation delay later.  How many events that costs depends on the
link:

* **Fused** (``delay > 0``) — the delivery is filed at transmit start, at
  ``(now + tx) + delay``, the way ns-3's point-to-point channel schedules
  the far end's receive.  The tx-complete is an event only while a queue
  stands behind the packet (a *drain*); an idle hop costs one event.  The
  skipped tx-complete keeps its place in the ``(time, seq)`` order: its
  sequence number is reserved at transmit start, ``busy`` and the
  forwarded counters compare the clock against that key, a drain filed
  later fires under it, and the empty-queue ``pop`` it would have made —
  state for CoDel and FQ-CoDel — is replayed with its timestamp before
  the queue is next touched.
* **Inline** (``delay == 0``, e.g. the dumbbell bottleneck) — the
  tx-complete event delivers to the far node itself.
* **Two-event** — a subclass that overrides :meth:`Link._transmit` or
  :meth:`Link._transmission_done` keeps one event for each half, since
  the fused and inline paths never call those hooks.
  :class:`~repro.sim.reorder.ReorderingLink` draws its reordering lag in
  the tx-complete; drawing it at transmit start instead would reorder
  its RNG stream.  :class:`~repro.emulation.dummynet.NoisyLink` stretches
  each transmission by a random processing time in ``_transmit``.

Full-duplex connectivity is modelled as two independent ``Link`` objects
(see :func:`repro.sim.topology.connect`).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Optional

from repro.sim.packet import Packet
from repro.sim.queues import DropTailQueue, EnqueueResult, Queue
from repro.sim.trace import ArrivalTrace, DropTrace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.obs.metrics import MetricsRegistry
    from repro.sim.engine import Simulator
    from repro.sim.node import Node

__all__ = ["Link"]


class Link:
    """One direction of a wire between two nodes.

    Parameters
    ----------
    sim:
        The event engine.
    dst:
        Receiving node; packets are delivered to ``dst.receive``.
    rate_bps:
        Transmission rate in bits per second.
    delay:
        One-way propagation delay in seconds.
    queue:
        Queue discipline; defaults to a large DropTail buffer (effectively
        infinite for access links).
    drop_trace / arrival_trace:
        Optional instrumentation shared across links.
    """

    def __init__(
        self,
        sim: "Simulator",
        dst: "Node",
        rate_bps: float,
        delay: float,
        queue: Optional[Queue] = None,
        name: Optional[str] = None,
        drop_trace: Optional[DropTrace] = None,
        arrival_trace: Optional[ArrivalTrace] = None,
    ):
        if rate_bps <= 0:
            raise ValueError(f"link rate must be positive, got {rate_bps}")
        if delay < 0:
            raise ValueError(f"link delay must be non-negative, got {delay}")
        # Auto-generated names draw from a per-simulator sequence so
        # back-to-back runs in one process get identical metric/trace keys.
        self.name = name if name is not None else f"link{sim.next_id('link')}"
        self.sim = sim
        self.dst = dst
        self.rate_bps = float(rate_bps)
        self.delay = float(delay)
        self.queue = queue if queue is not None else DropTailQueue(10**9, name=self.name)
        self.drop_trace = drop_trace
        self.arrival_trace = arrival_trace
        self._install_queue_hooks()
        #: Fault-injection state: a downed link drops every offered packet.
        self.is_up = True
        # Accounting: offered == forwarded + transmitting + queued +
        # queue-dropped + dropped-down (the conservation identity
        # repro.obs.invariants.check_link verifies; down-drops are counted
        # separately so invariants hold modulo *injected* faults).
        self.packets_offered = 0
        self.packets_dropped_down = 0
        self.busy_time = 0.0
        # Forwarded totals; a fused transmission books its packet at
        # transmit start, and the public counters subtract it until its
        # tx-complete key is reached.
        self._forwarded = 0
        self._forwarded_bytes = 0
        # A tx-complete event is pending (two-event/inline paths, or a
        # fused link's drain).
        self._tx_event = False
        # Fused path: the key ``(time, seq)`` the in-flight packet's
        # tx-complete would have, its size, and whether the empty-queue
        # pop that tx-complete would have made is still owed.
        self._done_at = -math.inf
        self._done_seq = -1
        self._done_size = 0
        self._owes_pop = False
        cls = type(self)
        if cls._transmit is not Link._transmit or cls._transmission_done is not Link._transmission_done:
            self._start = self._transmit
        elif self.delay > 0.0:
            self._start = self._transmit_fused
        else:
            self._start = self._transmit_inline
        self.utilization_overruns = 0
        self.flap_count = 0
        self.registry: Optional["MetricsRegistry"] = None

    # ------------------------------------------------------------------
    def attach_queue(self, queue: Queue) -> None:
        """Swap in a queue discipline and take ownership of its head-drop
        and mark hooks (the link is the terminal consumer for dequeue-time
        drops: it records the trace entry and recycles the packet)."""
        if self._owes_pop and not self._in_flight():
            # The skipped tx-complete popped the old queue, not this one.
            self._owes_pop = False
            self.queue.pop(self._done_at)
        self.queue = queue
        self._install_queue_hooks()

    def _install_queue_hooks(self) -> None:
        self.queue.head_drop_hook = self._on_head_drop
        self.queue.mark_hook = self._on_dequeue_mark

    def _on_head_drop(self, pkt: Packet, now: float) -> None:
        if self.drop_trace is not None:
            self.drop_trace.record(pkt, now, marked=False)
        self.sim.free_packet(pkt)

    def _on_dequeue_mark(self, pkt: Packet, now: float) -> None:
        if self.drop_trace is not None:
            self.drop_trace.record(pkt, now, marked=True)

    # ------------------------------------------------------------------
    def _in_flight(self) -> bool:
        """A fused transmission whose tx-complete key is not yet reached."""
        t = self._done_at
        now = self.sim.now
        return now < t or (now == t and not self.sim.dispatched(t, self._done_seq))

    @property
    def busy(self) -> bool:
        """Whether the transmitter is occupied (a packet is serializing)."""
        return self._tx_event or self._in_flight()

    @property
    def packets_forwarded(self) -> int:
        """Packets whose transmission has completed."""
        return self._forwarded - 1 if self._in_flight() else self._forwarded

    @property
    def bytes_forwarded(self) -> int:
        """Bytes of the packets whose transmission has completed."""
        if self._in_flight():
            return self._forwarded_bytes - self._done_size
        return self._forwarded_bytes

    # ------------------------------------------------------------------
    def send(self, pkt: Packet) -> EnqueueResult:
        """Offer a packet to the link.

        If the transmitter is idle and the queue empty the packet starts
        transmitting immediately; otherwise it is offered to the queue,
        which may drop or ECN-mark it.
        """
        sim = self.sim
        now = sim.now
        self.packets_offered += 1
        if self.arrival_trace is not None:
            self.arrival_trace.record(pkt, now)
        if not self.is_up:
            self.packets_dropped_down += 1
            if self.drop_trace is not None:
                self.drop_trace.record(pkt, now, marked=False)
            sim.free_packet(pkt)
            return EnqueueResult.DROPPED
        drain = False
        if not self._tx_event:
            t = self._done_at
            if now > t or (now == t and sim.dispatched(t, self._done_seq)):
                if self._owes_pop:
                    self._owes_pop = False
                    self.queue.pop(t)
                if not self.queue:
                    self._start(pkt)
                    return EnqueueResult.ENQUEUED
            else:
                # A fused transmission is in flight: from here on its
                # tx-complete is a real event, the drain.
                drain = True
        result = self.queue.push(pkt, now)
        if result is EnqueueResult.DROPPED:
            if self.drop_trace is not None:
                self.drop_trace.record(pkt, now, marked=False)
            # The link is the dropped packet's terminal consumer: recycle it.
            sim.free_packet(pkt)
        elif result is EnqueueResult.MARKED:
            if self.drop_trace is not None:
                self.drop_trace.record(pkt, now, marked=True)
        if drain:
            self._tx_event = True
            self._owes_pop = False
            sim.schedule_fast_at(self._done_at, self._done_seq, self._drain, ())
        return result

    # -- fused path (delay > 0) ------------------------------------------
    def _transmit_fused(self, pkt: Packet) -> None:
        sim = self.sim
        size = pkt.size
        tx_time = size * 8.0 / self.rate_bps
        self.busy_time += tx_time
        self._forwarded += 1
        self._forwarded_bytes += size
        done = sim.now + tx_time
        # Reserve the skipped tx-complete's key, then the delivery's.
        seq = sim.reserve_seq(2)
        self._done_at = done
        self._done_seq = seq
        self._done_size = size
        self._owes_pop = True
        sim.schedule_fast_at(done + self.delay, seq + 1, self.dst.receive, (pkt, self))

    def _drain(self) -> None:
        """The tx-complete of a fused transmission with a queue behind it."""
        self._tx_event = False
        nxt = self.queue.pop(self.sim.now)
        if nxt is not None:
            self._transmit_fused(nxt)
            if self.queue:
                self._tx_event = True
                self._owes_pop = False
                self.sim.schedule_fast_at(self._done_at, self._done_seq, self._drain, ())

    # -- inline path (delay == 0) ----------------------------------------
    def _transmit_inline(self, pkt: Packet) -> None:
        self._tx_event = True
        tx_time = pkt.size * 8.0 / self.rate_bps
        self.busy_time += tx_time
        self.sim.schedule_fast(tx_time, self._done_inline, pkt)

    def _done_inline(self, pkt: Packet) -> None:
        self._forwarded += 1
        self._forwarded_bytes += pkt.size
        nxt = self.queue.pop(self.sim.now)
        if nxt is not None:
            self._transmit_inline(nxt)
        else:
            self._tx_event = False
        self.dst.receive(pkt, self)

    # -- two-event path (subclass hooks) ---------------------------------
    def _transmit(self, pkt: Packet) -> None:
        """Start transmitting ``pkt`` (two-event path hook)."""
        self._occupy(pkt, pkt.size * 8.0 / self.rate_bps)

    def _occupy(self, pkt: Packet, tx_time: float) -> None:
        """Hold the transmitter for ``tx_time``, then fire the tx-complete."""
        self._tx_event = True
        self.busy_time += tx_time
        # Transmission/delivery timers are never cancelled: slot-free path.
        self.sim.schedule_fast(tx_time, self._transmission_done, pkt)

    def _transmission_done(self, pkt: Packet) -> None:
        """Tx-complete of ``pkt`` (two-event path hook)."""
        self._complete(pkt, self.delay)

    def _complete(self, pkt: Packet, delay: float) -> None:
        """Book ``pkt`` as forwarded, deliver it after ``delay``, and serve
        the next queued packet."""
        self._forwarded += 1
        self._forwarded_bytes += pkt.size
        self.sim.schedule_fast(delay, self.dst.receive, pkt, self)
        nxt = self.queue.pop(self.sim.now)
        if nxt is not None:
            self._transmit(nxt)
        else:
            self._tx_event = False

    # ------------------------------------------------------------------
    def take_down(self) -> None:
        """Fault injection: the link stops accepting packets.

        Packets already transmitting or queued continue to drain (the far
        end of a cut fiber still receives bits in flight); every *new*
        offer is dropped and counted in ``packets_dropped_down``.
        Idempotent.
        """
        if self.is_up:
            self.is_up = False
            self.flap_count += 1
            if self.registry is not None:
                self.registry.counter(f"link.{self.name}.flaps").inc()

    def bring_up(self) -> None:
        """Fault injection: the link accepts packets again.  Idempotent."""
        self.is_up = True

    # ------------------------------------------------------------------
    def utilization(self, duration: float) -> float:
        """Fraction of ``duration`` the transmitter was busy.

        Returns the *raw* busy-time ratio.  A value above 1.0 means the
        link's busy-time accounting over-counted — a conservation bug the
        invariant layer should surface, never something to clamp away —
        so overruns are counted and reported as a metrics warning.  (Busy
        time is booked at transmission start, so a run cut off mid-packet
        can legitimately read one packet's tx time above 1.0; anything
        beyond that is an accounting error.)
        """
        if duration <= 0:
            raise ValueError("duration must be positive")
        ratio = self.busy_time / duration
        if ratio > 1.0:
            self.utilization_overruns += 1
            if self.registry is not None:
                self.registry.counter(f"link.{self.name}.utilization_overruns").inc()
                self.registry.warn(
                    f"link {self.name}: utilization {ratio:.6f} exceeds 1.0 over "
                    f"{duration:.6f}s (busy_time={self.busy_time:.6f}s)"
                )
        return ratio

    def attach_metrics(self, registry: "MetricsRegistry") -> None:
        """Expose live link accounting as callback gauges in ``registry``."""
        self.registry = registry
        prefix = f"link.{self.name}"
        registry.gauge(f"{prefix}.packets_offered", fn=lambda: self.packets_offered)
        registry.gauge(f"{prefix}.packets_forwarded", fn=lambda: self.packets_forwarded)
        registry.gauge(f"{prefix}.bytes_forwarded", fn=lambda: self.bytes_forwarded)
        registry.gauge(f"{prefix}.busy_time", fn=lambda: self.busy_time)
        registry.gauge(
            f"{prefix}.packets_dropped_down", fn=lambda: self.packets_dropped_down
        )
        self.queue.attach_metrics(registry)

    def tx_time(self, size_bytes: int) -> float:
        """Transmission time for a packet of ``size_bytes``."""
        return size_bytes * 8.0 / self.rate_bps

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Link {self.name} ->{self.dst!r} {self.rate_bps/1e6:.1f}Mbps {self.delay*1e3:.1f}ms>"
