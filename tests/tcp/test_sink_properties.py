"""Property test: TcpSink's receive-side accounting and ACK stream.

The sink dedupes its byte accounting against the out-of-order buffer.
It used to keep a separate ``_delivered`` set, rebuilt on every in-order
packet, that always held the same sequence numbers.  ``LegacySink``
below is that implementation, kept as the oracle: on any stream of
duplicates, reordering and losses both must count the same packets and
bytes and emit the same ACKs at the same times.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Simulator
from repro.sim.node import Host
from repro.sim.packet import ACK, DATA
from repro.tcp import TcpSink


class LegacySink(TcpSink):
    """The previous receive path, with its ``_delivered`` set."""

    def __init__(self, *args, **kw):
        super().__init__(*args, **kw)
        self._delivered: set[int] = set()

    def receive(self, pkt):
        if pkt.kind != DATA:
            self.sim.free_packet(pkt)
            return
        now = self.sim.now
        self.packets_arrived += 1
        self.bytes_arrived += pkt.size
        if pkt.seq >= self.next_expected and pkt.seq not in self._delivered:
            self._delivered.add(pkt.seq)
            self.stats.packets_received += 1
            self.stats.bytes_received += pkt.size
        in_order = pkt.seq == self.next_expected
        if in_order:
            self.next_expected += 1
            while self.next_expected in self._out_of_order:
                self._out_of_order.remove(self.next_expected)
                self.next_expected += 1
            self._delivered = {s for s in self._delivered if s >= self.next_expected}
        elif pkt.seq > self.next_expected:
            self._out_of_order.add(pkt.seq)
        if self.delayed_acks and in_order and not pkt.ecn_marked:
            self._unacked_count += 1
            if self._unacked_count >= 2:
                self._send_ack(ecn_echo=False)
            elif self._delack_timer is None:
                self._delack_timer = self.sim.schedule(
                    self.delack_timeout, self._delack_fired
                )
            self.sim.free_packet(pkt)
            return
        self._send_ack(ecn_echo=pkt.ecn_marked)
        self.sim.free_packet(pkt)


class WireTap:
    def __init__(self, sim):
        self.sim = sim
        self.acks = []

    def send(self, pkt):
        self.acks.append((self.sim.now, pkt.seq, pkt.ecn_echo, pkt.meta))


def _drive(sink_cls, stream, delayed, sack):
    sim = Simulator()
    host = Host(sim)
    tap = WireTap(sim)
    host.uplink = tap
    sink = sink_cls(sim, host, 1, src=2, delayed_acks=delayed, sack=sack)
    for i, (seq, size, marked, kind) in enumerate(stream):
        pkt = sim.alloc_packet(1, seq, size, kind=kind)
        pkt.ecn_marked = marked
        sim.schedule_at(i * 0.01, sink.receive, pkt)
    sim.run()
    st_ = sink.stats
    return (st_.packets_received, st_.bytes_received, sink.packets_arrived,
            sink.bytes_arrived, sink.next_expected, tap.acks)


_arrival = st.tuples(
    st.integers(0, 24),                      # seq: gaps = losses, repeats = dups
    st.integers(40, 1500),                   # size
    st.booleans(),                           # ECN mark
    st.sampled_from([DATA, DATA, DATA, ACK]),
)


@settings(max_examples=200, deadline=None)
@given(stream=st.lists(_arrival, max_size=60), delayed=st.booleans(),
       sack=st.booleans())
def test_sink_matches_legacy_delivered_set(stream, delayed, sack):
    assert (_drive(TcpSink, stream, delayed, sack)
            == _drive(LegacySink, stream, delayed, sack))


@settings(max_examples=50, deadline=None)
@given(order=st.permutations(list(range(20))), dups=st.lists(st.integers(0, 19)))
def test_sink_reordered_full_stream_counts_each_packet_once(order, dups):
    """A complete stream, reordered and with duplicates, is received
    exactly once per sequence number under both implementations."""
    stream = [(s, 1000, False, DATA) for s in list(order) + dups]
    new = _drive(TcpSink, stream, False, False)
    assert new == _drive(LegacySink, stream, False, False)
    assert new[0] == 20 and new[1] == 20_000 and new[4] == 20
