"""SACK recovery walks its scoreboard once per call, and decides as before.

``tests/reference_tcp.py`` keeps the loop that recomputed the pipe and
the next hole on every turn.  Random sequences of SACK blocks,
retransmission marks and lost-retransmission un-marks, cumulative ACKs,
fast-recovery entries, RTOs and window changes drive a real
``TCPConnection``; at every transmit step both loops start from the
same snapshot and must make the same send decisions in the same order
and leave the same scoreboard and pipe behind.
"""

from hypothesis import given, settings, strategies as st

from repro.net.tcp import TCPConfig, TCPConnection, TCPSegment, TCPState
from repro.net.tcp.sack import walk_scoreboard
from repro.sim import Simulator

from tests import reference_tcp

MSS = 8
QUEUED = 160                  # application bytes the sender holds
STREAM = bytes(range(256))    # byte i travels at sequence number i + 1


def _sender(unsent, fin_queued):
    """A sender in recovery with ``QUEUED - unsent`` bytes in flight."""
    segments = []
    conn = TCPConnection(Simulator(), segments.append, "10.0.0.2", 80,
                         "10.0.0.1", 4000, TCPConfig(mss=MSS))
    conn.state = TCPState.ESTABLISHED
    conn._buffer = bytearray(STREAM[:QUEUED])
    conn.snd_una = conn._buffer_seq = 1
    conn.snd_nxt = 1 + QUEUED - unsent
    conn._recovery_point = conn.snd_nxt
    conn._fin_queued = fin_queued
    return conn, segments


def _buffer_end(conn):
    return conn._buffer_seq + len(conn._buffer)


def _snapshot(conn):
    return reference_tcp.Snapshot(
        una=conn.snd_una, nxt=conn.snd_nxt, buffer_end=_buffer_end(conn),
        sacked=tuple(conn._sacked), marked=tuple(conn._retx_marked),
        rto_mode=conn._rto_mode, recovery_point=conn._recovery_point,
        cwnd=conn.cc.window(), peer_rwnd=conn._peer_rwnd, mss=MSS,
        fin_queued=conn._fin_queued, fin_seq=conn._fin_seq)


def _pipe(conn):
    """The pipe the connection's next ``_sack_transmit`` starts from."""
    if conn._rto_mode and conn._recovery_point is not None:
        lost_end = conn._recovery_point
    else:
        lost_end = conn._sacked.max_end()
    pipe, _holes = walk_scoreboard(conn._sacked, conn._retx_marked,
                                   conn.snd_una, conn.snd_nxt, lost_end,
                                   _buffer_end(conn))
    return pipe


def _decisions(segments, nxt):
    """The emitted ``segments`` as ``reference_tcp`` send decisions;
    ``nxt`` is ``snd_nxt`` before they were sent."""
    decisions = []
    for segment in segments:
        if segment.flags & TCPSegment.FIN:
            decisions.append(("fin", segment.seq))
            continue
        end = segment.seq + len(segment.data)
        assert segment.data == STREAM[segment.seq - 1:end - 1]
        decisions.append(("retransmit" if segment.seq < nxt else "new",
                          segment.seq, end))
    return decisions


def _transmit(conn, segments, force_front):
    before = _snapshot(conn)
    expected, after, pipe = reference_tcp.sack_transmit(before, force_front)
    del segments[:]
    conn._sack_transmit(force_front)
    assert _decisions(segments, before.nxt) == expected
    assert _snapshot(conn) == after
    assert _pipe(conn) == pipe


def _step(conn, segments, name, a, b):
    una, nxt = conn.snd_una, conn.snd_nxt
    if name == "send":
        # Its callers run it in recovery only: there una < nxt.
        if conn._recovery_point is not None:
            _transmit(conn, segments, force_front=a % 2 == 1)
    elif name == "sack":
        # Held to the two coverage scans the summed return replaced.
        before = conn._sacked.coverage(una, nxt)
        ack = TCPSegment(4000, 80, seq=1, ack=una, flags=TCPSegment.ACK,
                         window=1 << 16,
                         sack_blocks=((una + a, una + a + b),))
        advanced = conn._absorb_sack(ack)
        assert advanced == (conn._sacked.coverage(una, nxt) > before)
    elif name in ("mark", "unmark"):
        # A resend lies in the flight and the buffer; a lost one is
        # un-marked (``_detect_lost_retransmits``).
        start = una + a
        end = min(start + b, nxt, _buffer_end(conn))
        if name == "mark":
            conn._retx_marked.add(start, end)
        else:
            conn._retx_marked.remove(start, end)
    elif name == "ack":
        # The scoreboard half of ``_handle_new_ack``.
        ack = min(una + a, nxt)
        if ack > una:
            conn.snd_una = ack
            conn._trim_buffer(ack)
            conn._sacked.remove_below(ack)
            conn._retx_marked.remove_below(ack)
            if conn._recovery_point is not None \
                    and ack >= conn._recovery_point:
                conn._recovery_point = None
                conn._rto_mode = False
                conn._clear_retx_marks()
    elif name in ("rto", "recover") and nxt > una:
        conn._recovery_point = nxt
        conn._rto_mode = name == "rto"
        conn._clear_retx_marks()
    elif name == "cwnd":
        # Near the pipe, so that ``pipe + MSS`` often lands on it exactly.
        pipe = reference_tcp.pipe(_snapshot(conn))
        conn.cc.cwnd = max(0, pipe + (a % 5) * MSS + b % 3 - 1)
    elif name == "rwnd":
        conn._peer_rwnd = (a % 24) * MSS // 2 + b


_STEPS = st.lists(st.tuples(
    st.sampled_from(["send", "send", "sack", "sack", "mark", "unmark",
                     "ack", "rto", "recover", "cwnd", "rwnd"]),
    st.integers(0, QUEUED // 2), st.integers(-1, 3 * MSS)), max_size=40)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, QUEUED - 1), st.booleans(), _STEPS)
def test_sack_transmit_matches_reference(unsent, fin_queued, steps):
    conn, segments = _sender(unsent, fin_queued)
    for name, a, b in steps + [("send", 1, 0)]:
        _step(conn, segments, name, a, b)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 120), st.integers(1, 24)),
                max_size=30))
def test_out_of_order_data_and_ranges_empty_together(arrivals):
    """The in-order path and ``_send_ack`` test ``_ooo_data`` in place
    of ``_ooo_ranges``: after every arrival both are empty or neither."""
    conn = TCPConnection(Simulator(), lambda segment: None, "10.0.0.1",
                         4000, "10.0.0.2", 80)
    conn.rcv_nxt = 1
    delivered = bytearray()
    conn.on_receive = delivered.extend
    for offset, length in arrivals:
        conn._ingest_data(1 + offset, STREAM[offset:offset + length])
        assert (not conn._ooo_data) == (not conn._ooo_ranges)
    assert bytes(delivered) == STREAM[:conn.rcv_nxt - 1]
