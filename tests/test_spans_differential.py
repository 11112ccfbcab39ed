"""Differential test: the flat-log ``SpanRecorder`` against the
object-per-span recorder it replaced (``tests/reference_spans.py``).

Hypothesis draws a scenario — interleaved packets crossing encode,
link and decode, retransmit decisions, nested fault windows, resync
handshakes, clock steps — and two drivers play it, one per recorder,
each spelling a step the way the production sites of its era did
(keyword tags and begin/end stage pairs for the reference, positional
tags, one-shot stages and the encoder's batched ``encode_stages`` for
the live one).  The ``spans/v1`` exports
must agree on everything except ``wall``, and so must the ids the
flight recorder and the oracles ask for along the way.
"""

from hypothesis import given, settings, strategies as st

from repro.metrics.spans import SpanRecorder, validate_spans
from tests.reference_spans import SpanRecorder as ReferenceRecorder

FLOWS = [None, ("s", 80, "c", 1000), ("s", 80, "c", 1001),
         ("s", 443, "d", 7), ("t", 80, "c", 1000)]
FAULTS = ["link_flap", "gateway_down", "bursty_loss"]


class Clock:
    def __init__(self):
        self.now = 0.0


class LiveDriver:
    """Plays a scenario the way today's sites call the recorder."""

    def __init__(self, **kwargs):
        self.clock = Clock()
        self.rec = SpanRecorder(sim=self.clock, **kwargs)
        self.resync = None

    def encode(self, pid, flow, seq, regions, deps, bytes_out, staged):
        rec = self.rec
        span = rec.packet_begin("encode", "enc-gw", pid, flow, seq)
        # The encoder's three stage spans go out in one call; an
        # unstaged encode (raw or refused) has only the wire packing.
        if staged:
            rec.encode_stages("encoder-core", 0.0, 0.0, 0.0, regions,
                              len(deps), bytes_out)
        else:
            rec.encode_stages("encoder-core", None, None, 0.0, 0, 0,
                              bytes_out)
        if deps:
            rec.link_deps(span, deps)
        rec.end(span, bool(deps), 1460, bytes_out)

    def decode(self, pid, flow, seq, status, missing, regions, malformed):
        rec = self.rec
        span = rec.packet_begin("decode", "dec-gw", pid, flow, seq)
        if regions:
            if malformed:
                rec.stage("reconstruct", "decoder-core", 0.0, regions, None,
                          "malformed")
            else:
                rec.stage("reconstruct", "decoder-core", 0.0, regions, 1460)
        rec.end(span, status, missing)

    def link_begin(self, pid, size):
        self.rec.link_begin("link.fwd", pid, size)

    def link_annotate(self, pid, tag):
        self.rec.link_annotate(pid, tag)

    def link_end(self, pid, outcome, reason):
        self.rec.link_end(pid, outcome, reason)

    def packet_event(self, kind, pid, fault):
        if fault is None:
            self.rec.packet_event(kind, "link.fwd", pid)
        else:
            self.rec.packet_event("fault_" + fault, "link.fwd", pid, fault)

    def retransmit(self, flow, seq, length):
        self.rec.note_retransmit("tcp:s:80", flow, seq, length)

    def control_event(self, kind, a, b):
        self.rec.event(kind, "dec-gw", a, b)

    def resync_open(self, resync_id):
        self.resync = self.rec.open("resync", "dec-gw", resync_id)

    def resync_retry(self, attempt, delay):
        self.rec.child_event(self.resync, "resync_retry", "dec-gw", attempt,
                             delay)

    def resync_close(self, outcome, epoch, retries):
        self.rec.end(self.resync, outcome, epoch, retries)
        self.resync = None

    def packet_ids(self, pid):
        """The ids of the packet's latest span, read as the flight
        recorder reads them."""
        row = self.rec.packet_rows.get(pid)
        return (None, None) if row is None else self.rec.span_ids(row)


class ReferenceDriver(LiveDriver):
    """The same steps as the sites spelt them at the parent commit."""

    def __init__(self, **kwargs):
        self.clock = Clock()
        self.rec = ReferenceRecorder(sim=self.clock, **kwargs)
        self.resync = None

    def packet_ids(self, pid):
        return self.rec.ids_for_packet(pid)

    def encode(self, pid, flow, seq, regions, deps, bytes_out, staged):
        rec = self.rec
        span = rec.packet_begin("encode", "enc-gw", pid, flow=flow, seq=seq)
        if staged:
            rec.end_stage(rec.begin_stage("table_probe", "encoder-core"))
            stage = rec.begin_stage("region_expand", "encoder-core")
            rec.end_stage(stage, regions=regions, dependencies=len(deps))
        stage = rec.begin_stage("wire_pack", "encoder-core")
        rec.end_stage(stage, bytes_out=bytes_out)
        if deps:
            rec.link_deps(span, deps)
        rec.packet_end(span, encoded=bool(deps), bytes_in=1460,
                       bytes_out=bytes_out)

    def decode(self, pid, flow, seq, status, missing, regions, malformed):
        rec = self.rec
        span = rec.packet_begin("decode", "dec-gw", pid, flow=flow, seq=seq)
        if regions:
            stage = rec.begin_stage("reconstruct", "decoder-core",
                                    regions=regions)
            if malformed:
                rec.end_stage(stage, outcome="malformed")
            else:
                rec.end_stage(stage, bytes_out=1460)
        if missing is None:
            rec.packet_end(span, status=status)
        else:
            rec.packet_end(span, status=status, missing=missing)

    def link_begin(self, pid, size):
        self.rec.link_begin("link.fwd", pid, bytes=size)

    def link_annotate(self, pid, tag):
        self.rec.link_annotate(pid, **{tag: True})

    def link_end(self, pid, outcome, reason):
        if reason is None:
            self.rec.link_end(pid, outcome)
        else:
            self.rec.link_end(pid, outcome, reason=reason)

    def packet_event(self, kind, pid, fault):
        if fault is None:
            self.rec.packet_event(kind, "link.fwd", pid)
        else:
            self.rec.packet_event("fault_" + fault, "link.fwd", pid,
                                  fault=fault)

    def retransmit(self, flow, seq, length):
        self.rec.note_retransmit("tcp:s:80", flow, seq, length=length)

    def control_event(self, kind, a, b):
        names = {"watchdog_trip": ("undecodable", "window"),
                 "resync_served": ("resync_id", "epoch")}[kind]
        self.rec.event(kind, "dec-gw", **dict(zip(names, (a, b))))

    def resync_open(self, resync_id):
        self.resync = self.rec.open("resync", "dec-gw", resync_id=resync_id)

    def resync_retry(self, attempt, delay):
        self.rec.child_event(self.resync, "resync_retry", "dec-gw",
                             attempt=attempt, delay=delay)

    def resync_close(self, outcome, epoch, retries):
        tags = {"outcome": outcome, "epoch": epoch, "retries": retries}
        self.rec.end(self.resync, **{k: v for k, v in tags.items()
                                     if v is not None})
        self.resync = None


packet_ids = st.integers(0, 11)
flows = st.sampled_from(FLOWS)
seqs = st.one_of(st.none(), st.integers(0, 5).map(lambda n: n * 1460))

STEPS = st.one_of(
    st.tuples(st.just("encode"), packet_ids, flows, seqs, st.integers(0, 4),
              st.lists(packet_ids, max_size=4, unique=True),
              st.integers(40, 1500), st.booleans()),
    st.tuples(st.just("decode"), packet_ids, flows, seqs,
              st.sampled_from(["ok", "missing", "checksum_mismatch",
                               "malformed", "desync_drop"]),
              st.one_of(st.none(), st.integers(0, 3)), st.integers(0, 3),
              st.booleans()),
    st.tuples(st.just("link_begin"), packet_ids, st.integers(40, 1500)),
    st.tuples(st.just("link_annotate"), packet_ids,
              st.sampled_from(["corrupted", "reordered"])),
    st.tuples(st.just("link_end"), packet_ids,
              st.sampled_from([("delivered", None), ("lost", "loss"),
                               ("lost", "link_down")])),
    st.tuples(st.just("packet_event"),
              st.sampled_from(["queue_drop", "drop_gateway_down"]),
              packet_ids,
              st.one_of(st.none(), st.sampled_from(["drop", "delay"]))),
    st.tuples(st.just("retransmit"), flows, st.integers(0, 5).map(
        lambda n: n * 1460), st.integers(1, 1460)),
    st.tuples(st.just("control_event"),
              st.sampled_from(["watchdog_trip", "resync_served"]),
              st.integers(0, 9), st.integers(0, 9)),
    st.tuples(st.just("resync"), st.integers(1, 3), st.integers(0, 2),
              st.sampled_from([("completed", 2, None), ("gave_up", None, 5),
                               ("aborted_by_restart", None, None)])),
    st.tuples(st.just("fault_begin"), st.sampled_from(FAULTS)),
    st.tuples(st.just("fault_end"), st.sampled_from(FAULTS)),
    st.tuples(st.just("tick"), st.floats(0.0, 0.5)),
)


def play(driver, steps):
    """Run one scenario; returns the ids observers read along the way."""
    seen = []
    rec = driver.rec
    for step in steps:
        op, args = step[0], step[1:]
        if op == "link_end":
            driver.link_end(args[0], *args[1])
        elif op == "resync":
            resync_id, retries, close = args
            driver.resync_open(resync_id)
            for attempt in range(retries):
                driver.resync_retry(attempt + 1, 0.1 * (attempt + 1))
            driver.resync_close(*close)
        elif op == "fault_begin":
            rec.fault_begin(args[0])
        elif op == "fault_end":
            rec.fault_end(args[0])
        elif op == "tick":
            driver.clock.now += args[0]
        else:
            getattr(driver, op)(*args)
        seen.append((rec.current_ids(), driver.packet_ids(step[1])
                     if isinstance(step[1], int) else None))
    return seen


def without_wall(doc):
    return dict(doc, spans=[{k: v for k, v in span.items() if k != "wall"}
                            for span in doc["spans"]])


@settings(max_examples=300, deadline=None)
@given(steps=st.lists(STEPS, max_size=60),
       trace_sample=st.integers(1, 3),
       max_spans=st.sampled_from([0, 3, 8, 20, 50_000]))
def test_flat_log_exports_what_the_object_recorder_did(steps, trace_sample,
                                                       max_spans):
    live = LiveDriver(trace_sample=trace_sample, max_spans=max_spans)
    reference = ReferenceDriver(trace_sample=trace_sample,
                                max_spans=max_spans)
    assert play(live, steps) == play(reference, steps)
    doc = live.rec.export()
    assert without_wall(doc) == without_wall(reference.rec.export())
    validate_spans(doc)
    assert (live.rec.traces, live.rec.dropped) == (
        reference.rec.traces, reference.rec.dropped)
