"""Cross-commit goldens for single transfers.

The e2e harness holds repeats of a unit to the *same* commit's first
run, and only the serving mode has committed goldens, so a substrate
change (event engine, link, TCP) that shifted one tie-break would pass
both.  These pin one headline transfer per policy — file1, 5 % loss,
``seed=0``, ``corpus_seed=0``, 16 MB cache — down to the event count and
the last digit of the duration, and the no-DRE transfer at 20 % loss
(``"none@20"``), whose RTOs send the baseline through go-back-N
recovery that the 5 % row never enters.  A differing digit means the
substrate drew its sequence numbers or its random stream in a different
order.

To regenerate after an *intended* behaviour change, run this file as a
script (``PYTHONPATH=src python tests/test_transfer_goldens.py``) and
paste what it prints.
"""

import hashlib
import json

import pytest

from repro import ExperimentConfig, corpus_object
from repro.experiments import runner


def _config(run, **extra):
    """``run`` is a policy (``None``: no DRE) at 5 % loss, or
    ``"<policy>@<loss %>"`` with ``none`` for no DRE."""
    policy, loss_rate = run, 0.05
    if run is not None and "@" in run:
        name, _, percent = run.partition("@")
        policy = None if name == "none" else name
        loss_rate = int(percent) / 100
    return ExperimentConfig(corpus="file1", corpus_seed=0, policy=policy,
                            loss_rate=loss_rate, seed=0,
                            cache_bytes=16 * 1024 * 1024, **extra)


def _run(config):
    """``run_transfer``'s three pieces, keeping the testbed (for the
    event count)."""
    testbed = runner.build_testbed(config)
    data = corpus_object(config.corpus, config.file_size, config.corpus_seed)
    run = runner.run_fetches(testbed, config, {runner.FILE_NAME: data},
                             [runner.Fetch()])
    return testbed, runner.collect_result(testbed, run.outcomes[0], config)


def _undecodable(decoder_stats):
    """Packets the decoder could not hand on: a referenced payload was
    missing, or the reconstruction failed its checksum."""
    if decoder_stats is None:
        return 0
    return decoder_stats.undecodable_dropped + decoder_stats.checksum_dropped


def _observed(run):
    testbed, result = _run(_config(run))
    forward, reverse = result.bottleneck_forward, result.bottleneck_reverse
    return {
        "events": testbed.sim.events_processed,
        "duration": result.outcome.duration,
        "fwd_packets": forward.packets_offered,
        "fwd_bytes_offered": forward.bytes_offered,
        "fwd_lost": forward.packets_lost,
        "fwd_bytes_delivered": forward.bytes_delivered,
        "rev_bytes_offered": reverse.bytes_offered,
        "retransmissions": result.server_retransmissions,
        "timeouts": result.server_timeouts,
        "undecodable": _undecodable(result.decoder_stats),
        "completed": result.outcome.completed,
    }


GOLDEN = {
    None: {
        "events": 2450, "duration": 0.6718473199999946,
        "fwd_packets": 427, "fwd_bytes_offered": 635516, "fwd_lost": 21,
        "fwd_bytes_delivered": 604016, "rev_bytes_offered": 19171,
        "retransmissions": 21, "timeouts": 0, "undecodable": 0,
        "completed": True,
    },
    "cache_flush": {
        "events": 2690, "duration": 4.300100415999985,
        "fwd_packets": 537, "fwd_bytes_offered": 505602, "fwd_lost": 25,
        "fwd_bytes_delivered": 482382, "rev_bytes_offered": 17607,
        "retransmissions": 131, "timeouts": 17, "undecodable": 106,
        "completed": True,
    },
    "tcp_seq": {
        "events": 2703, "duration": 4.8002274479999745,
        "fwd_packets": 545, "fwd_bytes_offered": 497506, "fwd_lost": 25,
        "fwd_bytes_delivered": 475138, "rev_bytes_offered": 17405,
        "retransmissions": 139, "timeouts": 19, "undecodable": 114,
        "completed": True,
    },
    "k_distance": {
        "events": 2558, "duration": 1.7957401759999756,
        "fwd_packets": 479, "fwd_bytes_offered": 556409, "fwd_lost": 22,
        "fwd_bytes_delivered": 529801, "rev_bytes_offered": 18911,
        "retransmissions": 73, "timeouts": 5, "undecodable": 51,
        "completed": True,
    },
    "ack_gated": {
        "events": 2450, "duration": 0.575914087999999,
        "fwd_packets": 427, "fwd_bytes_offered": 497470, "fwd_lost": 21,
        "fwd_bytes_delivered": 473847, "rev_bytes_offered": 19171,
        "retransmissions": 21, "timeouts": 0, "undecodable": 0,
        "completed": True,
    },
    "adaptive_k": {
        "events": 2616, "duration": 2.0109996959999763,
        "fwd_packets": 501, "fwd_bytes_offered": 647290, "fwd_lost": 24,
        "fwd_bytes_delivered": 616091, "rev_bytes_offered": 19027,
        "retransmissions": 95, "timeouts": 6, "undecodable": 69,
        "completed": True,
    },
    # The §IV livelock: the naive encoder references a lost packet in
    # its own retransmission and the transfer never completes.
    "naive": {
        "events": 233, "duration": None,
        "fwd_packets": 62, "fwd_bytes_offered": 35495, "fwd_lost": 3,
        "fwd_bytes_delivered": 33811, "rev_bytes_offered": 975,
        "retransmissions": 20, "timeouts": 21, "undecodable": 37,
        "completed": False,
    },
    "none@20": {
        "events": 2556, "duration": 2.04754093599999,
        "fwd_packets": 508, "fwd_bytes_offered": 757016, "fwd_lost": 98,
        "fwd_bytes_delivered": 610016, "rev_bytes_offered": 22407,
        "retransmissions": 102, "timeouts": 5, "undecodable": 0,
        "completed": True,
    },
}


@pytest.mark.parametrize("policy", list(GOLDEN), ids=str)
def test_transfer_matches_golden(policy):
    assert _observed(policy) == GOLDEN[policy]


def _dispatch_log(policy):
    return _dispatch_run(_config(policy))[1]


def _dispatch_run(config):
    """The testbed of a run of ``config`` and :func:`dispatch_log`'s log
    of it."""
    testbed = runner.build_testbed(config)
    data = corpus_object(config.corpus, config.file_size, config.corpus_seed)
    return testbed, dispatch_log(testbed.sim, lambda: runner.run_fetches(
        testbed, config, {runner.FILE_NAME: data}, [runner.Fetch()]))


def dispatch_log(sim, run):
    """Every callback ``sim``'s loop dispatched while ``run()`` ran, as
    ``(simulated time, callback __qualname__)`` in dispatch order.

    A profile hook sees each call whose caller is ``Simulator.run``
    itself, so the log depends on the engine only through what it
    dispatches and when, not on how its loop is written.  A frame's
    qualname is its function's (``code.co_qualname`` needs Python 3.11).
    """
    import gc
    import sys
    import types
    from heapq import heappop

    from repro.sim.engine import Simulator

    run_code = Simulator.run.__code__
    engine_builtins = (heappop, max)   # the loop's own bookkeeping calls
    log = []
    qualnames = {}

    def qualname(code):
        name = qualnames.get(code)
        if name is None:
            name = qualnames[code] = next(
                ref.__qualname__ for ref in gc.get_referrers(code)
                if isinstance(ref, types.FunctionType))
        return name

    def on_event(frame, event, arg):
        if event == "call":
            if frame.f_back is not None and frame.f_back.f_code is run_code:
                name = qualname(frame.f_code)
            else:
                return
        elif (event == "c_call" and frame.f_code is run_code
                and arg not in engine_builtins):
            name = arg.__qualname__
        else:
            return
        log.append((sim.now, name))

    sys.setprofile(on_event)
    try:
        run()
    finally:
        sys.setprofile(None)
    return log


def _count_and_digest(log):
    digest = hashlib.sha256()
    for time, name in log:
        digest.update(f"{time!r} {name}\n".encode("ascii"))
    return len(log), digest.hexdigest()


def _dispatch_order(policy):
    """``(count, sha256)`` of :func:`_dispatch_log`."""
    return _count_and_digest(_dispatch_log(policy))


#: Read with every link crossing in one event, and held by
#: ``test_one_event_dispatch_is_the_two_event_one_less_transmitted`` to
#: the run in which every crossing takes two.  The event counts in
#: ``GOLDEN`` only catch a tie-order change that happens to move a
#: counted digit; this catches any.
GOLDEN_DISPATCH = {
    None: (
        2450,
        "ad7fb33f7a69a93f166530caea9a1c0c471df57532a547f8f717a63fc610a9a0"),
    "tcp_seq": (
        2703,
        "d64a6913e9b446c5637aaf380ed6d74130dcb020c4b50d9b514e84cff6b13c8c"),
    "none@20": (
        2556,
        "40957a87603b7f72bd2e7f16b3cbf1f5e81d0f47d57141ffd66f2962d3bdb9b6"),
}

#: The same runs with every crossing in two events, as read at the
#: commit before the engine stopped counting per event and packets
#: began storing their size (the ``none@20`` row at the commit before
#: SACK recovery walked its scoreboard once per call).
GOLDEN_DISPATCH_TWO_EVENT = {
    None: (
        4924,
        "0a3214bd11ba90b3675073835243280ec5412192c599eaac6c571dacd6eef295"),
    "tcp_seq": (
        5414,
        "4f41262066a1bc9ae17f12f972b69e7836c2c53e14b12dd068bc7e024c4fd77c"),
    "none@20": (
        5208,
        "1ec39b21195eab9ed1bf55632d33f0efc1f26b0120d6b7c390e2bf07d3ff61a4"),
}


@pytest.mark.parametrize("policy", list(GOLDEN_DISPATCH), ids=str)
def test_dispatch_order_matches_golden(policy):
    assert _dispatch_order(policy) == GOLDEN_DISPATCH[policy]


@pytest.mark.parametrize("policy", list(GOLDEN_DISPATCH), ids=str)
def test_one_event_dispatch_is_the_two_event_one_less_transmitted(
        policy, monkeypatch):
    """Crossing a link in one event drops its
    ``Link._transmitted`` entries and moves nothing else.

    The one-event ``_deliver`` takes its heap ``seq`` when the packet
    is offered, not when it finishes serialising, so at an exactly
    equal timestamp it could dispatch before an entry pushed while the
    packet serialised.  Equal logs here are the evidence that none of
    these runs contains such a tie.  The two-event run is the testbed
    built on ``tests/reference_sim.Link``, and it still reads the digest
    pinned before any crossing took one event.
    """
    from tests import reference_sim

    one_event = _dispatch_log(policy)
    monkeypatch.setattr(runner, "Link", reference_sim.Link)
    two_event = _dispatch_log(policy)
    assert [entry for entry in two_event
            if entry[1] != "Link._transmitted"] == one_event
    assert _count_and_digest(two_event) == GOLDEN_DISPATCH_TWO_EVENT[policy]


#: What the observers dispatch of their own: the telemetry sampler's
#: and the verifier's periodic ticks.
OBSERVER_TICKS = ("TelemetrySampler._tick", "VerificationHarness._tick")


@pytest.mark.parametrize("policy", ["tcp_seq", None], ids=str)
def test_observers_add_only_their_own_ticks(policy):
    """Telemetry, spans and the verifier change no crossing: an observed
    transfer dispatches the bare run's events in the bare run's order,
    plus the sampler's and the oracles' ticks, and every link counts
    what it counted bare."""
    bare, bare_log = _dispatch_run(_config(policy))
    observed, log = _dispatch_run(_config(policy, telemetry=True,
                                          spans=True, verify=True))
    ticks = [entry for entry in log if entry[1] in OBSERVER_TICKS]
    assert [entry for entry in log if entry[1] not in OBSERVER_TICKS] \
        == bare_log
    assert ticks and "Link._transmitted" not in {name for _, name in log}
    assert observed.sim.events_processed \
        == bare.sim.events_processed + len(ticks)
    assert ([(link.stats, back.stats) for link, back in observed.links]
            == [(link.stats, back.stats) for link, back in bare.links])


def _strip_spans(doc):
    # Wall times are host noise and packet ids come from a
    # process-global counter; everything else must replay exactly.
    spans = []
    for span in doc["spans"]:
        clean = {k: v for k, v in span.items() if k != "wall"}
        clean["tags"] = {k: v for k, v in span["tags"].items()
                         if k != "packet"}
        if "links" in clean:
            clean["links"] = [{k: v for k, v in link.items() if k != "packet"}
                              for link in clean["links"]]
        spans.append(clean)
    return dict(doc, spans=spans)


def _strip_telemetry(doc):
    # A post-mortem flight-recorder dump names packets by the same
    # process-global counter.
    rows = [dict(row, detail={k: v for k, v in row["detail"].items()
                              if k not in ("packet_id", "deps")})
            for row in doc["flight_recorder"]]
    return dict(doc, flight_recorder=rows)


def _digest(doc):
    return hashlib.sha256(
        json.dumps(doc, sort_keys=True).encode("ascii")).hexdigest()


def _observed_exports(policy, **extra):
    _testbed, result = _run(_config(policy, telemetry=True, spans=True,
                                    **extra))
    return {
        "telemetry/v1": _digest(_strip_telemetry(result.telemetry)),
        "repro.spans/v1": _digest(_strip_spans(result.spans)),
    }


#: Read at the commit before the span log went flat (PR 15): the
#: recorder, the sampler and every emission site were rewritten under
#: these and the documents did not move.  The ``verify`` run adds the
#: armed oracles, whose flight-recorder notes carry span ids.  The
#: ``k_distance`` pair and its ``GOLDEN`` row were re-read at PR 22
#: (SACK lost-retransmission detection: 7 timeouts became 5); no other
#: entry moved.  The ``resilience`` run, read before the observers were
#: attached in one place, arms the resilience gauges on both gateways;
#: its watchdog trip adds the flight-recorder dump to the document.  The
#: two ``verify`` telemetry digests were re-read when the coherence
#: checks stopped waiting on the reverse link: the run-end check now
#: runs, and ``verify.coherence_checks`` ends one higher (6 -> 7 and
#: 5 -> 6); nothing else in either document moved.
GOLDEN_EXPORTS = {
    "cache_flush": {
        "telemetry/v1":
            "45d9297d756f9f9aa1fff5dd545378f201bee43d15b4da7532bd32703eb5fe9e",
        "repro.spans/v1":
            "2b780705918fbf17f162ce239b2e2ec8d5b71f4466a0d8fac098cbcb4cd3bd77",
    },
    "tcp_seq": {
        "telemetry/v1":
            "470fcfefabe8217f04c38596d0a2ea4cb71decdcc7400eac84d73c4d767fd05b",
        "repro.spans/v1":
            "20ed780a5a61d83d0983ed09284d679e96c6adb28ec3ea2a61b61d7b18e8fa4a",
    },
    "k_distance": {
        "telemetry/v1":
            "c891543abc402c9d206e20a80698ddf9e528c7dff9e085bfb0d367038c1975b8",
        "repro.spans/v1":
            "78dd7beb136b81ea88ffa8f6faeb2d0c22af734fd74b83b2ecbe845fdfe1a266",
    },
    "tcp_seq+verify": {
        "telemetry/v1":
            "2bb223ef96d57d7a729206f931530eb94c38b0eb827475e6161073c30f4d8f50",
        "repro.spans/v1":
            "20ed780a5a61d83d0983ed09284d679e96c6adb28ec3ea2a61b61d7b18e8fa4a",
    },
    "tcp_seq+verify+resilience": {
        "telemetry/v1":
            "2d74bd766a5c98f813a1f66132f3e0eb17a98dffeeee1a9b3ae32c04ee71f8f7",
        "repro.spans/v1":
            "919c5493e76bde881fdaaf3c2ad7a85dcd18581846fc7354b8467e75d9c57f70",
    },
}


def _exports_of(run):
    policy, *flags = run.split("+")
    return _observed_exports(policy, verify="verify" in flags,
                             resilience="resilience" in flags)


def test_observer_exports_match_golden():
    """The observers see the same run: every sampled gauge, counter and
    span time of an observed transfer hashes as it did at PR 14."""
    assert _exports_of("cache_flush") == GOLDEN_EXPORTS["cache_flush"]


@pytest.mark.parametrize("run", ["tcp_seq", "k_distance", "tcp_seq+verify",
                                 "tcp_seq+verify+resilience"])
def test_more_observer_exports_match_golden(run):
    assert _exports_of(run) == GOLDEN_EXPORTS[run]


if __name__ == "__main__":  # pragma: no cover - golden regeneration
    import pprint

    pprint.pprint({policy: _observed(policy) for policy in GOLDEN},
                  sort_dicts=False)
    pprint.pprint({policy: _dispatch_order(policy)
                   for policy in GOLDEN_DISPATCH}, sort_dicts=False)
    pprint.pprint({run: _exports_of(run) for run in GOLDEN_EXPORTS})
