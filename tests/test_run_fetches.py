"""The one run sequence: ``run_fetches`` over a list of fetches.

Every experiment, campaign cell, fuzz case and serving schedule is a
fetch list handed to this driver, so what is pinned here — start
times, the timeout rule, the stop rule, per-fetch byte integrity, what
comes back after a violation — holds for all of them.
"""

import pytest

from repro.experiments import ExperimentConfig
from repro.experiments.runner import (Fetch, build_testbed, collect_result,
                                      run_fetches)
from repro.sim.faults import FaultInjector, match_nth_data
from repro.verify.oracles import InvariantViolation
from repro.workload.corpus import corpus_object

SIZE = 40 * 1460


def _files(**seeds):
    return {name: corpus_object("file1", SIZE, seed)
            for name, seed in seeds.items()}


def _config(**extra):
    fields = dict(policy="cache_flush", seed=5, time_limit=120.0,
                  verify_content=True)
    fields.update(extra)
    return ExperimentConfig(**fields)


def test_overlapping_fetches_are_each_held_to_their_own_object():
    """Two different objects in flight at once, integrity armed: each
    sink keeps its own offset, so interleaved chunks are not taken for
    divergence (one shared offset would flag the first chunk of the
    second flow)."""
    config = _config(verify=True)
    testbed = build_testbed(config)
    run = run_fetches(testbed, config, _files(a=3, b=4),
                      [Fetch("a"), Fetch("b", at=0.002)])
    first, second = run.outcomes
    assert second.started_at == 0.002
    assert second.first_byte_at < first.finished_at      # they overlapped
    assert first.completed and second.completed
    assert first.content_ok is True and second.content_ok is True
    assert testbed.verifier.violations == 0
    assert testbed.verifier.regions_checked > 0          # it was live


def test_gap_starts_the_next_fetch_after_the_previous_one_ends():
    config = _config()
    testbed = build_testbed(config)
    run = run_fetches(testbed, config, _files(a=3, b=4),
                      [Fetch("a"), Fetch("b", gap=0.05)])
    first, second = run.outcomes
    assert first.started_at == 0.0                       # inline, no event
    assert second.started_at == first.finished_at + 0.05
    assert all(outcome.completed for outcome in run.outcomes)
    # Nothing crosses the bottleneck during the pause, so the per-fetch
    # shares account for every byte the link was offered.
    assert all(share > 0 for share in run.link_bytes)
    assert (sum(run.link_bytes)
            == testbed.bottleneck_forward.stats.bytes_offered)


def test_timeout_aborts_the_fetch_and_the_run_still_ends():
    config = _config(policy=None)
    testbed = build_testbed(config)
    data = corpus_object("file1", 0, 3)                  # ~0.6 s at 1 MB/s
    run = run_fetches(testbed, config, {"big": data},
                      [Fetch("big", timeout=0.05)])
    (outcome,) = run.outcomes
    assert run.timeouts == 1
    assert outcome.stalled and not outcome.completed
    assert outcome.close_reason == "fetch_timeout"
    assert 0 < outcome.bytes_received < len(data)
    assert outcome.finished_at == 0.05
    assert testbed.sim.now == 0.05
    assert not testbed.client_stack.connections()[0].is_open


def test_timeout_is_not_counted_for_a_fetch_that_finished():
    config = _config()
    testbed = build_testbed(config)
    run = run_fetches(testbed, config, _files(a=3),
                      [Fetch("a", timeout=30.0), Fetch("a", gap=0.05)])
    assert run.timeouts == 0
    assert all(outcome.completed for outcome in run.outcomes)


def test_simulator_stops_at_the_last_fetch_end_not_the_time_limit():
    config = _config()
    testbed = build_testbed(config)
    run = run_fetches(testbed, config, _files(a=3, b=4),
                      [Fetch("b", at=0.3), Fetch("a")])
    late, early = run.outcomes[1], run.outcomes[0]
    assert (early.name, late.name) == ("a", "b")         # start order
    assert late.started_at == 0.3
    assert testbed.sim.now == max(early.finished_at, late.finished_at)
    assert testbed.sim.now < config.time_limit


def _buggy_testbed(config):
    """tcp_seq without its Fig. 7 guard, and one forced data loss: the
    retransmission is encoded against its own cached copy."""
    testbed = build_testbed(config)
    testbed.gateways.encoder.encoder.policy.entry_eligible = (
        lambda entry, meta: True)
    FaultInjector(testbed.bottleneck_forward).drop_when(match_nth_data(5))
    return testbed


def test_violation_is_raised_by_default_and_returned_on_request():
    config = _config(policy="tcp_seq", verify=True, tcp_min_rto=0.05,
                     tcp_max_rto=0.5, tcp_max_retries=6)
    files = _files(a=3)
    with pytest.raises(InvariantViolation) as raised:
        run_fetches(_buggy_testbed(config), config, files, [Fetch("a")])
    assert raised.value.oracle == "circular_dependency"

    testbed = _buggy_testbed(config)
    run = run_fetches(testbed, config, files, [Fetch("a")],
                      capture_violation=True)
    assert run.violation is not None
    assert run.violation.oracle == "circular_dependency"
    # The partial run is still a run: the scorecards of chaos and fuzz
    # are built from it.
    result = collect_result(testbed, run.outcomes[0], config)
    assert not result.completed
    assert 0 < result.outcome.bytes_received < SIZE
    assert result.sim_time == run.violation.context["sim_time"]
    assert result.forward_bytes_on_link > 0
