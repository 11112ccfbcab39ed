"""Serving mode: Zipf sampler, sessions, engine goldens, 10k soak.

The property tests pin the statistical and determinism contracts of
the serving workload; the golden test freezes the end-to-end numbers
of one small fixed run so a cache/encoder change that shifts serving
results is caught deliberately; the soak run holds the sharded-cache
invariants and the no-per-flow-leak bound under 10k requests of churn.
"""

import json
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import ExperimentConfig
from repro.experiments.runner import Fetch, build_testbed, run_fetches
from repro.experiments.sweep import SweepSpec, parallel_map, run_sweep
from repro.serving import ServingSpec, generate_sessions, run_serving
from repro.serving.engine import deterministic_report
from repro.serving.sessions import SessionSpec, session_digest
from repro.sim.faults import FaultInjector, match_nth_data
from repro.workload.catalog import (CatalogSpec, ContentCatalog,
                                    zipf_sample_counts)


# ---------------------------------------------------------------------------
# Zipf sampler matches the theoretical pmf (chi-square)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("alpha", [0.6, 0.8, 1.0, 1.2])
def test_zipf_sampler_matches_pmf(alpha):
    """Observed draw frequencies fit rank^-alpha within chi-square.

    With k-1 degrees of freedom the chi-square statistic concentrates
    around k-1 (sd ~ sqrt(2k)); a sampler drawing from the wrong
    distribution blows through the 2*(k-1) ceiling immediately, while
    a correct one stays near it for any seed.
    """
    spec = CatalogSpec(n_contents=50, alpha=alpha, seed=11)
    n_samples = 60_000
    counts = zipf_sample_counts(spec, n_samples)
    pmf = ContentCatalog(spec).pmf()
    chi2 = sum((counts[i] - n_samples * pmf[i]) ** 2 / (n_samples * pmf[i])
               for i in range(spec.n_contents))
    dof = spec.n_contents - 1
    assert chi2 < 2.0 * dof, (
        f"alpha={alpha}: chi-square {chi2:.1f} vs {dof} dof")


@given(alpha=st.floats(0.0, 1.5), seed=st.integers(0, 2**31))
@settings(max_examples=30, deadline=None)
def test_zipf_sampler_total_and_support(alpha, seed):
    """Every draw lands in [0, n); counts sum to the sample size."""
    spec = CatalogSpec(n_contents=20, alpha=alpha, seed=seed)
    counts = zipf_sample_counts(spec, 2_000)
    assert counts.sum() == 2_000
    assert len(counts) == 20
    # Monotone pmf: rank 0 is the most popular content in expectation.
    pmf = ContentCatalog(spec).pmf()
    assert all(pmf[i] >= pmf[i + 1] - 1e-12 for i in range(19))
    assert math.isclose(float(pmf.sum()), 1.0, rel_tol=1e-9)


def test_catalog_objects_deterministic_and_distinct():
    spec = CatalogSpec(n_contents=10, seed=5)
    a, b = ContentCatalog(spec), ContentCatalog(spec)
    for cid in range(10):
        assert a.object_bytes(cid) == b.object_bytes(cid)
        assert len(a.object_bytes(cid)) == a.size_of(cid)
    assert a.object_bytes(0) != a.object_bytes(1)
    assert a.content_id(a.name_of(7)) == 7
    with pytest.raises(KeyError):
        a.content_id("c999")
    with pytest.raises(KeyError):
        a.content_id("bogus")


# ---------------------------------------------------------------------------
# session generator: deterministic across reruns and worker counts
# ---------------------------------------------------------------------------

def _session_digest_job(seed):
    """Module-level so the process pool can pickle it."""
    catalog = ContentCatalog(CatalogSpec(n_contents=40, seed=seed))
    requests = generate_sessions(
        SessionSpec(users=30, seed=seed), catalog)
    return session_digest(requests)


@given(seed=st.integers(0, 2**31))
@settings(max_examples=20, deadline=None)
def test_sessions_byte_identical_across_reruns(seed):
    catalog = ContentCatalog(CatalogSpec(n_contents=40, seed=seed))
    spec = SessionSpec(users=25, seed=seed)
    first = generate_sessions(spec, catalog)
    second = generate_sessions(spec, catalog)
    assert first == second
    assert session_digest(first) == session_digest(second)
    # Time-ordered, non-negative, content ids in range.
    assert all(a.time <= b.time for a, b in zip(first, first[1:]))
    assert all(0 <= r.content_id < 40 and r.time >= 0 for r in first)


def test_sessions_byte_identical_across_worker_counts():
    seeds = [3, 7, 11]
    serial = parallel_map(_session_digest_job, seeds)
    pooled = parallel_map(_session_digest_job, seeds, workers=2)
    assert serial == pooled


def test_sessions_respect_max_requests_and_users():
    catalog = ContentCatalog(CatalogSpec(n_contents=10, seed=1))
    capped = generate_sessions(
        SessionSpec(users=50, seed=1, max_requests=20), catalog)
    uncapped = generate_sessions(SessionSpec(users=50, seed=1), catalog)
    assert len(capped) == 20
    assert capped == uncapped[:20]
    assert len({r.user for r in uncapped}) == 50


# ---------------------------------------------------------------------------
# golden end-to-end runs (seed 7, 50 users, 200 contents)
# ---------------------------------------------------------------------------

def test_serving_golden_run():
    """Frozen numbers for the canonical small serve-sim.

    Any cache/encoder/session change that shifts serving results must
    update these constants consciously, with the shift explained in
    the PR — that is the point of the test.
    """
    report = run_serving(ServingSpec(users=50, n_contents=200, seed=7))
    assert report["requests"]["total"] == 85
    assert report["requests"]["completed"] == 85
    assert report["requests"]["timeouts"] == 0
    assert report["requests"]["unfinished"] == 0
    assert report["steady"]["hit_ratio"] == pytest.approx(
        0.8203125, rel=1e-12)
    assert report["steady"]["bytes_saved_ratio"] == pytest.approx(
        0.42451746521818334, rel=1e-9)
    assert report["cache"]["evictions"] == 0
    assert report["steady"]["samples"] == 68


def test_serving_golden_run_under_memory_pressure():
    """Same run with a 64 KB budget: evictions happen, hits survive."""
    report = run_serving(ServingSpec(users=50, n_contents=200, seed=7,
                                     cache_bytes=64 * 1024, cache_shards=4))
    assert report["requests"]["completed"] == 85
    assert report["cache"]["evictions"] == 680
    assert report["steady"]["hit_ratio"] == pytest.approx(
        0.8151041666666666, rel=1e-12)
    assert report["steady"]["bytes_saved_ratio"] == pytest.approx(
        0.4085336503888084, rel=1e-9)
    # Per-shard occupancy never exceeds its split budget.
    for shard in report["cache"]["shards"]:
        assert shard["bytes"] <= shard["byte_budget"]


@pytest.mark.parametrize("policy, seed, total", [
    pytest.param("k_distance", 0, 115, id="k_distance"),
    pytest.param("tcp_seq", 0, 115, id="tcp_seq"),
    pytest.param("tcp_seq", 10, 133, id="tcp_seq-seed10"),
    pytest.param("tcp_seq", 13, 113, id="tcp_seq-seed13"),
])
def test_cache_pressure_unit_completes_every_request(policy, seed, total):
    """The e2e bench's ``serve_cache_pressure`` unit, spelled out.

    Under ``tcp_seq`` a retransmission takes no cross-flow region: when
    a retransmission could source another flow's packet, seeds 0, 10
    and 13 left 3, 3 and 7 requests unfinished (two flows encoded
    against each other's lost packets and backed off to abort).  The
    encoder's fingerprint log keeps only entries whose packet is
    stored, so it ends at most one doubling above the 16,384 slots a
    256 KiB cache starts with.
    """
    report = run_serving(ServingSpec(
        users=60, n_contents=1000, alpha=0.8, mean_object_bytes=8192,
        policy=policy, cache_bytes=256 * 1024, cache_shards=8,
        cache_eviction="lru", loss_rate=0.01, fetch_timeout=30.0,
        seed=seed))
    requests = report["requests"]
    assert requests["total"] == total
    assert requests["completed"] == total
    assert requests["timeouts"] == 0
    assert requests["stalled"] == 0
    assert requests["content_mismatches"] == 0
    assert report["cache"]["log_slots"] <= 32_768


def _two_flows_one_loss(policy, verify=False, patch=None):
    """Two fetches at t = 0 on objects sharing 24 KiB (the second has a
    100-byte prefix); the 9th data segment offered to the forward
    bottleneck -- a first transmission -- is dropped."""
    base = random.Random(1).randbytes(24 * 1024)
    files = {"a": base, "b": b"B" * 100 + base}
    config = ExperimentConfig(policy=policy, seed=0, time_limit=30.0,
                              tcp_min_rto=0.05, tcp_max_rto=0.5,
                              tcp_max_retries=8, verify=verify)
    testbed = build_testbed(config)
    if patch is not None:
        patch(testbed.gateways.encoder.encoder.policy)
    FaultInjector(testbed.bottleneck_forward).drop_when(match_nth_data(9))
    received = [bytearray(), bytearray()]
    run = run_fetches(testbed, config, files,
                      [Fetch(name="a"), Fetch(name="b")],
                      on_data=lambda index, chunk: received[index].extend(
                          chunk))
    return files, run, received


@pytest.mark.parametrize("policy", ["k_distance", "cache_flush", "tcp_seq"])
def test_two_flows_survive_one_scripted_loss(policy):
    """ROADMAP item 1 shrunk to two flows and one loss.

    When a ``tcp_seq`` retransmission could source another flow's
    packet, both flows stopped at 7,300 bytes here: each side's resends
    were encoded against the other flow's undecodable packets, and the
    server gave up.  With a retransmission confined to its own flow's
    strictly earlier segments, every single drop of the search in
    EXPERIMENTS.md completes under all three policies.
    """
    files, run, received = _two_flows_one_loss(policy)
    assert [outcome.completed for outcome in run.outcomes] == [True, True]
    assert received == [files["a"], files["b"]]


def test_tcp_seq_oracle_catches_cross_flow_retransmission():
    """Put back the old eligibility -- a cross-flow source is always
    eligible -- on the encoder's policy instance: the verified two-flow
    case fails on the ``tcp_seq`` oracle's own retransmission detector,
    at a retransmission that sources the other flow."""
    from repro.verify.oracles import InvariantViolation

    def cross_flow_always_eligible(policy):
        def eligible(entry, meta):
            if meta.tcp_seq is None:
                return False
            if entry.flow != meta.flow:
                return True
            return entry.tcp_seq is not None and entry.tcp_seq < meta.tcp_seq
        policy.entry_eligible = eligible

    with pytest.raises(InvariantViolation) as caught:
        _two_flows_one_loss("tcp_seq", verify=True,
                            patch=cross_flow_always_eligible)
    assert caught.value.oracle == "tcp_seq"
    assert caught.value.context["seq_new"] <= \
        caught.value.context["high_seq"]


def test_admission_applies_without_shards():
    """``cache_admission`` reaches the unsharded cache as well: the
    content-keyed coin rejects the same payloads, so the run saves the
    same bytes as the 8-shard one."""
    spec = dict(users=20, n_contents=60, cache_bytes=256 * 1024,
                cache_admission=0.5, seed=3, max_requests=40)
    sharded = run_serving(ServingSpec(**spec))
    unsharded = run_serving(ServingSpec(cache_shards=0, **spec))
    admit_all = run_serving(ServingSpec(
        cache_shards=0, **{**spec, "cache_admission": 1.0}))
    assert sharded["cache"]["admission_rejected"] == 75
    assert unsharded["cache"]["admission_rejected"] == 75
    assert admit_all["cache"]["admission_rejected"] == 0
    saved = [report["overall"]["bytes_saved_ratio"]
             for report in (sharded, unsharded, admit_all)]
    assert saved[0] == saved[1] < saved[2]


def test_verified_run_fails_on_a_broken_shard(monkeypatch):
    """One shard's byte accounting is inflated mid-run: the harness's
    next tick fails the run as ``serving_shards``, with the occupancy in
    the context and the flight recorder attached."""
    from repro.serving import engine
    from repro.verify.oracles import InvariantViolation

    real_build = engine.build_testbed

    def build(config):
        testbed = real_build(config)

        def inflate():
            testbed.gateways.decoder.cache.store.shards[3]._bytes += 1

        testbed.sim.after(0.7, inflate)
        return testbed

    monkeypatch.setattr(engine, "build_testbed", build)
    with pytest.raises(InvariantViolation) as raised:
        run_serving(ServingSpec(users=20, n_contents=50, seed=13,
                                verify=True))
    violation = raised.value
    assert violation.oracle == "serving_shards"
    assert violation.context["role"] == "decoder"
    assert violation.context["sim_time"] == 1.0     # the next 0.5 s tick
    assert "shard 3: accounted" in violation.context["problems"][0]
    assert len(violation.context["occupancy"]) == 8
    assert violation.flight_recorder[-1]["event"] == "violation"


def test_verified_run_checks_every_request(monkeypatch):
    """``verify=True`` arms the whole verifier, not just the shard
    checks: one byte-integrity sink per request, and the end-of-run
    finalize over every outcome."""
    from repro.verify.oracles import VerificationHarness

    armed, finalized = [], []
    real_sink = VerificationHarness.integrity_sink
    real_finalize = VerificationHarness.finalize

    def counting_sink(self, expected):
        armed.append(len(expected))
        return real_sink(self, expected)

    def counting_finalize(self, outcomes=()):
        finalized.append(len(outcomes))
        return real_finalize(self, outcomes)

    monkeypatch.setattr(VerificationHarness, "integrity_sink", counting_sink)
    monkeypatch.setattr(VerificationHarness, "finalize", counting_finalize)
    report = run_serving(ServingSpec(users=20, n_contents=50, seed=13,
                                     verify=True))
    requests = report["requests"]
    assert requests["completed"] == requests["total"] > 0
    assert requests["content_mismatches"] == 0
    assert report["oracle_checks"] > 0
    assert len(armed) == requests["total"]
    assert finalized == [requests["total"]]


def test_verified_run_raises_on_one_wrong_byte(monkeypatch):
    """The server answers the first request with a body one byte off
    what the driver expects: the run ends there, naming the offset."""
    from repro.serving import engine
    from repro.verify.oracles import InvariantViolation

    real_get = engine._CatalogFiles.get
    reads = []

    def get(self, name):
        body = real_get(self, name)
        reads.append(name)
        if name == reads[0] and reads.count(name) == 2:
            # The second read of the first request's object is the
            # server's; the first was the driver's.
            return body[:100] + bytes([body[100] ^ 0xFF]) + body[101:]
        return body

    monkeypatch.setattr(engine._CatalogFiles, "get", get)
    with pytest.raises(InvariantViolation) as raised:
        run_serving(ServingSpec(users=20, n_contents=50, seed=13,
                                verify=True))
    assert raised.value.oracle == "byte_integrity"
    assert raised.value.context["first_diff"] == 100
    assert "at byte 100" in str(raised.value)


def test_serving_report_is_deterministic():
    spec = ServingSpec(users=20, n_contents=50, seed=13)
    first = json.dumps(deterministic_report(run_serving(spec)),
                       sort_keys=True)
    second = json.dumps(deterministic_report(run_serving(spec)),
                        sort_keys=True)
    assert first == second


def test_serving_grid_serial_parallel_bit_identical():
    spec = SweepSpec(base=ServingSpec(n_contents=40, mean_object_bytes=2048,
                                      seed=7),
                     grid={"users": [15, 25]})
    serial = run_sweep(spec)
    pooled = run_sweep(spec, workers=2)
    assert [cell.params for cell in serial] == [{"users": 15}, {"users": 25}]
    assert [cell.result["spec"]["users"] for cell in serial] == [15, 25]
    assert json.dumps([deterministic_report(c.result) for c in serial],
                      sort_keys=True) == \
        json.dumps([deterministic_report(c.result) for c in pooled],
                   sort_keys=True)


# ---------------------------------------------------------------------------
# soak: 10k requests, invariants armed, churn leaks nothing
# ---------------------------------------------------------------------------

def test_serving_soak_10k_requests_with_invariants():
    """10k requests of churning users through a tight sharded cache.

    ``verify=True`` arms per-flow content checks and the harness's
    shard checks (per-shard budgets respected, store ids in exactly one
    shard, one record per payload) every half simulated second — any
    violation raises InvariantViolation and fails the run.  The pool
    bound is the leak check: without connection release the stacks
    would peak at exactly 2 table entries per request (20k); staying
    well under that proves churned flows are actually pruned.
    """
    spec = ServingSpec(users=6000, n_contents=2000, mean_object_bytes=1200,
                       max_requests=10_000, cache_bytes=256 * 1024,
                       cache_shards=8, arrival_rate=400.0, linger=2.0,
                       seed=3, verify=True)
    report = run_serving(spec)
    requests = report["requests"]
    assert requests["total"] == 10_000
    assert requests["completed"] == 10_000
    assert requests["unfinished"] == 0
    assert requests["content_mismatches"] == 0
    # The shard checks actually ran, repeatedly, and never raised.
    assert report["oracle_checks"] > 10
    # Memory bound held under real eviction pressure.
    assert report["cache"]["evictions"] > 1_000
    assert report["cache"]["bytes_used"] <= report["cache"]["byte_budget"]
    for shard in report["cache"]["shards"]:
        assert shard["bytes"] <= shard["byte_budget"]
    # Churn leak bound: high-water well below the no-release ceiling.
    pool = report["pool"]
    assert pool["released"] > 5_000
    assert pool["high_water"] < 2 * requests["total"] * 0.75
    # And the cache still earns its keep in steady state.
    assert report["steady"]["hit_ratio"] > 0.2
