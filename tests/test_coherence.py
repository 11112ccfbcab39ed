"""The incremental coherence oracle against the full-scan reference.

``VerificationHarness.check_coherence`` examines only the fingerprints
written to either side's ring log since its last clean check, and falls
back to a full pass over the encoder index after anything that empties
or renumbers a log (flush, compaction, restart) or changes the epoch.
These tests hold it to ``tests/reference_coherence.full_scan``: the same
violation at the same check, on planted poisonings across every reset
and on whole fuzz and chaos runs; plus its cost contract (no per-entry
objects, each log row examined once, a check counted even when nothing
is new); and a verified run's last look, in ``finalize``.

A payload is immutable once stored, so a poisoning is planted into a
packet that no clean check has examined yet, or before a reset.
"""

import tracemalloc

import pytest

from repro.chaos import CAMPAIGNS, canonical_campaign, run_campaign
from repro.core import (ByteCache, ByteCachingDecoder, ByteCachingEncoder,
                        FingerprintScheme)
from repro.core.checksum import payload_checksum
from repro.core.policies import PacketMeta, make_policy_pair
from repro.experiments import ExperimentConfig
from repro.experiments import runner
from repro.experiments.runner import build_gateways
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.verify import InvariantViolation, VerificationHarness
from repro.verify.fuzz import run_campaign as run_fuzz
from repro.workload.corpus import corpus_object

from tests.reference_coherence import DifferentialHarness

FLOW = ("s", 80, "c", 5000)


class Pair:
    """Bare encoder/decoder cores under a differential harness, fed
    random 1460-byte packets that both sides cache."""

    def __init__(self, byte_budget=4 * 1024 * 1024, seed=1, cores=None):
        if cores is None:
            scheme = FingerprintScheme()
            enc_policy, dec_policy = make_policy_pair("tcp_seq")
            cores = (ByteCachingEncoder(scheme, ByteCache(byte_budget),
                                        enc_policy),
                     ByteCachingDecoder(scheme, ByteCache(byte_budget),
                                        dec_policy))
        self.encoder, self.decoder = cores
        self.harness = DifferentialHarness()
        self.harness.attach_cores(self.encoder, self.decoder)
        self.rng = RngRegistry(seed).stream("coherence.pair")
        self.sent = 0

    def send(self, count=1, payload=None):
        """``count`` packets: random ones, or ``payload`` each time."""
        for _ in range(count):
            data = payload or self.rng.randbytes(1460)
            meta = PacketMeta(packet_id=self.sent, flow=FLOW,
                              tcp_seq=self.sent * 1460, counter=self.sent)
            self.sent += 1
            result = self.encoder.encode(data, meta)
            assert self.decoder.decode(
                result.data, meta, checksum=payload_checksum(data)).ok

    def poison(self, newest=True):
        """Zero the newest (else the oldest) payload of the decoder's
        store."""
        data = self.decoder.cache.store._data
        victim = next(reversed(data)) if newest else next(iter(data))
        data[victim] = bytes(len(data[victim]))

    def check(self):
        return self.harness.check_coherence()

    def assert_caught(self):
        """The next check raises, and the reference found the same."""
        with pytest.raises(InvariantViolation) as excinfo:
            self.check()
        assert excinfo.value.oracle == "cache_coherence"
        assert self.harness.disagreements == []
        assert self.harness.verdicts[-1][1] is not None
        return excinfo.value


# ---------------------------------------------------------------------------
# planted poisonings: caught at the reference's check, across every reset
# ---------------------------------------------------------------------------

def test_poisoning_after_a_clean_check_is_caught_at_the_next():
    pair = Pair()
    pair.send(5)
    assert pair.check()
    pair.send(3)
    pair.poison()
    violation = pair.assert_caught()
    assert violation.context["encoder_window"] != \
        violation.context["decoder_window"]


# After each reset below the log holds more rows than at the last clean
# check, and the poisoned packet's rows sit below that check's mark: a
# check that read on from the old mark would miss it.

def test_poisoning_across_a_flush():
    pair = Pair()
    pair.send(2)
    assert pair.check()
    pair.encoder.cache.flush()
    pair.decoder.cache.flush()
    pair.send(4)
    pair.poison(newest=False)
    pair.assert_caught()


def test_poisoning_across_a_compaction():
    # A four-packet store: the 1024-row log compacts to the stored
    # packets' rows instead of growing once it fills.
    pair = Pair(byte_budget=4 * 1460)
    pair.send(4)
    assert pair.check()
    mark = pair.decoder.cache.table.log_mark()[1]
    table = pair.decoder.cache.table
    while not table.compactions or table.log_mark()[1] <= mark:
        pair.send()
    pair.poison(newest=False)
    pair.assert_caught()


def test_poisoning_across_an_epoch_bump():
    """An epoch change alone makes the next check a full pass, so even
    a packet the last clean check examined is looked at again."""
    pair = Pair()
    pair.send(6)
    assert pair.check()
    pair.poison()
    pair.encoder.cache.bump_epoch()
    pair.decoder.cache.bump_epoch()
    pair.assert_caught()


def test_poisoning_across_a_restart():
    gateways = build_gateways(Simulator(), ExperimentConfig(policy="tcp_seq"))
    pair = Pair(cores=(gateways.encoder.encoder, gateways.decoder.decoder))
    pair.harness.attach_pair(gateways.encoder, gateways.decoder)
    pair.send(2)
    assert pair.check()
    gateways.encoder.restart()
    gateways.decoder.restart()
    pair.send(10)
    pair.poison(newest=False)
    pair.assert_caught()


def test_poisoning_of_the_newest_of_two_copies():
    """A payload cached twice since the last check: the pointers that
    count are the newest copy's, whose poisoning the older, intact copy
    must not hide."""
    pair = Pair()
    pair.send(3)
    assert pair.check()
    pair.send(2, payload=pair.rng.randbytes(1460))
    pair.poison()
    pair.assert_caught()


def test_poisoning_in_the_first_check_is_reported_as_the_full_scan_does():
    """Several poisoned windows: both oracles name the first one in
    encoder-index order."""
    pair = Pair()
    pair.send(6)
    data = pair.decoder.cache.store._data
    for victim in list(data)[1:4]:
        data[victim] = bytes(len(data[victim]))
    pair.assert_caught()


# ---------------------------------------------------------------------------
# cost contract
# ---------------------------------------------------------------------------

def test_a_check_one_packet_after_a_clean_one_allocates_under_64_kb():
    pair = Pair(byte_budget=16 * 1024 * 1024)
    while pair.encoder.cache.table.indexed < 10_000:
        pair.send(10)
    assert pair.check()
    pair.send()
    tracemalloc.start()
    try:
        # The check alone, without the differential's reference scan.
        assert VerificationHarness.check_coherence(pair.harness)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024, peak


def test_each_log_row_is_examined_once_between_resets():
    pair = Pair()
    tables = {"encoder": pair.encoder.cache.table,
              "decoder": pair.decoder.cache.table}
    pair.send(2)
    assert pair.check()          # the first check is a full pass
    before = {side: table.inserts for side, table in tables.items()}
    examined = {side: [] for side in tables}
    for side, table in tables.items():
        def spy(mark, real=table.rows_since, seen=examined[side]):
            rows = real(mark)
            seen.append(None if rows is None else len(rows[0]))
            return rows

        table.rows_since = spy
    for _ in range(6):
        pair.send(2)
        assert pair.check()
    assert pair.check()          # nothing new
    for side, table in tables.items():
        assert examined[side][-1] == 0
        assert sum(examined[side]) == table.inserts - before[side]
    # A flush renumbers the log: one full pass, then rows count afresh.
    pair.encoder.cache.flush()
    pair.decoder.cache.flush()
    pair.send(2)
    assert pair.check()
    before = {side: table.inserts for side, table in tables.items()}
    pair.send(3)
    assert pair.check()
    for side, table in tables.items():
        assert examined[side][-2:] == [None, table.inserts - before[side]]
    assert pair.harness.disagreements == []


def test_a_quiescent_tick_with_nothing_new_still_counts():
    sim = Simulator()
    pair = Pair()
    harness = VerificationHarness(sim)
    harness.attach_cores(pair.encoder, pair.decoder)
    pair.send(3)
    harness.start()
    sim.run(until=2.0)
    assert harness.coherence_checks == 4
    assert harness.check_coherence()
    assert harness.coherence_checks == 5


# ---------------------------------------------------------------------------
# whole runs: the two oracles agree at every tick
# ---------------------------------------------------------------------------

@pytest.fixture
def differential(monkeypatch):
    """Every harness the runner builds is a differential one."""
    built = []

    def build(*args, **kwargs):
        harness = DifferentialHarness(*args, **kwargs)
        built.append(harness)
        return harness

    monkeypatch.setattr(runner, "VerificationHarness", build)
    return built


def _assert_agreed(harnesses):
    assert harnesses
    assert [h.disagreements for h in harnesses if h.disagreements] == []
    assert sum(len(h.verdicts) for h in harnesses) > 0


def test_fuzz_campaign_agrees_with_the_full_scan(differential):
    assert run_fuzz(7, 200).violations == 0
    _assert_agreed(differential)


@pytest.mark.parametrize("name", sorted(CAMPAIGNS))
def test_chaos_smoke_campaign_agrees_with_the_full_scan(differential, name):
    run_campaign(canonical_campaign(name), workers=1)
    _assert_agreed(differential)


# ---------------------------------------------------------------------------
# the last look: a run ends with ACKs in flight on the reverse link
# ---------------------------------------------------------------------------

def _zero_loss_run(policy, poison):
    """A verified zero-loss file1 transfer; returns the coherence
    checks made in all and by the harness's end-of-run ``finalize``.
    With ``poison`` the decoder's newest payload is zeroed after the
    last periodic tick, just before that last look."""
    config = ExperimentConfig(policy=policy, verify=True)
    testbed = runner.build_testbed(config)
    harness = testbed.verifier
    store = testbed.gateways.decoder.cache.store
    last_look = []
    real_finalize = harness.finalize

    def finalize(outcomes=()):
        if poison:
            victim = next(reversed(store._data))
            store._data[victim] = bytes(len(store._data[victim]))
        before = harness.coherence_checks
        real_finalize(outcomes)
        last_look.append(harness.coherence_checks - before)

    harness.finalize = finalize
    data = corpus_object(config.corpus, config.file_size, config.corpus_seed)
    run = runner.run_fetches(testbed, config, {runner.FILE_NAME: data},
                             [runner.Fetch()])
    assert run.outcomes[0].completed
    return harness.coherence_checks, last_look


@pytest.mark.parametrize("policy", ["cache_flush", "k_distance", "tcp_seq"])
def test_zero_loss_transfer_takes_its_last_coherence_look(policy):
    checks, last_look = _zero_loss_run(policy, poison=False)
    assert checks >= 1
    assert last_look == [1]


@pytest.mark.parametrize("policy", ["cache_flush", "k_distance", "tcp_seq"])
def test_last_look_catches_a_store_poisoned_after_the_last_tick(policy):
    with pytest.raises(InvariantViolation) as excinfo:
        _zero_loss_run(policy, poison=True)
    assert excinfo.value.oracle == "cache_coherence"
