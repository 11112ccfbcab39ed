"""The full-scan cache-coherence oracle, kept as the differential
reference for the incremental check in ``repro.verify.oracles``
(ROADMAP: reference variants live in tests, not in ``src/``).

:func:`full_scan` is ``VerificationHarness.check_coherence`` as it was
before it examined only the fingerprints written since its last clean
check: one :class:`RingEntry` per encoder-table entry, a decoder lookup
and two ``peek`` reads each, at every quiescent tick.
:class:`DifferentialHarness` runs it beside the incremental check at
every tick and records where the two disagree; the runner builds it
when ``repro.experiments.runner.VerificationHarness`` is patched to it.
"""

from typing import List, Optional, Tuple

from repro.core.ringtable import RingEntry, RingFingerprintTable
from repro.verify import InvariantViolation, VerificationHarness


def table_entries(table: RingFingerprintTable) -> List[RingEntry]:
    """A snapshot of the current entry of every indexed fingerprint."""
    return [RingEntry(table, fingerprint, pointer)
            for fingerprint, pointer in table.pointers.items()]


def full_scan(harness: VerificationHarness
              ) -> Tuple[bool, Optional[int]]:
    """``(checked, fingerprint)``: whether a check runs now, and the
    first fingerprint, in encoder-table order, whose window bytes
    differ on the two sides (``None``: the caches agree)."""
    if not harness.quiescent():
        return False, None
    enc_core, dec_core = harness._enc_core, harness._dec_core
    enc_cache = enc_core.cache
    dec_cache = dec_core.cache
    window = enc_core.scheme.window
    dec_lookup = dec_cache.table.get
    for entry in table_entries(enc_cache.table):
        enc_payload = enc_cache.store.peek(entry.store_id)
        if enc_payload is None:
            continue
        dec_entry = dec_lookup(entry.fingerprint)
        if dec_entry is None:
            continue
        dec_payload = dec_cache.store.peek(dec_entry.store_id)
        if dec_payload is None:
            continue
        enc_window = enc_payload[entry.offset:entry.offset + window]
        dec_window = dec_payload[dec_entry.offset:
                                 dec_entry.offset + window]
        if enc_window != dec_window:
            return True, entry.fingerprint
    return True, None


class DifferentialHarness(VerificationHarness):
    """A harness whose every coherence check also runs :func:`full_scan`.

    ``verdicts`` lists ``(sim time, fingerprint or None)`` per check
    performed; ``disagreements`` lists every check where the two
    oracles differed (whether a check ran, or what it found).  A
    violation still raises, as it would without the reference.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.verdicts: List[Tuple[float, Optional[int]]] = []
        self.disagreements: List[tuple] = []

    def check_coherence(self) -> bool:
        now = self.sim.now if self.sim is not None else None
        expected = full_scan(self)
        try:
            performed = super().check_coherence()
        except InvariantViolation as violation:
            found = (True, violation.context["fingerprint"])
            self.verdicts.append((now, found[1]))
            if found != expected:
                self.disagreements.append((now, expected, found))
            raise
        if performed:
            self.verdicts.append((now, None))
        if (performed, None) != expected:
            self.disagreements.append((now, expected, (performed, None)))
        return performed
