"""Verification subsystem: online oracles, differential runner, fuzzer.

Three layers of machine-checked correctness (see DESIGN.md §10):

* :mod:`repro.verify.oracles` — invariant oracles armed per run via
  ``ExperimentConfig(verify=True)``; violations raise
  :class:`InvariantViolation` with the flight-recorder dump attached.
* :mod:`repro.verify.differential` — paired runs that must agree
  (serial vs parallel sweeps, resilience on/off under zero faults,
  the sharded serving cache vs the transfer cache).
* :mod:`repro.verify.fuzz` — a seeded scenario fuzzer (random configs +
  scripted faults, oracles armed) with shrinking to a minimal
  replayable JSON case (``repro fuzz`` / ``repro fuzz --replay``).

Beside them, :mod:`repro.verify.tcp_model` is the closed-form download
time the no-DRE baseline is held to.

Only the oracles are imported eagerly: the differential runner and the
fuzzer import the experiment runner, which itself imports this package,
so they load lazily (``import repro.verify.fuzz``) to keep the import
graph acyclic.
"""

from .oracles import InvariantViolation, VerificationHarness

__all__ = ["InvariantViolation", "VerificationHarness"]
