#!/usr/bin/env python3
"""The §IX "tune-able" byte caching scheme in action.

The paper's conclusion asks for a scheme that "can dynamically adapt
how aggressively it compresses packets based on the packet loss rate in
the underlying communication channel".  ``AdaptiveKDistancePolicy``
does exactly that: it estimates the loss rate from observed TCP
retransmissions and widens or narrows the k-distance reference spacing
(k ≈ target / p̂).

This example runs the adaptive policy against fixed-k configurations
across a loss sweep, then shows the estimator tracking a mid-transfer
loss-rate change.

Run:  python examples/adaptive_tuning.py
"""

from repro.experiments import ExperimentConfig, run_transfer
from repro.experiments.runner import (FILE_NAME, Fetch, build_testbed,
                                      run_fetches)
from repro.metrics import format_table
from repro.sim.faults import schedule_loss_window
from repro.workload.corpus import corpus_object


def sweep() -> None:
    losses = (0.0, 0.02, 0.08)
    schemes = [("k_distance(k=4)", "k_distance", {"k": 4}),
               ("k_distance(k=32)", "k_distance", {"k": 32}),
               ("adaptive_k", "adaptive_k", {})]
    rows = []
    for label, policy, kwargs in schemes:
        cells = [label]
        for loss in losses:
            result = run_transfer(ExperimentConfig(
                corpus="file1", policy=policy, policy_kwargs=dict(kwargs),
                loss_rate=loss, seed=11))
            if result.download_time is None:
                cells.append("stalled")
            else:
                cells.append(f"{result.download_time:.2f}s / "
                             f"{result.forward_bytes_on_link // 1000}kB")
        rows.append(cells)
    print(format_table(
        "download time / bytes on link, fixed k vs adaptive",
        ["scheme"] + [f"{loss:.0%} loss" for loss in losses], rows))
    print()


def track_changing_channel() -> None:
    """Flip the channel from clean to 10 % loss mid-transfer and watch
    the adaptive policy shrink k."""
    config = ExperimentConfig(corpus="file1", policy="adaptive_k",
                              seed=11, time_limit=60.0)
    testbed = build_testbed(config)
    data = corpus_object(config.corpus, config.file_size, config.corpus_seed)

    def degrade():
        print(f"t={testbed.sim.now:6.3f}s  channel degrades to 10% loss")

    policy = testbed.gateways.encoder.policy
    samples = []

    def sample():
        samples.append((testbed.sim.now, policy.loss_estimate, policy.k))
        testbed.sim.after(0.25, sample)

    # A mid-run change to a link's loss rate goes through a fault
    # helper, which records it on the link's timeline before the run so
    # the new rate meets every packet that finishes serialising after it.
    schedule_loss_window(testbed.sim, testbed.bottleneck_forward, 0.20, 0.10)
    testbed.sim.after(0.20, degrade)
    testbed.sim.after(0.05, sample)
    run_fetches(testbed, config, {FILE_NAME: data}, [Fetch()])

    print("\n   time    loss estimate    chosen k")
    for when, estimate, k in samples[:24]:
        print(f"  {when:6.2f}s   {estimate:8.3f}       {k:4d}")
    print("\nThe estimator reacts to the retransmission burst and pulls k")
    print("down toward 1/p, trading compression for decodability (§VII).")


if __name__ == "__main__":
    sweep()
    track_changing_channel()
