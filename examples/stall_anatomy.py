#!/usr/bin/env python3
"""Anatomy of the §IV TCP connection stall, packet by packet.

Forces the loss of exactly one data packet under the naive encoding
policy and prints the resulting circular dependency as it unfolds:
retransmissions leave the encoder ~20 bytes long (encoded against a
copy of themselves), the decoder drops every one of them, TCP backs off
exponentially, and the connection finally aborts.

Run:  python examples/stall_anatomy.py
"""

from repro.experiments import ExperimentConfig
from repro.experiments.runner import (FILE_NAME, Fetch, build_testbed,
                                      run_fetches)
from repro.workload.corpus import corpus_object


def main() -> None:
    config = ExperimentConfig(
        corpus="ebook", file_size=30 * 1460, corpus_seed=3,
        policy="naive", seed=2, tcp_max_retries=6,
        tcp_min_rto=0.05, tcp_max_rto=1.0, time_limit=60.0)
    testbed = build_testbed(config)
    data = corpus_object(config.corpus, config.file_size, config.corpus_seed)

    link = testbed.bottleneck_forward
    original_send = link.send
    state = {"count": 0, "dropped": False}

    def tampering_send(pkt):
        segment = pkt.tcp
        if segment is not None and segment.data:
            state["count"] += 1
            if state["count"] == 4 and not state["dropped"]:
                state["dropped"] = True
                print(f"t={testbed.sim.now * 1000:7.1f} ms   "
                      f"XX seq={segment.seq:6d} {len(segment.data):5d} B"
                      f"   <-- THE packet loss")
                return
            marker = "  "
            note = ""
            if state["dropped"] and len(segment.data) < 60:
                note = "  <-- retransmission encoded against itself"
            print(f"t={testbed.sim.now * 1000:7.1f} ms   "
                  f"{marker} seq={segment.seq:6d} {len(segment.data):5d} B"
                  f"{note}")
        original_send(pkt)

    link.send = tampering_send
    print("packets offered to the 1 MB/s wireless segment "
          "(sizes are DRE-encoded):\n")
    outcome = run_fetches(testbed, config, {FILE_NAME: data},
                          [Fetch()]).outcomes[0]

    print()
    decoder_stats = testbed.gateways.decoder.stats
    server_conn = testbed.server_stack.connections()[0]
    print(f"decoder drops (undecodable): {decoder_stats.dropped_total}")
    print(f"server connection: {server_conn.state.value} "
          f"({server_conn.close_reason}) after "
          f"{server_conn.stats.timeouts} timeouts")
    print(f"client received {outcome.bytes_received:,} of {len(data):,} "
          f"bytes ({outcome.fraction_retrieved:.1%}) — "
          "the transfer came to an end at the first loss (§IV-C)")


if __name__ == "__main__":
    main()
