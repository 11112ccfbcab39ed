"""Extensions — the schemes §VIII/§IX discuss but the paper never built.

* ACK-gated caching — cache a segment only once it is cumulatively
  acknowledged;
* adaptive k-distance (§IX "tune-able" scheme) — reference spacing
  tracks the estimated loss rate.

EXPERIMENTS.md "Extensions" keeps the last numbers of the two recovery
schemes this repo no longer carries (informed marking, NACK recovery).
"""

from conftest import print_report

from repro.experiments import scenarios


def test_extensions(benchmark):
    result = benchmark.pedantic(scenarios.extensions,
                                kwargs={"seeds": (11, 23)},
                                rounds=1, iterations=1)
    print_report("Extensions (§VIII/§IX)", result.report())

    bytes_by = {s.name: s for s in result.bytes_series}
    delay_by = {s.name: s for s in result.delay_series}
    for name, series in bytes_by.items():
        # Every robust extension still compresses on a clean channel.
        assert series.point(0.0).mean < 1.0, name
    # None of the robust schemes may livelock the way naive does.
    assert all(count <= 2 for count in result.stall_counts.values()), \
        result.stall_counts
    # ACK-gating only references receiver-confirmed state, so its
    # perceived-loss-driven delay penalty stays bounded at 5 % loss.
    assert delay_by["ack_gated"].point(0.05).mean < 20.0
