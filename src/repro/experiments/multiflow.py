"""Multi-connection experiments: inter-flow redundancy and cross-
connection cache poisoning.

Two claims of the paper live here:

* §I: byte caching "eliminates redundancy both intra-flow and
  inter-flows" — a second client fetching overlapping content through
  the same gateway pair should ride the first client's cache;
* §IV-C: "a packet loss may cause the desynchronization between the
  encoder's and decoder's caches, and, not only one TCP connection, but
  all subsequent connections going through the encoder and decoder may
  get affected" — under the naive policy, a stall on one connection
  leaves poisoned state behind for the next.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from ..app.transfer import TransferOutcome
from ..workload.corpus import corpus_object
from .config import ExperimentConfig
from .runner import FILE_NAME, Fetch, build_testbed, run_fetches

#: Pause between one connection's end and the next one's start, as a
#: user would pause.
USER_GAP = 0.05


@dataclass
class MultiFlowResult:
    """Outcomes of several sequential or concurrent fetches."""

    outcomes: List[TransferOutcome]
    bytes_on_link: int
    per_fetch_link_bytes: List[int] = field(default_factory=list)

    @property
    def all_completed(self) -> bool:
        return all(outcome.completed for outcome in self.outcomes)


def _run(config: ExperimentConfig, files: Dict[str, bytes],
         fetches: Sequence[Fetch]) -> MultiFlowResult:
    """Every fetch here is content-checked, whatever ``config`` says."""
    config = config.with_updates(verify_content=True)
    testbed = build_testbed(config)
    run = run_fetches(testbed, config, files, fetches)
    return MultiFlowResult(
        outcomes=run.outcomes,
        bytes_on_link=testbed.bottleneck_forward.stats.bytes_offered,
        per_fetch_link_bytes=run.link_bytes)


def run_sequential_fetches(config: ExperimentConfig, n_fetches: int = 2,
                           same_object: bool = True,
                           fetch_timeout: float = 60.0) -> MultiFlowResult:
    """One client fetches ``n_fetches`` times over fresh connections.

    With ``same_object`` the later fetches are fully redundant against
    the gateway caches (inter-flow redundancy in its purest form).  A
    fetch that neither completes nor dies within ``fetch_timeout``
    seconds is aborted — the §IV-C user who gives up closes the
    connection — and the next one starts.
    """
    names = [FILE_NAME if same_object else f"{FILE_NAME}-{index}"
             for index in range(n_fetches)]
    files = {name: corpus_object(config.corpus, config.file_size,
                                 config.corpus_seed
                                 + (0 if same_object else index))
             for index, name in enumerate(names)}
    return _run(config, files,
                [Fetch(name, gap=USER_GAP, timeout=fetch_timeout)
                 for name in names])


def run_concurrent_fetches(config: ExperimentConfig,
                           n_clients: int = 2) -> MultiFlowResult:
    """``n_clients`` connections fetch the same object simultaneously.

    All connections share the gateway pair, so their packets interleave
    in the caches — the inter-flow setting of §I (and the cross-flow
    eligibility question for the TCP-seq policy).
    """
    data = corpus_object(config.corpus, config.file_size, config.corpus_seed)
    return _run(config, {FILE_NAME: data},
                [Fetch(at=0.002 * index) for index in range(n_clients)])
