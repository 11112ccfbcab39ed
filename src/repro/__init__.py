"""repro — byte caching (data redundancy elimination) in lossy wireless
networks.

A complete reproduction of *Byte Caching in Wireless Networks*
(Le, Srivatsa & Iyengar, ICDCS 2012): the Spring & Wetherall encoder,
the paper's three loss-robust encoding algorithms, the extension
schemes it discusses, and the full simulated testbed (TCP with SACK,
lossy rate-limited links, gateways, workloads, experiment harness) the
evaluation runs on.

Quick tour::

    from repro import (FingerprintScheme, ByteCache, ByteCachingEncoder,
                       ByteCachingDecoder)
    from repro.core.policies import CacheFlushPolicy, PacketMeta

    scheme = FingerprintScheme()            # w=16, k=4 (§III-B)
    encoder = ByteCachingEncoder(scheme, ByteCache(), CacheFlushPolicy())

End-to-end experiments::

    from repro.experiments import ExperimentConfig, run_transfer
    result = run_transfer(ExperimentConfig(policy="cache_flush",
                                           loss_rate=0.05))
    print(result.download_time, result.perceived_loss_rate)

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-versus-measured record of every table and figure.
"""

from .core import (ByteCache, ByteCachingDecoder, ByteCachingEncoder,
                   DecodeResult, DecodeStatus, EncodeResult,
                   FingerprintScheme, PolyFingerprinter, RabinFingerprinter)
from .core.policies.k_distance import (AdaptiveKDistancePolicy,
                                       LossRateEstimator)
from .experiments import ExperimentConfig, run_transfer
from .experiments.runner import GatewayPair
from .gateway import DecoderGateway, EncoderGateway
from .sim import Simulator
from .workload import corpus_names, corpus_object

__version__ = "1.0.0"

__all__ = [
    "ByteCache",
    "ByteCachingDecoder",
    "ByteCachingEncoder",
    "DecodeResult",
    "DecodeStatus",
    "EncodeResult",
    "FingerprintScheme",
    "PolyFingerprinter",
    "RabinFingerprinter",
    "AdaptiveKDistancePolicy",
    "LossRateEstimator",
    "ExperimentConfig",
    "run_transfer",
    "DecoderGateway",
    "EncoderGateway",
    "GatewayPair",
    "Simulator",
    "corpus_names",
    "corpus_object",
    "__version__",
]
