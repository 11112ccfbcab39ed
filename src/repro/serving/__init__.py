"""Population serving mode: Zipf catalog + sessions + shared sharded cache.

The paper evaluates one synthetic transfer at a time; its deployment
story is a cellular gateway serving a whole subscriber population whose
requests overlap in content.  This package is that evaluation mode:

* :mod:`repro.serving.sessions` — seeded Poisson/think-time session
  generator (who asks for what, when);
* :mod:`repro.serving.engine` — drives the generated request stream as
  concurrent flows through one testbed whose gateways share a
  :class:`repro.core.shardcache.ShardedByteCache`, and reports
  warm-up-excluded steady-state metrics.
"""

from .engine import ServingSpec, run_serving
from .sessions import Request, SessionSpec, generate_sessions

__all__ = [
    "ServingSpec",
    "run_serving",
    "Request",
    "SessionSpec",
    "generate_sessions",
]
