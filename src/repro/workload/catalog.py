"""Zipf-popularity content catalog for population serving.

A cellular gateway's byte-cache hit ratio is driven by cross-user
content overlap, and overlap is driven by popularity skew: web and
video request streams are classically Zipf(alpha ~ 0.6-1.2, Breslau et
al.).  The catalog here is the serving mode's universe of objects:

* ``n_contents`` objects, ranked by popularity, request probability
  proportional to ``rank ** -alpha``;
* object sizes drawn from a lognormal around ``mean_object_bytes``
  (clamped to ``[MIN_OBJECT_BYTES, MAX_OBJECT_BYTES]``), so a catalog
  mixes small pages with the occasional heavy download;
* object *bytes* synthesized lazily by the existing
  dependency-controlled redundancy model
  (:func:`repro.workload.redundancy.generate_dependency_file`), each
  content from its own derived seed — two users fetching the same
  content see identical bytes (that is what the shared cache exploits),
  while distinct contents share nothing by construction.

Everything is deterministic in ``spec.seed``; sampling takes the
caller's RNG so the session generator owns the request stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from ..sim.rng import derive_seed
from .redundancy import DependencyFileSpec, generate_dependency_file

#: Object sizes: sigma of the lognormal draw, and the bounds each size
#: is clamped to and the mean must lie in.
SIZE_SPREAD = 0.6
MIN_OBJECT_BYTES = 512
MAX_OBJECT_BYTES = 256 * 1024
#: Mean dependencies per packet of an object's bytes (paper File 1).
AVG_DEPENDENCIES = 4.0


@dataclass(frozen=True)
class CatalogSpec:
    """Parameters of a Zipf content catalog."""

    n_contents: int = 200
    alpha: float = 0.8               # Zipf skew; 0 = uniform
    mean_object_bytes: int = 8 * 1024
    redundancy: float = 0.5          # intra-object redundancy (paper model)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_contents <= 0:
            raise ValueError("n_contents must be positive")
        if self.alpha < 0:
            raise ValueError("alpha must be non-negative")
        if not (MIN_OBJECT_BYTES <= self.mean_object_bytes
                <= MAX_OBJECT_BYTES):
            raise ValueError("mean_object_bytes must be in "
                             f"[{MIN_OBJECT_BYTES}, {MAX_OBJECT_BYTES}]")


class ContentCatalog:
    """The ranked, lazily materialised object universe of a serve-sim."""

    def __init__(self, spec: CatalogSpec) -> None:
        self.spec = spec
        n = spec.n_contents
        # Popularity: pmf[i] ∝ (i+1)^-alpha over ranks 1..n.
        ranks = np.arange(1, n + 1, dtype=np.float64)
        weights = ranks ** -spec.alpha
        self._cdf = np.cumsum(weights / weights.sum())
        self._cdf[-1] = 1.0  # guard searchsorted against fp round-off
        # Sizes: one lognormal draw per content, fixed at catalog build
        # (an object's size is a property of the object, not the request).
        size_rng = np.random.default_rng(derive_seed(spec.seed, "catalog:sizes"))
        mu = np.log(spec.mean_object_bytes) - 0.5 * SIZE_SPREAD ** 2
        sizes = np.exp(size_rng.normal(mu, SIZE_SPREAD, size=n))
        self._sizes = np.clip(np.rint(sizes), MIN_OBJECT_BYTES,
                              MAX_OBJECT_BYTES).astype(np.int64)
        self._objects: Dict[int, bytes] = {}
        self.materialised = 0

    def __len__(self) -> int:
        return self.spec.n_contents

    def sample(self, u: float) -> int:
        """Content id for a uniform draw ``u`` in [0, 1) (inverse cdf)."""
        return int(np.searchsorted(self._cdf, u, side="right"))

    def size_of(self, content_id: int) -> int:
        return int(self._sizes[content_id])

    def name_of(self, content_id: int) -> str:
        return f"c{content_id}"

    def content_id(self, name: str) -> int:
        if not name.startswith("c"):
            raise KeyError(name)
        cid = int(name[1:])
        if not 0 <= cid < self.spec.n_contents:
            raise KeyError(name)
        return cid

    def object_bytes(self, content_id: int) -> bytes:
        """The object's bytes, generated on first request and memoised.

        Lazy materialisation is what makes 10k-content catalogs usable:
        a Zipf(0.8) run over 10k contents touches only a few hundred.
        """
        cached = self._objects.get(content_id)
        if cached is not None:
            return cached
        spec = self.spec
        body = generate_dependency_file(DependencyFileSpec(
            size=self.size_of(content_id),
            avg_dependencies=AVG_DEPENDENCIES,
            redundancy=spec.redundancy,
            seed=derive_seed(spec.seed, f"catalog:object:{content_id}")))
        self._objects[content_id] = body
        self.materialised += 1
        return body

    def describe(self) -> Dict[str, object]:
        return {
            "n_contents": self.spec.n_contents,
            "alpha": self.spec.alpha,
            "mean_object_bytes": self.spec.mean_object_bytes,
            "total_catalog_bytes": int(self._sizes.sum()),
            "materialised": self.materialised,
        }
