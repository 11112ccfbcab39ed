"""Rule modules — importing this package registers every rule."""

from . import (determinism, hotpath, hygiene, layering,  # noqa: F401
               purity)

__all__ = ["determinism", "hotpath", "hygiene", "layering", "purity"]
