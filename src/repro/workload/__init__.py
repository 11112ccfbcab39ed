"""Synthetic workloads: corpus objects and dependency-controlled files."""

from .catalog import CatalogSpec, ContentCatalog
from .corpus import (EVAL_FILE_SIZE, PAPER_EBOOK_SIZE, clear_corpus_cache,
                     corpus_names, corpus_object)
from .objects import generate_ebook, generate_video, generate_webpage_session
from .redundancy import (DEFAULT_MSS, DependencyFileSpec,
                         generate_dependency_file)

__all__ = [
    "CatalogSpec",
    "ContentCatalog",
    "EVAL_FILE_SIZE",
    "PAPER_EBOOK_SIZE",
    "clear_corpus_cache",
    "corpus_names",
    "corpus_object",
    "generate_ebook",
    "generate_video",
    "generate_webpage_session",
    "DEFAULT_MSS",
    "DependencyFileSpec",
    "generate_dependency_file",
]
