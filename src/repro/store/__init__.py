"""Serving-time representation store (TAO stand-in) and retrieval index."""

from repro.store.cache import CacheStats, VectorCache
from repro.store.index import EventIndex, IndexStats, ResolvedPool, top_k_order

__all__ = [
    "CacheStats",
    "EventIndex",
    "IndexStats",
    "ResolvedPool",
    "VectorCache",
    "top_k_order",
]
