"""Gradient-boosted decision trees (the Section-4 combiner trainer)."""
