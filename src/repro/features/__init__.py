"""Combiner feature pipeline: base, CF, and representation features."""
