"""Serving-time representation store (TAO stand-in) and retrieval index."""
