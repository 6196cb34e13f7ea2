"""Evaluation: metrics, the two-stage experiment protocol, reporting."""
