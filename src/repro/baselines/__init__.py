"""Baseline semantic and popularity models the paper compares against."""
