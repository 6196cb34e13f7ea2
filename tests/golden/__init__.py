"""Committed numeric values the suite pins the model's training to."""
