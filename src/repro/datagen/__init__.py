"""Synthetic social-network event world.

Stand-in for the paper's proprietary production impression sample: a
topic-grounded generative model of users, pages, friendships, events
and time-ordered labeled impressions, reproducing the statistics the
paper's phenomenon depends on (event transiency, per-user sparsity,
topic-driven participation, social influence, ~1:4 label ratio).
"""
