"""The paper's primary contribution: joint user-event representation
learning (parallel CNN towers, cosine head, contrastive training),
plus the Siamese event initializer, the serving facade, and the
Section-5.3 analysis tooling.
"""
