"""From-scratch numpy neural-network substrate.

Implements exactly the pieces the paper's joint representation model
needs — lookup tables, windowed convolution, log-sum-exp pooling,
affine + tanh layers, a cosine head, the Equation-1 contrastive loss,
and SGD/Adagrad with per-epoch learning-rate decay — with manual
forward/backward passes verified by finite-difference checks.
"""
