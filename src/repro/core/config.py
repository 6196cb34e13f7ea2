"""Configuration for the joint representation model.

The paper's architecture (Sections 3.1-3.2): 64-d lookup tables, 64-d
extraction-module outputs, text windows {1, 3, 5}, a 256-node hidden
layer and a 128-node representation layer per tower, contrastive
margin θ_r = 0, learning rate decayed ×0.9 per epoch, convergence in
under 20 epochs.

Three presets scale those dims to different compute budgets:

* ``paper()`` — the exact published dimensions.
* ``bench()`` — reduced dims for the benchmark harness (~minutes).
* ``small()`` — tiny dims for unit tests (~seconds).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["JointModelConfig", "TrainingConfig"]


@dataclass(frozen=True)
class JointModelConfig:
    """Architecture hyper-parameters shared by both towers.

    Attributes:
        embedding_dim: length of lookup-table vectors (paper: 64).
        module_dim: output length of each extraction module (paper: 64).
        text_windows: convolution window sizes for text modules
            (paper: 1, 3, 5).
        hidden_dim: width of the per-tower hidden layer (paper: 256).
        representation_dim: width of the representation layer
            (paper: 128).
        margin: θ_r in the Equation-1 loss (paper: 0).
        seed: seed for weight initialization.
        dtype: ``"float64"`` (default, finite-difference checkable) or
            ``"float32"`` (≈1.6× faster training steps at ``bench()``
            dims on a 2-core CPU).
        embedding_init_scale: uniform init range of lookup tables
            (0.1 trains reliably; large values saturate the tanh
            layers at init — see the init-scale ablation bench).
    """

    embedding_dim: int = 64
    module_dim: int = 64
    text_windows: tuple[int, ...] = (1, 3, 5)
    hidden_dim: int = 256
    representation_dim: int = 128
    margin: float = 0.0
    seed: int = 0
    dtype: str = "float64"
    embedding_init_scale: float = 0.1

    def __post_init__(self):
        if self.embedding_dim < 1 or self.module_dim < 1:
            raise ValueError("dimensions must be positive")
        if not self.text_windows:
            raise ValueError("at least one text window is required")
        if any(window < 1 for window in self.text_windows):
            raise ValueError(f"windows must be >= 1, got {self.text_windows}")
        if not -1.0 <= self.margin <= 1.0:
            raise ValueError(f"margin must be a cosine value, got {self.margin}")
        if self.dtype not in ("float32", "float64"):
            raise ValueError(f"dtype must be float32 or float64, got {self.dtype}")

    @property
    def user_feature_dim(self) -> int:
        """Concatenated user feature width: text modules + categorical."""
        return self.module_dim * (len(self.text_windows) + 1)

    @property
    def event_feature_dim(self) -> int:
        """Concatenated event feature width: text modules only."""
        return self.module_dim * len(self.text_windows)

    @classmethod
    def paper(cls, seed: int = 0) -> "JointModelConfig":
        """The exact architecture of the paper (64/64/256/128)."""
        return cls(seed=seed)

    @classmethod
    def bench(cls, seed: int = 0) -> "JointModelConfig":
        """Reduced dims for the benchmark harness."""
        return cls(
            embedding_dim=24,
            module_dim=24,
            hidden_dim=64,
            representation_dim=32,
            seed=seed,
            dtype="float32",
        )

    @classmethod
    def small(cls, seed: int = 0) -> "JointModelConfig":
        """Tiny dims for fast unit tests."""
        return cls(
            embedding_dim=8,
            module_dim=8,
            text_windows=(1, 3),
            hidden_dim=12,
            representation_dim=6,
            seed=seed,
        )


@dataclass(frozen=True)
class TrainingConfig:
    """Optimization hyper-parameters for representation training.

    Attributes:
        epochs: maximum epochs (paper: < 20 with early stopping).
        batch_size: minibatch size.
        learning_rate: initial step size (decayed ×0.9 per epoch, the
            paper's schedule, by ``nn.optim.ExponentialDecay``).
        patience: early-stopping patience in epochs without validation
            improvement.
        optimizer: ``"sgd"`` or ``"adagrad"``.
        momentum: momentum for SGD.
        validation_fraction: trailing fraction of training pairs held
            out for early stopping.
        seed: seed for the per-epoch reshuffle of the pairs.
    """

    epochs: int = 20
    batch_size: int = 64
    learning_rate: float = 0.015
    patience: int = 4
    optimizer: str = "adagrad"
    momentum: float = 0.0
    validation_fraction: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.optimizer not in ("sgd", "adagrad"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if not 0.0 <= self.validation_fraction < 1.0:
            raise ValueError("validation_fraction must be in [0, 1)")
