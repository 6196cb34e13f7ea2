"""Batching of variable-length token-id sequences.

The convolution layer works on dense ``(batch, length)`` id matrices.
:func:`pad_batch` right-pads each sequence with ``PAD_ID`` and returns
a validity mask; :func:`window_counts` states how many window positions
of each convolution window size are real, and :func:`window_mask` is
the same rule as a bool matrix for one window size.

Conventions (see DESIGN.md):

* an empty sequence is replaced by a single ``UNK`` token so that every
  document yields at least one valid convolution window;
* a window is valid iff its **first** token is valid.  Windows hanging
  off the end of a short document therefore exist (covering trailing
  PAD positions, whose embedding is frozen at zero), which matches the
  paper's behaviour of always emitting at least one window per
  document regardless of window size.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.text.vocab import PAD_ID, UNK_ID

__all__ = ["PaddedBatch", "pad_batch", "window_counts", "window_mask"]


class PaddedBatch:
    """A dense batch of right-padded id sequences.

    Attributes:
        ids: ``(batch, length)`` int64 matrix, PAD-filled.
        mask: ``(batch, length)`` bool matrix, True at real tokens.
        lengths: ``(batch,)`` effective sequence lengths.
    """

    def __init__(self, ids: np.ndarray, mask: np.ndarray, lengths: np.ndarray):
        self.ids = ids
        self.mask = mask
        self.lengths = lengths

    @property
    def batch_size(self) -> int:
        return self.ids.shape[0]

    @property
    def max_length(self) -> int:
        return self.ids.shape[1]


def pad_batch(
    sequences: Sequence[np.ndarray], min_length: int = 1
) -> PaddedBatch:
    """Right-pad *sequences* into a :class:`PaddedBatch`.

    Args:
        sequences: one int id array per document.
        min_length: pad the batch to at least this many columns.
    """
    if not sequences:
        raise ValueError("cannot pad an empty batch")
    fixed = [
        seq if len(seq) else np.array([UNK_ID], dtype=np.int64)
        for seq in sequences
    ]
    lengths = np.array([len(seq) for seq in fixed])
    max_len = max(min_length, int(lengths.max()))
    mask = np.arange(max_len) < lengths[:, None]
    ids = np.full(mask.shape, PAD_ID, dtype=np.int64)
    ids[mask] = np.concatenate(fixed)
    return PaddedBatch(ids, mask, lengths)


def window_counts(lengths: np.ndarray, windows: Sequence[int]) -> np.ndarray:
    """Valid windows per document and window size, ``(batch, len(windows))``.

    A document of ``n`` real tokens has ``max(1, n - window + 1)``
    valid windows: the fully-in-document windows, or — for documents
    shorter than the window — the single window starting at position 0
    (whose trailing PAD positions contribute zero vectors).  The count
    depends only on the document, never on how far the batch happens
    to be padded, so encodings are invariant to batch composition.
    Valid windows are always the leading ones.
    """
    if min(windows) < 1:
        raise ValueError(f"windows must be >= 1, got {tuple(windows)}")
    return np.maximum(1, lengths[:, None] - np.asarray(windows) + 1)


def window_mask(mask: np.ndarray, window: int) -> np.ndarray:
    """:func:`window_counts` for one window size, as a bool matrix.

    Returns ``(batch, length - window + 1)``, True at valid windows.
    Requires ``mask.shape[1] >= window``.
    """
    num_valid = window_counts(mask.sum(axis=1), (window,))
    length = mask.shape[1]
    if length < window:
        raise ValueError(
            f"batch length {length} shorter than window {window}; "
            f"pad with min_length=window"
        )
    return np.arange(length - window + 1) < num_valid
