"""Batching of variable-length token-id sequences.

The extraction blocks work on one **packed** id stream per source:
:func:`pad_batch` lays the documents end to end, each followed by
``widest_window - 1`` ``PAD_ID`` ids so that no window starting inside
a document reads its neighbour, and records where each document
starts.  Only real tokens and those short gaps are convolved and
pooled — no row is padded to the batch's longest document.
:func:`window_mask` states which window positions of each convolution
window size are real.

Conventions (see DESIGN.md):

* an empty sequence is replaced by a single ``UNK`` token so that every
  document yields at least one valid convolution window;
* a window is valid iff its **first** token is valid.  Windows hanging
  off the end of a short document therefore exist (covering the PAD
  gap after it, whose embedding is frozen at zero), which matches the
  paper's behaviour of always emitting at least one window per
  document regardless of window size.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.text.vocab import PAD_ID, UNK_ID

__all__ = ["PackedBatch", "pad_batch", "window_mask"]

_UNK_DOCUMENT = np.array([UNK_ID], dtype=np.int64)


class PackedBatch:
    """Documents laid end to end in one id stream.

    Attributes:
        ids: ``(stream,)`` int64 ids: each document, then ``reach``
            PAD ids.
        mask: ``(stream,)`` bool, True at real tokens.
        starts: ``(batch,)`` stream position of each document's first
            token.
        lengths: ``(batch,)`` effective document lengths.
        reach: PAD ids after every document (widest window − 1).
    """

    def __init__(
        self,
        ids: np.ndarray,
        mask: np.ndarray,
        starts: np.ndarray,
        lengths: np.ndarray,
        reach: int,
    ):
        self.ids = ids
        self.mask = mask
        self.starts = starts
        self.lengths = lengths
        self.reach = reach

    @property
    def batch_size(self) -> int:
        return len(self.lengths)

    @property
    def max_length(self) -> int:
        return int(self.lengths.max())


def pad_batch(sequences: Sequence[np.ndarray], widest_window: int) -> PackedBatch:
    """Pack *sequences* into a :class:`PackedBatch`.

    Args:
        sequences: one int id array per document.
        widest_window: the widest convolution window that will read
            the stream; each document is followed by this many − 1
            PAD ids.
    """
    if not sequences:
        raise ValueError("cannot pad an empty batch")
    if widest_window < 1:
        raise ValueError(f"widest_window must be >= 1, got {widest_window}")
    reach = widest_window - 1
    fixed = [seq if len(seq) else _UNK_DOCUMENT for seq in sequences]
    lengths = np.array([len(seq) for seq in fixed])
    spans = lengths + reach
    starts = spans.cumsum()
    starts -= spans
    gap = np.full(reach, PAD_ID, dtype=np.int64)
    ids = np.concatenate([part for seq in fixed for part in (seq, gap)])
    mask = np.ones(len(ids), dtype=bool)
    mask[(starts + lengths)[:, None] + np.arange(reach)] = False
    return PackedBatch(ids, mask, starts, lengths, reach)


def window_mask(batch: PackedBatch, windows: Sequence[int]) -> np.ndarray:
    """Which windows of *batch* are valid, ``(positions, len(windows))``.

    ``positions`` is the stream length less ``max(windows) - 1``: the
    start positions a convolution of the widest window is evaluated
    at.  A document of ``n`` real tokens has ``max(1, n - d + 1)``
    valid windows of size ``d``: the fully-in-document windows — those
    whose first and last token are real, as the PAD gap between two
    documents is at least ``d - 1`` long — or, for documents shorter
    than the window, the single window starting at the document's first
    token (whose trailing PAD positions contribute zero vectors).  The
    count depends only on the document, never on the rest of the batch
    or the gap's length, so encodings are invariant to batch
    composition.  Valid windows are always a document's leading ones.
    """
    if min(windows) < 1:
        raise ValueError(f"windows must be >= 1, got {tuple(windows)}")
    widest = max(windows)
    if batch.reach < widest - 1:
        raise ValueError(
            f"batch gap {batch.reach} shorter than window {widest} - 1; "
            f"pack with widest_window={widest}"
        )
    mask = batch.mask
    positions = len(mask) - (widest - 1)
    valid = np.empty((positions, len(windows)), dtype=bool)
    for column, window in enumerate(windows):
        np.logical_and(
            mask[:positions],
            mask[window - 1 : window - 1 + positions],
            out=valid[:, column],
        )
    valid[batch.starts] = True
    return valid
