"""Pooling trace-back analysis (paper Section 5.3, Figure 7).

For a trained event tower and one event text, trace each of the
pooled output dimensions back to the convolution window that achieved
the max value, then credit the words overlapping that window:

    "For a max-value window covering d words, we consider each word
    contributing 1/d to the pooling layer.  We go through all 64
    max-value windows and sort all words based on their accumulated
    contribution to the max values."

This is computed per window size (1, 3, 5), reproducing the
subscript annotations of Figure 7.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.tower import EventTower
from repro.nn.batching import pad_batch
from repro.text.documents import DocumentEncoder
from repro.text.normalize import split_words

__all__ = ["WordAttribution", "trace_top_words", "format_trace"]


@dataclass(frozen=True)
class WordAttribution:
    """A word and its accumulated contribution to the pooling layer."""

    word: str
    weight: float
    word_index: int


def _attribute_module(
    weights: np.ndarray,
    token_word_index: np.ndarray,
    window: int,
    num_words: int,
) -> np.ndarray:
    """Accumulate per-word contributions for one extraction module:
    the argmax window of each output dimension is credited (the
    paper's trace-back).

    Args:
        weights: ``(num_windows, out_dim)`` softmax pooling weights of
            the single analyzed example.
        token_word_index: originating word index of each token.
        window: the module's convolution window size.
        num_words: number of words in the analyzed text.

    Returns:
        ``(num_words,)`` accumulated contribution per word.
    """
    num_windows, out_dim = weights.shape
    contributions = np.zeros(num_words, dtype=np.float64)
    # Pre-compute the distinct words covered by each window.
    window_words: list[list[int]] = []
    num_tokens = len(token_word_index)
    for start in range(num_windows):
        covered = token_word_index[start : min(start + window, num_tokens)]
        window_words.append(sorted(set(int(w) for w in covered)))
    top_windows = weights.argmax(axis=0)
    for dim in range(out_dim):
        words = window_words[top_windows[dim]]
        if not words:
            continue
        for word in words:
            contributions[word] += 1.0 / len(words)
    return contributions


def trace_top_words(
    tower: EventTower,
    encoder: DocumentEncoder,
    text: str,
    top_k: int = 5,
) -> dict[int, list[WordAttribution]]:
    """Top contributing words per convolution window size.

    Returns a mapping ``window_size -> top_k WordAttributions`` sorted
    by descending contribution (ties broken by word position for
    determinism).
    """
    words = split_words(text)
    if not words:
        raise ValueError("cannot analyze an empty text")
    encoded = encoder.encode_event_text(text)
    (module,) = tower.text_modules
    _, cache = module.forward(pad_batch([encoded.text_ids], max(module.windows)))
    result: dict[int, list[WordAttribution]] = {}
    for window, weights in module.pooling_attribution(cache).items():
        contributions = _attribute_module(
            weights[0],
            encoded.text_word_index,
            window,
            num_words=len(words),
        )
        order = sorted(
            range(len(words)),
            key=lambda index: (-contributions[index], index),
        )
        result[window] = [
            WordAttribution(words[index], float(contributions[index]), index)
            for index in order[:top_k]
            if contributions[index] > 0.0
        ]
    return result


def format_trace(
    text: str, trace: dict[int, list[WordAttribution]], max_chars: int = 400
) -> str:
    """Render a Figure-7 style annotation: each top word followed by
    the subscripted window sizes under which it ranked top."""
    windows_by_word: dict[int, list[int]] = {}
    for window, attributions in sorted(trace.items()):
        for attribution in attributions:
            windows_by_word.setdefault(attribution.word_index, []).append(window)
    words = split_words(text)
    rendered = []
    for index, word in enumerate(words):
        if index in windows_by_word:
            subscripts = ",".join(str(w) for w in sorted(windows_by_word[index]))
            rendered.append(f"**{word}**_{{{subscripts}}}")
        else:
            rendered.append(word)
    out = " ".join(rendered)
    if len(out) > max_chars:
        out = out[:max_chars] + "..."
    return out
