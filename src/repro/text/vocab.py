"""Vocabularies with document-frequency filtering.

Section 3.2.1: "We apply a simple document frequency (DF) filter so
that our total lookup table size is kept below 500k".  A
:class:`Vocabulary` is built from a corpus of token lists, drops tokens
whose document frequency falls below a threshold, and maps tokens to
contiguous integer ids.

Two ids are reserved:

* ``PAD_ID = 0`` — used to right-pad batched sequences; the network
  masks PAD positions so its embedding never receives gradient.
* ``UNK_ID = 1`` — any token outside the vocabulary (rare tokens
  removed by the DF filter, or unseen tokens at serving time).
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Sequence

import numpy as np

__all__ = ["PAD_ID", "UNK_ID", "PAD_TOKEN", "UNK_TOKEN", "Vocabulary"]

PAD_ID = 0
UNK_ID = 1
PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"
_NUM_RESERVED = 2


class Vocabulary:
    """An immutable token ⇄ id mapping with reserved PAD/UNK slots."""

    def __init__(self, tokens: Sequence[str]):
        self._id_to_token = [PAD_TOKEN, UNK_TOKEN, *tokens]
        self._token_to_id = {
            token: token_id for token_id, token in enumerate(self._id_to_token)
        }
        if len(self._token_to_id) != len(self._id_to_token):
            raise ValueError("duplicate tokens passed to Vocabulary")

    @classmethod
    def build(
        cls,
        documents: Iterable[Sequence[str]],
        min_df: int = 1,
    ) -> "Vocabulary":
        """Build a vocabulary from an iterable of token lists.

        Args:
            documents: one token list per document.
            min_df: keep a token only if it appears in at least this
                many distinct documents.
        """
        if min_df < 1:
            raise ValueError(f"min_df must be >= 1, got {min_df}")
        df: Counter[str] = Counter()
        for document in documents:
            df.update(set(document))
        kept = [token for token, count in df.items() if count >= min_df]
        # Sort by (-df, token) so ids are deterministic.
        kept.sort(key=lambda token: (-df[token], token))
        return cls(kept)

    def __len__(self) -> int:
        return len(self._id_to_token)

    def __contains__(self, token: str) -> bool:
        return token in self._token_to_id

    @property
    def size(self) -> int:
        """Total number of ids, including PAD and UNK."""
        return len(self._id_to_token)

    def id_of(self, token: str) -> int:
        """Return the id of *token*, or ``UNK_ID`` if unknown."""
        return self._token_to_id.get(token, UNK_ID)

    def token_of(self, token_id: int) -> str:
        return self._id_to_token[token_id]

    def encode(self, tokens: Sequence[str]) -> np.ndarray:
        """Map a token list to an ``int64`` id array (UNK for OOV)."""
        return np.fromiter(
            (self._token_to_id.get(token, UNK_ID) for token in tokens),
            dtype=np.int64,
            count=len(tokens),
        )

    def decode(self, ids: Sequence[int]) -> list[str]:
        return [self._id_to_token[token_id] for token_id in ids]

    def to_dict(self) -> dict:
        """Serialize to a JSON-compatible dict."""
        return {"tokens": self._id_to_token[_NUM_RESERVED:]}

    @classmethod
    def from_dict(cls, payload: dict) -> "Vocabulary":
        return cls(payload["tokens"])
