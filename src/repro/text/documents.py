"""Assembly of model inputs from user / event records.

The joint model (Section 3) consumes, per entity, one token-id
sequence per extraction module:

* **event**: a single text document (title + description + category),
  tokenized into letter trigrams; the same trigram sequence feeds the
  three text modules (window sizes 1, 3, 5).
* **user**: a text document (keywords + page titles) tokenized into
  letter trigrams, plus an unordered id-feature list whose every
  feature-value pair is one token, encoded as given.

A text document becomes ids in one flat pass: the tokenizer's token
strings go through the vocabulary in one ``np.fromiter`` and its
per-word counts become the word index in one ``np.repeat``.

:class:`DocumentEncoder` owns the vocabularies (built once from the
training corpus with DF filtering) and converts records to id arrays.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass

import numpy as np

from repro.entities import Event, Impression, User
from repro.text.tokenizers import LetterTrigramTokenizer
from repro.text.vocab import Vocabulary

__all__ = ["EncodedUser", "EncodedEvent", "DocumentEncoder"]


@dataclass(frozen=True)
class EncodedUser:
    """Token-id views of one user.

    Attributes:
        text_ids: letter-trigram ids of the user text document.
        text_word_index: originating word index for each trigram
            (used by window masking and Figure-7 style analysis).
        id_feature_ids: unigram ids of the categorical id tokens.
    """

    text_ids: np.ndarray
    text_word_index: np.ndarray
    id_feature_ids: np.ndarray


@dataclass(frozen=True)
class EncodedEvent:
    """Token-id view of one event text document."""

    text_ids: np.ndarray
    text_word_index: np.ndarray


class DocumentEncoder:
    """Tokenize and encode users and events against fixed vocabularies.

    Build with :meth:`fit` on the training corpus, then reuse for every
    split (tokens unseen at fit time map to UNK, exactly as a deployed
    DF-filtered lookup table would behave).
    """

    def __init__(
        self,
        user_text_vocab: Vocabulary,
        user_id_vocab: Vocabulary,
        event_text_vocab: Vocabulary,
        trigram_n: int = 3,
    ):
        self.user_text_vocab = user_text_vocab
        self.user_id_vocab = user_id_vocab
        self.event_text_vocab = event_text_vocab
        self._trigram_tokenizer = LetterTrigramTokenizer(trigram_n)

    @classmethod
    def fit(
        cls,
        users: Iterable[User],
        events: Iterable[Event],
        min_df: int = 2,
    ) -> "DocumentEncoder":
        """Build the three vocabularies from a training corpus.

        The paper keeps three separate lookup tables (236k user text,
        78k user categorical, 99k event text); we mirror that split so
        user and event towers never share token ids.
        """
        trigrams = LetterTrigramTokenizer()
        user_list = list(users)
        user_text_vocab = Vocabulary.build(
            (trigrams.tokenize(user.text_document())[0] for user in user_list),
            min_df=min_df,
        )
        user_id_vocab = Vocabulary.build(
            (user.id_tokens() for user in user_list), min_df=min_df
        )
        event_text_vocab = Vocabulary.build(
            (trigrams.tokenize(event.text_document())[0] for event in events),
            min_df=min_df,
        )
        return cls(user_text_vocab, user_id_vocab, event_text_vocab)

    def _encode_text(
        self, text: str, vocabulary: Vocabulary
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(ids, word_index)`` of *text*, in one flat pass."""
        tokens, counts = self._trigram_tokenizer.tokenize(text)
        word_index = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
        return vocabulary.encode(tokens), word_index

    def encode_user(self, user: User) -> EncodedUser:
        text_ids, word_index = self._encode_text(
            user.text_document(), self.user_text_vocab
        )
        id_feature_ids = self.user_id_vocab.encode(user.id_tokens())
        return EncodedUser(text_ids, word_index, id_feature_ids)

    def encode_event(self, event: Event) -> EncodedEvent:
        return self.encode_event_text(event.text_document())

    def encode_event_text(self, text: str) -> EncodedEvent:
        """Encode a raw event text (used by the Siamese initializer,
        which pairs titles with bodies rather than whole events)."""
        return EncodedEvent(*self._encode_text(text, self.event_text_vocab))

    def encode_pairs(
        self,
        impressions: Iterable[Impression],
        users_by_id: Mapping[int, User],
        events_by_id: Mapping[int, Event],
    ) -> tuple[list[EncodedUser], list[EncodedEvent], np.ndarray]:
        """Aligned (user, event, label) training triples of a log.

        Each distinct user and event is encoded once and that one
        object repeated: the towers fold the repeats of a batch by
        identity, so fresh encodings per impression would cost a tower
        row each.
        """
        users: dict[int, EncodedUser] = {}
        events: dict[int, EncodedEvent] = {}
        pair_users, pair_events, labels = [], [], []
        for impression in impressions:
            if impression.user_id not in users:
                users[impression.user_id] = self.encode_user(
                    users_by_id[impression.user_id]
                )
            if impression.event_id not in events:
                events[impression.event_id] = self.encode_event(
                    events_by_id[impression.event_id]
                )
            pair_users.append(users[impression.user_id])
            pair_events.append(events[impression.event_id])
            labels.append(1.0 if impression.participated else 0.0)
        return pair_users, pair_events, np.asarray(labels, dtype=np.float64)

    def vocab_sizes(self) -> dict[str, int]:
        """Lookup-table sizes, mirroring the paper's Section 3.2.1 report."""
        return {
            "user_text": self.user_text_vocab.size,
            "user_categorical": self.user_id_vocab.size,
            "event_text": self.event_text_vocab.size,
        }
