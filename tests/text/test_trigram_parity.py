"""Text → ids parity against a straight-line reference tokenizer.

The reference below is the original per-token loop: one
``(trigram, word_index)`` pair per trigram, edge apostrophes stripped
by regex.  Every encoder path — ``fit``, ``encode_user``,
``encode_event`` and ``encode_event_text`` — must give exactly its ids,
word indices and vocabularies, at shingle widths 3 and 4 (width 4 sends
one- and two-letter words down the short-word branch).
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.entities import Event, User
from repro.text.documents import DocumentEncoder
from repro.text.vocab import Vocabulary

_NON_WORD_RE = re.compile(r"[^a-z0-9']+")
_APOSTROPHE_EDGE_RE = re.compile(r"^'+|'+$")

EDGE_STRINGS = [
    "",
    "'''",
    "a",
    "of",
    "x'y'",
    "'a' 'bc' '''d''' e'''f",
    "Seattle's best ICE-cream!!",
    "  \t\n  jazz   \r\n night \x0b\x0c ",
    "café naïve façade Straße",
    "İstanbul ǅemal",
    "ﬁnal ﬂow ǆ",
    "party 🎉🎉 tonight 🎷jazz",
    "日本語 テキスト",
    "3:00pm 12345 a1b2",
]


def reference_pairs(text: str, n: int) -> list[tuple[str, int]]:
    """``(trigram, word_index)`` per trigram of *text*, one at a time."""
    words = []
    for raw in _NON_WORD_RE.sub(" ", text.lower()).split():
        word = _APOSTROPHE_EDGE_RE.sub("", raw)
        if word:
            words.append(word)
    pairs = []
    for word_index, word in enumerate(words):
        padded = "#" + word + "#"
        if len(padded) <= n:
            pairs.append((padded, word_index))
            continue
        for start in range(len(padded) - n + 1):
            pairs.append((padded[start : start + n], word_index))
    return pairs


def half_vocabulary(texts: list[str], n: int) -> Vocabulary:
    """Every other distinct reference trigram, so both known ids and
    UNK appear in the encodings."""
    distinct = sorted({token for text in texts for token, _ in reference_pairs(text, n)})
    return Vocabulary(distinct[::2])


def expected_encoding(
    text: str, n: int, vocabulary: Vocabulary
) -> tuple[np.ndarray, np.ndarray]:
    pairs = reference_pairs(text, n)
    ids = np.array([vocabulary.id_of(token) for token, _ in pairs], dtype=np.int64)
    word_index = np.array([index for _, index in pairs], dtype=np.int64)
    return ids, word_index


def assert_same(actual: np.ndarray, expected: np.ndarray) -> None:
    assert actual.dtype == np.int64
    assert actual.shape == expected.shape
    assert np.array_equal(actual, expected)


def check_every_path(text: str, n: int) -> None:
    vocabulary = half_vocabulary([text, "jazz night"], n)
    encoder = DocumentEncoder(vocabulary, Vocabulary([]), vocabulary, trigram_n=n)
    ids, word_index = expected_encoding(text, n, vocabulary)

    for encoded in (
        encoder.encode_event_text(text),
        encoder.encode_event(Event(0, text, "", "", 0.0, 1.0)),
        encoder.encode_user(User(0, keywords=[text])),
    ):
        assert_same(encoded.text_ids, ids)
        assert_same(encoded.text_word_index, word_index)


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("text", EDGE_STRINGS)
def test_edge_strings_match_reference(text, n):
    check_every_path(text, n)


@pytest.mark.parametrize("n", [3, 4])
@settings(max_examples=150, deadline=None)
@given(text=st.text(max_size=120))
def test_any_text_matches_reference(n, text):
    check_every_path(text, n)


@settings(max_examples=60, deadline=None)
@given(
    user_texts=st.lists(st.text(max_size=60), min_size=1, max_size=6),
    event_texts=st.lists(st.text(max_size=60), min_size=1, max_size=6),
    min_df=st.integers(1, 2),
)
def test_fit_vocabularies_match_reference(user_texts, event_texts, min_df):
    users = [User(i, keywords=[text]) for i, text in enumerate(user_texts)]
    events = [Event(i, text, "", "", 0.0, 1.0) for i, text in enumerate(event_texts)]
    encoder = DocumentEncoder.fit(users, events, min_df=min_df)

    def built(texts):
        return Vocabulary.build(
            ([token for token, _ in reference_pairs(text, 3)] for text in texts),
            min_df=min_df,
        ).to_dict()

    assert encoder.user_text_vocab.to_dict() == built(user_texts)
    assert encoder.event_text_vocab.to_dict() == built(event_texts)


def test_world_encodings_match_reference(small_dataset):
    """Every user, event and title of a generated world, against the
    reference run through the encoder's own fitted vocabularies."""
    encoder = DocumentEncoder.fit(small_dataset.users, small_dataset.events, min_df=2)
    for user in small_dataset.users:
        encoded = encoder.encode_user(user)
        ids, word_index = expected_encoding(
            user.text_document(), 3, encoder.user_text_vocab
        )
        assert_same(encoded.text_ids, ids)
        assert_same(encoded.text_word_index, word_index)
        assert_same(
            encoded.id_feature_ids,
            np.array(
                [encoder.user_id_vocab.id_of(token) for token in user.id_tokens()],
                dtype=np.int64,
            ),
        )
    for event in small_dataset.events:
        for encoded, text in (
            (encoder.encode_event(event), event.text_document()),
            (encoder.encode_event_text(event.title), event.title),
        ):
            ids, word_index = expected_encoding(text, 3, encoder.event_text_vocab)
            assert_same(encoded.text_ids, ids)
            assert_same(encoded.text_word_index, word_index)
