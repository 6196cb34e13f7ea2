"""Document encoding: user/event records → token-id arrays."""

import numpy as np
import pytest

from repro.entities import User
from repro.text.documents import DocumentEncoder
from repro.text.vocab import UNK_ID


@pytest.fixture()
def encoder(tiny_users, tiny_events):
    return DocumentEncoder.fit(tiny_users, tiny_events, min_df=1)


class TestFit:
    def test_three_separate_vocabularies(self, encoder):
        sizes = encoder.vocab_sizes()
        assert set(sizes) == {"user_text", "user_categorical", "event_text"}
        assert all(size > 2 for size in sizes.values())

    def test_user_and_event_tables_disjoint(self, encoder, tiny_users, tiny_events):
        """The same trigram gets independent ids per table (separate
        lookup tables as in the paper's size accounting)."""
        assert encoder.user_text_vocab is not encoder.event_text_vocab

    def test_df_filter_applies(self, tiny_users, tiny_events):
        strict = DocumentEncoder.fit(tiny_users, tiny_events, min_df=3)
        loose = DocumentEncoder.fit(tiny_users, tiny_events, min_df=1)
        assert (
            strict.vocab_sizes()["event_text"] < loose.vocab_sizes()["event_text"]
        )


class TestEncodeUser:
    def test_id_tokens_cover_categoricals_and_pages(self, encoder, tiny_users):
        encoded = encoder.encode_user(tiny_users[0])
        # 3 categorical pairs + 2 pages
        assert encoded.id_feature_ids.shape == (5,)

    def test_text_ids_align_with_word_index(self, encoder, tiny_users):
        encoded = encoder.encode_user(tiny_users[0])
        assert encoded.text_ids.shape == encoded.text_word_index.shape
        assert encoded.text_word_index[0] == 0
        assert np.all(np.diff(encoded.text_word_index) >= 0)

    def test_unseen_user_tokens_become_unk(self, encoder, tiny_users):
        stranger = User(99, {"age_bucket": "55+"}, ["qqqqqq"], [], [])
        encoded = encoder.encode_user(stranger)
        assert np.all(encoded.text_ids == UNK_ID)


class TestIdFeatures:
    """Each feature-value pair is one token, encoded as given (Section
    3: "assigning each feature-value pair a distinct id")."""

    @staticmethod
    def fitted(*users):
        return DocumentEncoder.fit(users, [], min_df=1)

    def test_ids_pass_through_untouched(self):
        user = User(1, {"age_bucket": "25-34", "city": "SEATTLE"})
        encoder = self.fitted(user)
        decoded = encoder.user_id_vocab.decode(encoder.encode_user(user).id_feature_ids)
        assert decoded == ["age_bucket=25-34", "city=SEATTLE"]

    def test_ids_keep_their_order(self):
        user = User(1, {"c": "x", "a": "y"}, page_ids=[7, 3, 5])
        encoder = self.fitted(User(2, {"a": "y"}, page_ids=[5, 3]), user)
        decoded = encoder.user_id_vocab.decode(encoder.encode_user(user).id_feature_ids)
        assert decoded == user.id_tokens() == ["a=y", "c=x", "page=7", "page=3", "page=5"]

    def test_no_id_features(self):
        user = User(1, keywords=["jazz"])
        encoded = self.fitted(user).encode_user(user)
        assert encoded.id_feature_ids.dtype == np.int64
        assert encoded.id_feature_ids.shape == (0,)

    def test_value_with_space_is_one_token(self):
        user = User(1, {"city": "new york", "age_bucket": "25-34"})
        encoder = self.fitted(user, User(2, {"city": "york"}))
        encoded = encoder.encode_user(user)
        assert len(encoded.id_feature_ids) == len(user.id_tokens()) == 2
        assert "city=new york" in encoder.user_id_vocab
        assert encoder.user_id_vocab.decode(encoded.id_feature_ids) == [
            "age_bucket=25-34",
            "city=new york",
        ]


class TestEncodeEvent:
    def test_event_text_combines_title_description_category(
        self, encoder, tiny_events
    ):
        event = tiny_events[0]
        encoded = encoder.encode_event(event)
        title_only = encoder.encode_event_text(event.title)
        assert encoded.text_ids.shape[0] > title_only.text_ids.shape[0]

    def test_encode_event_text_matches_encode_event_prefix(
        self, encoder, tiny_events
    ):
        event = tiny_events[0]
        full = encoder.encode_event(event)
        title = encoder.encode_event_text(event.title)
        assert np.array_equal(
            full.text_ids[: title.text_ids.shape[0]], title.text_ids
        )

    def test_deterministic(self, encoder, tiny_events):
        first = encoder.encode_event(tiny_events[1])
        second = encoder.encode_event(tiny_events[1])
        assert np.array_equal(first.text_ids, second.text_ids)
