"""Vocabulary construction, DF filtering, and encoding."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.text.vocab import PAD_ID, UNK_ID, Vocabulary


class TestBuild:
    def test_min_df_filters_rare_tokens(self):
        docs = [["a", "b"], ["a", "c"], ["a"]]
        vocab = Vocabulary.build(docs, min_df=2)
        assert "a" in vocab
        assert "b" not in vocab and "c" not in vocab

    def test_df_counts_documents_not_occurrences(self):
        docs = [["a", "a", "a"], ["b"]]
        vocab = Vocabulary.build(docs, min_df=2)
        assert "a" not in vocab  # appears 3 times but in 1 document

    def test_deterministic_tie_break(self):
        docs = [["zz", "aa", "b"], ["b"]]
        assert Vocabulary.build(docs).decode([2, 3, 4]) == ["b", "aa", "zz"]

    def test_rejects_bad_min_df(self):
        with pytest.raises(ValueError, match="min_df"):
            Vocabulary.build([["a"]], min_df=0)

    def test_duplicate_tokens_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Vocabulary(["a", "a"])


class TestEncoding:
    def test_reserved_ids(self):
        vocab = Vocabulary.build([["a"]])
        assert vocab.id_of("a") >= 2
        assert PAD_ID == 0 and UNK_ID == 1

    def test_unknown_maps_to_unk(self):
        vocab = Vocabulary.build([["a"]])
        assert vocab.id_of("nope") == UNK_ID
        assert list(vocab.encode(["a", "nope"])) == [vocab.id_of("a"), UNK_ID]

    def test_encode_dtype_and_length(self):
        vocab = Vocabulary.build([["a", "b"]])
        ids = vocab.encode(["a", "b", "a"])
        assert ids.dtype == np.int64
        assert ids.shape == (3,)

    def test_decode_round_trip(self):
        vocab = Vocabulary.build([["jazz", "blues", "swing"]])
        tokens = ["jazz", "swing", "blues"]
        assert vocab.decode(vocab.encode(tokens)) == tokens

    def test_size_includes_reserved(self):
        vocab = Vocabulary.build([["a", "b"]])
        assert vocab.size == len(vocab) == 4

    def test_serialization_round_trip(self):
        vocab = Vocabulary.build([["a", "b", "c"], ["a"]])
        restored = Vocabulary.from_dict(vocab.to_dict())
        for token in ("a", "b", "c"):
            assert restored.id_of(token) == vocab.id_of(token)

    @given(
        st.lists(
            st.text(alphabet="abcdef", min_size=1, max_size=4),
            min_size=1,
            max_size=30,
            unique=True,
        )
    )
    def test_encode_decode_inverse_for_known_tokens(self, tokens):
        vocab = Vocabulary(tokens)
        assert vocab.decode(vocab.encode(tokens)) == tokens
