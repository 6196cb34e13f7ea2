"""Letter-trigram tokenizer: flat tokens plus per-word counts."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.text.tokenizers import LetterTrigramTokenizer


def tokens_of(text: str, n: int = 3) -> list[str]:
    tokens, _ = LetterTrigramTokenizer(n).tokenize(text)
    return tokens


class TestLetterTrigramTokenizer:
    def test_boundary_marked_shingles(self):
        assert tokens_of("web") == ["#we", "web", "eb#"]

    def test_multi_word_provenance(self):
        tokens, counts = LetterTrigramTokenizer().tokenize("ice cream")
        assert counts == [3, 5]
        assert sum(counts) == len(tokens)
        # Trigrams never span words.
        for token in tokens:
            assert len(token) <= 3

    def test_single_letter_word_survives(self):
        tokens = tokens_of("a")
        assert tokens == ["#a#"]

    def test_two_letter_word(self):
        assert tokens_of("of") == ["#of", "of#"]

    def test_normalization_applied(self):
        upper = LetterTrigramTokenizer().tokenize("JAZZ!")
        lower = LetterTrigramTokenizer().tokenize("jazz")
        assert upper == lower

    def test_empty_text(self):
        assert LetterTrigramTokenizer().tokenize("") == ([], [])

    def test_custom_shingle_width(self):
        assert tokens_of("web", n=4) == ["#web", "web#"]

    def test_rejects_width_below_two(self):
        with pytest.raises(ValueError, match="shingle width"):
            LetterTrigramTokenizer(n=1)

    @given(st.text(max_size=100))
    def test_token_count_reasonable(self, text):
        """Each word of length L yields exactly max(1, L-n+3) trigrams."""
        from repro.text.normalize import split_words

        tokens, counts = LetterTrigramTokenizer().tokenize(text)
        expected = [max(1, len(word) + 2 - 3 + 1) for word in split_words(text)]
        assert counts == expected
        assert len(tokens) == sum(expected)
