"""Text substrate: normalization, tokenizers, vocabularies, documents."""

from repro.text.documents import DocumentEncoder, EncodedEvent, EncodedUser
from repro.text.normalize import normalize_text, split_words
from repro.text.tokenizers import LetterTrigramTokenizer
from repro.text.vocab import PAD_ID, UNK_ID, Vocabulary

__all__ = [
    "DocumentEncoder",
    "EncodedEvent",
    "EncodedUser",
    "LetterTrigramTokenizer",
    "PAD_ID",
    "UNK_ID",
    "Vocabulary",
    "normalize_text",
    "split_words",
]
