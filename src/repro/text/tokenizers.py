"""The letter-trigram tokenizer of the text extraction modules.

Section 3.1 of the paper tokenizes natural-language text into **letter
trigrams**, following the DSSM convention (Huang et al., CIKM 2013):
each word is wrapped in boundary markers (``#``) and shingled into
overlapping character trigrams.  This keeps the token space small while
covering rare and misspelled words.  (Id features need no tokenizer:
each categorical feature-value pair is already one opaque token, see
:meth:`repro.entities.User.id_tokens`.)

A document comes out flat, in one pass: the token strings in order, and
how many of them each word gave.  No object is built per token; the
encoder turns the counts into the per-token word index that window
masking and the Figure-7 analysis read.
"""

from __future__ import annotations

from repro.text.normalize import split_words

__all__ = ["LetterTrigramTokenizer"]

_BOUNDARY = "#"


class LetterTrigramTokenizer:
    """Shingle each word into boundary-marked letter trigrams.

    A word ``w`` becomes the trigrams of ``#w#``.  A padded word no
    longer than the shingle width emits itself as its one token, so no
    word silently disappears.  :meth:`tokenize` returns ``(tokens,
    counts)``: the flat token list and the number of tokens per word.

    >>> LetterTrigramTokenizer().tokenize("web of")
    (['#we', 'web', 'eb#', '#of', 'of#'], [3, 2])
    >>> LetterTrigramTokenizer(n=4).tokenize("a web")
    (['#a#', '#web', 'web#'], [1, 2])
    """

    def __init__(self, n: int = 3):
        if n < 2:
            raise ValueError(f"shingle width must be >= 2, got {n}")
        self.n = n

    def tokenize(self, text: str) -> tuple[list[str], list[int]]:
        n = self.n
        padded = [_BOUNDARY + word + _BOUNDARY for word in split_words(text)]
        # ``word[0:n]`` of a padded word shorter than ``n`` is the word.
        counts = [max(len(word) - n + 1, 1) for word in padded]
        tokens = [
            word[start : start + n]
            for word, count in zip(padded, counts)
            for start in range(count)
        ]
        return tokens, counts
