"""Text normalization shared by every tokenizer.

The paper (Section 3.1) treats an input as "a sequence of words ...
with punctuations replaced or removed".  This module implements that
normalization step: lower-casing, punctuation stripping, and whitespace
collapsing.  Keeping it in one place guarantees the user tower, the
event tower, and every baseline see identical word sequences.
"""

from __future__ import annotations

import re

__all__ = ["normalize_text", "split_words"]

# Anything that is not a letter, digit or apostrophe becomes a word
# boundary.  Apostrophes are kept so contractions ("seattle's") stay a
# single word, matching the examples in the paper's Figure 7.
_NON_WORD_RE = re.compile(r"[^a-z0-9']+")


def normalize_text(text: str) -> str:
    """Lower-case *text* and replace punctuation with single spaces.

    >>> normalize_text("Seattle Ice-Cream Festival!!")
    'seattle ice cream festival'
    """
    lowered = text.lower()
    spaced = _NON_WORD_RE.sub(" ", lowered)
    return " ".join(spaced.split())


def split_words(text: str) -> list[str]:
    """Return the normalized word sequence of *text*.

    Words are the atoms the letter-trigram tokenizer shingles.  Edge
    apostrophes are stripped (a quoted word is the word), and a word of
    apostrophes alone disappears.

    >>> split_words("Seattle's best 'ice' cream!")
    ["seattle's", 'best', 'ice', 'cream']
    """
    return [
        word
        for raw in normalize_text(text).split()
        if (word := raw.strip("'"))
    ]
