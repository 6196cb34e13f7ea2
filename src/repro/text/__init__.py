"""Text substrate: normalization, tokenizers, vocabularies, documents."""
