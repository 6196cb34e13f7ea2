"""Model bundle persistence.

A trained :class:`~repro.core.model.JointUserEventModel` is only
usable together with its document encoder (the DF-filtered
vocabularies fix the token-id space) and its architecture config.
:func:`save_model_bundle` / :func:`load_model_bundle` persist all
three as one directory so a model trained in one process can serve in
another:

    bundle/
      config.json     # JointModelConfig fields
      vocabs.json     # the three vocabularies
      params.npz      # every network parameter
"""

from __future__ import annotations

import json
import zipfile
import zlib
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path

from repro.core.config import JointModelConfig
from repro.core.model import JointUserEventModel
from repro.text.documents import DocumentEncoder
from repro.text.vocab import Vocabulary

__all__ = ["save_model_bundle", "load_model_bundle"]

_CONFIG_FILE = "config.json"
_VOCABS_FILE = "vocabs.json"
_PARAMS_FILE = "params.npz"


def save_model_bundle(model: JointUserEventModel, directory: str | Path) -> Path:
    """Write the model, its encoder and its config under *directory*.

    Returns the bundle path.  Overwrites existing bundle files.
    """
    path = Path(directory)
    path.mkdir(parents=True, exist_ok=True)
    config_payload = asdict(model.config)
    config_payload["text_windows"] = list(model.config.text_windows)
    (path / _CONFIG_FILE).write_text(
        json.dumps(config_payload, indent=2), encoding="utf-8"
    )
    encoder = model.encoder
    vocab_payload = {
        "user_text": encoder.user_text_vocab.to_dict(),
        "user_id": encoder.user_id_vocab.to_dict(),
        "event_text": encoder.event_text_vocab.to_dict(),
        "trigram_n": encoder._trigram_tokenizer.n,
    }
    (path / _VOCABS_FILE).write_text(
        json.dumps(vocab_payload), encoding="utf-8"
    )
    model.store.save(str(path / _PARAMS_FILE))
    return path


@contextmanager
def _reading(file: Path) -> Iterator[None]:
    """Re-raise what a damaged bundle file makes its reader throw as one
    :class:`ValueError` that names the file."""
    try:
        yield
    except (
        EOFError, zipfile.BadZipFile, zlib.error, ValueError, KeyError, TypeError
    ) as error:
        raise ValueError(
            f"corrupt bundle file {file}: {type(error).__name__}: {error}"
        ) from error


def load_model_bundle(directory: str | Path) -> JointUserEventModel:
    """Reconstruct a model saved by :func:`save_model_bundle`.

    A missing file raises :class:`FileNotFoundError`; a damaged one
    (truncated, not JSON, a field missing, a shape that does not fit
    the config) raises one :class:`ValueError` naming that file.
    """
    path = Path(directory)
    for required in (_CONFIG_FILE, _VOCABS_FILE, _PARAMS_FILE):
        if not (path / required).exists():
            raise FileNotFoundError(f"bundle is missing {required}: {path}")
    with _reading(path / _CONFIG_FILE):
        config_payload = json.loads((path / _CONFIG_FILE).read_text(encoding="utf-8"))
        config_payload["text_windows"] = tuple(config_payload["text_windows"])
        config = JointModelConfig(**config_payload)
    with _reading(path / _VOCABS_FILE):
        vocab_payload = json.loads((path / _VOCABS_FILE).read_text(encoding="utf-8"))
        encoder = DocumentEncoder(
            user_text_vocab=Vocabulary.from_dict(vocab_payload["user_text"]),
            user_id_vocab=Vocabulary.from_dict(vocab_payload["user_id"]),
            event_text_vocab=Vocabulary.from_dict(vocab_payload["event_text"]),
            trigram_n=vocab_payload["trigram_n"],
        )
    model = JointUserEventModel(config, encoder)
    with _reading(path / _PARAMS_FILE):
        model.store.load(str(path / _PARAMS_FILE))
    return model
