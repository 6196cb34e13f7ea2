"""Typed request schemas and error envelopes for the serving HTTP API.

The HTTP boundary is where caller mistakes arrive: a ``top_k`` of
``0``, a candidate pool with duplicate event ids, a user id as a
string.  Deep inside the ranking path those become a confusing numpy
error (a 500); here they become a structured **error envelope** with
the right status code::

    {"error": {"code": "validation", "message": "...",
               "details": ["top_k must be >= 1 or None, got 0"]}}

Status-code contract (mirrors the CLI's exit-style conventions):

* ``400`` — the request never parsed (bad JSON, wrong body type);
* ``422`` — the request parsed but fails validation (bad ``top_k``,
  duplicate/unknown ids) — exactly the checks
  :func:`repro.core.service.validate_top_k` and the ranking paths
  apply, surfaced before any tensor work;
* ``503`` — the server is not accepting work (draining/stopped).

Schemas are plain dataclasses with a ``from_payload`` classmethod so
validation is exhaustively unit-testable without a socket.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

from repro.core.service import validate_top_k

__all__ = [
    "ApiError",
    "RecommendRequest",
    "ScoreRequest",
    "SimilarEventsRequest",
    "error_envelope",
]


class ApiError(Exception):
    """A request rejection carrying its HTTP status and envelope.

    ``status`` is the HTTP status code; ``code`` is the stable
    machine-readable discriminator (``"validation"``,
    ``"bad_request"``, ``"not_found"``, ``"unavailable"``).
    """

    def __init__(
        self,
        status: int,
        code: str,
        message: str,
        details: list[str] | None = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.code = code
        self.message = message
        self.details = list(details) if details else []

    def envelope(self) -> dict[str, Any]:
        return error_envelope(self.code, self.message, self.details)


def error_envelope(
    code: str, message: str, details: list[str] | None = None
) -> dict[str, Any]:
    """The uniform error body every non-2xx response carries."""
    payload: dict[str, Any] = {"error": {"code": code, "message": message}}
    if details:
        payload["error"]["details"] = list(details)
    return payload


def _validation_error(details: list[str]) -> ApiError:
    return ApiError(
        422, "validation", "request failed validation", details
    )


def _require_mapping(payload: Any) -> dict[str, Any]:
    if not isinstance(payload, dict):
        raise ApiError(
            400,
            "bad_request",
            f"request body must be a JSON object, got {type(payload).__name__}",
        )
    return payload


def _get_int(payload: dict[str, Any], name: str, errors: list[str]) -> int | None:
    """An integer field; bools are rejected (JSON ``true`` is not an id)."""
    value = payload.get(name)
    if value is None:
        errors.append(f"{name} is required")
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        errors.append(f"{name} must be an integer, got {value!r}")
        return None
    return value


def _get_top_k(payload: dict[str, Any], errors: list[str]) -> int | None:
    """``top_k`` validated exactly like the ranking paths do.

    Same function (:func:`repro.core.service.validate_top_k`), so the
    boundary can never accept a value ``rank_events`` would reject —
    the ValueError text is surfaced verbatim in the 422 details.
    """
    value = payload.get("top_k")
    if isinstance(value, bool) or isinstance(value, (str, float)):
        errors.append(f"top_k must be an integer >= 1 or null, got {value!r}")
        return None
    try:
        return validate_top_k(value)
    except ValueError as error:
        errors.append(str(error))
        return None


def _get_event_ids(
    payload: dict[str, Any], errors: list[str]
) -> list[int] | None:
    """Optional candidate pool: a list of unique integer event ids.

    Duplicates are rejected rather than silently deduplicated — a
    duplicated id in a caller-supplied pool is a caller bug (the
    ranking would return the event twice), same philosophy as
    ``top_k=0``.
    """
    value = payload.get("event_ids")
    if value is None:
        return None
    if not isinstance(value, list):
        errors.append(f"event_ids must be a list of integers, got {value!r}")
        return None
    ids: list[int] = []
    for item in value:
        if isinstance(item, bool) or not isinstance(item, int):
            errors.append(f"event_ids entries must be integers, got {item!r}")
            return None
        ids.append(item)
    if not ids:
        errors.append("event_ids must not be empty (omit it for the full pool)")
        return None
    if len(set(ids)) != len(ids):
        seen: set[int] = set()
        dupes = sorted({i for i in ids if i in seen or seen.add(i)})  # type: ignore[func-returns-value]
        errors.append(f"event_ids contains duplicate ids: {dupes}")
        return None
    return ids


def _finite_number(name: str, value: Any, errors: list[str]) -> float | None:
    """``value`` as a finite float.

    ``json.loads`` accepts bare ``NaN``/``Infinity`` and integers of
    any size; none of them is a usable time or similarity, and an
    integer past the float range would raise out of ``float()``.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        errors.append(f"{name} must be a number, got {value!r}")
        return None
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        errors.append(f"{name} must be a finite number")
        return None
    return number


def _get_at_time(payload: dict[str, Any], errors: list[str]) -> float | None:
    value = payload.get("at_time")
    if value is None:
        return None
    return _finite_number("at_time", value, errors)


@dataclass(frozen=True)
class RecommendRequest:
    """``POST /recommend`` — rank (a subset of) the pool for a user."""

    user_id: int
    top_k: int | None = None
    event_ids: list[int] | None = None
    at_time: float | None = None

    @classmethod
    def from_payload(cls, payload: Any) -> "RecommendRequest":
        data = _require_mapping(payload)
        errors: list[str] = []
        user_id = _get_int(data, "user_id", errors)
        top_k = _get_top_k(data, errors)
        event_ids = _get_event_ids(data, errors)
        at_time = _get_at_time(data, errors)
        if errors:
            raise _validation_error(errors)
        return cls(
            user_id=user_id,  # type: ignore[arg-type]
            top_k=top_k,
            event_ids=event_ids,
            at_time=at_time,
        )


@dataclass(frozen=True)
class ScoreRequest:
    """``POST /score`` — one (user, event) representation score."""

    user_id: int
    event_id: int

    @classmethod
    def from_payload(cls, payload: Any) -> "ScoreRequest":
        data = _require_mapping(payload)
        errors: list[str] = []
        user_id = _get_int(data, "user_id", errors)
        event_id = _get_int(data, "event_id", errors)
        if errors:
            raise _validation_error(errors)
        return cls(user_id=user_id, event_id=event_id)  # type: ignore[arg-type]


@dataclass(frozen=True)
class SimilarEventsRequest:
    """``POST /similar-events`` — nearest events to a seed event."""

    event_id: int
    top_k: int = 3
    min_similarity: float = 0.0

    @classmethod
    def from_payload(cls, payload: Any) -> "SimilarEventsRequest":
        data = _require_mapping(payload)
        errors: list[str] = []
        event_id = _get_int(data, "event_id", errors)
        top_k = _get_top_k(data, errors)
        min_similarity = _finite_number(
            "min_similarity", data.get("min_similarity", 0.0), errors
        )
        if errors:
            raise _validation_error(errors)
        return cls(
            event_id=event_id,  # type: ignore[arg-type]
            top_k=top_k if top_k is not None else 3,
            min_similarity=min_similarity,  # type: ignore[arg-type]
        )
