"""API-boundary validation: the 400/422 contract of the schemas."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.serving.schemas import (
    ApiError,
    RecommendRequest,
    ScoreRequest,
    SimilarEventsRequest,
    error_envelope,
)


def details_of(error: ApiError) -> str:
    return " | ".join(error.details)


class TestRecommendRequest:
    def test_minimal_payload(self):
        request = RecommendRequest.from_payload({"user_id": 7})
        assert request.user_id == 7
        assert request.top_k is None
        assert request.event_ids is None
        assert request.at_time is None

    def test_full_payload(self):
        request = RecommendRequest.from_payload(
            {"user_id": 7, "top_k": 3, "event_ids": [5, 2, 9], "at_time": 40}
        )
        assert request.top_k == 3
        assert request.event_ids == [5, 2, 9]
        assert request.at_time == 40.0

    def test_non_object_body_is_400(self):
        with pytest.raises(ApiError) as caught:
            RecommendRequest.from_payload([1, 2])
        assert caught.value.status == 400
        assert caught.value.code == "bad_request"

    def test_missing_user_id_is_422(self):
        with pytest.raises(ApiError) as caught:
            RecommendRequest.from_payload({})
        assert caught.value.status == 422
        assert "user_id is required" in details_of(caught.value)

    @pytest.mark.parametrize("bad", ["3", 3.5, True, None, [3]])
    def test_non_int_user_id_is_422(self, bad):
        with pytest.raises(ApiError) as caught:
            RecommendRequest.from_payload({"user_id": bad})
        assert caught.value.status == 422

    @pytest.mark.parametrize("bad", [0, -1, -10])
    def test_non_positive_top_k_is_422(self, bad):
        """Exactly the ``rank_events`` ValueError, surfaced as 422 —
        not a 500 from deep inside numpy."""
        with pytest.raises(ApiError) as caught:
            RecommendRequest.from_payload({"user_id": 1, "top_k": bad})
        assert caught.value.status == 422
        assert "top_k" in details_of(caught.value)

    @pytest.mark.parametrize("bad", ["5", 2.5, True])
    def test_non_int_top_k_is_422(self, bad):
        with pytest.raises(ApiError) as caught:
            RecommendRequest.from_payload({"user_id": 1, "top_k": bad})
        assert caught.value.status == 422
        assert "top_k" in details_of(caught.value)

    def test_null_top_k_means_full_ranking(self):
        request = RecommendRequest.from_payload({"user_id": 1, "top_k": None})
        assert request.top_k is None

    def test_duplicate_event_ids_are_422(self):
        with pytest.raises(ApiError) as caught:
            RecommendRequest.from_payload(
                {"user_id": 1, "event_ids": [4, 2, 4, 2, 9]}
            )
        assert caught.value.status == 422
        assert "duplicate" in details_of(caught.value)
        assert "[2, 4]" in details_of(caught.value)

    @pytest.mark.parametrize("bad", [7, "7", [1, "2"], [1, True], []])
    def test_bad_event_ids_are_422(self, bad):
        with pytest.raises(ApiError) as caught:
            RecommendRequest.from_payload({"user_id": 1, "event_ids": bad})
        assert caught.value.status == 422
        assert "event_ids" in details_of(caught.value)

    def test_bad_at_time_is_422(self):
        with pytest.raises(ApiError) as caught:
            RecommendRequest.from_payload({"user_id": 1, "at_time": "noon"})
        assert caught.value.status == 422

    @pytest.mark.parametrize(
        "bad",
        [float("nan"), float("inf"), float("-inf"), 10**400],
        ids=["nan", "inf", "-inf", "overflowing-int"],
    )
    def test_non_finite_at_time_is_422(self, bad):
        """``json.loads`` lets ``NaN``/``Infinity`` and 400-digit ints
        through; none may reach the ranker (or ``float()``'s
        OverflowError the 500 envelope)."""
        with pytest.raises(ApiError) as caught:
            RecommendRequest.from_payload({"user_id": 1, "at_time": bad})
        assert caught.value.status == 422
        assert "at_time must be a finite number" in details_of(caught.value)

    def test_multiple_errors_all_reported(self):
        with pytest.raises(ApiError) as caught:
            RecommendRequest.from_payload({"top_k": 0, "event_ids": []})
        text = details_of(caught.value)
        assert "user_id" in text
        assert "top_k" in text
        assert "event_ids" in text


class TestScoreRequest:
    def test_valid(self):
        request = ScoreRequest.from_payload({"user_id": 1, "event_id": 2})
        assert (request.user_id, request.event_id) == (1, 2)

    def test_missing_event_id_is_422(self):
        with pytest.raises(ApiError) as caught:
            ScoreRequest.from_payload({"user_id": 1})
        assert caught.value.status == 422
        assert "event_id is required" in details_of(caught.value)


class TestSimilarEventsRequest:
    def test_defaults(self):
        request = SimilarEventsRequest.from_payload({"event_id": 4})
        assert request.event_id == 4
        assert request.top_k == 3
        assert request.min_similarity == 0.0

    def test_overrides(self):
        request = SimilarEventsRequest.from_payload(
            {"event_id": 4, "top_k": 5, "min_similarity": 0.9}
        )
        assert request.top_k == 5
        assert request.min_similarity == 0.9

    def test_bad_min_similarity_is_422(self):
        with pytest.raises(ApiError) as caught:
            SimilarEventsRequest.from_payload(
                {"event_id": 4, "min_similarity": "high"}
            )
        assert caught.value.status == 422

    @pytest.mark.parametrize(
        "bad",
        [float("nan"), float("inf"), float("-inf"), 10**400],
        ids=["nan", "inf", "-inf", "overflowing-int"],
    )
    def test_non_finite_min_similarity_is_422(self, bad):
        with pytest.raises(ApiError) as caught:
            SimilarEventsRequest.from_payload(
                {"event_id": 4, "min_similarity": bad}
            )
        assert caught.value.status == 422
        assert "min_similarity must be a finite number" in details_of(
            caught.value
        )

    def test_zero_top_k_is_422(self):
        with pytest.raises(ApiError) as caught:
            SimilarEventsRequest.from_payload({"event_id": 4, "top_k": 0})
        assert caught.value.status == 422


class TestErrorEnvelope:
    def test_shape(self):
        body = error_envelope("validation", "nope", ["a", "b"])
        assert body == {
            "error": {"code": "validation", "message": "nope", "details": ["a", "b"]}
        }

    def test_details_omitted_when_empty(self):
        assert error_envelope("internal", "boom") == {
            "error": {"code": "internal", "message": "boom"}
        }

    def test_api_error_round_trip(self):
        error = ApiError(422, "validation", "bad", ["x"])
        assert error.envelope()["error"]["details"] == ["x"]


# What json.loads can hand a route: any scalar it decodes (bools, ints
# of any size, NaN/±inf floats, strings, null), nested in lists and in
# objects keyed mostly by the schemas' real field names so the
# per-field checks are reached, not just the "is it an object" one.
json_scalars = (
    st.none()
    | st.booleans()
    | st.integers(-(10**400), 10**400)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=8)
)
field_names = st.sampled_from(
    ["user_id", "event_id", "top_k", "event_ids", "at_time", "min_similarity"]
) | st.text(max_size=8)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(field_names, inner, max_size=6),
    max_leaves=12,
)


class TestAnyPayloadProperty:
    @pytest.mark.parametrize(
        "schema", [RecommendRequest, ScoreRequest, SimilarEventsRequest]
    )
    @given(payload=json_values)
    def test_a_request_or_a_400_or_422_never_another_exception(
        self, schema, payload
    ):
        try:
            request = schema.from_payload(payload)
        except ApiError as error:
            assert error.status == (400 if not isinstance(payload, dict) else 422)
            assert error.envelope()["error"]["code"] in ("bad_request", "validation")
        else:
            assert isinstance(request, schema)
