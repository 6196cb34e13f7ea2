"""Figure-7 pooling trace-back analysis."""

import dataclasses

import numpy as np
import pytest

from repro.core.analysis import format_trace, trace_top_words
from repro.core.config import JointModelConfig
from repro.core.model import JointUserEventModel
from repro.text.documents import DocumentEncoder
from repro.text.normalize import split_words


@pytest.fixture()
def tower_and_encoder(tiny_users, tiny_events):
    encoder = DocumentEncoder.fit(tiny_users, tiny_events, min_df=1)
    model = JointUserEventModel(JointModelConfig.small(seed=5), encoder)
    return model.event_tower, encoder


class TestTraceTopWords:
    def test_one_entry_per_window_size(self, tower_and_encoder):
        tower, encoder = tower_and_encoder
        trace = trace_top_words(
            tower, encoder, "live jazz trio plays saxophone downtown", top_k=3
        )
        assert set(trace) == {1, 3}  # small config windows

    def test_top_words_come_from_the_text(self, tower_and_encoder):
        tower, encoder = tower_and_encoder
        text = "first annual seattle ice cream festival at chophouse row"
        trace = trace_top_words(tower, encoder, text, top_k=5)
        words = set(split_words(text))
        for attributions in trace.values():
            assert attributions
            for attribution in attributions:
                assert attribution.word in words
                assert attribution.weight > 0.0

    def test_contributions_sum_to_module_dim(self, tower_and_encoder):
        """Hard argmax mode distributes exactly out_dim units of credit
        per module (1/d per word over d-word windows, 64 dims in the
        paper)."""
        tower, encoder = tower_and_encoder
        text = "jazz night with a live trio downtown"
        trace = trace_top_words(
            tower, encoder, text, top_k=len(split_words(text))
        )
        for window, attributions in trace.items():
            total = sum(a.weight for a in attributions)
            module_dim = tower.text_modules[0].out_dim
            assert total == pytest.approx(module_dim, rel=1e-6)

    def test_short_text_single_word(self, tower_and_encoder):
        tower, encoder = tower_and_encoder
        trace = trace_top_words(tower, encoder, "jazz")
        for attributions in trace.values():
            assert [a.word for a in attributions] == ["jazz"]

    def test_empty_text_rejected(self, tower_and_encoder):
        tower, encoder = tower_and_encoder
        with pytest.raises(ValueError, match="empty"):
            trace_top_words(tower, encoder, "  !! ")

    def test_top_k_truncates(self, tower_and_encoder):
        tower, encoder = tower_and_encoder
        trace = trace_top_words(
            tower, encoder, "live jazz trio plays saxophone downtown", top_k=2
        )
        for attributions in trace.values():
            assert len(attributions) <= 2


# trace_top_words(top_k=3) of the padded-layout implementation on
# three fixed texts, windows (1, 3, 5): the packed layout must credit
# the same words with the same weights.
PARENT_TRACES = {
    "live jazz trio plays saxophone downtown tonight": {
        1: [("saxophone", 3.0), ("trio", 2.0), ("jazz", 1.0)],
        3: [("trio", 2.0), ("plays", 1.5), ("tonight", 1.5)],
        5: [("tonight", 3.5), ("downtown", 3.0), ("jazz", 0.5)],
    },
    "sample gourmet dishes from local chefs at the night market": {
        1: [("gourmet", 4.0), ("dishes", 3.0), ("chefs", 1.0)],
        3: [("dishes", 2.5), ("gourmet", 1.0), ("chefs", 1.0)],
        5: [("gourmet", 3.0), ("local", 1.0), ("chefs", 1.0)],
    },
    "jazz": {1: [("jazz", 8.0)], 3: [("jazz", 8.0)], 5: [("jazz", 8.0)]},
}


@pytest.mark.parametrize("text", list(PARENT_TRACES))
def test_trace_matches_the_padded_layout(tiny_users, tiny_events, text):
    encoder = DocumentEncoder.fit(tiny_users, tiny_events, min_df=1)
    config = dataclasses.replace(JointModelConfig.small(seed=5), text_windows=(1, 3, 5))
    tower = JointUserEventModel(config, encoder).event_tower
    trace = trace_top_words(tower, encoder, text, top_k=3)
    assert {
        window: [(a.word, a.weight) for a in attributions]
        for window, attributions in trace.items()
    } == PARENT_TRACES[text]


class TestFormatTrace:
    def test_annotates_with_window_subscripts(self, tower_and_encoder):
        tower, encoder = tower_and_encoder
        text = "live jazz trio plays saxophone downtown"
        trace = trace_top_words(tower, encoder, text, top_k=2)
        rendered = format_trace(text, trace)
        assert "**" in rendered and "_{" in rendered

    def test_truncation(self, tower_and_encoder):
        tower, encoder = tower_and_encoder
        text = "jazz " * 100
        trace = trace_top_words(tower, encoder, text, top_k=1)
        rendered = format_trace(text, trace, max_chars=50)
        assert len(rendered) <= 53
