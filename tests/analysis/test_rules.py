"""The single-file analyses over good/bad fixture programs."""

import pytest


@pytest.mark.parametrize(
    "fixture",
    [
        "rpr101_good.pytxt",
        "rpr103_good.pytxt",
        "rpr105_good.pytxt",
        "rpr108_good.pytxt",
        "rpr109_good.pytxt",
    ],
)
def test_good_fixtures_are_clean(analyze_fixture, fixture):
    assert analyze_fixture(fixture) == []


@pytest.mark.parametrize(
    "fixture, code, count",
    [
        ("rpr101_bad.pytxt", "RPR101", 4),
        ("rpr103_bad.pytxt", "RPR103", 4),
        ("rpr105_bad.pytxt", "RPR105", 2),
        ("rpr108_bad.pytxt", "RPR108", 5),
        ("rpr109_bad.pytxt", "RPR109", 5),
    ],
)
def test_bad_fixtures_flagged(analyze_fixture, fixture, code, count):
    findings = analyze_fixture(fixture)
    assert [f.code for f in findings] == [code] * count


class TestRpr101Regression:
    """RPR101 must catch the actual pre-PR-3 serving-score bug."""

    FIXTURE = "rpr101_service_score_pre_pr3.pytxt"

    def test_pre_pr3_score_is_flagged(self, analyze_fixture):
        findings = analyze_fixture(self.FIXTURE)
        assert [f.code for f in findings] == ["RPR101"]
        # the flagged expression is the dot-over-norm division inside
        # score(), i.e. the `user_vec @ event_vec / denom` line
        assert findings[0].line == 25
        assert "repro.nn.cosine" in findings[0].message

    def test_not_flagged_in_test_scope(self, analyze_fixture):
        # the same code pasted into a test file (e.g. as an oracle)
        # is legitimate — RPR101 is production-scoped
        assert analyze_fixture(self.FIXTURE, scope="test") == []


class TestRuleScoping:
    @pytest.mark.parametrize(
        "fixture",
        [
            "rpr101_bad.pytxt",   # reference cosines allowed in tests
            "rpr103_bad.pytxt",   # toy metric names allowed in tests
            "rpr105_bad.pytxt",   # exact float oracles
            "rpr108_bad.pytxt",   # stub span names allowed in tests
            "rpr109_bad.pytxt",   # fake verdict metrics allowed in tests
        ],
    )
    def test_src_only_rules_skip_test_scope(self, analyze_fixture, fixture):
        assert analyze_fixture(fixture, scope="test") == []


class TestRpr101Detector:
    def test_fused_index_form_needs_suppression(self, analyze_fixture):
        # the EventIndex GEMV form: dot via @, scale/norm division
        findings = analyze_fixture("rpr101_bad.pytxt")
        lines = [f.line for f in findings]
        assert lines == sorted(lines)

    def test_self_dot_is_not_similarity(self, analyze_fixture):
        # norm_only() in the good fixture divides a @ a by a count —
        # self-products are norm machinery, not cosine
        assert analyze_fixture("rpr101_good.pytxt") == []
