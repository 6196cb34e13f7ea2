"""Ablation — CNN representation vs bag-of-words semantic baselines.

The paper's core argument (Sections 1-2): retrieval matchers and
PLSA/LDA topic models "have limited expressive power" and suffer the
user-homogeneity restriction, whereas the joint CNN model matches
heterogeneous user data to event text directly.

Reproduction: rank the evaluation impressions with five raw matchers —
no combiner, single score each — and compare AUC:

* joint CNN representation (cosine of cached vectors);
* TF-IDF cosine between user document and event text;
* LDA and PLSA aggregated-event user topics vs event topics;
* popularity (event joins so far + user propensity).
"""

import numpy as np

from repro.baselines.lda import LdaModel
from repro.baselines.plsa import PlsaModel
from repro.baselines.popularity import PopularityModel
from repro.baselines.topic_matcher import AggregatedTopicMatcher
from repro.eval.metrics import roc_auc
from repro.features.context import FeatureContext

from .conftest import write_result


def test_semantic_matchers_head_to_head(
    benchmark, prepared_experiment, bench_dataset, bench_scale
):
    splits = prepared_experiment.splits
    evaluation = splits.evaluation
    history = splits.representation_train
    labels = np.array([1.0 if i.participated else 0.0 for i in evaluation])
    train_events = [
        e for e in bench_dataset.events if e.created_at < splits.representation_end
    ]

    def run_all():
        aucs = {}
        provider = prepared_experiment.provider
        aucs["CNN representation"] = roc_auc(
            labels,
            np.array(
                [provider.similarity(i.user_id, i.event_id) for i in evaluation]
            ),
        )
        context = FeatureContext(bench_dataset.users, bench_dataset.events)
        aucs["TF-IDF match"] = roc_auc(
            labels,
            np.array(
                [context.tfidf_match(i.user_id, i.event_id) for i in evaluation]
            ),
        )
        for name, backend in (
            ("LDA", LdaModel(num_topics=12, num_iterations=25, min_df=2, seed=0)),
            ("PLSA", PlsaModel(num_topics=12, num_iterations=25, min_df=2, seed=0)),
        ):
            matcher = AggregatedTopicMatcher(backend).fit(train_events, history)
            aucs[f"{name} agg. matcher"] = roc_auc(
                labels,
                np.array(
                    [
                        matcher.score(
                            i.user_id, bench_dataset.events_by_id[i.event_id]
                        )
                        for i in evaluation
                    ]
                ),
            )
        popularity = PopularityModel().fit(history)
        aucs["Popularity"] = roc_auc(
            labels,
            np.array(
                [
                    popularity.score(
                        i.user_id, bench_dataset.events_by_id[i.event_id]
                    )
                    for i in evaluation
                ]
            ),
        )
        return aucs

    aucs = benchmark.pedantic(run_all, rounds=1, iterations=1)
    report = "ABLATION — raw semantic matchers, evaluation-split AUC\n" + "\n".join(
        f"  {name:<20} AUC = {auc:.4f}" for name, auc in aucs.items()
    )
    write_result("ablation_semantic_models", report)
    print("\n" + report)

    if bench_scale == "ci":
        return
    # The learned representation must clearly beat the cold-start-blind
    # popularity ranker, and stay competitive with the LDA matcher.
    # (At 10⁴ training pairs — versus the paper's 2×10⁷ — verbatim
    # lexical matchers are hard to beat on a synthetic corpus whose
    # topic words are shared between user and event vocabularies; see
    # EXPERIMENTS.md "known deviations".)
    assert aucs["CNN representation"] > aucs["Popularity"] + 0.05
    assert aucs["CNN representation"] > aucs["LDA agg. matcher"] - 0.05
