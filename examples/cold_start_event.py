"""Cold-start demo: scoring a brand-new event nobody has seen.

The paper's central motivation (Section 1): events have short
lifespans, so by the time feedback accumulates the event has expired.
This example creates an event *after* all training data ends and
compares three scorers on it:

* popularity baseline        — structurally blind (no feedback yet);
* LDA aggregated matcher     — works only for users with history
                               (the homogeneity restriction);
* joint representation model — scores every user from text +
                               heterogeneous attributes alone.

Takes a few minutes: the joint model needs a moderate amount of
impression data before the user tower carries real semantic signal.

Run:  python examples/cold_start_event.py
"""

import numpy as np

from repro.baselines.lda import LdaModel
from repro.baselines.popularity import PopularityModel
from repro.baselines.topic_matcher import AggregatedTopicMatcher
from repro.core.config import JointModelConfig, TrainingConfig
from repro.core.model import JointUserEventModel
from repro.core.service import RepresentationService
from repro.core.siamese import SiameseEventInitializer
from repro.core.trainer import RepresentationTrainer
from repro.datagen.config import DataConfig
from repro.datagen.dataset import build_dataset
from repro.entities import Event
from repro.text.documents import DocumentEncoder


def main() -> None:
    dataset = build_dataset(
        DataConfig(
            num_users=700,
            num_events=500,
            num_pages=110,
            num_cities=5,
            audience_size=45,
            seed=13,
        )
    )
    splits = dataset.split()
    history = splits.representation_train

    # --- the cold event: created after every observed impression -----
    cold_event = Event(
        event_id=99999,
        title="bebop trumpet quartet",
        description=(
            "an intimate evening of bebop and improvisation with a "
            "trumpet quartet swing standards and blues to close the night"
        ),
        category="music_live",
        created_at=dataset.config.total_hours,
        starts_at=dataset.config.total_hours + 72.0,
        location=(10.0, 10.0),
        host_id=0,
    )
    print(f"Cold event: {cold_event.title!r} ({cold_event.category})")
    print("No impression, click, or join has ever touched it.\n")

    # --- baseline 1: popularity -------------------------------------
    popularity = PopularityModel().fit(history)
    print(
        "Popularity baseline: event popularity = "
        f"{popularity.event_popularity(cold_event):.3f}  "
        "(zero — nothing to rank with)"
    )

    # --- baseline 2: LDA matcher (user = aggregate of attended events)
    train_events = [
        e for e in dataset.events if e.created_at < splits.representation_end
    ]
    matcher = AggregatedTopicMatcher(
        LdaModel(num_topics=8, num_iterations=30, min_df=2, seed=0)
    ).fit(train_events, history)
    warm_users = [
        user.user_id
        for user in dataset.users
        if not np.allclose(
            matcher.user_mixture(user.user_id), matcher.user_mixture(-1)
        )
    ]
    print(
        f"LDA matcher: can represent only {len(warm_users)}/"
        f"{len(dataset.users)} users (those with attendance history); "
        "the rest fall back to a uniform mixture."
    )

    # --- the joint representation model -----------------------------
    encoder = DocumentEncoder.fit(dataset.users, train_events, min_df=2)
    config = JointModelConfig.bench(seed=0)
    model = JointUserEventModel(config, encoder)
    # Siamese warm start for the event tower (Section 3.2.1) — exactly
    # the remedy the paper proposes for limited user-event observations.
    initializer = SiameseEventInitializer(config, encoder)
    initializer.fit(train_events, TrainingConfig(epochs=4, learning_rate=0.02, seed=0))
    initializer.transfer_to(model)
    pairs_u, pairs_e, labels = encoder.encode_pairs(
        history, dataset.users_by_id, dataset.events_by_id
    )
    RepresentationTrainer(
        model,
        TrainingConfig(epochs=16, batch_size=64, learning_rate=0.015, patience=6, seed=0),
    ).fit(pairs_u, pairs_e, labels)

    service = RepresentationService(model)

    # Contrast two cohorts of users against two cold events.  Group
    # averages isolate the user-event *interaction* the joint model
    # learned from the per-user and per-event bias directions.
    cold_food = Event(
        event_id=99998,
        title="artisan dessert tasting",
        description=(
            "sample gourmet chocolate pastry and icecream from local "
            "bakery makers a sweet tasting feast for dessert lovers"
        ),
        category="food_tasting",
        created_at=dataset.config.total_hours,
        starts_at=dataset.config.total_hours + 72.0,
        location=(10.0, 10.0),
        host_id=0,
    )
    music_topic, food_topic = 0, 1  # ground-truth topic order
    music_lovers = [
        dataset.users[i]
        for i in np.argsort(-dataset.user_mixtures[:, music_topic])[:25]
    ]
    food_lovers = [
        dataset.users[i]
        for i in np.argsort(-dataset.user_mixtures[:, food_topic])[:25]
    ]

    def mean_score(cohort, event):
        return float(np.mean([service.score(user, event) for user in cohort]))

    mm = mean_score(music_lovers, cold_event)
    mf = mean_score(music_lovers, cold_food)
    fm = mean_score(food_lovers, cold_event)
    ff = mean_score(food_lovers, cold_food)
    print("\nJoint model: cohort × cold-event score matrix (25 users each):")
    print(f"                      {'music event':>12s} {'food event':>12s}")
    print(f"  music-loving users  {mm:+12.4f} {mf:+12.4f}")
    print(f"  food-loving users   {fm:+12.4f} {ff:+12.4f}")
    interaction = (mm - mf) - (fm - ff)
    print(
        f"\nInteraction contrast (music users prefer the music event "
        f"more than food users do): {interaction:+.4f} "
        f"({'correct sign' if interaction > 0 else 'noise at this scale'})"
    )
    print(
        "Both cold events received a usable score for every user — the "
        "popularity and CF paths had nothing."
    )


if __name__ == "__main__":
    main()
