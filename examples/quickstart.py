"""Quickstart: train a joint representation model and recommend events.

Builds a small synthetic social-network world, trains the two-tower
CNN representation model on four weeks of impressions, and then ranks
the *currently active* events for a user through the cached serving
facade — the end-to-end path of the paper in miniature.

Run:  python examples/quickstart.py
"""

from repro.core import (
    JointModelConfig,
    JointUserEventModel,
    RepresentationService,
    RepresentationTrainer,
    TrainingConfig,
)
from repro.datagen import DataConfig, build_dataset
from repro.datagen.config import HOURS_PER_WEEK
from repro.text import DocumentEncoder


def main() -> None:
    # 1. A synthetic world standing in for production traffic.
    print("Building synthetic world ...")
    dataset = build_dataset(
        DataConfig(
            num_users=300,
            num_events=240,
            num_pages=60,
            num_cities=4,
            audience_size=30,
            seed=7,
        )
    )
    summary = dataset.summary()
    print(
        f"  {summary['num_users']:.0f} users, {summary['num_events']:.0f} events, "
        f"{summary['num_impressions']:.0f} impressions "
        f"(positive rate {summary['positive_rate']:.2f})"
    )

    # 2. Date-disjoint split and representation training (Section 5.1).
    splits = dataset.split()
    train_events = [
        e for e in dataset.events if e.created_at < splits.representation_end
    ]
    encoder = DocumentEncoder.fit(dataset.users, train_events, min_df=2)
    print(f"  lookup tables: {encoder.vocab_sizes()}")

    model = JointUserEventModel(
        JointModelConfig(
            embedding_dim=16,
            module_dim=16,
            hidden_dim=32,
            representation_dim=16,
            dtype="float32",
            seed=0,
        ),
        encoder,
    )
    pairs_u, pairs_e, labels = encoder.encode_pairs(
        splits.representation_train, dataset.users_by_id, dataset.events_by_id
    )
    print(f"Training on {len(labels)} impression pairs ...")
    trainer = RepresentationTrainer(
        model, TrainingConfig(epochs=6, batch_size=64, learning_rate=0.015, seed=0)
    )
    history = trainer.fit(pairs_u, pairs_e, labels)
    print(
        f"  {history.epochs_run} epochs, "
        f"final validation loss {history.validation_losses[-1]:.4f}"
    )

    # 3. Serve recommendations through the cached facade (Section 4).
    service = RepresentationService(model)
    service.warm(dataset.users, dataset.events)
    user = dataset.users[0]
    now = 5.2 * HOURS_PER_WEEK  # a moment inside the evaluation week
    ranked = service.rank_events(user, dataset.events, at_time=now, top_k=5)

    print(f"\nUser {user.user_id} (keywords: {', '.join(user.keywords[:5])})")
    print(f"Top recommendations at t={now:.0f}h (active events only):")
    for scored in ranked:
        print(
            f"  {scored.score:+.3f}  [{scored.event.category:<16s}] "
            f"{scored.event.title}"
        )
    print(
        f"\nCache: {service.cache.stats.hits} hits / "
        f"{service.cache.stats.lookups} lookups"
    )


if __name__ == "__main__":
    main()
