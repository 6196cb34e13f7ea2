"""Related-events search with the self-supervised Siamese event model.

Section 3.2.1: the Siamese initializer "alone is already an excellent
event-only semantic model.  It improves the semantic-search in events
('related events' in which user information is not considered)".

This example trains the Siamese tower on (title, body) pairings only —
no user feedback — then:

1. retrieves semantically similar events for a seed event (Table 3),
   reporting the lexical overlap of each hit;
2. traces the pooled activations of one event text back to its top
   contributing words per convolution window size (Figure 7).

Run:  python examples/related_events.py
"""

from repro.core.analysis import format_trace, trace_top_words
from repro.core.config import JointModelConfig, TrainingConfig
from repro.core.siamese import SiameseEventInitializer
from repro.core.similar_events import SimilarEventIndex
from repro.datagen.config import DataConfig
from repro.datagen.dataset import build_dataset
from repro.text.documents import DocumentEncoder


def main() -> None:
    dataset = build_dataset(
        DataConfig(
            num_users=50,  # users are irrelevant here; keep them few
            num_events=400,
            num_pages=30,
            num_cities=4,
            audience_size=5,
            seed=21,
        )
    )
    events = dataset.events
    encoder = DocumentEncoder.fit([], events, min_df=2)

    config = JointModelConfig(
        embedding_dim=16,
        module_dim=16,
        hidden_dim=32,
        representation_dim=16,
        dtype="float32",
        seed=0,
    )
    initializer = SiameseEventInitializer(config, encoder)
    print(f"Training Siamese event model on {len(events)} events "
          "(title/body pairing, no user feedback) ...")
    history = initializer.fit(
        events, TrainingConfig(epochs=5, learning_rate=0.02, seed=0)
    )
    print(f"  losses per epoch: {[round(l, 3) for l in history.losses]}")

    # ------------------------------------------------------------------
    # Table-3 style: similar events for a seed, with lexical overlap.
    # ------------------------------------------------------------------
    vectors = initializer.encode_texts([e.text_document() for e in events])
    index = SimilarEventIndex(events, vectors)
    seed = events[0]
    print(f"\nSeed event [{seed.category}]: {seed.title}")
    print(f"  {seed.description[:90]} ...")
    print("Most similar events (cosine / word-overlap):")
    for hit in index.query(seed.event_id, top_k=4):
        print(
            f"  {hit.similarity:.3f} / {hit.word_overlap:.2f}  "
            f"[{hit.event.category:<16s}] {hit.event.title}"
        )
    high = index.pairs_above(0.95)
    print(f"\n{len(high)} event pairs exceed similarity 0.95 corpus-wide "
          "(the paper's Table-3 harvesting threshold).")

    # ------------------------------------------------------------------
    # Figure-7 style: trace pooled activations back to words.
    # ------------------------------------------------------------------
    sample = max(events, key=lambda e: len(e.description))
    text = sample.text_document()
    trace = trace_top_words(initializer.tower, encoder, text, top_k=5)
    print(f"\nTop words per convolution window for: {sample.title!r}")
    for window, attributions in sorted(trace.items()):
        rendered = ", ".join(
            f"{a.word}({a.weight:.1f})" for a in attributions
        )
        print(f"  window {window}: {rendered}")
    print("\nAnnotated text (Figure-7 style):")
    print(" ", format_trace(text, trace, max_chars=320))


if __name__ == "__main__":
    main()
